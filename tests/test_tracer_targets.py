"""Every function the benchmark tracer wraps exists in mimosim.

`bench/tracer.py` names its spans by module and function. A rename or a
deletion in `src/mimosim` would otherwise show only when the benchmark
runs. The tracer is loaded from its file, as the benchmark loads it.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from mimosim import linalg
from mimosim.errors import SingularMatrixError

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("mimosim_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_targets_and_error_sites_resolve():
    tracer = _tracer()
    names = [f"{mod}.{fn}" for mod, fns in tracer.TARGETS.items() for fn in fns]
    for name in names + list(tracer.ERROR_SITES):
        mod, fn = name.split(".")
        target = getattr(importlib.import_module(f"mimosim.{mod}"), fn, None)
        assert callable(target), f"tracer target {name} is not a mimosim function"


def test_self_check_guard_site_raises():
    # The tracer's self-check counts this solve as one guard-site error.
    with pytest.raises(SingularMatrixError):
        linalg.solve_hermitian(np.zeros((2, 2)), np.ones((2, 1)))
