"""What the benchmark relies on in mimosim.

`bench/tracer.py` names its spans by module and function, the check
workload of `bench/workloads.py` warms up by calling every suite with
`seeds=(1,)` or `count=1`, and each sweep workload's pass at the default
seed must match its `bench/reference/*.csv` rows. A rename, a deletion or
a drifted row in `src/mimosim` would otherwise show only when the benchmark
runs. Both files are loaded from their paths, as the benchmark loads them.

The benchmark's set-up time and peak memory include what `import mimosim`
loads; scipy is a test dependency only, and the package must not pull it in.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mimosim
from mimosim import linalg
from mimosim.errors import SingularMatrixError

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"mimosim_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_targets_and_error_sites_resolve():
    tracer = _bench_module("tracer")
    names = [f"{mod}.{fn}" for mod, fns in tracer.TARGETS.items() for fn in fns]
    for name in names + list(tracer.ERROR_SITES):
        mod, fn = name.split(".")
        target = getattr(importlib.import_module(f"mimosim.{mod}"), fn, None)
        assert callable(target), f"tracer target {name} is not a mimosim function"


def test_check_workload_warm_up_runs():
    # Every suite must keep the `seeds` or `count` parameter the warm-up passes.
    _bench_module("workloads").CheckWorkload().setup()


@pytest.mark.parametrize("name", ["fig3", "fig5", "mixed"])
def test_sweep_workload_pass_matches_its_reference(name):
    # mixed is the only reference with more than one shape group.
    workloads = _bench_module("workloads")
    workload = workloads.make(name, workloads.DEFAULT_SEED)
    workload.setup()
    assert workload.gate.startswith("reference CSV")
    assert workload.failed_ops(workload.run_pass()) == 0


def test_self_check_guard_site_raises():
    # The tracer's self-check counts this solve as one guard-site error.
    with pytest.raises(SingularMatrixError):
        linalg.solve_hermitian(np.zeros((2, 2)), np.ones((2, 1)))


def test_import_loads_no_scipy():
    # The child imports this same mimosim, from its source directory.
    path = [str(Path(mimosim.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = "import sys, mimosim; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
