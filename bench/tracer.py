"""Outside-in per-layer tracing for the mimosim benchmark.

The tracer wraps each layer's public functions from outside the package:
no file under ``src/`` changes. ``from .x import f`` copies a binding into
the importing module, so a wrapper is installed under every name, in every
``mimosim`` module, that is bound to the original function object. Calls
that resolve through module globals (``mrt_precode`` -> ``reduce_ezf``,
``solve_hermitian`` -> ``cond``) then reach the wrapper as well.

Import this module only after `envsetup.pin_process()`.

Each wrapper records one span per call on a shared stack. A function's self
time is its span's duration minus the durations of the spans it directly
encloses. Exceptions propagate unchanged; at the guard sites they are also
counted.
"""

import functools
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from mimosim import errors, linalg

# Layer module -> public functions whose calls and self time are recorded.
TARGETS = {
    "system": ("generate_channels", "calibrate_noise"),
    "precoding": ("reduce_ezf", "rczf_precode", "mrt_precode"),
    "detection": (
        "build_covariance",
        "mmse_irc",
        "plain_mmse",
        "gen_lse",
        "lse_limit",
        "qr_mld_linear",
        "qr_mld_parts",
        "reference_ic",
    ),
    "metrics": ("su_mu_report", "effective_links", "sinr_per_layer"),
    "linalg": (
        "svd_reduced",
        "qr",
        "cholesky",
        "pinv",
        "cond",
        "is_full_rank",
        "solve_hermitian",
    ),
    "experiment": ("run_sweep", "rows_to_csv"),
}

# Functions that raise on a numerical guard; their exception counts are reported.
ERROR_SITES = (
    "linalg.solve_hermitian",
    "detection.lse_limit",
    "detection.qr_mld_parts",
    "precoding.reduce_ezf",
    "precoding.rczf_precode",
)

# Per-call durations are kept for this span, for its latency percentiles.
LATENCY_SPAN = "metrics.su_mu_report"

FUNCTIONS = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0
    errors: int = 0
    durations: list = field(default_factory=list)


class Tracer:
    """Installs and removes span-recording wrappers on the mimosim modules."""

    def __init__(self):
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self._originals: dict[str, object] = {}
        self.stats: dict[str, SpanStats] = {}

    def _modules(self) -> list:
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "mimosim" or name.startswith("mimosim."))
        ]

    def wrap(self, name: str, fn):
        """Return a wrapper that records one span of `name` per call of `fn`."""
        stats = self.stats.setdefault(name, SpanStats())
        stack = self._stack
        keep_durations = name == LATENCY_SPAN

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                stats.errors += 1
                raise
            finally:
                duration = time.perf_counter() - start
                children = stack.pop()
                stats.calls += 1
                stats.self_s += duration - children
                stats.total_s += duration
                if keep_durations:
                    stats.durations.append(duration)
                if stack:
                    stack[-1] += duration

        return wrapper

    def install(self) -> None:
        """Wrap every binding of every target, plus the check suites."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = self._modules()
        by_name = {mod.__name__.rpartition(".")[2]: mod for mod in modules}
        wrappers = {}
        for mod_name, fns in TARGETS.items():
            for fn in fns:
                original = getattr(by_name[mod_name], fn)
                name = f"{mod_name}.{fn}"
                self._originals[name] = original
                wrappers[id(original)] = self.wrap(name, original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        checks = by_name.get("checks")
        if checks is not None:
            suites = checks.ALL_SUITES
            self._patches.append((checks, "ALL_SUITES", suites))
            checks.ALL_SUITES = tuple(
                self.wrap(f"checks.{suite.__name__}", suite) for suite in suites
            )

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def unwrapped_bindings(self) -> list[str]:
        """Names in any mimosim module still bound to an unwrapped target."""
        originals = {id(fn): name for name, fn in self._originals.items()}
        missed = []
        for mod in self._modules():
            for attr, value in vars(mod).items():
                if id(value) in originals:
                    missed.append(f"{mod.__name__}.{attr} -> {originals[id(value)]}")
        return missed

    def reset(self) -> None:
        for stats in self.stats.values():
            stats.calls = stats.errors = 0
            stats.self_s = stats.total_s = 0.0
            stats.durations.clear()


def reraise_problems(tracer: Tracer) -> list[str]:
    """Check that wrappers pass exceptions through as the same object.

    Uses a throwaway wrapped function that raises a sentinel, then one real
    guard site (a singular solve) on the installed wrapper. Counters touched
    here are reset before returning.
    """
    problems = []
    sentinel = ValueError("tracer self-check sentinel")

    def raises():
        raise sentinel

    try:
        tracer.wrap("_selfcheck.raises", raises)()
        problems.append("wrapped sentinel did not raise")
    except Exception as exc:
        if exc is not sentinel:
            problems.append(f"wrapper replaced the sentinel exception with {exc!r}")
    del tracer.stats["_selfcheck.raises"]

    site = tracer.stats["linalg.solve_hermitian"]
    before = site.errors
    try:
        linalg.solve_hermitian(np.zeros((2, 2)), np.ones((2, 1)))
        problems.append("singular solve did not raise through the wrapper")
    except Exception as exc:
        if type(exc) is not errors.SingularMatrixError:
            problems.append(f"singular solve raised {exc!r}, not SingularMatrixError")
        elif site.errors != before + 1:
            problems.append("guard-site error was not counted")
    tracer.reset()
    return problems
