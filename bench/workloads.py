"""The benchmark's workloads: generated inputs, one timed pass, and the gate.

A sweep workload drives `experiment.run_sweep` + `experiment.rows_to_csv` on
a config generated from the workload seed; the program sees only that
config text. The `check` workload drives `checks.run_all_checks`, whose
inputs are fixed by the program, so the seed does not change them.

Import this module only after `envsetup.pin_process()`.
"""

import dataclasses
import hashlib
import inspect
import math
from pathlib import Path

import numpy as np

from mimosim import checks, experiment

DEFAULT_SEED = 1
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
# ROADMAP's golden-curve tolerance.
REFERENCE_RTOL = 1e-9

# Scenario per sweep workload. `trials` sizes one timed pass to ~0.4 s on a
# 2.0 GHz Xeon vCPU.
SWEEPS = {
    "fig3": {
        "users": "4x2 *8",
        "precoders": "ezf",
        "detectors": "mmse-irc, qr-mld",
        "trials": 2,
    },
    "fig5": {
        "users": "4x2 *16",
        "precoders": "ezf, mrt",
        "detectors": "mmse",
        "trials": 1,
    },
    "mixed": {
        "users": "4x2 *4, 2x1 *4, 8x4 *2",
        "precoders": "ezf, mrt",
        "detectors": "gen-lse(0.1), lse-limit",
        "trials": 1,
    },
}
WORKLOADS = (*SWEEPS, "check")

_NUMERIC_FIELDS = (
    "su_sinr_db",
    "mu_se_mean",
    "su_se_mean",
    "ratio_mean",
    "interference_power_mean",
)


def config_text(name: str, seed: int, trials: int) -> str:
    """The `mimosim run` config of a sweep workload."""
    spec = SWEEPS[name]
    return (
        "t = 64\n"
        f"users = {spec['users']}\n"
        "power = 1.0\n"
        "grid = 0:40:5\n"
        f"precoders = {spec['precoders']}\n"
        f"detectors = {spec['detectors']}\n"
        f"trials = {trials}\n"
        f"seed = {seed}\n"
    )


def reference_text(rows) -> str:
    """Sweep rows in the CSV schema with every float at full precision."""
    lines = [experiment.CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.precoder},{r.detector},"
            + ",".join(repr(float(getattr(r, f))) for f in _NUMERIC_FIELDS)
            + f",{r.trials},{r.base_seed}"
        )
    return "\n".join(lines) + "\n"


def _parse_reference(text: str) -> list[list[str]]:
    lines = text.splitlines()
    if not lines or lines[0] != experiment.CSV_HEADER:
        raise ValueError("reference CSV header does not match the pinned schema")
    return [line.split(",") for line in lines[1:]]


def _row_matches(row, ref: list[str]) -> bool:
    if len(ref) != 9 or [row.precoder, row.detector] != ref[:2]:
        return False
    if [str(row.trials), str(row.base_seed)] != ref[7:]:
        return False
    got = np.array([getattr(row, f) for f in _NUMERIC_FIELDS])
    want = np.array([float(v) for v in ref[2:7]])
    return bool(np.allclose(got, want, rtol=REFERENCE_RTOL, atol=0.0))


class SweepWorkload:
    """One `run_sweep` + `rows_to_csv` pass over a generated config."""

    def __init__(self, name: str, seed: int, trials: int | None = None):
        self.trials = SWEEPS[name]["trials"] if trials is None else trials
        self.text = config_text(name, seed, self.trials)
        self.config = None
        self._reference = None
        if seed == DEFAULT_SEED and self.trials == SWEEPS[name]["trials"]:
            self._reference = _parse_reference((REFERENCE_DIR / f"{name}.csv").read_text())

    def setup(self) -> None:
        """Parse the config and warm up with one pass at one trial."""
        self.config = experiment.parse_config(self.text)
        experiment.rows_to_csv(experiment.run_sweep(dataclasses.replace(self.config, trials=1)))

    @property
    def ops_per_pass(self) -> int:
        c = self.config
        return len(c.precoders) * len(c.detectors) * len(c.su_sinr_grid_db)

    @property
    def reports_per_pass(self) -> int:
        return self.ops_per_pass * self.config.trials

    @property
    def gate(self) -> str:
        if self._reference is not None:
            return f"reference CSV at rtol {REFERENCE_RTOL:g} + pass-to-pass byte identity"
        return "pass-to-pass byte identity + finite values"

    def run_pass(self):
        rows = experiment.run_sweep(self.config)
        return rows, experiment.rows_to_csv(rows)

    def failed_ops(self, output) -> int:
        """CSV rows that are non-finite or, at the reference size, off the reference."""
        rows, _ = output
        if len(rows) != self.ops_per_pass or (
            self._reference is not None and len(self._reference) != len(rows)
        ):
            return self.ops_per_pass
        failed = 0
        for i, row in enumerate(rows):
            ok = all(math.isfinite(getattr(row, f)) for f in _NUMERIC_FIELDS)
            if ok and self._reference is not None:
                ok = _row_matches(row, self._reference[i])
            failed += not ok
        return failed

    @staticmethod
    def digest(output) -> str:
        """Hash of the CSV bytes, for pass-to-pass identity."""
        return hashlib.sha256(output[1].encode()).hexdigest()


class CheckWorkload:
    """One `run_all_checks` pass: the nine theorem suites."""

    gate = "every suite passed + pass-to-pass identical results"

    def setup(self) -> None:
        """Warm up with every suite on its first scenario only."""
        for suite in checks.ALL_SUITES:
            params = inspect.signature(suite).parameters
            suite(**({"seeds": (DEFAULT_SEED,)} if "seeds" in params else {"count": 1}))

    @property
    def ops_per_pass(self) -> int:
        return len(checks.ALL_SUITES)

    reports_per_pass = ops_per_pass

    def run_pass(self):
        return checks.run_all_checks()

    def failed_ops(self, results) -> int:
        if len(results) != self.ops_per_pass:
            return self.ops_per_pass
        return sum(not res.passed for res in results)

    @staticmethod
    def digest(results) -> str:
        """Hash of every suite's name, verdict and residual text."""
        text = "\n".join(f"{r.name}|{r.passed}|{r.detail}" for r in results)
        return hashlib.sha256(text.encode()).hexdigest()


def make(name: str, seed: int, trials: int | None = None):
    """Workload `name`; `seed` and `trials` apply to the sweeps only."""
    if name == "check":
        return CheckWorkload()
    return SweepWorkload(name, seed, trials)
