"""The check runner: pooled scenarios, their lifetime and alignment, and the CLI.

The suites pool every user of every seed into one stack and run the
detectors on slices of it. These tests pin that the pools are built once
per `run_all_checks` call and not kept past it, that each pooled row stays
aligned with its own reference filter (a perturbed filter at either end of
the pool must fail the suites that read it), and what `mimosim check`
prints and returns.
"""

import numpy as np
import pytest

from mimosim import checks
from mimosim.cli import main

EZF_SEEDS = len(checks.DEFAULT_SCENARIO_SEEDS)
NECESSITY_SEEDS = 20
USERS_PER_SEED = 8


def _perturb_nth_filter(fn, n: int):
    """`fn` with the n-th filter it returns, counted over all its calls, scaled by 1 + 1e-3.

    A call's filters come as a stack or a tuple; the perturbed call returns a stack.
    """
    seen = 0

    def wrapper(*args, **kwargs):
        nonlocal seen
        filters = fn(*args, **kwargs)
        i = n - 1 - seen
        seen += len(filters)
        if 0 <= i < len(filters):
            filters = np.array(filters)
            filters[i] *= 1.0 + 1e-3
        return filters

    return wrapper


def test_scenarios_built_once_per_run_and_not_kept(monkeypatch):
    seeds = []
    real = checks.generate_channels

    def counting(scenario):
        seeds.append(scenario.seed)
        return real(scenario)

    monkeypatch.setattr(checks, "generate_channels", counting)
    first = checks.run_all_checks()
    assert len(seeds) == EZF_SEEDS + NECESSITY_SEEDS
    assert sorted(set(seeds)) == list(checks.DEFAULT_SCENARIO_SEEDS)
    second = checks.run_all_checks()
    assert len(seeds) == 2 * (EZF_SEEDS + NECESSITY_SEEDS)
    assert first == second
    assert all(res.passed for res in first)


@pytest.mark.parametrize(
    "seed, user", [(1, 0), (EZF_SEEDS, USERS_PER_SEED - 1)], ids=["first", "last"]
)
@pytest.mark.parametrize(
    "suite",
    [checks.identity_suite, checks.mmse_irc_noiseless_suite, checks.qr_mld_limit_suite],
    ids=lambda s: s.__name__,
)
def test_perturbed_reference_filter_fails(monkeypatch, suite, seed, user):
    n = (seed - 1) * USERS_PER_SEED + user + 1
    monkeypatch.setattr(checks, "reference_ic", _perturb_nth_filter(checks.reference_ic, n))
    res = suite()
    assert not res.passed, res.detail


def test_perturbed_qr_filter_fails_factor_identity(monkeypatch):
    monkeypatch.setattr(checks, "qr_mld_linear", _perturb_nth_filter(checks.qr_mld_linear, 100))
    res = checks.qr_factor_identity_suite()
    assert not res.passed, res.detail


def test_cli_check_passes(capsys):
    assert main(["check"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("[PASS] ") for line in lines) == 9
    assert lines[-1] == "all 9 suites passed"


def test_cli_check_reports_failed_suite(monkeypatch, capsys):
    def failing():
        return checks.CheckResult("forced", False, "residual 1.0 (threshold 0)")

    monkeypatch.setattr(checks, "ALL_SUITES", (failing, *checks.ALL_SUITES[1:]))
    assert main(["check"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert "[FAIL] forced: residual 1.0 (threshold 0)" in lines
    assert sum(line.startswith("[PASS] ") for line in lines) == 8
    assert lines[-1] == "1 of 9 suites failed"
