"""The check runner: pooled scenarios, their lifetime and alignment, and the CLI.

The suites pool every user of every seed into one stack and pass each
pool whole to the detectors. These tests pin that the pools are built once
per `run_all_checks` call and not kept past it, that every detector call
carries a whole pool, that each pooled row stays aligned with its own
reference filter (a perturbed filter at either end of the pool must fail
the suites that read it), and what `mimosim check` prints and returns.
"""

import numpy as np
import pytest

from mimosim import checks, linalg, system
from mimosim.cli import main

EZF_SEEDS = len(checks.DEFAULT_SCENARIO_SEEDS)
NECESSITY_SEEDS = 20
USERS_PER_SEED = 8
SYNTHETIC_PAIRS = 100


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


def _perturb_nth_reference(n: int):
    """`checks.reference_ic` with the n-th pooled filter, counted over all its calls,
    scaled by 1 + 1e-3: the (seed, user) filters of a call's one shape group, seed-major."""
    real = checks.reference_ic

    def flat(reduced, scale):
        ((_, g),) = real(reduced, scale)
        return g.reshape(-1, *g.shape[-2:])

    perturbed = _perturb_nth_filter(flat, n)

    def wrapper(reduced, scale):
        ((users, _, b),) = reduced
        return ((users, perturbed(reduced, scale).reshape(b.shape)),)

    return wrapper


def test_scenarios_built_once_per_run_and_not_kept(monkeypatch):
    draws = []
    real = system._draw_user

    def counting(scenario, k, attempt):
        draws.append((scenario.seed, k, attempt))
        return real(scenario, k, attempt)

    monkeypatch.setattr(system, "_draw_user", counting)
    # Each default seed's users are drawn once: the necessity suite reads the pooled draws.
    once = sorted((seed, k, 0) for seed in checks.DEFAULT_SCENARIO_SEEDS for k in range(8))
    first = checks.run_all_checks()
    assert sorted(draws) == once
    assert checks._RUN_POOLS.get() is None
    second = checks.run_all_checks()
    assert sorted(draws) == sorted(2 * once)
    assert first == second
    assert all(res.passed for res in first)


def test_pool_decomposes_seeds_in_stacked_chunks(monkeypatch):
    # Per chunk of seeds: one SVD of all its users' channels and one of its
    # stacked reduced channels, so no seed is decomposed on its own.
    shapes = []
    real = linalg.svd_reduced

    def counting(m):
        shapes.append(np.shape(m))
        return real(m)

    monkeypatch.setattr(linalg, "svd_reduced", counting)
    assert all(res.passed for res in checks.run_all_checks())
    chunk = system.SEED_CHUNK
    assert shapes == [(chunk * USERS_PER_SEED, 4, 64), (chunk, 16, 64)] * (EZF_SEEDS // chunk)


def test_each_pool_goes_whole_to_one_detector_call(monkeypatch):
    rows = {name: [] for name in ("mmse_irc", "gen_lse", "lse_limit", "qr_mld_linear")}
    for name, seen in rows.items():

        def spy(a, *args, real=getattr(checks, name), seen=seen, **kwargs):
            seen.append(len(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(checks, name, spy)
    assert all(res.passed for res in checks.run_all_checks())
    scenarios = EZF_SEEDS * USERS_PER_SEED
    # mmse-irc: noiseless, then the rate suite's two sigmas; gen-lse: three lambdas,
    # then the limit suite; lse-limit: both synthetic suites; qr-mld: factor, then limit.
    assert rows == {
        "mmse_irc": [scenarios] * 3,
        "gen_lse": [scenarios] * 3 + [SYNTHETIC_PAIRS],
        "lse_limit": [SYNTHETIC_PAIRS] * 2,
        "qr_mld_linear": [SYNTHETIC_PAIRS, scenarios],
    }


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
    monkeypatch.setattr(checks, "reference_ic", _perturb_nth_reference(n))
    res = suite()
    assert not res.passed, res.detail


def test_perturbed_qr_filter_fails_factor_identity(monkeypatch):
    monkeypatch.setattr(checks, "qr_mld_linear", _perturb_nth_filter(checks.qr_mld_linear, 100))
    res = checks.qr_factor_identity_suite()
    assert not res.passed, res.detail


def _spy_pinv(monkeypatch) -> list:
    """Record every stack the necessity suite hands to `linalg.pinv`."""
    seen = []
    real = checks.linalg.pinv

    def spy(m):
        seen.append(np.array(m))
        return real(m)

    monkeypatch.setattr(checks.linalg, "pinv", spy)
    return seen


def test_necessity_full_rank_cross_links_leave_sqrt_p(monkeypatch):
    seen = _spy_pinv(monkeypatch)
    res = checks.necessity_suite()
    # 7 users x 2 layers of cross links span C^4: every null basis is empty.
    # All users share that rank, so one stack holds them all.
    assert [stack.shape for stack in seen] == [(NECESSITY_SEEDS * USERS_PER_SEED, 0, 2)]
    assert {na.shape for stack in seen for na in stack} == {(0, 2)}
    assert res.passed
    assert "residual = 1.414 " in res.detail


@pytest.mark.parametrize("users", [((4, 1),) * 3, ((4, 2),) * 2], ids=["3x4x1", "2x4x2"])
def test_necessity_low_rank_cross_links_admit_a_nulling_filter(monkeypatch, users):
    """Cross links leaving a null space of dimension >= p_k let a filter null MRT
    interference exactly, so the least-squares path finds residual ~0 and the suite fails."""
    monkeypatch.setattr(checks, "_DEFAULT_USERS", users)
    seen = _spy_pinv(monkeypatch)
    res = checks.necessity_suite(seeds=(1, 2, 3))
    matrices = [na for stack in seen for na in stack]
    assert len(matrices) == 3 * len(users)
    assert all(na.shape[0] >= na.shape[1] for na in matrices)
    resid = min(np.linalg.norm(np.linalg.pinv(na) @ na - np.eye(na.shape[1])) for na in matrices)
    assert resid < 1e-10
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
