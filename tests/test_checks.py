"""The check runner: pooled scenarios, their lifetime and alignment, and the CLI.

The suites pool the users of every seed into one stack per (q_k, p_k) shape
group, as the sweep's `user_stacks` does, and make the sweep's `filters` call
on each group's pool whole. These tests pin that the pools are built once per
`run_all_checks` call and not kept past it, that every detector call carries
a whole pool, that this call equals the public detector functions on the
flattened pool, that each pooled row stays aligned with its own reference filter
(a perturbed filter at either end of the pool, or of any group of a mixed-shape
scenario, must fail the suites that read it), that the pooled fields equal a
plain numpy slicing of W, that every suite runs over mixed shapes, and what
`mimosim check` prints and returns.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings

from mimosim import checks, linalg, system
from mimosim.cli import main
from mimosim.detection import gen_lse, mmse_irc, qr_mld_linear
from mimosim.precoding import mrt_precode, rczf_precode, reduce_ezf

from conftest import scenarios

EZF_SEEDS = len(checks.DEFAULT_SCENARIO_SEEDS)
NECESSITY_SEEDS = 20
USERS_PER_SEED = 8
SYNTHETIC_PAIRS = 100
# Three shape groups: 4x2 (users 0-3), 2x1 (users 4-7) and 8x4 (users 8-9).
MIXED_USERS = ((4, 2),) * 4 + ((2, 1),) * 4 + ((8, 4),) * 2
MIXED_SEEDS = tuple(range(1, 11))


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


def _perturb_nth_reference(n: int, group: int = 0):
    """`checks.reference_ic` with the n-th pooled filter of shape group `group`, counted
    over all its calls, scaled by 1 + 1e-3: that group's (seed, user) filters, seed-major."""
    real = checks.reference_ic
    perturbed = _perturb_nth_filter(lambda g: g, n)

    def wrapper(reduced, scale):
        out = list(real(reduced, scale))
        users, g = out[group]
        out[group] = (users, perturbed(g.reshape(-1, *g.shape[-2:])).reshape(g.shape))
        return tuple(out)

    return wrapper


def test_scenarios_built_once_per_run_and_not_kept(monkeypatch):
    draws = []
    real = system._draw_user

    def counting(seed, k, shape):
        draws.append((seed, k))
        return real(seed, k, shape)

    monkeypatch.setattr(system, "_draw_user", counting)
    # Each default seed's users are drawn once: the necessity suite reads the pooled draws.
    once = sorted((seed, k) for seed in checks.DEFAULT_SCENARIO_SEEDS for k in range(8))
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
    # The scenario suites make mu_report's `filters` call on the unflattened (seed, user)
    # pool; the synthetic suites call the public detector functions on the synthetic stack.
    calls = []

    def filters_spy(scheme, lam, users, a, r0, s2, real=checks.filters):
        calls.append((scheme, lam, list(users), a.shape, r0.shape, np.asarray(s2).tolist()))
        return real(scheme, lam, users, a, r0, s2)

    monkeypatch.setattr(checks, "filters", filters_spy)
    rows = {name: [] for name in ("gen_lse", "lse_limit", "qr_mld_linear")}
    for name, seen in rows.items():

        def spy(a, *args, real=getattr(checks, name), seen=seen, **kwargs):
            seen.append(len(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(checks, name, spy)
    assert all(res.passed for res in checks.run_all_checks())
    pool = (list(range(USERS_PER_SEED)), (EZF_SEEDS, USERS_PER_SEED, 4, 2),
            (EZF_SEEDS, USERS_PER_SEED, 4, 4))
    # mmse-irc: noiseless, then the rate suite's two sigmas as one grid; gen-lse: three
    # lambdas; qr-mld: the limit suite's sigma.
    assert calls == [
        ("mmse-irc", 1.0, *pool, 0.0),
        ("mmse-irc", 1.0, *pool, [1e-2**2, 1e-3**2]),
        *(("gen-lse", lam, *pool, 0.0) for lam in (1e-3, 1.0, 1e3)),
        ("qr-mld", 1.0, *pool, checks.QR_MLD_LIMIT_SIGMA**2),
    ]
    # gen-lse: the limit suite; lse-limit: both synthetic suites; qr-mld: the factor suite.
    assert rows == {
        "gen_lse": [SYNTHETIC_PAIRS],
        "lse_limit": [SYNTHETIC_PAIRS] * 2,
        "qr_mld_linear": [SYNTHETIC_PAIRS],
    }


def _public_route(pool, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """A pool's users flattened to one stack: links A and covariances R_int + sigma^2 I."""
    q = pool.interference.shape[-1]
    return (pool.effective.reshape(-1, *pool.effective.shape[-2:]),
            (pool.interference + sigma**2 * np.eye(q)).reshape(-1, q, q))


@pytest.mark.parametrize("scheme, lam, sigma, detector", [
    ("mmse-irc", 1.0, 0.0, mmse_irc),
    *(("gen-lse", lam, 0.0, partial(gen_lse, lam=lam)) for lam in (1e-3, 1.0, 1e3)),
    ("qr-mld", 1.0, checks.QR_MLD_LIMIT_SIGMA, qr_mld_linear),
], ids=["mmse-irc", "gen-lse-1e-3", "gen-lse-1", "gen-lse-1e3", "qr-mld"])
def test_shift_route_equals_public_detectors_bit_for_bit(scheme, lam, sigma, detector):
    """The suites' `filters` call on the noise-free pool, against the public function on
    the whole covariance: with no shift (or qr-mld's, which adds sigma^2 I as they do),
    both factor the same matrices."""
    for pool in checks._scenario_pool((1, 2)):
        g = checks.filters(scheme, lam, pool.users, pool.effective, pool.interference, sigma**2)
        assert g.shape == pool.reference.shape
        np.testing.assert_array_equal(g.reshape(-1, *g.shape[-2:]),
                                      detector(*_public_route(pool, sigma)))


def test_shift_route_agrees_with_public_mmse_irc_at_the_rate_suites_sigmas():
    """sigma^2 as an eigenvalue shift of A A^H + R_int, against eigh of the shifted matrix:
    equal up to rounding."""
    sigmas = (1e-2, 1e-3)
    for pool in checks._scenario_pool((1, 2)):
        g = checks.filters("mmse-irc", 1.0, pool.users, pool.effective, pool.interference,
                           np.square(sigmas))
        for g_sigma, sigma in zip(g, sigmas):
            np.testing.assert_allclose(g_sigma.reshape(-1, *g.shape[-2:]),
                                       mmse_irc(*_public_route(pool, sigma)), rtol=1e-12, atol=0)


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


@pytest.mark.parametrize(
    "suite",
    [checks.identity_suite, checks.mmse_irc_noiseless_suite, checks.qr_mld_limit_suite],
    ids=lambda s: s.__name__,
)
def test_perturbed_reference_filter_of_last_8x4_user_fails(monkeypatch, suite):
    monkeypatch.setattr(checks, "_DEFAULT_USERS", MIXED_USERS)
    # Group 2 pools the two 8x4 users; its last filter is user 9 at the last seed.
    n = len(MIXED_SEEDS) * 2
    monkeypatch.setattr(checks, "reference_ic", _perturb_nth_reference(n, group=2))
    res = suite(seeds=MIXED_SEEDS)
    assert not res.passed, res.detail


@pytest.mark.parametrize(
    "suite",
    [checks.identity_suite, checks.necessity_suite, checks.mmse_irc_noiseless_suite,
     checks.mmse_irc_rate_suite, checks.lambda_independence_suite, checks.qr_mld_limit_suite],
    ids=lambda s: s.__name__,
)
def test_every_scenario_suite_passes_over_mixed_shapes(monkeypatch, suite):
    monkeypatch.setattr(checks, "_DEFAULT_USERS", MIXED_USERS)
    res = suite(seeds=MIXED_SEEDS)
    assert res.passed, res.detail


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(scenarios())
@example((system.Scenario(8, ((4, 2), (2, 1), (4, 2), (3, 1))), (1,)))  # interleaved groups
def test_pool_fields_equal_numpy_slicing_of_w(case):
    """Per group and pooled (seed, user k): the own block G0_k H_k W_k and the cross ratios
    ||G0_k H_k W_j|| / (||H_k|| ||W_j||), against W cut at the cumulative layer counts.
    Zero-forcing would leave only rounding noise in the cross blocks, so each filter gets
    a seeded random matrix added first; only a user with p_k = q_k, whose H_k W_j vanish
    too, keeps noise there, which the 1e-12 floor takes."""
    users, seeds = case[0].users, (1, 2)
    real = checks.reference_ic

    def off_reference(reduced, scale):
        rng = np.random.default_rng(0)
        return tuple((g, ref + rng.standard_normal(ref.shape)) for g, ref in real(reduced, scale))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(checks, "_DEFAULT_USERS", users)
        patch.setattr(checks, "reference_ic", off_reference)
        pools = checks._scenario_pool(seeds)
    assert len(pools) == len(system.shape_groups(users))
    for s, seed in enumerate(seeds):
        channels = system.generate_channels(system.Scenario(64, users, seed))
        w, _ = rczf_precode(reduce_ezf(channels))
        ws = np.split(w, np.cumsum(channels.scenario.layer_counts)[:-1], axis=1)
        for pool, group in zip(pools, system.shape_groups(users)):
            for i, k in enumerate(group):
                h = channels.matrices[k]
                g0h = pool.reference[s, i] @ h
                np.testing.assert_allclose(pool.reference_own[s, i], g0h @ ws[k], rtol=1e-12)
                cross = [0.0 if j == k else
                         np.linalg.norm(g0h @ wj) / (np.linalg.norm(h) * np.linalg.norm(wj))
                         for j, wj in enumerate(ws)]
                np.testing.assert_allclose(pool.reference_cross[s, i], cross,
                                           rtol=1e-12, atol=1e-12)


def test_perturbed_qr_filter_fails_factor_identity(monkeypatch):
    monkeypatch.setattr(checks, "qr_mld_linear", _perturb_nth_filter(checks.qr_mld_linear, 100))
    res = checks.qr_factor_identity_suite()
    assert not res.passed, res.detail


def _least_squares_fits(users, seeds) -> tuple[list[int], list[float]]:
    """Each user's constrained least-squares fit under MRT, computed here with numpy.

    G is restricted to the left null space N of the user's stacked cross links
    and G A fitted to I; returns each user's null-space dimension and residual
    ||pinv(N^H A) N^H A - I||, seed by seed.
    """
    dims, resids = [], []
    for seed in seeds:
        scenario = system.Scenario(t=64, users=users, seed=seed)
        channels = system.generate_channels(scenario)
        w, _ = mrt_precode(channels)
        ws = np.split(w, np.cumsum(scenario.layer_counts)[:-1], axis=1)
        for k, h in enumerate(channels.matrices):
            a = h @ ws[k]
            cross = np.hstack([h @ wj for j, wj in enumerate(ws) if j != k])
            u, s, _ = np.linalg.svd(cross, full_matrices=True)
            na = u[:, int(np.sum(s > 1e-12 * s[0])):].conj().T @ a
            dims.append(na.shape[0])
            resids.append(np.linalg.norm(np.linalg.pinv(na) @ na - np.eye(a.shape[1])))
    return dims, resids


def test_necessity_full_rank_cross_links_leave_sqrt_p():
    # 7 users x 2 layers of cross links span C^4: every null space is empty.
    dims, resids = _least_squares_fits(checks._DEFAULT_USERS, checks.NECESSITY_SEEDS)
    assert dims == [0] * (NECESSITY_SEEDS * USERS_PER_SEED)
    np.testing.assert_allclose(resids, np.sqrt(2.0), rtol=0, atol=1e-12)
    res = checks.necessity_suite()
    assert res.passed
    assert "residual = 1.414 " in res.detail


@pytest.mark.parametrize("users", [((4, 1),) * 3, ((4, 2),) * 2], ids=["3x4x1", "2x4x2"])
def test_necessity_low_rank_cross_links_admit_a_nulling_filter(monkeypatch, users):
    """Cross links leaving a null space of dimension >= p_k let a filter null MRT
    interference exactly, so the least-squares fit leaves residual ~0 and the suite fails."""
    monkeypatch.setattr(checks, "_DEFAULT_USERS", users)
    dims, resids = _least_squares_fits(users, (1, 2, 3))
    assert len(dims) == 3 * len(users)
    assert min(dims) >= users[0][1]
    assert max(resids) < 1e-10
    res = checks.necessity_suite(seeds=(1, 2, 3))
    assert not res.passed, res.detail
    assert "residual = 0.000 " in res.detail


def test_necessity_one_vector_null_space_leaves_residual_one(monkeypatch):
    """2 users x 2 layers of cross links span 4 of C^5: each user keeps one of its
    p_k = 2 layers, so the residual is exactly sqrt(2 - 1) = 1, strictly between 0 and sqrt(p_k)."""
    users = ((5, 2),) * 3
    monkeypatch.setattr(checks, "_DEFAULT_USERS", users)
    dims, resids = _least_squares_fits(users, (1, 2, 3))
    assert dims == [1] * 9
    np.testing.assert_allclose(resids, 1.0, rtol=0, atol=1e-12)
    res = checks.necessity_suite(seeds=(1, 2, 3))
    assert res.passed, res.detail
    assert "residual = 1.000 " in res.detail


def test_mixed_shape_necessity_takes_each_groups_own_p(monkeypatch):
    """2x1 users keep residual sqrt(1) and the 4x2 and 8x4 users sqrt(2) and sqrt(4):
    the suite's minimum is the numpy fits' minimum, 1."""
    monkeypatch.setattr(checks, "_DEFAULT_USERS", MIXED_USERS)
    _, resids = _least_squares_fits(MIXED_USERS, (1, 2, 3))
    res = checks.necessity_suite(seeds=(1, 2, 3))
    assert res.passed, res.detail
    assert "residual = 1.000 " in res.detail
    assert f"residual = {min(resids):.3f} " in res.detail


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
