"""Numerical property suites for the interference-cancellation theorems.

Each suite runs over seeded random scenarios (or synthetic well-conditioned
link/covariance pairs), returns the worst residual observed, and compares
it against the pinned threshold. The CLI `check` command prints one line
per suite; the acceptance tests assert the same results.

The suites share their inputs through pools: the default EZF scenarios of
all seeds as one stack of users, and the synthetic pairs as one stack.
`run_all_checks` builds each pool once and drops it when it returns; a
suite called on its own builds its own. Detectors run on slices of at most
`BATCH_USERS` pooled users, each slice passed as one stack to one call of
the public detector function.
"""

import contextvars
from dataclasses import dataclass

import numpy as np

from . import linalg
from .detection import (
    build_covariance,
    gen_lse,
    lse_limit,
    mmse_irc,
    qr_mld_linear,
    qr_mld_parts,
    reference_ic,
)
from .linalg import herm
from .precoding import mrt_precode, rczf_precode, reduce_ezf
from .system import ChannelSet, Scenario, generate_channels

DEFAULT_SCENARIO_SEEDS = tuple(range(1, 101))
_DEFAULT_USERS = ((4, 2),) * 8
# Users per detector call: the detectors' temporaries, and so peak memory, grow with it.
BATCH_USERS = 200

# The pools of the run_all_checks() call in progress, by key; None outside one.
_RUN_POOLS = contextvars.ContextVar("run_pools", default=None)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _batches(n: int) -> list[slice]:
    """Row slices of at most BATCH_USERS rows covering n pooled rows in order."""
    return [slice(i, min(i + BATCH_USERS, n)) for i in range(0, n, BATCH_USERS)]


def _pooled(key, build):
    """`build()`, made once per run_all_checks() call for each `key`."""
    pools = _RUN_POOLS.get()
    if pools is None:
        return build()
    if key not in pools:
        pools[key] = build()
    return pools[key]


def _default_channels(seed: int) -> ChannelSet:
    scenario = Scenario(t=64, users=_DEFAULT_USERS, total_power=1.0, seed=seed)
    return generate_channels(scenario)


@dataclass(frozen=True)
class _ScenarioPool:
    """The default scenarios of some seeds under EZF, all users of all seeds stacked.

    Row i is user i % users of the (i // users)-th seed: its own link
    A = H W_k, noise-free interference covariance R_int, reference filter
    G0 = B / scale, G0 H W over every layer, and ||H||. w_norms[s, j] is
    ||W_j|| of the s-th seed.
    """

    users: int
    effective: np.ndarray
    interference: np.ndarray
    reference: np.ndarray
    reference_links: np.ndarray
    h_norms: np.ndarray
    w_norms: np.ndarray

    @classmethod
    def build(cls, seeds) -> "_ScenarioPool":
        m, (q, p) = len(_DEFAULT_USERS), _DEFAULT_USERS[0]
        n = len(seeds) * m
        pool = cls(
            m,
            np.empty((n, q, p), np.complex128),
            np.empty((n, q, q), np.complex128),
            np.empty((n, p, q), np.complex128),
            np.empty((n, p, m * p), np.complex128),
            np.empty(n),
            np.empty((len(seeds), m)),
        )
        for s, seed in enumerate(seeds):
            channels = _default_channels(seed)
            precoder = rczf_precode(reduce_ezf(channels), channels.scenario.total_power)
            ref = reference_ic(precoder.reduced, precoder.scale)
            (stack,) = build_covariance(channels, precoder)  # one group: every user is 4x2
            rows = slice(s * m, (s + 1) * m)
            pool.effective[rows] = stack.effective
            pool.interference[rows] = stack.interference
            pool.reference[rows] = ref
            pool.reference_links[rows] = pool.reference[rows] @ stack.links
            pool.h_norms[rows] = np.linalg.norm(np.stack(channels.matrices), axis=(-2, -1))
            pool.w_norms[s] = np.linalg.norm(np.stack(precoder.blocks), axis=(-2, -1))
        return pool

    def covariance(self, rows: slice, sigma: float) -> tuple[np.ndarray, np.ndarray]:
        """Links A and covariances R of the users in `rows` at white noise L = sigma I."""
        a = self.effective[rows]
        factor = sigma * np.eye(a.shape[-2], dtype=np.complex128)
        r = self.interference[rows] + factor @ herm(factor)
        return a, 0.5 * (r + herm(r))


def _scenario_pool(seeds) -> _ScenarioPool:
    seeds = tuple(seeds)
    return _pooled(("scenarios", seeds), lambda: _ScenarioPool.build(seeds))


def _rel_rows(diff: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Relative Frobenius norm of each matrix of a stack."""
    return np.linalg.norm(diff, axis=(-2, -1)) / np.linalg.norm(ref, axis=(-2, -1))


def _deviations(pool: _ScenarioPool, sigma: float, detector) -> np.ndarray:
    """||G - G0|| per pooled user, G from `detector` at external noise sigma."""
    return np.concatenate([
        np.linalg.norm(
            detector(*pool.covariance(rows, sigma)) - pool.reference[rows],
            axis=(-2, -1),
        )
        for rows in _batches(len(pool.effective))
    ])


def _worst_against_reference(pool: _ScenarioPool, sigma: float, detector) -> float:
    """Worst relative deviation of `detector` from the reference filters at noise sigma."""
    ref_norms = np.linalg.norm(pool.reference, axis=(-2, -1))
    return float((_deviations(pool, sigma, detector) / ref_norms).max())


def identity_suite(seeds=DEFAULT_SCENARIO_SEEDS) -> CheckResult:
    """Zero-forcing + reference detector: own links are I, cross links vanish."""
    pool = _scenario_pool(seeds)
    m, p = pool.users, pool.reference.shape[1]
    # t[s, k, j] = G0 H W_j for user k of seed s; all blocks are p x p here.
    t = pool.reference_links.reshape(-1, m, p, m, p).swapaxes(2, 3)
    own = np.arange(m)
    diag = t[:, own, own] - np.eye(p)
    max_diag = float(np.linalg.norm(diag, axis=(-2, -1)).max())
    denom = pool.h_norms.reshape(-1, m, 1) * pool.w_norms[:, np.newaxis, :]
    cross = np.linalg.norm(t, axis=(-2, -1)) / denom
    cross[:, own, own] = 0.0
    max_cross = float(cross.max())
    passed = max_diag < 1e-8 and max_cross < 1e-8
    return CheckResult(
        "identity (zero-forcing cancels interference)",
        passed,
        f"max |G H W_k - I| = {max_diag:.3e}, max scaled |G H W_j| = {max_cross:.3e} "
        "(thresholds 1e-8)",
    )


def necessity_suite(seeds=tuple(range(1, 21))) -> CheckResult:
    """No linear detector can null matched-filter interference and keep the link.

    For each user, restrict G to the left null space of the stacked cross
    links, then least-squares fit G H W_k to I; the residual stays large.
    """
    min_resid = np.inf
    for seed in seeds:
        channels = _default_channels(seed)
        precoder = mrt_precode(channels, channels.scenario.total_power)
        n = channels.scenario.num_users
        for k, h in enumerate(channels.matrices):
            a = h @ precoder.blocks[k]
            cross = np.hstack([h @ precoder.blocks[j] for j in range(n) if j != k])
            q = h.shape[0]
            u, s, _ = np.linalg.svd(cross, full_matrices=True)
            rank = int(np.sum(s > 1e-12 * s[0]))
            p = a.shape[1]
            if rank >= q:
                resid = float(np.sqrt(p))
            else:
                basis = u[:, rank:]
                na = herm(basis) @ a
                proj = linalg.pinv(na) @ na
                resid = float(np.linalg.norm(proj - np.eye(p)))
            min_resid = min(min_resid, resid)
    passed = min_resid > 0.1
    return CheckResult(
        "necessity (matched filter admits no interference-free detector)",
        passed,
        f"min constrained least-squares residual = {min_resid:.3f} (threshold > 0.1)",
    )


def mmse_irc_noiseless_suite(seeds=DEFAULT_SCENARIO_SEEDS) -> CheckResult:
    """Noiseless interference-aware MMSE equals the reference detector."""
    worst = _worst_against_reference(_scenario_pool(seeds), 0.0, mmse_irc)
    return CheckResult(
        "mmse-irc noiseless equality",
        worst < 1e-7,
        f"max relative deviation = {worst:.3e} (threshold 1e-7)",
    )


def mmse_irc_rate_suite(seeds=DEFAULT_SCENARIO_SEEDS) -> CheckResult:
    """The MMSE-IRC filter error decays quadratically in the external-noise scale."""
    pool = _scenario_pool(seeds)
    # Per seed: the worst user's error at each sigma.
    err = [
        _deviations(pool, sigma, mmse_irc).reshape(-1, pool.users).max(axis=1)
        for sigma in (1e-2, 1e-3)
    ]
    ratio = err[0] / err[1]
    lo, hi = float(ratio.min()), float(ratio.max())
    passed = lo >= 50.0 and hi <= 200.0
    return CheckResult(
        "mmse-irc quadratic convergence rate",
        passed,
        f"error ratio between sigma 1e-2 and 1e-3 in [{lo:.1f}, {hi:.1f}] "
        "(required within [50, 200])",
    )


def lambda_independence_suite(seeds=DEFAULT_SCENARIO_SEEDS) -> CheckResult:
    """Noiseless generalized LSE does not depend on the regularizer weight."""
    pool = _scenario_pool(seeds)
    worst = 0.0
    lams = (1e-3, 1.0, 1e3)
    for rows in _batches(len(pool.effective)):
        a, r = pool.covariance(rows, 0.0)
        gs = [gen_lse(a, r, lam) for lam in lams]
        for i in range(len(lams)):
            for j in range(i + 1, len(lams)):
                worst = max(worst, float(_rel_rows(gs[i] - gs[j], gs[j]).max()))
    return CheckResult(
        "gen-lse lambda independence (noiseless)",
        worst < 1e-7,
        f"max pairwise relative deviation = {worst:.3e} (threshold 1e-7)",
    )


def _synthetic_pair(seed: int, q: int = 4, p: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Well-conditioned effective link and PD covariance for one user."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    a = (rng.standard_normal((q, p)) + 1j * rng.standard_normal((q, p))) / np.sqrt(2.0)
    c = (rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))) / np.sqrt(2.0)
    r = c @ herm(c) + 0.5 * np.eye(q)
    return a, 0.5 * (r + herm(r))


@dataclass(frozen=True)
class _SyntheticPool:
    """The synthetic pairs of seeds 1..count stacked: links A, covariances R, Cholesky L."""

    effective: np.ndarray
    covariances: np.ndarray
    whiteners: np.ndarray

    @classmethod
    def build(cls, count: int) -> "_SyntheticPool":
        pairs = [_synthetic_pair(seed) for seed in range(1, count + 1)]
        r = np.stack([pair[1] for pair in pairs])
        return cls(np.stack([pair[0] for pair in pairs]), r, linalg.cholesky(r))


def _synthetic_pool(count: int) -> _SyntheticPool:
    return _pooled(("synthetic", count), lambda: _SyntheticPool.build(count))


def _worst_against_limit(count: int, detector) -> float:
    """Worst relative deviation of `detector` from `lse_limit` over the synthetic pairs."""
    pool = _synthetic_pool(count)
    worst = 0.0
    for rows in _batches(count):
        a, r = pool.effective[rows], pool.covariances[rows]
        g_lim = lse_limit(a, r)
        worst = max(worst, float(_rel_rows(detector(a, r) - g_lim, g_lim).max()))
    return worst


def lse_limit_suite(count: int = 100) -> CheckResult:
    """gen-lse at lambda = 1e-8 approaches the whitened least-squares limit."""
    worst = _worst_against_limit(count, lambda a, r: gen_lse(a, r, 1e-8))
    return CheckResult(
        "gen-lse limit approach (lambda = 1e-8)",
        worst < 1e-5,
        f"max relative deviation = {worst:.3e} (threshold 1e-5)",
    )


def qr_factor_identity_suite(count: int = 100) -> CheckResult:
    """QR-detector linear part equals the whitened least-squares limit."""
    worst = _worst_against_limit(count, qr_mld_linear)
    return CheckResult(
        "qr-mld linear part identity",
        worst < 1e-9,
        f"max relative deviation = {worst:.3e} (threshold 1e-9)",
    )


def _rotation_seed_matrix(seed: int) -> np.ndarray:
    """Seeded complex Gaussian 4 x 4 matrix; its QR factor Q is a random unitary."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 7))))
    return rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))


def whitener_invariance_suite(count: int = 100) -> CheckResult:
    """The QR filter is unchanged when the whitener is rotated by a unitary."""
    pool = _synthetic_pool(count)
    worst = 0.0
    for rows in _batches(count):
        a, r, l = pool.effective[rows], pool.covariances[rows], pool.whiteners[rows]
        seeds = range(rows.start + 1, rows.stop + 1)
        u, _ = linalg.qr(np.stack([_rotation_seed_matrix(seed) for seed in seeds]))
        g_default = qr_mld_parts(a, r)[3]
        g_rotated = qr_mld_parts(a, r, whitener=l @ u)[3]
        worst = max(worst, float(_rel_rows(g_rotated - g_default, g_default).max()))
    return CheckResult(
        "qr-mld whitener-rotation invariance",
        worst < 1e-9,
        f"max relative deviation = {worst:.3e} (threshold 1e-9)",
    )


def qr_mld_limit_suite(seeds=DEFAULT_SCENARIO_SEEDS, sigma: float = 1e-4) -> CheckResult:
    """Small external noise: the QR detector approaches the reference."""
    worst = _worst_against_reference(_scenario_pool(seeds), sigma, qr_mld_linear)
    return CheckResult(
        f"qr-mld limit at sigma = {sigma:g}",
        worst < 1e-6,
        f"max relative deviation = {worst:.3e} (threshold 1e-6)",
    )


ALL_SUITES = (
    identity_suite,
    necessity_suite,
    mmse_irc_noiseless_suite,
    mmse_irc_rate_suite,
    lambda_independence_suite,
    lse_limit_suite,
    qr_factor_identity_suite,
    whitener_invariance_suite,
    qr_mld_limit_suite,
)


def run_all_checks() -> list[CheckResult]:
    """Every suite in ALL_SUITES order; the pools they share live for this call only."""
    token = _RUN_POOLS.set({})
    try:
        return [suite() for suite in ALL_SUITES]
    finally:
        _RUN_POOLS.reset(token)
