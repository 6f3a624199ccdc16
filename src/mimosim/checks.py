"""Numerical property suites for the interference-cancellation theorems.

Each suite runs over seeded random scenarios (or synthetic well-conditioned
link/covariance pairs), returns the worst residual observed, and compares
it against the pinned threshold. The CLI `check` command prints one line
per suite; the acceptance tests assert the same results.

The suites share their inputs through pools, built once per
`run_all_checks` call (a suite called on its own builds its own): the
default EZF scenarios of all seeds as one stack per (q_k, p_k) shape group,
`user_stacks`' groups, built SEED_CHUNK seeds at a time through the
seed-stacked stages as the sweep is, and the synthetic pairs as one stack.
A scenario suite makes `mu_report`'s `filters` call on each group's pool whole,
once per regularizer weight, and reports the worst user of any group; the
synthetic suites call the public detector functions, the theorems' other
routes. The necessity suite walks the same stages under the `mrt` precoder.
The identity suite's residuals are plain norms of G0 H W, so no channel gain moves them.
"""

import contextvars
from dataclasses import dataclass
from functools import partial
from itertools import combinations, starmap

import numpy as np

from . import linalg
from .detection import (
    filters,
    gen_lse,
    lse_limit,
    qr_mld_linear,
    qr_mld_parts,
    reference_ic,
    split_columns,
    user_stacks,
)
from .linalg import herm
from .precoding import precode
from .system import SEED_CHUNK, Scenario, generate_groups

DEFAULT_SCENARIO_SEEDS = tuple(range(1, 101))
NECESSITY_SEEDS = DEFAULT_SCENARIO_SEEDS[:20]
_DEFAULT_USERS = ((4, 2),) * 8
# The small external noise at which qr_mld_limit_suite compares qr-mld to the reference.
QR_MLD_LIMIT_SIGMA = 1e-4

# The pools of the run_all_checks() call in progress, by key; None outside one.
_RUN_POOLS = contextvars.ContextVar("run_pools", default=None)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _pooled(key, build):
    """`build()`, made once per run_all_checks() call for each `key`."""
    pools = _RUN_POOLS.get()
    if pools is None:
        return build()
    if key not in pools:
        pools[key] = build()
    return pools[key]


def _chunks(seeds, scheme):
    """The default scenario at `seeds`, SEED_CHUNK seeds at a time, seed axis first.

    Per chunk: `precode`'s scales and reduction under `scheme`, and `user_stacks`'
    stacks. H and W are dropped once the stacks are built, the rest before the next
    chunk is drawn; in a run, the necessity suite's draws stay pooled for it.
    """
    scenario = Scenario(t=64, users=_DEFAULT_USERS)
    seeds = tuple(seeds)
    for chunk in (seeds[i:i + SEED_CHUNK] for i in range(0, len(seeds), SEED_CHUNK)):
        draw = partial(generate_groups, scenario, chunk)
        groups = _pooled(("draws", chunk), draw) if set(chunk) <= set(NECESSITY_SEEDS) else draw()
        w, scales, reduced = precode(groups, scenario, scheme)
        stacks = user_stacks(groups, scenario.layer_counts, w)
        del groups, w  # no suite reads H or W past the stacks
        yield scales, reduced, stacks
        del scales, reduced, stacks  # before the next chunk is drawn


@dataclass(frozen=True)
class _ScenarioPool:
    """One shape group of the default EZF scenarios: `filters`' (seed, user) stack, and references.

    Entry [s, i] is user k = users[i] of the s-th seed: its own link A = H W_k, noise-free
    interference covariance R_int, reference filter G0 = B / scale, and reference_leak =
    ||G0 H W_j||_F over every user j != k's columns, which zero-forcing makes 0.
    """

    users: np.ndarray
    effective: np.ndarray
    interference: np.ndarray
    reference: np.ndarray
    reference_leak: np.ndarray

    @staticmethod
    def _fields(scales, reduced, stacks) -> list:
        """Per shape group, one chunk's fields in field order. The leaks are split off
        chunk by chunk, so no temporary spans a whole pool."""
        return [(stack.users, stack.effective, stack.interference, ref,
                 np.linalg.norm(split_columns(ref @ stack.links, stack.starts, ref.shape[-2])[1],
                                axis=(-2, -1)))
                for (_, ref), stack in zip(reference_ic(reduced, scales), stacks)]


def _scenario_pool(seeds) -> tuple[_ScenarioPool, ...]:
    """One `_ScenarioPool` per shape group: its users, each other field joined over the chunks."""
    seeds = tuple(seeds)
    return _pooled(("scenarios", seeds), lambda: tuple(
        _ScenarioPool(users[0], *map(np.concatenate, arrays)) for users, *arrays in
        starmap(zip, zip(*starmap(_ScenarioPool._fields, _chunks(seeds, "ezf"))))))


def _verdict(name: str, worst: float, threshold: str) -> CheckResult:
    """Passes when the worst relative deviation is below `threshold`, the printed bound."""
    return CheckResult(name, worst < float(threshold),
                       f"max relative deviation = {worst:.3e} (threshold {threshold})")


def _rel_rows(diff: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Relative Frobenius norm of each matrix of a stack."""
    return np.linalg.norm(diff, axis=(-2, -1)) / np.linalg.norm(ref, axis=(-2, -1))


def _deviations(pool: _ScenarioPool, scheme: str, s2) -> np.ndarray:
    """||G - G0|| per pooled (seed, user), G the `scheme` filters at noise powers s2."""
    g = filters(scheme, 1.0, pool.users, pool.effective, pool.interference, s2)
    return np.linalg.norm(g - pool.reference, axis=(-2, -1))


def _worst_against_reference(pools, scheme: str, sigma: float) -> float:
    """Worst relative deviation of `scheme` from the reference filters at noise sigma."""
    return max(float((_deviations(pool, scheme, sigma**2)
                      / np.linalg.norm(pool.reference, axis=(-2, -1))).max()) for pool in pools)


def identity_suite(seeds=DEFAULT_SCENARIO_SEEDS) -> CheckResult:
    """Zero-forcing + reference detector: own links are I, cross links vanish."""
    pools = _scenario_pool(seeds)
    max_diag = max(float(np.linalg.norm(p.reference @ p.effective - np.eye(p.reference.shape[-2]),
                                        axis=(-2, -1)).max()) for p in pools)
    max_cross = max(float(p.reference_leak.max()) for p in pools)
    passed = max_diag < 1e-8 and max_cross < 1e-8
    return CheckResult(
        "identity (zero-forcing cancels interference)",
        passed,
        f"max |G H W_k - I| = {max_diag:.3e}, max |G H W_j| = {max_cross:.3e} "
        "(thresholds 1e-8)",
    )


def necessity_suite(seeds=NECESSITY_SEEDS) -> CheckResult:
    """No linear detector can null matched-filter interference and keep the link.

    For each user, restrict G to the left null space N of its stacked cross
    links X, then least-squares fit G A to I; the residual stays large. It is
    sqrt(p_k - rank(N^H A)), and rank(N^H A) = rank([X A]) - rank(X), so the
    suite counts two ranks per user, each with `linalg.rank` over the singular
    values of a chunk's users of one shape group at once, with that group's p_k.
    Cross links of full rank q_k leave an empty null space and residual sqrt(p_k).
    """
    min_resid = np.inf
    for *_, stacks in _chunks(seeds, "mrt"):
        for stack in stacks:
            p = stack.effective.shape[-1]
            x = split_columns(stack.links, stack.starts, p)[1]
            rank_xa, rank_x = (linalg.rank(np.linalg.svd(m, compute_uv=False))
                               for m in (stack.links, x))
            min_resid = min(min_resid, float(np.sqrt(p - rank_xa + rank_x).min()))
    passed = min_resid > 0.1
    return CheckResult(
        "necessity (matched filter admits no interference-free detector)",
        passed,
        f"min constrained least-squares residual = {min_resid:.3f} (threshold > 0.1)",
    )


def mmse_irc_noiseless_suite(seeds=DEFAULT_SCENARIO_SEEDS) -> CheckResult:
    """Noiseless interference-aware MMSE equals the reference detector."""
    worst = _worst_against_reference(_scenario_pool(seeds), "mmse-irc", 0.0)
    return _verdict("mmse-irc noiseless equality", worst, "1e-7")


def mmse_irc_rate_suite(seeds=DEFAULT_SCENARIO_SEEDS) -> CheckResult:
    """The MMSE-IRC filter error decays quadratically in the external-noise scale."""
    s2 = np.square((1e-2, 1e-3))  # one noise grid: per sigma and seed, the worst user
    err = np.concatenate([_deviations(pool, "mmse-irc", s2) for pool in _scenario_pool(seeds)],
                         axis=-1).max(axis=-1)
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
    pools = _scenario_pool(seeds)
    gs = [[filters("gen-lse", lam, p.users, p.effective, p.interference, 0.0) for p in pools]
          for lam in (1e-3, 1.0, 1e3)]
    worst = max(float(_rel_rows(gi - gj, gj).max())
                for g_a, g_b in combinations(gs, 2) for gi, gj in zip(g_a, g_b))
    return CheckResult(
        "gen-lse lambda independence (noiseless)",
        worst < 1e-7,
        f"max pairwise relative deviation = {worst:.3e} (threshold 1e-7)",
    )


def _synthetic_pair(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Well-conditioned 4x2 effective link and PD covariance for one user."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    a = (rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))) / np.sqrt(2.0)
    c = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / np.sqrt(2.0)
    r = c @ herm(c) + 0.5 * np.eye(4)
    return a, 0.5 * (r + herm(r))


def _synthetic_pool(count: int) -> tuple[np.ndarray, np.ndarray]:
    """The synthetic pairs of seeds 1..count stacked: links A and covariances R."""
    pairs = (_synthetic_pair(seed) for seed in range(1, count + 1))
    return _pooled(("synthetic", count), lambda: tuple(map(np.stack, zip(*pairs))))


def _worst_against_limit(count: int, detector) -> float:
    """Worst relative deviation of `detector` from `lse_limit` over the synthetic pairs."""
    a, r = _synthetic_pool(count)
    g_lim = lse_limit(a, r)
    return float(_rel_rows(detector(a, r) - g_lim, g_lim).max())


def lse_limit_suite(count: int = 100) -> CheckResult:
    """gen-lse at lambda = 1e-8 approaches the whitened least-squares limit."""
    worst = _worst_against_limit(count, lambda a, r: gen_lse(a, r, 1e-8))
    return _verdict("gen-lse limit approach (lambda = 1e-8)", worst, "1e-5")


def qr_factor_identity_suite(count: int = 100) -> CheckResult:
    """QR-detector linear part equals the whitened least-squares limit."""
    worst = _worst_against_limit(count, qr_mld_linear)
    return _verdict("qr-mld linear part identity", worst, "1e-9")


def _rotation_seed_matrix(seed: int) -> np.ndarray:
    """Seeded complex Gaussian 4 x 4 matrix; its QR factor Q is a random unitary."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 7))))
    return rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))


def whitener_invariance_suite(count: int = 100) -> CheckResult:
    """The QR filter is unchanged when the whitener is rotated by a unitary."""
    a, r = _synthetic_pool(count)
    u, _ = linalg.qr(np.stack([_rotation_seed_matrix(seed) for seed in range(1, count + 1)]))
    g_default = qr_mld_parts(a, r)[3]
    g_rotated = qr_mld_parts(a, r, whitener=linalg.cholesky(r) @ u)[3]
    worst = float(_rel_rows(g_rotated - g_default, g_default).max())
    return _verdict("qr-mld whitener-rotation invariance", worst, "1e-9")


def qr_mld_limit_suite(seeds=DEFAULT_SCENARIO_SEEDS) -> CheckResult:
    """Small external noise: the QR detector approaches the reference."""
    worst = _worst_against_reference(_scenario_pool(seeds), "qr-mld", QR_MLD_LIMIT_SIGMA)
    return _verdict(f"qr-mld limit at sigma = {QR_MLD_LIMIT_SIGMA:g}", worst, "1e-6")


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
