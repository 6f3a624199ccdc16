"""Numerical property suites for the interference-cancellation theorems.

Each suite runs over seeded random scenarios (or synthetic well-conditioned
link/covariance pairs), returns the worst residual observed, and compares
it against the pinned threshold. The CLI `check` command prints one line
per suite; the acceptance tests assert the same results.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .detection import (
    CovarianceModel,
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
from .system import ChannelSet, NoiseModel, Scenario, generate_channels

DEFAULT_SCENARIO_SEEDS = tuple(range(1, 101))


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _default_channels(seed: int) -> ChannelSet:
    scenario = Scenario(t=64, users=((4, 2),) * 8, total_power=1.0, seed=seed)
    return generate_channels(scenario)


def _default_ezf(seed: int):
    """The default scenario's channels and their eigen zero-forcing precoder."""
    channels = _default_channels(seed)
    return channels, rczf_precode(reduce_ezf(channels), channels.scenario.total_power)


def _white_cov(channels: ChannelSet, precoder, sigma: float) -> CovarianceModel:
    noise = NoiseModel.white(channels.scenario, sigma)
    return build_covariance(channels, precoder, noise)


def _rel(diff: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(diff) / np.linalg.norm(ref))


def identity_suite(seeds=DEFAULT_SCENARIO_SEEDS) -> CheckResult:
    """Zero-forcing + reference detector: own links are I, cross links vanish."""
    max_diag = 0.0
    max_cross = 0.0
    for seed in seeds:
        channels, precoder = _default_ezf(seed)
        detector = reference_ic(precoder.reduced, precoder.scale)
        for k, h in enumerate(channels.matrices):
            gh = detector.filters[k] @ h
            for j, w in enumerate(precoder.blocks):
                t = gh @ w
                if j == k:
                    max_diag = max(max_diag, float(np.linalg.norm(t - np.eye(t.shape[0]))))
                else:
                    denom = np.linalg.norm(h) * np.linalg.norm(w)
                    max_cross = max(max_cross, float(np.linalg.norm(t) / denom))
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
    worst = 0.0
    for seed in seeds:
        channels, precoder = _default_ezf(seed)
        cov = _white_cov(channels, precoder, 0.0)
        det = mmse_irc(cov)
        ref = reference_ic(precoder.reduced, precoder.scale)
        for g, g0 in zip(det.filters, ref.filters):
            worst = max(worst, _rel(g - g0, g0))
    return CheckResult(
        "mmse-irc noiseless equality",
        worst < 1e-7,
        f"max relative deviation = {worst:.3e} (threshold 1e-7)",
    )


def mmse_irc_rate_suite(seeds=DEFAULT_SCENARIO_SEEDS) -> CheckResult:
    """Detector error decays quadratically in the external-noise scale."""
    lo, hi = np.inf, 0.0
    for seed in seeds:
        channels, precoder = _default_ezf(seed)
        ref = reference_ic(precoder.reduced, precoder.scale)
        errs = {}
        for sigma in (1e-2, 1e-3):
            cov = _white_cov(channels, precoder, sigma)
            det = mmse_irc(cov)
            errs[sigma] = max(
                float(np.linalg.norm(g - g0)) for g, g0 in zip(det.filters, ref.filters)
            )
        ratio = errs[1e-2] / errs[1e-3]
        lo, hi = min(lo, ratio), max(hi, ratio)
    passed = lo >= 50.0 and hi <= 200.0
    return CheckResult(
        "mmse-irc quadratic convergence rate",
        passed,
        f"error ratio between sigma 1e-2 and 1e-3 in [{lo:.1f}, {hi:.1f}] "
        "(required within [50, 200])",
    )


def lambda_independence_suite(seeds=DEFAULT_SCENARIO_SEEDS) -> CheckResult:
    """Noiseless generalized LSE does not depend on the regularizer weight."""
    worst = 0.0
    lams = (1e-3, 1.0, 1e3)
    for seed in seeds:
        channels, precoder = _default_ezf(seed)
        cov = _white_cov(channels, precoder, 0.0)
        dets = [gen_lse(cov, lam) for lam in lams]
        for i in range(len(lams)):
            for j in range(i + 1, len(lams)):
                for gi, gj in zip(dets[i].filters, dets[j].filters):
                    worst = max(worst, _rel(gi - gj, gj))
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


def _single_user_cov(a: np.ndarray, r: np.ndarray) -> CovarianceModel:
    l = linalg.cholesky(r)
    return CovarianceModel((a,), (r,), (l,), noiseless=False)


def _worst_against_limit(count: int, detector) -> float:
    """Worst relative deviation of `detector` from `lse_limit` over the synthetic pairs."""
    worst = 0.0
    for seed in range(1, count + 1):
        cov = _single_user_cov(*_synthetic_pair(seed))
        g_lim = lse_limit(cov).filters[0]
        worst = max(worst, _rel(detector(cov).filters[0] - g_lim, g_lim))
    return worst


def lse_limit_suite(count: int = 100) -> CheckResult:
    """gen-lse at lambda = 1e-8 approaches the whitened least-squares limit."""
    worst = _worst_against_limit(count, lambda cov: gen_lse(cov, 1e-8))
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


def whitener_invariance_suite(count: int = 100) -> CheckResult:
    """The QR filter is unchanged when the whitener is rotated by a unitary."""
    worst = 0.0
    for seed in range(1, count + 1):
        a, r = _synthetic_pair(seed)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, 7))))
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        u, _ = linalg.qr(z)
        l = linalg.cholesky(r)
        _, _, _, g_default = qr_mld_parts(a, r)
        _, _, _, g_rotated = qr_mld_parts(a, r, whitener=l @ u)
        worst = max(worst, _rel(g_rotated - g_default, g_default))
    return CheckResult(
        "qr-mld whitener-rotation invariance",
        worst < 1e-9,
        f"max relative deviation = {worst:.3e} (threshold 1e-9)",
    )


def qr_mld_limit_suite(seeds=DEFAULT_SCENARIO_SEEDS, sigma: float = 1e-4) -> CheckResult:
    """Small external noise: the QR detector approaches the reference."""
    worst = 0.0
    for seed in seeds:
        channels, precoder = _default_ezf(seed)
        cov = _white_cov(channels, precoder, sigma)
        det = qr_mld_linear(cov)
        ref = reference_ic(precoder.reduced, precoder.scale)
        for g, g0 in zip(det.filters, ref.filters):
            worst = max(worst, _rel(g - g0, g0))
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
    return [suite() for suite in ALL_SUITES]
