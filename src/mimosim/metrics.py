"""Effective-link decomposition, post-detection SINR, and spectral efficiency.

The single-user / multi-user report serves every user jointly, against
each user served alone by eigen zero-forcing at its proportional share of
the power budget under the same white noise. That leg has orthogonal links,
so its SE is the closed form sum log2(1 + (P / p) s_i^2 / sigma^2) for every
detector scheme. When the joint system suppresses inter-user interference
the ratio of the two summed spectral efficiencies decays toward its
interference-free floor as the noise floor drops; schemes that leak
interference saturate and the ratio diverges instead.

Each user's links are one p_k x p row block G_k H_k W of the stacked
precoder W = [W_1 ... W_K]; user k's own layers are its columns
start_k .. start_k + p_k, the other columns are cross-user leakage. The
multi-user leg runs on users stacked by shape (`detection.build_covariance`),
one detector core, `effective_links` product and `sinr_per_layer` call per group;
`su_mu_report` and the sweep share it, the sweep factoring once per trial.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .detection import StackedDetector, UserStack, build_covariance
from .errors import ConfigError, InvalidInputError
from .precoding import Precoder, mrt_precode, rczf_precode, reduce_ezf, reduce_full_zf
from .system import ChannelSet, NoiseModel, su_layer_gains

# Noiseless perfect links cap here instead of producing infinite SE.
SINR_CAP = 1e12

PRECODER_SCHEMES = ("zf", "ezf", "mrt")
DETECTOR_SCHEMES = ("mmse-irc", "mmse", "gen-lse", "lse-limit", "qr-mld")

_GEN_LSE_RE = re.compile(r"^gen-lse\(([^)]+)\)$")


@dataclass(frozen=True)
class LinkReport:
    """Per-user stacked links G_k H_k W (p_k x p) plus SINR/SE summaries."""

    links: list
    sinr: list
    se: list
    interference_power: list
    mu_se: float
    su_se: float
    ratio: float


def effective_links(stack: UserStack, g: np.ndarray) -> np.ndarray:
    """Links of a user stack under its filters: links[i] = G_i H_k W (p_k x p), k = users[i]."""
    return g @ stack.links


def _cross_power(power: np.ndarray, start) -> np.ndarray:
    """Per-row power in the other users' columns of |link|^2 row blocks.

    Summed over those columns directly: subtracting the own columns from the
    row total would lose a cross leak ~1e-9 of the signal to cancellation.
    """
    cols = np.arange(power.shape[-1])
    start = np.asarray(start)[..., np.newaxis]
    others = (cols < start) | (cols >= start + power.shape[-2])
    return np.sum(power * others[..., np.newaxis, :], axis=-1)


def sinr_per_layer(link: np.ndarray, start, g: np.ndarray, l: np.ndarray) -> np.ndarray:
    """Post-detection SINR for each layer of one user, or of each user in a stack.

    `link` is the user's stacked row block G_k H_k W and its own block
    T_kk = link[:, start:start + p_k]. signal_i = |T_kk[i,i]|^2, against the
    off-diagonal of row i of T_kk, the other users' columns of row i, and
    the noise power ||row_i(G L)||^2. Perfect noiseless layers cap at
    SINR_CAP; an all-zero layer reports 0. With a leading stack axis on
    `link` and `g` (and optionally `l`), `start` holds one offset per entry.
    """
    p = link.shape[-2]
    power = np.abs(link) ** 2
    own_cols = np.asarray(start)[..., np.newaxis] + np.arange(p)
    own = np.take_along_axis(power, own_cols[..., np.newaxis, :], axis=-1)
    signal = np.diagonal(own, axis1=-2, axis2=-1)
    self_leak = own.sum(axis=-1) - signal
    noise = np.sum(np.abs(g @ l) ** 2, axis=-1)
    denom = self_leak + _cross_power(power, start) + noise
    out = np.full(signal.shape, SINR_CAP)
    below_cap = denom > signal / SINR_CAP
    out[below_cap] = np.minimum(signal[below_cap] / denom[below_cap], SINR_CAP)
    out[signal == 0.0] = 0.0
    return out


def spectral_efficiency(sinrs) -> float:
    """Shannon sum over layers, sum log2(1 + sinr_i), in bits/s/Hz."""
    sinrs = np.asarray(sinrs, dtype=float)
    if np.any(sinrs < 0):
        raise ValueError("SINR values must be >= 0")
    return float(np.sum(np.log2(1.0 + sinrs)))


def parse_detector_scheme(name: str) -> tuple[str, float]:
    """Split a detector token into (base name, gen-lse lambda)."""
    name = name.strip()
    m = _GEN_LSE_RE.match(name)
    if m:
        try:
            lam = float(m.group(1))
        except ValueError:
            raise ConfigError(f"bad gen-lse parameter in '{name}'") from None
        if not lam > 0:
            raise ConfigError(f"gen-lse parameter must be > 0, got {lam}")
        return "gen-lse", lam
    if name not in DETECTOR_SCHEMES:
        raise ConfigError(
            f"unknown detector '{name}' (expected one of {', '.join(DETECTOR_SCHEMES)})"
        )
    return name, 1.0


def make_precoder(channels: ChannelSet, scheme: str, total_power: float) -> Precoder:
    """Build a named precoder; `zf` needs full-rank transmission (p_k = q_k)."""
    if scheme == "zf":
        return rczf_precode(reduce_full_zf(channels), total_power)
    if scheme == "ezf":
        return rczf_precode(reduce_ezf(channels), total_power)
    if scheme == "mrt":
        return mrt_precode(channels, total_power)
    raise ConfigError(
        f"unknown precoder '{scheme}' (expected one of {', '.join(PRECODER_SCHEMES)})"
    )


def stacked_detectors(stacks: tuple[UserStack, ...], scheme: str) -> list[StackedDetector]:
    """A named detector scheme on each user stack, with its noise-free part factored."""
    base, lam = parse_detector_scheme(scheme)
    return [StackedDetector(base, lam, s.users, s.effective, s.interference) for s in stacks]


def mu_report(stacks: tuple, detectors: list, sigma: float, su_se: float) -> LinkReport:
    """Multi-user report at white noise sigma against a given SU SE.

    Per stack: the filters from its detector core, the links as one batched
    G @ H W product, and the per-layer SINRs in one `sinr_per_layer` call.
    Per-user results are laid out in user order.
    """
    n = sum(len(s.users) for s in stacks)
    links, sinrs, ses, leaks = [None] * n, [None] * n, [None] * n, [None] * n
    for stack, detector in zip(stacks, detectors):
        g = detector.filters(sigma**2)
        link = effective_links(stack, g)
        sinr = sinr_per_layer(link, stack.starts, g, sigma * np.eye(g.shape[-1]))
        se = np.sum(np.log2(1.0 + sinr), axis=-1)
        leak = np.sum(_cross_power(np.abs(link) ** 2, stack.starts), axis=-1)
        for i, k in enumerate(stack.users):
            links[k], sinrs[k], ses[k], leaks[k] = link[i], sinr[i], float(se[i]), float(leak[i])
    mu_se = float(sum(ses))
    ratio = su_se / mu_se if mu_se > 0 else math.inf
    return LinkReport(links, sinrs, ses, leaks, mu_se, float(su_se), float(ratio))


def su_spectral_efficiency(gains: tuple, sigma: float) -> float:
    """Single-user SE at white noise sigma, summed over users in order.

    Each user alone has orthogonal links c U_p S_p, so every detector scheme
    gives layer i the SINR g_i / sigma^2 for its gain g_i = (P / p) * s_i^2
    (`system.su_layer_gains`), capped at SINR_CAP like `sinr_per_layer`.
    """
    sigma2 = sigma**2
    su_se = 0.0
    with np.errstate(divide="ignore"):
        for g in gains:
            su_se += spectral_efficiency(np.minimum(g / sigma2, SINR_CAP))
    return su_se


def su_mu_report(
    channels: ChannelSet,
    precoder_scheme: str,
    detector_scheme: str,
    noise: NoiseModel,
) -> LinkReport:
    """Joint multi-user service versus each user served alone.

    The single-user leg is each user's own eigen zero-forcing precoder at
    power P * p_k / p (its share of the budget) under the same white noise:
    sum_i log2(1 + (P / p) s_i^2 / sigma^2), capped at SINR_CAP, which every
    detector scheme attains there. The SU/MU ratio therefore isolates the
    cost of sharing the channel rather than the power split. Noise factors
    other than sigma * I raise InvalidInputError.
    """
    for k, (l, q) in enumerate(zip(noise.factors, channels.scenario.antenna_counts)):
        if not np.array_equal(l, noise.sigma * np.eye(q)):
            raise InvalidInputError(
                f"user {k}: the single-user leg needs white noise sigma * I "
                f"(sigma={noise.sigma:g}, q_k={q})"
            )
    precoder = make_precoder(channels, precoder_scheme, channels.scenario.total_power)
    su_se = su_spectral_efficiency(su_layer_gains(channels), noise.sigma)
    stacks = build_covariance(channels, precoder)
    return mu_report(stacks, stacked_detectors(stacks, detector_scheme), noise.sigma, su_se)
