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
sweep runner composes the same helpers as `su_mu_report`, but builds each
precoder once per trial and each covariance and single-user SE once per
trial and noise level.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .detection import (
    CovarianceModel,
    Detector,
    build_covariance,
    gen_lse,
    lse_limit,
    mmse_irc,
    plain_mmse,
    qr_mld_linear,
)
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


@dataclass(frozen=True)
class Service:
    """A channel set served by one precoder under one noise model.

    `cov` holds the interference-plus-noise covariances that every detector
    scheme starts from, so the schemes at one noise level share it.
    """

    channels: ChannelSet
    precoder: Precoder
    noise: NoiseModel
    cov: CovarianceModel


def effective_links(
    channels: ChannelSet, precoder: Precoder, detector: Detector
) -> list:
    """Per-user stacked links: links[k] = G_k @ H_k @ W (p_k x p)."""
    w = precoder.stacked
    return [(g @ h) @ w for g, h in zip(detector.filters, channels.matrices)]


def _cross_power(power: np.ndarray, start: int) -> np.ndarray:
    """Per-row power in the other users' columns of a |link|^2 row block.

    Summed over those columns directly: subtracting the own columns from the
    row total would lose a cross leak ~1e-9 of the signal to cancellation.
    """
    stop = start + power.shape[0]
    return power[:, :start].sum(axis=1) + power[:, stop:].sum(axis=1)


def sinr_per_layer(link: np.ndarray, start: int, g: np.ndarray, l: np.ndarray) -> np.ndarray:
    """Post-detection SINR for each layer of one user.

    `link` is the user's stacked row block G_k H_k W and its own block
    T_kk = link[:, start:start + p_k]. signal_i = |T_kk[i,i]|^2, against the
    off-diagonal of row i of T_kk, the other users' columns of row i, and
    the noise power ||row_i(G L)||^2. Perfect noiseless layers cap at
    SINR_CAP; an all-zero layer reports 0.
    """
    p = link.shape[0]
    power = np.abs(link) ** 2
    own = power[:, start:start + p]
    signal = own.diagonal()
    self_leak = own.sum(axis=1) - signal
    noise = np.sum(np.abs(g @ l) ** 2, axis=1)
    denom = self_leak + _cross_power(power, start) + noise
    out = np.full(p, SINR_CAP)
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


def make_detector(cov: CovarianceModel, scheme: str, sigma: float) -> Detector:
    """Build a named detector from a covariance model."""
    base, lam = parse_detector_scheme(scheme)
    if base == "mmse-irc":
        return mmse_irc(cov)
    if base == "mmse":
        return plain_mmse(cov, sigma)
    if base == "gen-lse":
        return gen_lse(cov, lam)
    if base == "lse-limit":
        return lse_limit(cov)
    return qr_mld_linear(cov)


def serve(channels: ChannelSet, precoder: Precoder, noise: NoiseModel) -> Service:
    """Pair a precoder and noise model with their covariance model."""
    return Service(channels, precoder, noise, build_covariance(channels, precoder, noise))


def _detect(service: Service, detector_scheme: str) -> tuple[list, list, list]:
    """Stacked links, per-layer SINRs and per-user SE under one detector scheme."""
    detector = make_detector(service.cov, detector_scheme, service.noise.sigma)
    links = effective_links(service.channels, service.precoder, detector)
    sinrs, ses = [], []
    start = 0
    for k, link in enumerate(links):
        s = sinr_per_layer(link, start, detector.filters[k], service.noise.factors[k])
        sinrs.append(s)
        ses.append(spectral_efficiency(s))
        start += link.shape[0]
    return links, sinrs, ses


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


def link_report(service: Service, detector_scheme: str, su_se: float) -> LinkReport:
    """Multi-user report of a served channel set against a given SU SE."""
    links, sinrs, ses = _detect(service, detector_scheme)
    leaks = []
    start = 0
    for link in links:
        leaks.append(float(np.sum(_cross_power(np.abs(link) ** 2, start))))
        start += link.shape[0]
    mu_se = float(sum(ses))
    ratio = su_se / mu_se if mu_se > 0 else math.inf
    return LinkReport(
        links=links,
        sinr=sinrs,
        se=ses,
        interference_power=leaks,
        mu_se=mu_se,
        su_se=float(su_se),
        ratio=float(ratio),
    )


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
    return link_report(serve(channels, precoder, noise), detector_scheme, su_se)
