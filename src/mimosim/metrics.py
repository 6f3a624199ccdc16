"""Effective-link decomposition, post-detection SINR, and spectral efficiency.

The single-user / multi-user report serves every user jointly, against each
user served alone by eigen zero-forcing at its proportional share of the
power under the same white noise, whose SE has a closed form for every
detector scheme. When the joint system suppresses inter-user interference
the SU/MU ratio decays toward its interference-free floor as the noise floor
drops; schemes that leak interference saturate and the ratio diverges.

Each user's links are one p_k x p row block G_k H_k W of the stacked
precoder W = [W_1 ... W_K]; its own layers are its columns, the others are
cross-user leakage. `mu_report` reports the multi-user leg on users stacked
by shape over a grid of G noise levels and, in a sweep, the seed axis of a
chunk of trials.
"""

import math
import re
from dataclasses import dataclass

import numpy as np

from .detection import UserStack, filters, split_columns, user_stacks
from .errors import ConfigError, InvalidInputError
from .precoding import precode
from .system import ChannelSet, su_layer_gains

# Noiseless perfect links cap here instead of producing infinite SE.
SINR_CAP = 1e12

DETECTOR_SCHEMES = ("mmse-irc", "mmse", "gen-lse", "lse-limit", "qr-mld")

_GEN_LSE_RE = re.compile(r"^gen-lse\(([^)]+)\)$")


@dataclass(frozen=True)
class LinkReport:
    """Summed MU and SU SE, their ratio, and the users' mean cross-user leak power."""

    mu_se: float
    su_se: float
    ratio: float
    interference_power: float


def effective_links(stack: UserStack, g: np.ndarray) -> np.ndarray:
    """Links of a user stack under its filters: links[i] = G_i H_k W (p_k x p), k = users[i]."""
    return g @ stack.links


def _sinr_and_cross(link: np.ndarray, start, g: np.ndarray, sigma):
    """`sinr_per_layer`, and each layer's power in the other users' columns: summed directly,
    as the row total minus the own columns would lose a ~1e-9 leak to cancellation."""
    own, cross = split_columns(np.abs(link) ** 2, start, link.shape[-2])
    cross = np.sum(cross, axis=-1)
    signal = np.diagonal(own, axis1=-2, axis2=-1)
    self_leak = own.sum(axis=-1) - signal
    noise = np.sum(np.abs(sigma * g) ** 2, axis=-1)
    denom = self_leak + cross + noise
    out = np.full(signal.shape, SINR_CAP)
    below_cap = denom > signal / SINR_CAP
    out[below_cap] = np.minimum(signal[below_cap] / denom[below_cap], SINR_CAP)
    out[signal == 0.0] = 0.0
    return out, cross


def sinr_per_layer(link: np.ndarray, start, g: np.ndarray, sigma) -> np.ndarray:
    """Post-detection SINR for each layer of one user, or of each user in a stack.

    `link` is the user's stacked row block G_k H_k W and its own block
    T_kk = link[:, start:start + p_k]. signal_i = |T_kk[i,i]|^2, against the
    off-diagonal of row i of T_kk, the other users' columns of row i, and
    the white-noise power ||row_i(sigma G)||^2. Perfect noiseless layers cap
    at SINR_CAP; an all-zero layer reports 0. With a stack axis on `link`
    and `g`, `start` holds one offset per entry; further leading (grid) axes
    broadcast, `sigma` against `g`.
    """
    return _sinr_and_cross(link, start, g, sigma)[0]


def spectral_efficiency(sinrs):
    """Shannon sum over layers (the last axis), sum log2(1 + sinr_i) by log1p, in bits/s/Hz."""
    sinrs = np.asarray(sinrs, dtype=float)
    if not np.all(sinrs >= 0):
        raise InvalidInputError("SINR values must be >= 0 and not NaN")
    return np.sum(np.log1p(sinrs), axis=-1) / np.log(2.0)


def parse_detector_scheme(name: str) -> tuple[str, float]:
    """Split a detector token into (base name, gen-lse lambda)."""
    name = name.strip()
    m = _GEN_LSE_RE.match(name)
    if m:
        try:
            lam = float(m.group(1))
        except ValueError:
            raise ConfigError(f"bad gen-lse parameter in '{name}'") from None
        if not (math.isfinite(lam) and lam > 0):
            raise ConfigError(f"gen-lse parameter must be finite and > 0, got {lam}")
        return "gen-lse", lam
    if name not in DETECTOR_SCHEMES:
        raise ConfigError(
            f"unknown detector '{name}' (expected one of {', '.join(DETECTOR_SCHEMES)})"
        )
    return name, 1.0


def mu_report(stacks: tuple, detector: str, sigma: np.ndarray, su_se: np.ndarray):
    """MU SE, the given SU SE, SU/MU ratio and mean cross leak power at G grid points.

    `detector` is a scheme token such as "gen-lse(0.1)". `sigma` and `su_se` are
    (G,), or (G, S) for stacks with a leading axis of S seeds, and so are the
    results. Per stack: one `filters` call, one batched G @ H W product and one
    |G H W|^2 split, whose cross sums feed both the SINR and the leak.
    """
    scheme, lam = parse_detector_scheme(detector)
    n = sum(len(s.users) for s in stacks)
    ses, leaks = np.empty(sigma.shape + (n,)), np.empty(sigma.shape + (n,))
    for stack in stacks:
        g = filters(scheme, lam, stack.users, stack.effective, stack.interference, sigma**2)
        link = effective_links(stack, g)
        sinr, cross = _sinr_and_cross(link, stack.starts, g, sigma.reshape(sigma.shape + (1, 1, 1)))
        ses[..., stack.users] = spectral_efficiency(sinr)
        leaks[..., stack.users] = np.sum(cross, axis=-1)
    mu_se = np.sum(ses, axis=-1)
    ratio = np.divide(su_se, mu_se, out=np.full(mu_se.shape, math.inf), where=mu_se > 0)
    return mu_se, su_se, ratio, np.mean(leaks, axis=-1)


def su_spectral_efficiency(gains: np.ndarray, sigma):
    """Single-user SE at white noise sigma, summed over every layer of every user.

    Each user alone has orthogonal links c U_p S_p, so every detector scheme
    gives layer i the SINR g_i / sigma^2 for its gain g_i = s_i^2 / p
    (`system.su_layer_gains`), capped at SINR_CAP like `sinr_per_layer`; one
    SE per sigma. Gains (S, layers) of S seeds take sigma (G, S).
    """
    with np.errstate(divide="ignore"):
        return spectral_efficiency(np.minimum(gains / np.square(sigma)[..., np.newaxis], SINR_CAP))


def su_mu_report(
    channels: ChannelSet, precoder_scheme: str, detector_scheme: str, sigma: float
) -> LinkReport:
    """Joint multi-user service versus each user served alone, at white noise sigma.

    The single-user leg gives each user its share p_k / p of unit power, so
    the SU/MU ratio isolates the cost of sharing the channel, not the power
    split. This is the sweep's route (`precode`, `user_stacks`, `mu_report`) at one
    seed and one grid point. A negative, infinite or NaN sigma raises InvalidInputError.
    """
    if not (math.isfinite(sigma) and sigma >= 0):
        raise InvalidInputError(f"sigma must be finite and >= 0, got {sigma}")
    scenario, groups = channels.scenario, channels.groups
    w = precode(groups, scenario, precoder_scheme)[0]
    stacks = user_stacks(groups, scenario.layer_counts, w)
    sigma = np.array([sigma])
    su_se = su_spectral_efficiency(su_layer_gains(scenario, groups), sigma)
    return LinkReport(*(float(v[0]) for v in mu_report(stacks, detector_scheme, sigma, su_se)))
