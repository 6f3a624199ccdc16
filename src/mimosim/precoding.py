"""Reduced-channel zero-forcing precoders and the matched-filter baseline.

A reduced channel keeps, per user, a p_k x t matrix V_k = B_k @ H_k whose
rows are the directions actually nulled across users. Zero-forcing the
stacked V (rather than the full H) is what allows p_k < q_k transmission.
A reduction is one (users, V, B) per `ChannelSet.groups` shape group: the
group's user indices, V (..., n, p_k, t) and B (..., n, p_k, q_k), with any
leading (seed) axes of the groups.
"""

import numpy as np

from . import linalg
from .errors import (
    ConfigError,
    DimensionMismatchError,
    IllConditionedError,
    InfeasibleZeroForcingError,
)
from .system import ChannelSet, Scenario, ungroup

PRECODER_SCHEMES = ("zf", "ezf", "mrt")


def reduce_full_zf(channels: ChannelSet) -> tuple:
    """Whole-channel reduction: V_k = H_k, B_k = I (needs p_k = q_k)."""
    return _reduction(channels.groups, channels.scenario, "zf")


def reduce_ezf(channels: ChannelSet) -> tuple:
    """Eigen reduction of a channel set: `ezf_groups` of its `ChannelSet.groups`."""
    return ezf_groups(channels.groups, channels.scenario.layer_counts)


def _reduction(groups, scenario: Scenario, scheme: str) -> tuple:
    """The reduction a scheme precodes; `zf` (B = I) names the first user with p_k < q_k."""
    if scheme in ("ezf", "mrt"):
        return ezf_groups(groups, scenario.layer_counts)
    if scheme != "zf":
        raise ConfigError(
            f"unknown precoder '{scheme}' (expected one of {', '.join(PRECODER_SCHEMES)})"
        )
    for k, (q, p) in enumerate(scenario.users):
        if p != q:
            raise DimensionMismatchError(
                f"user {k}: full zero-forcing needs p_k = q_k, got p={p}, q={q}"
            )
    return tuple((users, h, np.broadcast_to(np.eye(h.shape[-2], dtype=complex), u.shape))
                 for users, h, u, _ in groups)


def ezf_groups(groups, layer_counts) -> tuple:
    """Eigen reduction (users, V, B) per (users, H, U, s) group, any leading (seed) axes.

    B_k = diag(1/s_1..1/s_p) @ U[:, :p]^H inverts the top p_k singular
    directions, so V_k = B_k @ H_k are the dominant right-singular rows of H_k.
    One rank check and one product per group; an error names the lowest user.
    """
    layers = np.array(layer_counts)
    deficient = [k for users, _, _, s in groups
                 for k in users[np.nonzero(linalg.rank(s) < layers[users])[-1]]]
    if deficient:
        k = min(deficient)
        raise IllConditionedError(
            f"user {k}: singular value {layers[k]} is not above {linalg.RANK_RTOL:g} * sigma_max"
        )
    out = []
    for users, h, u, s in groups:
        p = layers[users[0]]
        b = (1.0 / s[..., :p])[..., np.newaxis] * linalg.herm(u[..., :p])
        out.append((users, b @ h, b))
    return tuple(out)


def custom_reduction(channels: ChannelSet, reducers) -> tuple:
    """Reduction from caller-supplied B_k maps, one p_k x q_k per user; V_k = B_k @ H_k."""
    reducers = tuple(np.asarray(b, dtype=np.complex128) for b in reducers)
    users = channels.scenario.users
    if len(reducers) != len(users):
        raise DimensionMismatchError(f"{len(reducers)} reducers for {len(users)} users")
    for k, (b, (q, p)) in enumerate(zip(reducers, users)):
        if b.shape != (p, q):
            raise DimensionMismatchError(f"user {k}: reducer shape {b.shape} is not (p={p}, q={q})")
    stacks = ((g, h, np.stack([reducers[k] for k in g])) for g, h, _, _ in channels.groups)
    return tuple((g, b @ h, b) for g, h, b in stacks)


def _power_scaled(w0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each t x p matrix of w0 scaled to unit power, trace(W @ W^H) = 1, and the scales."""
    lead, matrix = w0.shape[:-2], w0.shape[-2:]
    scale = 1.0 / np.array([np.linalg.norm(w) for w in w0.reshape(-1, *matrix)])
    return scale.reshape(lead + (1, 1)) * w0, scale.reshape(lead)


def zero_forcing(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Zero-forcing precoders W (..., t, p) and scales of stacked reduced channels V (..., p, t).

    W0 = V^+ = Vh^H S^{-1} U^H from one SVD (any leading seed axes share it),
    which also finds a rank-deficient V: its nulling constraints cannot all hold.
    """
    u, s, vh = linalg.svd_reduced(v)
    if (linalg.rank(s) < s.shape[-1]).any():
        raise InfeasibleZeroForcingError(
            f"stacked reduced channel ({v.shape[-2]} rows, {v.shape[-1]} columns) is rank "
            "deficient; too many layers or colinear users"
        )
    w0 = linalg.herm(vh) @ ((1.0 / s)[..., np.newaxis] * linalg.herm(u))
    return _power_scaled(w0)


def matched_filter(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Matched-filter precoders W = c V^H and scales c of stacked reduced channels V (..., p, t)."""
    return _power_scaled(linalg.herm(v))


def _rows(reduced) -> np.ndarray:
    """The stacked reduced channel V (..., p, t): every user's V_k in user order."""
    users_v = ungroup((users, np.moveaxis(v, -3, 0)) for users, v, _ in reduced)
    return np.concatenate(users_v, axis=-2)


def precode(groups, scenario: Scenario, scheme: str) -> tuple:
    """Precoders W (..., t, p), scales and (users, V, B) reduction of a named scheme.

    All three keep any seed axis of `groups` (`system.generate_groups`). `zf` zero-forces
    the whole channels (p_k = q_k, B = I), `ezf` the eigen-reduced ones, `mrt` matches those.
    """
    reduced = _reduction(groups, scenario, scheme)
    build = matched_filter if scheme == "mrt" else zero_forcing
    return (*build(_rows(reduced)), reduced)


def rczf_precode(reduced) -> tuple[np.ndarray, np.ndarray]:
    """Zero-forcing precoder W and scale of a reduction: `zero_forcing` of its one stack."""
    return zero_forcing(_rows(reduced))


def mrt_precode(channels: ChannelSet) -> tuple[np.ndarray, np.ndarray]:
    """Matched-filter baseline: beam straight at each user's eigen-directions.

    W_k is the Hermitian of the user's eigen-reduced channel; no nulling
    across users is performed, so this precoder sits outside the
    zero-forcing class for generic multi-user channels.
    """
    return matched_filter(_rows(reduce_ezf(channels)))
