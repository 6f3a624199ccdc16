"""Reduced-channel zero-forcing precoders and the matched-filter baseline.

A reduced channel keeps, per user, a p_k x t matrix V_k = B_k @ H_k whose
rows are the directions actually nulled across users. Zero-forcing the
stacked V (rather than the full H) is what allows p_k < q_k transmission.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    ConfigError,
    DimensionMismatchError,
    IllConditionedError,
    InfeasibleZeroForcingError,
    InvalidInputError,
)
from .system import ChannelSet, Scenario, ungroup

PRECODER_SCHEMES = ("zf", "ezf", "mrt")


@dataclass(frozen=True)
class ReducedChannel:
    """Per-user reduced channels V_k (p_k x t) and reducing maps B_k (p_k x q_k)."""

    matrices: tuple[np.ndarray, ...]
    reducers: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "matrices", tuple(self.matrices))
        object.__setattr__(self, "reducers", tuple(self.reducers))
        if len(self.matrices) != len(self.reducers):
            raise DimensionMismatchError("one reducer per reduced channel required")
        for k, (v, b) in enumerate(zip(self.matrices, self.reducers)):
            if v.shape[0] != b.shape[0]:
                raise DimensionMismatchError(
                    f"user {k}: V has {v.shape[0]} rows but B has {b.shape[0]}"
                )


@dataclass(frozen=True)
class Precoder:
    """Stacked precoder W = [W_1 ... W_K] (t x p) with the scale already applied.

    `scale` is the uniform power-normalization factor: for a zero-forcing
    precoder, V_k @ W_k = scale * I and V_i @ W_j = 0 for i != j.
    """

    stacked: np.ndarray
    scale: float
    reduced: ReducedChannel


def reduce_full_zf(channels: ChannelSet) -> ReducedChannel:
    """Whole-channel reduction: V_k = H_k, B_k = I (needs p_k = q_k)."""
    _check_full(channels.scenario)
    return custom_reduction(channels, [np.eye(q) for q, _ in channels.scenario.users])


def reduce_ezf(channels: ChannelSet) -> ReducedChannel:
    """Eigen reduction of a channel set: `ezf_groups` of its `ChannelSet.groups`, per user."""
    users = [users for users, *_ in channels.groups]
    reduced = zip(*ezf_groups(channels.groups, channels.scenario.layer_counts))
    return ReducedChannel(*(ungroup(zip(users, part)) for part in reduced))


def _check_full(scenario: Scenario) -> None:
    """Full zero-forcing needs p_k = q_k; an error names the first user with p_k < q_k."""
    for k, (q, p) in enumerate(scenario.users):
        if p != q:
            raise DimensionMismatchError(
                f"user {k}: full zero-forcing needs p_k = q_k, got p={p}, q={q}"
            )


def ezf_groups(groups, layer_counts) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Eigen reduction (V, B) per (users, H, U, s) group, any leading (seed) axes.

    B_k = diag(1/s_1..1/s_p) @ U[:, :p]^H inverts the top p_k singular
    directions, so V_k = B_k @ H_k are the dominant right-singular rows of H_k.
    One rank check and one product per group; an error names the lowest user.
    """
    layers = np.array(layer_counts)
    deficient = [
        k for users, _, _, s in groups
        for k in users[np.nonzero(linalg.rank(s) < layers[users])[-1]]
    ]
    if deficient:
        k = min(deficient)
        raise IllConditionedError(
            f"user {k}: singular value {layers[k]} is not above {linalg.RANK_RTOL:g} * sigma_max"
        )
    out = []
    for users, h, u, s in groups:
        p = layers[users[0]]
        b = (1.0 / s[..., :p])[..., np.newaxis] * linalg.herm(u[..., :p])
        out.append((b @ h, b))
    return tuple(out)


def custom_reduction(channels: ChannelSet, reducers) -> ReducedChannel:
    """Reduction from caller-supplied B_k maps, one p_k x q_k per user; V_k = B_k @ H_k."""
    reducers = tuple(np.asarray(b, dtype=np.complex128) for b in reducers)
    users = channels.scenario.users
    if len(reducers) != len(users):
        raise DimensionMismatchError(f"{len(reducers)} reducers for {len(users)} users")
    for k, (b, (q, p)) in enumerate(zip(reducers, users)):
        if b.shape != (p, q):
            raise DimensionMismatchError(f"user {k}: reducer shape {b.shape} is not (p={p}, q={q})")
    matrices = tuple(b @ h for b, h in zip(reducers, channels.matrices))
    return ReducedChannel(matrices, reducers)


def _power_scaled(w0: np.ndarray, total_power: float) -> tuple[np.ndarray, np.ndarray]:
    """Each t x p matrix of w0 scaled to trace(W @ W^H) = total_power, and the scales."""
    if not (math.isfinite(total_power) and total_power > 0):
        raise InvalidInputError(f"total_power must be finite and > 0, got {total_power}")
    lead, matrix = w0.shape[:-2], w0.shape[-2:]
    scale = np.sqrt(total_power) / np.array([np.linalg.norm(w) for w in w0.reshape(-1, *matrix)])
    return scale.reshape(lead + (1, 1)) * w0, scale.reshape(lead)


def zero_forcing(v: np.ndarray, total_power: float) -> tuple[np.ndarray, np.ndarray]:
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
    return _power_scaled(w0, total_power)


def matched_filter(v: np.ndarray, total_power: float) -> tuple[np.ndarray, np.ndarray]:
    """Matched-filter precoders W = c V^H and scales c of stacked reduced channels V (..., p, t)."""
    return _power_scaled(linalg.herm(v), total_power)


def precode(groups, scenario: Scenario, scheme: str) -> tuple[np.ndarray, np.ndarray]:
    """Precoders W (..., t, p) and scales of a named scheme on the scenario's channel groups.

    `groups` may carry `system.generate_groups`' seed axis, which W and the scales keep.
    `zf` zero-forces the whole channels (p_k = q_k), `ezf` the eigen-reduced ones,
    and `mrt` matches the latter.
    """
    if scheme == "zf":
        _check_full(scenario)
        reduced = [(users, h) for users, h, _, _ in groups]
    elif scheme in ("ezf", "mrt"):
        reduced = [(users, v) for (users, *_), (v, _)
                   in zip(groups, ezf_groups(groups, scenario.layer_counts))]
    else:
        raise ConfigError(
            f"unknown precoder '{scheme}' (expected one of {', '.join(PRECODER_SCHEMES)})"
        )
    # Every seed's reduced channels in user order: (..., p, t).
    v = np.concatenate(ungroup((users, np.moveaxis(m, -3, 0)) for users, m in reduced), axis=-2)
    return (matched_filter if scheme == "mrt" else zero_forcing)(v, scenario.total_power)


def rczf_precode(reduced: ReducedChannel, total_power: float) -> Precoder:
    """Zero-forcing precoder of the stacked reduced channel: `zero_forcing` of one stack."""
    w, scale = zero_forcing(np.vstack(reduced.matrices), total_power)
    return Precoder(w, float(scale), reduced)


def mrt_precode(channels: ChannelSet, total_power: float) -> Precoder:
    """Matched-filter baseline: beam straight at each user's eigen-directions.

    W_k is the Hermitian of the user's eigen-reduced channel; no nulling
    across users is performed, so this precoder sits outside the
    zero-forcing class for generic multi-user channels.
    """
    reduced = reduce_ezf(channels)
    w, scale = matched_filter(np.vstack(reduced.matrices), total_power)
    return Precoder(w, float(scale), reduced)
