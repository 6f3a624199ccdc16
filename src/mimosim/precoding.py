"""Reduced-channel zero-forcing precoders and the matched-filter baseline.

A reduced channel keeps, per user, a p_k x t matrix V_k = B_k @ H_k whose
rows are the directions actually nulled across users. Zero-forcing the
stacked V (rather than the full H) is what allows p_k < q_k transmission.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    IllConditionedError,
    InfeasibleZeroForcingError,
)
from .system import ChannelSet


@dataclass(frozen=True)
class ReducedChannel:
    """Per-user reduced channels V_k (p_k x t) and reducing maps B_k (p_k x q_k)."""

    matrices: tuple[np.ndarray, ...]
    reducers: tuple[np.ndarray, ...]
    kind: str = "custom"

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

    @property
    def layer_counts(self) -> tuple[int, ...]:
        return tuple(v.shape[0] for v in self.matrices)


@dataclass(frozen=True)
class Precoder:
    """Per-user precoding blocks W_k (t x p_k) with the scale already applied.

    `scale` is the uniform power-normalization factor: for the zero-forcing
    kind, V_k @ W_k = scale * I and V_i @ W_j = 0 for i != j.
    """

    blocks: tuple[np.ndarray, ...]
    scale: float
    kind: str
    total_power: float
    reduced: ReducedChannel | None = None

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))

    @property
    def stacked(self) -> np.ndarray:
        """Column-stack of all user blocks, t x p."""
        return np.hstack(self.blocks)


def reduce_full_zf(channels: ChannelSet) -> ReducedChannel:
    """Whole-channel reduction: V_k = H_k, B_k = I (needs p_k = q_k)."""
    for k, (q, p) in enumerate(channels.scenario.users):
        if p != q:
            raise DimensionMismatchError(
                f"user {k}: full zero-forcing needs p_k = q_k, got p={p}, q={q}"
            )
    matrices = tuple(h.copy() for h in channels.matrices)
    reducers = tuple(np.eye(q, dtype=np.complex128) for q, _ in channels.scenario.users)
    return ReducedChannel(matrices, reducers, kind="full-zf")


def reduce_ezf(channels: ChannelSet) -> ReducedChannel:
    """Eigen reduction: B_k inverts the top p_k singular directions of H_k.

    B_k = diag(1/s_1..1/s_p) @ U[:, :p]^H, so V_k = B_k @ H_k equals the
    dominant p_k right-singular rows of H_k.
    """
    matrices = []
    reducers = []
    for k, h in enumerate(channels.matrices):
        _, p = channels.scenario.users[k]
        u, s, _ = linalg.svd_reduced(h)
        if s[p - 1] < linalg.RANK_RTOL * s[0]:
            raise IllConditionedError(
                f"user {k}: singular value {p} is below {linalg.RANK_RTOL:g} * sigma_max"
            )
        b = (1.0 / s[:p])[:, np.newaxis] * linalg.herm(u[:, :p])
        matrices.append(b @ h)
        reducers.append(b)
    return ReducedChannel(tuple(matrices), tuple(reducers), kind="ezf")


def custom_reduction(channels: ChannelSet, reducers) -> ReducedChannel:
    """Reduction from caller-supplied B_k maps; V_k = B_k @ H_k."""
    reducers = tuple(np.asarray(b, dtype=np.complex128) for b in reducers)
    matrices = tuple(b @ h for b, h in zip(reducers, channels.matrices))
    return ReducedChannel(matrices, reducers, kind="custom")


def rczf_precode(reduced: ReducedChannel, total_power: float) -> Precoder:
    """Zero-forcing precoder: pseudo-inverse of the stacked reduced channel.

    The single scale makes trace(W @ W^H) = total_power; rank deficiency of
    the stack means the per-user nulling constraints cannot all be met. One
    SVD V = U S Vh serves both the rank check and W0 = Vh^H S^{-1} U^H.
    """
    v = np.vstack(reduced.matrices)
    u, s, vh = linalg.svd_reduced(v)
    if s[-1] <= linalg.RANK_RTOL * s[0]:
        raise InfeasibleZeroForcingError(
            f"stacked reduced channel ({v.shape[0]} rows, {v.shape[1]} columns) is rank "
            "deficient; too many layers or colinear users"
        )
    w0 = linalg.herm(vh) @ ((1.0 / s)[:, np.newaxis] * linalg.herm(u))
    scale = float(np.sqrt(total_power) / np.linalg.norm(w0))
    blocks = []
    offset = 0
    for p in reduced.layer_counts:
        blocks.append(scale * w0[:, offset:offset + p])
        offset += p
    return Precoder(tuple(blocks), scale, "rczf", float(total_power), reduced)


def mrt_precode(channels: ChannelSet, total_power: float) -> Precoder:
    """Matched-filter baseline: beam straight at each user's eigen-directions.

    W_k is the Hermitian of the user's eigen-reduced channel; no nulling
    across users is performed, so this precoder sits outside the
    zero-forcing class for generic multi-user channels.
    """
    reduced = reduce_ezf(channels)
    w0 = np.hstack([linalg.herm(v) for v in reduced.matrices])
    scale = float(np.sqrt(total_power) / np.linalg.norm(w0))
    blocks = tuple(scale * linalg.herm(v) for v in reduced.matrices)
    return Precoder(blocks, scale, "mrt", float(total_power), reduced)
