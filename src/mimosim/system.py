"""Scenario definition, synthetic channel generation, and noise calibration.

Channels are i.i.d. circularly-symmetric complex Gaussian (unit variance per
entry), drawn from per-user Philox substreams so generation is deterministic
and order-free. Noise is calibrated so the mean per-layer single-user SINR
hits a requested dB target.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ChannelGenerationError, InvalidInputError

_GENERATION_RETRIES = 3


@dataclass(frozen=True)
class Scenario:
    """Transmit-side dimensions, per-user (antennas, layers), power budget, seed."""

    t: int
    users: tuple[tuple[int, int], ...]
    total_power: float = 1.0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "users", tuple((int(q), int(p)) for q, p in self.users))
        if self.t < 1:
            raise InvalidInputError(f"antenna count t must be >= 1, got {self.t}")
        if not self.users:
            raise InvalidInputError("scenario needs at least one user")
        for k, (q, p) in enumerate(self.users):
            if not 1 <= p <= q <= self.t:
                raise InvalidInputError(
                    f"user {k}: layer/antenna counts must satisfy 1 <= p <= q <= t, "
                    f"got p={p}, q={q}, t={self.t}"
                )
        if self.total_layers > self.t:
            raise InvalidInputError(
                f"total layer count {self.total_layers} exceeds antenna count t={self.t}"
            )
        if not (math.isfinite(self.total_power) and self.total_power > 0):
            raise InvalidInputError(f"total_power must be positive, got {self.total_power}")
        if not 0 <= int(self.seed) < 2**64:
            raise InvalidInputError("seed must fit in 64 bits")

    @property
    def num_users(self) -> int:
        return len(self.users)

    @property
    def antenna_counts(self) -> tuple[int, ...]:
        return tuple(q for q, _ in self.users)

    @property
    def layer_counts(self) -> tuple[int, ...]:
        return tuple(p for _, p in self.users)

    @property
    def total_layers(self) -> int:
        return sum(p for _, p in self.users)

    def single_user(self, k: int) -> "Scenario":
        """Scenario serving only user k, same antennas/budget/seed."""
        return Scenario(self.t, (self.users[k],), self.total_power, self.seed)


@dataclass(frozen=True)
class ChannelSet:
    """Per-user channel matrices H_k of shape q_k x t."""

    scenario: Scenario
    matrices: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(self, "matrices", tuple(self.matrices))
        if len(self.matrices) != self.scenario.num_users:
            raise InvalidInputError("one channel matrix per user required")
        for k, h in enumerate(self.matrices):
            q, p = self.scenario.users[k]
            if h.shape != (q, self.scenario.t):
                raise InvalidInputError(
                    f"user {k}: channel shape {h.shape} does not match (q={q}, t={self.scenario.t})"
                )
            if not np.isfinite(h).all():
                raise InvalidInputError(f"user {k}: channel has non-finite entries")

    def single_user(self, k: int) -> "ChannelSet":
        return ChannelSet(self.scenario.single_user(k), (self.matrices[k],))


@dataclass(frozen=True)
class NoiseModel:
    """Per-user external-noise factors L_k (noise = L_k @ n with n ~ CN(0, I))."""

    factors: tuple[np.ndarray, ...]
    sigma: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        for k, l in enumerate(self.factors):
            if l.ndim != 2 or l.shape[0] != l.shape[1]:
                raise InvalidInputError(f"user {k}: noise factor must be square, got {l.shape}")
        if self.sigma < 0:
            raise InvalidInputError(f"sigma must be >= 0, got {self.sigma}")

    @classmethod
    def white(cls, scenario: Scenario, sigma: float) -> "NoiseModel":
        """Isotropic noise L_k = sigma * I for every user."""
        factors = tuple(sigma * np.eye(q, dtype=np.complex128) for q in scenario.antenna_counts)
        return cls(factors, float(sigma))


def _user_rng(seed: int, user: int, attempt: int = 0) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(user, attempt))
    return np.random.Generator(np.random.Philox(ss))


def generate_channels(scenario: Scenario) -> ChannelSet:
    """Draw the per-user Rayleigh channels for a scenario.

    Deterministic in (seed, user index); each H_k is checked for full rank
    and redrawn from a perturbed substream if the check fails (practically
    unreachable for Gaussian entries).
    """
    matrices = []
    for k, (q, _) in enumerate(scenario.users):
        for attempt in range(_GENERATION_RETRIES + 1):
            rng = _user_rng(scenario.seed, k, attempt)
            h = (
                rng.standard_normal((q, scenario.t))
                + 1j * rng.standard_normal((q, scenario.t))
            ) / np.sqrt(2.0)
            if linalg.is_full_rank(h):
                matrices.append(h)
                break
        else:
            raise ChannelGenerationError(
                f"user {k}: no full-rank channel after {_GENERATION_RETRIES + 1} draws"
            )
    return ChannelSet(scenario, tuple(matrices))


def su_layer_gains(channels: ChannelSet) -> tuple[np.ndarray, ...]:
    """Per-user single-user layer gains (P / p) * s_i^2, i <= p_k.

    User k served alone by its own eigen zero-forcing precoder at its
    proportional share P * p_k / p of the budget receives A_k = H_k W_k =
    c U_p S_p, whose orthogonal columns carry (P / p) * s_i^2 with s_i the
    i-th singular value of H_k; one singular-value pass per H_k.
    """
    scenario = channels.scenario
    per_layer = scenario.total_power / scenario.total_layers
    return tuple(
        per_layer * np.linalg.svd(h, compute_uv=False)[:p] ** 2
        for h, (_, p) in zip(channels.matrices, scenario.users)
    )


def mean_su_layer_power(gains: tuple[np.ndarray, ...]) -> float:
    """Mean of the single-user layer gains over all layers of all users."""
    return float(np.mean(np.concatenate(gains)))


def noise_for_target(scenario: Scenario, su_layer_power: float, su_sinr_db: float) -> NoiseModel:
    """White NoiseModel putting `su_layer_power` at `su_sinr_db` above the noise."""
    if not math.isfinite(su_sinr_db):
        raise InvalidInputError(f"su_sinr_db must be finite, got {su_sinr_db}")
    sigma2 = su_layer_power / 10.0 ** (su_sinr_db / 10.0)
    return NoiseModel.white(scenario, math.sqrt(sigma2))


def calibrate_noise(channels: ChannelSet, su_sinr_db: float) -> NoiseModel:
    """White NoiseModel whose sigma hits the target mean single-user SINR."""
    power = mean_su_layer_power(su_layer_gains(channels))
    return noise_for_target(channels.scenario, power, su_sinr_db)


def dump_channels(channels: ChannelSet, path) -> None:
    """Write channels in the text fixture format.

    Header line `t q1 p1 q2 p2 ...`, then one line per channel row with t
    whitespace-separated `re im` pairs, users in order. %.17g round-trips
    float64 exactly.
    """
    scenario = channels.scenario
    header = [str(scenario.t)]
    for q, p in scenario.users:
        header.extend([str(q), str(p)])
    lines = [" ".join(header)]
    for h in channels.matrices:
        for row in h:
            parts = []
            for z in row:
                parts.append(f"{z.real:.17g}")
                parts.append(f"{z.imag:.17g}")
            lines.append(" ".join(parts))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def load_channels(path, total_power: float = 1.0, seed: int = 0) -> ChannelSet:
    """Read a channel fixture written by dump_channels.

    The format stores only shapes and entries; power budget and seed are not
    recorded and default to (1.0, 0) unless supplied.
    """
    with open(path) as f:
        lines = [ln for ln in (raw.strip() for raw in f) if ln]
    if not lines:
        raise InvalidInputError(f"{path}: empty channel file")
    header = lines[0].split()
    if len(header) < 3 or len(header) % 2 == 0:
        raise InvalidInputError(f"{path}: malformed header (need `t q1 p1 ...`)")
    try:
        t = int(header[0])
        users = tuple(
            (int(header[i]), int(header[i + 1])) for i in range(1, len(header), 2)
        )
    except ValueError as exc:
        raise InvalidInputError(f"{path}: non-integer value in header") from exc
    scenario = Scenario(t, users, total_power, seed)
    matrices = []
    row_idx = 1
    for k, (q, _) in enumerate(users):
        rows = []
        for _ in range(q):
            if row_idx >= len(lines):
                raise InvalidInputError(f"{path}: truncated file (user {k})")
            vals = lines[row_idx].split()
            row_idx += 1
            if len(vals) != 2 * t:
                raise InvalidInputError(
                    f"{path}: line {row_idx}: expected {2 * t} numbers, got {len(vals)}"
                )
            try:
                nums = np.array([float(v) for v in vals])
            except ValueError as exc:
                raise InvalidInputError(f"{path}: line {row_idx}: malformed number") from exc
            rows.append(nums[0::2] + 1j * nums[1::2])
        matrices.append(np.array(rows, dtype=np.complex128))
    if row_idx != len(lines):
        raise InvalidInputError(f"{path}: trailing data after channel rows")
    return ChannelSet(scenario, tuple(matrices))
