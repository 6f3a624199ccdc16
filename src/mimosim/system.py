"""Scenario definition, synthetic channel generation, and noise calibration.

Channels are i.i.d. circularly-symmetric complex Gaussian (unit variance per
entry), drawn from per-user Philox substreams so generation is deterministic
and order-free. Noise is calibrated so the mean per-layer single-user SINR
hits a requested dB target.
"""

import math
import operator
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import ChannelGenerationError, InvalidInputError

# Seeds drawn as one stack by the sweep and the check pool: bounds the arrays held at once.
SEED_CHUNK = 10


def _integer(value, what: str) -> int:
    """`value` as an int through `operator.index`; a bool, a float or any other type is rejected."""
    if not isinstance(value, bool):
        with suppress(TypeError):
            return operator.index(value)
    raise InvalidInputError(f"{what} must be an integer, got {value!r}")


@dataclass(frozen=True)
class Scenario:
    """Transmit-side dimensions, per-user (antennas, layers) and seed; precoders have unit power."""

    t: int
    users: tuple[tuple[int, int], ...]
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "t", _integer(self.t, "antenna count t"))
        object.__setattr__(self, "users", tuple(
            (_integer(q, f"user {k}: antenna count q_k"), _integer(p, f"user {k}: layer count p_k"))
            for k, (q, p) in enumerate(self.users)
        ))
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
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
        if not 0 <= self.seed < 2**64:
            raise InvalidInputError("seed must fit in 64 bits")

    @property
    def num_users(self) -> int:
        return len(self.users)

    @property
    def layer_counts(self) -> tuple[int, ...]:
        return tuple(p for _, p in self.users)

    @property
    def total_layers(self) -> int:
        return sum(p for _, p in self.users)


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

    @cached_property
    def groups(self) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]:
        """One (users, H, U, s) per (q_k, p_k) shape, in order of first appearance.

        `users` holds the group's user indices in user order, H (n x q_k x t)
        their stacked channels, and U (n x q_k x q_k), s (n x q_k) the economy
        SVD factors of H (singular values descending) that the draw, or else
        first use, takes with `_decomposed`; every stage reads them.
        """
        return _decomposed((np.array(users), np.stack([self.matrices[k] for k in users]))
                           for users in shape_groups(self.scenario.users))


def shape_groups(keys) -> list[list[int]]:
    """Indices grouped by equal key, such as (q_k, p_k); groups in order of first appearance."""
    groups: dict = {}
    for k, key in enumerate(keys):
        groups.setdefault(key, []).append(k)
    return list(groups.values())


def ungroup(pairs) -> list:
    """Entries of (users, stack) pairs in user order: user users[i] gets stack[i]."""
    entries = {}
    for users, stack in pairs:
        entries.update(zip(users.tolist(), stack))
    return [entries[k] for k in range(len(entries))]


def _decomposed(stacks) -> tuple:
    """(users, H, U, s) of each (users, H) stack, from one `linalg.svd_reduced` of H."""
    return tuple((users, h, *linalg.svd_reduced(h)[:2]) for users, h in stacks)


def _draw_user(seed: int, k: int, shape: tuple[int, int]) -> np.ndarray:
    """User k's q_k x t channel (`shape`) from its (seed, k, 0) substream, real parts first."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(k, 0))))
    z = rng.standard_normal((2, *shape))
    return (z[0] + 1j * z[1]) / np.sqrt(2.0)


def generate_groups(scenario: Scenario, seeds) -> tuple:
    """`ChannelSet.groups` of the scenario at each of `seeds`, with a leading seed axis.

    User k at seed s is drawn once, from its (s, k, 0) substream. One SVD per
    shape group covers every user of every seed and gives the rank check; a
    rank-deficient draw (practically unreachable) raises `ChannelGenerationError`
    naming the lowest failing seed, then user.
    """
    seeds = tuple(seeds)
    # A group's users of all seeds on one axis, seed-major.
    groups = _decomposed(
        (np.array(users), np.stack([_draw_user(s, k, (scenario.users[k][0], scenario.t))
                                    for s in seeds for k in users]))
        for users in shape_groups(scenario.users))
    failed = [(seeds[i // len(users)], int(users[i % len(users)]))
              for users, _, _, s in groups for i in np.flatnonzero(linalg.rank(s) < s.shape[-1])]
    if failed:
        seed, k = min(failed)
        where = f"seed {seed}, " if len(seeds) > 1 else ""
        raise ChannelGenerationError(f"{where}user {k}: drawn channel is rank deficient")
    return tuple((users, *(a.reshape(len(seeds), len(users), *a.shape[1:]) for a in arrays))
                 for users, *arrays in groups)


def generate_channels(scenario: Scenario) -> ChannelSet:
    """The scenario's Rayleigh channels: `generate_groups` at its seed, decomposed."""
    groups = tuple((users, *(a[0] for a in arrays))
                   for users, *arrays in generate_groups(scenario, (scenario.seed,)))
    channels = ChannelSet(scenario, ungroup((users, h) for users, h, _, _ in groups))
    channels.__dict__["groups"] = groups  # the cached property, filled from the draw
    return channels


def su_layer_gains(scenario: Scenario, groups) -> np.ndarray:
    """Single-user layer gains s_i^2 / p, i <= p_k, of every layer, group by group.

    User k alone, by its own eigen zero-forcing precoder at power p_k / p of unit power,
    receives A_k = c U_p S_p, whose orthogonal columns carry these gains. With
    `generate_groups`' seed axis on `groups`, one gain vector per seed.
    """
    per_layer = 1 / scenario.total_layers
    return np.concatenate([
        per_layer * s[..., :scenario.layer_counts[users[0]]].reshape(s.shape[:-2] + (-1,)) ** 2
        for users, _, _, s in groups
    ], axis=-1)


def noise_for_target(su_layer_power: float, su_sinr_db: float) -> float:
    """White-noise sigma putting `su_layer_power` at `su_sinr_db` above sigma^2."""
    if not math.isfinite(su_sinr_db):
        raise InvalidInputError(f"su_sinr_db must be finite, got {su_sinr_db}")
    try:
        sigma2 = float(su_layer_power) / 10.0 ** (su_sinr_db / 10.0)
    except (OverflowError, ZeroDivisionError):  # 10^(dB/10) overflows, or underflows to 0
        sigma2 = math.inf
    if sigma2 == math.inf:
        raise InvalidInputError(f"su_sinr_db {su_sinr_db:g} puts the noise power out of float range")
    return math.sqrt(sigma2)


def calibrate_noise(channels: ChannelSet, su_sinr_db: float) -> float:
    """White-noise sigma that hits the target mean single-user SINR."""
    gains = su_layer_gains(channels.scenario, channels.groups)
    return noise_for_target(float(np.mean(gains)), su_sinr_db)


def dump_channels(channels: ChannelSet, path) -> None:
    """Write channels in the text fixture format.

    Header line `t q1 p1 q2 p2 ...`, then one line per channel row with t
    whitespace-separated `re im` pairs, users in order. %.17g round-trips
    float64 exactly, signed zeros included.
    """
    header = " ".join(map(str, [channels.scenario.t, *np.ravel(channels.scenario.users)]))
    with open(path, "w") as f:  # a path ending in .gz would make savetxt compress
        np.savetxt(f, np.concatenate(channels.matrices, dtype=np.complex128).view(np.float64),
                   fmt="%.17g", header=header, comments="")


def load_channels(path) -> ChannelSet:
    """Read a channel fixture written by dump_channels.

    The format stores only shapes and entries. Every error names the file,
    and a row's error its line in the file.
    """
    try:
        with open(path) as f:
            lines = [(n, tokens) for n, line in enumerate(f, 1) if (tokens := line.split())]
    except UnicodeDecodeError as exc:
        raise InvalidInputError(f"{path}: not a text channel file") from exc
    if not lines:
        raise InvalidInputError(f"{path}: empty channel file")
    (_, header), *body = lines
    if len(header) < 3 or len(header) % 2 == 0:
        raise InvalidInputError(f"{path}: malformed header (need `t q1 p1 ...`)")
    try:
        t, *counts = map(int, header)
    except ValueError as exc:
        raise InvalidInputError(f"{path}: non-integer value in header") from exc
    try:
        scenario = Scenario(t, tuple(zip(counts[::2], counts[1::2])))
    except InvalidInputError as exc:
        raise InvalidInputError(f"{path}: {exc}") from exc
    owner = (k for k, (q, _) in enumerate(scenario.users) for _ in range(q))  # each row's user
    rows = []
    for (n, tokens), k in zip(body, owner):
        if len(tokens) != 2 * t:
            raise InvalidInputError(f"{path}: line {n}: expected {2 * t} numbers, got {len(tokens)}")
        try:
            rows.append([float(v) for v in tokens])
        except ValueError as exc:
            raise InvalidInputError(f"{path}: line {n}: malformed number") from exc
        if not np.isfinite(rows[-1]).all():
            raise InvalidInputError(f"{path}: line {n}: user {k}: channel has non-finite entries")
    if (k := next(owner, None)) is not None:
        raise InvalidInputError(f"{path}: truncated file (user {k})")
    if len(body) > len(rows):
        raise InvalidInputError(f"{path}: trailing data after channel rows")
    matrices = np.split(np.array(rows).view(np.complex128), np.cumsum(counts[::2])[:-1])
    return ChannelSet(scenario, matrices)
