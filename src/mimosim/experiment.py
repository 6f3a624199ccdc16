"""Configuration-driven sweep runner.

Configs are flat `key = value` text; sweeps average link reports over
seeded channel draws on a grid of single-user SINR targets and serialize
to a pinned CSV schema. Output is a pure function of the config: per-trial
seeds are derived up front and every row accumulates in fixed trial order.
"""

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MimoSimError
from .detection import build_covariance
from .metrics import (
    PRECODER_SCHEMES,
    make_precoder,
    mu_report,
    parse_detector_scheme,
    stacked_detectors,
    su_spectral_efficiency,
)
from .system import (
    Scenario,
    generate_channels,
    mean_su_layer_power,
    noise_for_target,
    su_layer_gains,
)

CSV_HEADER = (
    "precoder,detector,su_sinr_db,mu_se_mean,su_se_mean,"
    "ratio_mean,interference_power_mean,trials,base_seed"
)

_KEYS = ("t", "users", "power", "grid", "precoders", "detectors", "trials", "seed", "output")
_REQUIRED = ("t", "users", "grid", "precoders", "detectors")
_DEFAULTS = {"power": "1.0", "trials": "100", "seed": "1", "output": "sweep.csv"}


@dataclass(frozen=True)
class SweepConfig:
    t: int
    users: tuple[tuple[int, int], ...]
    total_power: float
    su_sinr_grid_db: tuple[float, ...]
    precoders: tuple[str, ...]
    detectors: tuple[str, ...]
    trials: int
    base_seed: int
    output_path: str

    def __post_init__(self):
        object.__setattr__(self, "users", tuple(tuple(u) for u in self.users))
        object.__setattr__(self, "su_sinr_grid_db", tuple(self.su_sinr_grid_db))
        object.__setattr__(self, "precoders", tuple(self.precoders))
        object.__setattr__(self, "detectors", tuple(self.detectors))
        if not self.su_sinr_grid_db:
            raise ConfigError("grid must be non-empty")
        if any(b <= a for a, b in zip(self.su_sinr_grid_db, self.su_sinr_grid_db[1:])):
            raise ConfigError("grid must be strictly increasing")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not self.precoders or not self.detectors:
            raise ConfigError("at least one precoder and one detector required")
        for p in self.precoders:
            if p not in PRECODER_SCHEMES:
                raise ConfigError(
                    f"unknown precoder '{p}' (expected one of {', '.join(PRECODER_SCHEMES)})"
                )
        for d in self.detectors:
            parse_detector_scheme(d)
        # Validates dimension constraints (p <= q <= t, sum p <= t).
        Scenario(self.t, self.users, self.total_power, 0)
        if "zf" in self.precoders and any(p != q for q, p in self.users):
            raise ConfigError(
                "precoder 'zf' requires p_k = q_k for every user; use 'ezf' for p_k < q_k"
            )


@dataclass(frozen=True)
class SweepRow:
    precoder: str
    detector: str
    su_sinr_db: float
    mu_se_mean: float
    su_se_mean: float
    ratio_mean: float
    interference_power_mean: float
    trials: int
    base_seed: int


def _parse_users(value: str, line_no: int) -> tuple[tuple[int, int], ...]:
    users = []
    for group in value.split(","):
        group = group.strip()
        if not group:
            raise ConfigError(f"line {line_no}: empty user group in 'users'")
        count = 1
        if "*" in group:
            shape, _, mult = group.partition("*")
            try:
                count = int(mult.strip())
            except ValueError:
                raise ConfigError(
                    f"line {line_no}: bad repeat count in 'users' group '{group}'"
                ) from None
            group = shape.strip()
        if count < 1:
            raise ConfigError(f"line {line_no}: repeat count must be >= 1 in 'users'")
        parts = group.lower().split("x")
        if len(parts) != 2:
            raise ConfigError(
                f"line {line_no}: 'users' groups must look like 'QxP' or 'QxP *N'"
            )
        try:
            q, p = int(parts[0]), int(parts[1])
        except ValueError:
            raise ConfigError(f"line {line_no}: non-integer antenna/layer count in 'users'") from None
        users.extend([(q, p)] * count)
    return tuple(users)


def _parse_grid(value: str, line_no: int) -> tuple[float, ...]:
    parts = value.split(":")
    if len(parts) != 3:
        raise ConfigError(f"line {line_no}: 'grid' must be start:stop:step (dB)")
    try:
        start, stop, step = (float(v) for v in parts)
    except ValueError:
        raise ConfigError(f"line {line_no}: malformed number in 'grid'") from None
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise ConfigError(f"line {line_no}: 'grid' values must be finite")
    if step <= 0:
        raise ConfigError(f"line {line_no}: 'grid' step must be > 0")
    if stop < start:
        raise ConfigError(f"line {line_no}: 'grid' stop must be >= start")
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return tuple(start + i * step for i in range(n))


def _parse_int(value: str, key: str, line_no: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"line {line_no}: malformed integer for key '{key}': '{value}'") from None


def _parse_float(value: str, key: str, line_no: int) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ConfigError(f"line {line_no}: malformed number for key '{key}': '{value}'") from None
    if not math.isfinite(out):
        raise ConfigError(f"line {line_no}: key '{key}' must be finite")
    return out


def parse_config(text: str) -> SweepConfig:
    """Parse flat `key = value` config text; unknown or duplicate keys reject."""
    seen: dict[str, tuple[str, int]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected 'key = value', got '{raw.strip()}'")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {line_no}: unknown key '{key}'")
        if key in seen:
            raise ConfigError(
                f"line {line_no}: duplicate key '{key}' (first set on line {seen[key][1]})"
            )
        if not value:
            raise ConfigError(f"line {line_no}: empty value for key '{key}'")
        seen[key] = (value, line_no)
    for key in _REQUIRED:
        if key not in seen:
            raise ConfigError(f"missing required key '{key}'")
    for key, default in _DEFAULTS.items():
        seen.setdefault(key, (default, 0))

    t = _parse_int(seen["t"][0], "t", seen["t"][1])
    users = _parse_users(seen["users"][0], seen["users"][1])
    power = _parse_float(seen["power"][0], "power", seen["power"][1])
    grid = _parse_grid(seen["grid"][0], seen["grid"][1])
    precoders = tuple(p.strip() for p in seen["precoders"][0].split(",") if p.strip())
    detectors = tuple(d.strip() for d in seen["detectors"][0].split(",") if d.strip())
    trials = _parse_int(seen["trials"][0], "trials", seen["trials"][1])
    seed = _parse_int(seen["seed"][0], "seed", seen["seed"][1])
    output = seen["output"][0]
    try:
        return SweepConfig(t, users, power, grid, precoders, detectors, trials, seed, output)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def trial_seed(base_seed: int, trial_index: int) -> int:
    """Stable 64-bit per-trial seed derived from (base_seed, trial_index)."""
    ss = np.random.SeedSequence(entropy=(int(base_seed), int(trial_index)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@contextmanager
def _sweep_point(where: str):
    """Re-raise a numerical failure as the same class, naming the sweep point."""
    try:
        yield
    except MimoSimError as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def run_sweep(config: SweepConfig) -> list[SweepRow]:
    """Average su/mu link reports over seeded trials for every scheme pair.

    Trials reuse the same derived seeds across grid points and scheme
    pairs, so curves differ only through the scheme and the noise level.
    Each value is computed once where it stops depending on the loops
    inside it: per trial the channels, the single-user layer gains, one
    multi-user precoder per scheme with its users stacked by shape, and one
    noise-free factorization per detector and stack; per grid point the
    noise level and the closed-form single-user SE. Each report only
    rescales that factorization by the noise power, on the route
    `su_mu_report` takes, so the result equals its trial mean at each point.
    """
    seeds = [trial_seed(config.base_seed, i) for i in range(config.trials)]
    # A scheme listed twice is computed once and its rows repeated.
    precoder_names = tuple(dict.fromkeys(config.precoders))
    detector_names = tuple(dict.fromkeys(config.detectors))
    keys = [
        (precoder, detector, db)
        for precoder in config.precoders
        for detector in config.detectors
        for db in config.su_sinr_grid_db
    ]
    # Per-row accumulators: mu_se, su_se, ratio, interference power.
    sums = {key: [0.0, 0.0, 0.0, 0.0] for key in keys}
    for trial, seed in enumerate(seeds):
        scenario = Scenario(config.t, config.users, config.total_power, seed)
        with _sweep_point(f"trial {trial}"):
            channels = generate_channels(scenario)
            gains = su_layer_gains(channels)
        su_power = mean_su_layer_power(gains)
        stacks, cores = {}, {}
        for name in precoder_names:
            with _sweep_point(f"precoder {name}, trial {trial}"):
                precoder = make_precoder(channels, name, config.total_power)
            stacks[name] = build_covariance(channels, precoder)
            for detector in detector_names:
                cores[(name, detector)] = stacked_detectors(stacks[name], detector)
        for db in config.su_sinr_grid_db:
            sigma = noise_for_target(scenario, su_power, db).sigma
            su_se = su_spectral_efficiency(gains, sigma)
            for detector in detector_names:
                for name in precoder_names:
                    with _sweep_point(
                        f"precoder {name}, detector {detector}, su_sinr_db {db:g}, trial {trial}"
                    ):
                        report = mu_report(stacks[name], cores[(name, detector)], sigma, su_se)
                    acc = sums[(name, detector, db)]
                    acc[0] += report.mu_se
                    acc[1] += report.su_se
                    acc[2] += report.ratio
                    acc[3] += float(np.mean(report.interference_power))
    n = float(config.trials)
    rows = []
    for key in keys:
        mu, su, ratio, leak = sums[key]
        rows.append(
            SweepRow(*key, mu / n, su / n, ratio / n, leak / n, config.trials, config.base_seed)
        )
    return rows


def rows_to_csv(rows: list[SweepRow]) -> str:
    """Render sweep rows with the pinned header and 9-significant-digit numbers."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.precoder},{r.detector},{r.su_sinr_db:.9g},{r.mu_se_mean:.9g},"
            f"{r.su_se_mean:.9g},{r.ratio_mean:.9g},{r.interference_power_mean:.9g},"
            f"{r.trials},{r.base_seed}"
        )
    return "\n".join(lines) + "\n"


def write_csv(rows: list[SweepRow], path: str) -> None:
    with open(path, "w", newline="") as f:
        f.write(rows_to_csv(rows))
