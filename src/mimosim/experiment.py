"""Configuration-driven sweep runner.

Configs are flat `key = value` text; sweeps average link reports over
seeded channel draws on a grid of single-user SINR targets and serialize
to a pinned CSV schema. Output is a pure function of the config: per-trial
seeds are derived up front and every row accumulates in fixed trial order.
"""

import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .detection import user_stacks
from .errors import ConfigError, InvalidInputError, MimoSimError
from .metrics import mu_report, parse_detector_scheme, su_spectral_efficiency
from .precoding import PRECODER_SCHEMES, precode
from .system import (
    SEED_CHUNK, Scenario, _integer, generate_groups, noise_for_target, su_layer_gains
)

CSV_HEADER = (
    "precoder,detector,su_sinr_db,mu_se_mean,su_se_mean,"
    "ratio_mean,interference_power_mean,trials,base_seed"
)

_KEYS = ("t", "users", "power", "grid", "precoders", "detectors", "trials", "seed", "output")
_REQUIRED = ("t", "users", "grid", "precoders", "detectors")
_DEFAULTS = {"power": "1.0", "trials": "100", "seed": "1", "output": "sweep.csv"}
# A chunk's sweep over G points peaks at ~0.4-0.5 MB per point for 16 users of 4x2,
# so this keeps one chunk under ~0.5 GB; the shipped grids have 9 points.
MAX_GRID_POINTS = 1000
# |dB| bound on grid points: 10^(dB/10) and the noise powers and products it sets stay in float64.
MAX_GRID_DB = 1000.0


@dataclass(frozen=True)
class SweepConfig:
    t: int
    users: tuple[tuple[int, int], ...]
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
        if len(self.su_sinr_grid_db) > MAX_GRID_POINTS:
            raise ConfigError(f"grid has more than {MAX_GRID_POINTS} points")
        if not all(isinstance(db, numbers.Real) and not isinstance(db, bool)
                   for db in self.su_sinr_grid_db):
            raise ConfigError(f"grid points must be real numbers, got {self.su_sinr_grid_db}")
        if not all(math.isfinite(db) for db in self.su_sinr_grid_db):
            raise ConfigError(f"grid points must be finite, got {self.su_sinr_grid_db}")
        if max(map(abs, self.su_sinr_grid_db)) > MAX_GRID_DB:
            raise ConfigError(f"grid points must lie within +-{MAX_GRID_DB:g} dB")
        if any(b <= a for a, b in zip(self.su_sinr_grid_db, self.su_sinr_grid_db[1:])):
            raise ConfigError("grid must be strictly increasing")
        # An InvalidInputError of the trial count or of the scenario's checks (p <= q <= t,
        # sum p <= t, the 64-bit seed) is raised as a ConfigError with its text.
        try:
            object.__setattr__(self, "trials", _integer(self.trials, "trials"))
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
            Scenario(self.t, self.users, self.base_seed)
        except InvalidInputError as exc:
            raise ConfigError(str(exc)) from exc
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


def _parse_users(value: str, line_no: int, t: int) -> tuple[tuple[int, int], ...]:
    """`QxP *N` groups; more than t users (each needs a layer) is an error before expansion."""
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
        if count > t - len(users):
            raise ConfigError(f"line {line_no}: {len(users) + count} users exceed antenna count "
                              f"t={t} (each user needs at least one layer)")
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
    span = (stop - start) / step + 1e-9
    if span >= MAX_GRID_POINTS:
        raise ConfigError(f"line {line_no}: 'grid' has more than {MAX_GRID_POINTS} points")
    return tuple(start + i * step for i in range(int(span) + 1))


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
    users = _parse_users(seen["users"][0], seen["users"][1], t)
    power, power_line = seen["power"]
    if _parse_float(power, "power", power_line) != 1.0:  # precoders have unit power
        raise ConfigError(f"line {power_line}: key 'power' must be 1.0, got '{power}'")
    grid = _parse_grid(seen["grid"][0], seen["grid"][1])
    precoders = tuple(p.strip() for p in seen["precoders"][0].split(",") if p.strip())
    detectors = tuple(d.strip() for d in seen["detectors"][0].split(",") if d.strip())
    trials = _parse_int(seen["trials"][0], "trials", seen["trials"][1])
    seed = _parse_int(seen["seed"][0], "seed", seen["seed"][1])
    output = seen["output"][0]
    return SweepConfig(t, users, grid, precoders, detectors, trials, seed, output)


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

    Trials share their derived seeds across grid points and scheme pairs.
    They go SEED_CHUNK at a time through `_reports` and are summed in trial
    order. A chunk that raises is rerun as the per-point sweep: one `_reports`
    per (trial, grid point) in sweep order, and the first that raises names the error.
    """
    sums = {}  # per pair: the (mu_se, su_se, ratio, leak) x grid point sums
    for start in range(0, config.trials, SEED_CHUNK):
        trials = range(start, min(start + SEED_CHUNK, config.trials))
        try:
            reports = _reports(config, trials)
        except MimoSimError:
            for trial, db in product(trials, config.su_sinr_grid_db):
                _reports(replace(config, su_sinr_grid_db=(db,)), range(trial, trial + 1))
            raise
        for key, report in reports.items():
            for values in np.moveaxis(report, -1, 0):
                sums[key] = sums.get(key, 0.0) + values
    n = float(config.trials)
    return [
        SweepRow(p, d, db, *(sums[(p, d)][:, i] / n).tolist(), config.trials, config.base_seed)
        for p in config.precoders for d in config.detectors
        for i, db in enumerate(config.su_sinr_grid_db)
    ]


def _reports(config: SweepConfig, trials: range) -> dict:
    """Each pair's (mu_se, su_se, ratio, leak) at G grid points and S trials: (4, G, S).

    One draw of the trials' seeds gives the noise levels and SU SEs that all
    pairs share; each precoder's user stacks are built before one `mu_report` per
    pair, in (detector, precoder) order. Errors name trial `trials[0]` and every
    grid point of the call; `run_sweep` reads them at one trial and one point.
    """
    grid, where = config.su_sinr_grid_db, f"trial {trials[0]}"
    points = ",".join(f"{db:g}" for db in grid)
    # A scheme listed twice is computed once and its rows repeated.
    precoders, detectors = dict.fromkeys(config.precoders), dict.fromkeys(config.detectors)
    scenario = Scenario(config.t, config.users, config.base_seed)
    with _sweep_point(where):
        groups = generate_groups(scenario, [trial_seed(config.base_seed, i) for i in trials])
    gains = su_layer_gains(scenario, groups)
    sigma = np.array([[noise_for_target(power, db) for power in np.mean(gains, axis=-1)]
                      for db in grid])
    su_se = su_spectral_efficiency(gains, sigma)
    stacks, reports = {}, {}
    for name in precoders:
        with _sweep_point(f"precoder {name}, {where}"):
            w = precode(groups, scenario, name)[0]
            stacks[name] = user_stacks(groups, scenario.layer_counts, w)
    for detector, name in product(detectors, precoders):
        with _sweep_point(f"precoder {name}, detector {detector}, su_sinr_db {points}, {where}"):
            reports[name, detector] = np.array(mu_report(stacks[name], detector, sigma, su_se))
    return reports


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
