import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings

from mimosim import detection, experiment, linalg, metrics, system
from mimosim.cli import main as cli_main
from mimosim.errors import (
    ChannelGenerationError,
    ConfigError,
    NeedsExternalNoiseError,
    SingularMatrixError,
)
from mimosim.experiment import (
    CSV_HEADER,
    SweepConfig,
    parse_config,
    rows_to_csv,
    run_sweep,
    trial_seed,
    write_csv,
)
from mimosim.metrics import su_mu_report, su_spectral_efficiency
from mimosim.system import (
    Scenario,
    calibrate_noise,
    generate_channels,
    load_channels,
    su_layer_gains,
)

from conftest import CONFIG_DIR, scenarios

MINIMAL = """
t = 64
users = 4x2 *8
grid = 0:40:20
precoders = ezf
detectors = mmse-irc
"""

SMALL = """
# quick sweep for tests
t = 16
users = 4x2 *2
power = 1.0
grid = 0:10:10
precoders = ezf, mrt
detectors = qr-mld
trials = 2
seed = 3
output = out.csv
"""


FIG5_SHAPED = """
t = 64
users = 4x2 *16
grid = 0:40:20
precoders = ezf, mrt
detectors = mmse
trials = 1
"""


def test_each_channel_is_decomposed_once_per_trial(monkeypatch):
    # One stacked SVD for the 16 channels (one shape group) and one in
    # rczf_precode; MRT and the single-user gains reuse the channels' SVD.
    calls = {"svd_reduced": 0, "is_full_rank": 0}
    for name in calls:
        original = getattr(linalg, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(linalg, name, counting)
    run_sweep(parse_config(FIG5_SHAPED))
    assert calls == {"svd_reduced": 2, "is_full_rank": 0}


def test_one_filters_call_per_trial_pair_and_stack(monkeypatch):
    # fig3: 1 precoder x 2 detectors x 1 shape group per chunk of trials, each
    # call over the whole 9-point grid and the chunk's trials (a per-point,
    # per-trial sweep makes 36 calls at 2 trials).
    shapes = []
    original = metrics.filters

    def counting(scheme, lam, users, a, r0, s2):
        shapes.append(np.shape(s2))
        return original(scheme, lam, users, a, r0, s2)

    monkeypatch.setattr(metrics, "filters", counting)
    fig3 = parse_config((CONFIG_DIR / "fig3.cfg").read_text())
    run_sweep(dataclasses.replace(fig3, trials=2))
    assert shapes == [(9, 2)] * 2
    shapes.clear()
    run_sweep(dataclasses.replace(fig3, trials=11))
    assert shapes == [(9, 10)] * 2 + [(9, 1)] * 2


def test_sweep_draws_each_chunk_once_and_never_one_trial_alone(monkeypatch):
    # The sweep reaches user stacks only through the seed-stacked stages.
    draws = []
    original = experiment.generate_groups

    def counting(scenario, seeds):
        draws.append(len(seeds))
        return original(scenario, seeds)

    def forbidden(*args, **kwargs):
        raise AssertionError("run_sweep called a one-seed stage")

    monkeypatch.setattr(experiment, "generate_groups", counting)
    for module in (system, detection, metrics, experiment):
        for name in ("generate_channels", "build_covariance"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    run_sweep(dataclasses.replace(parse_config(SMALL), trials=23))
    assert draws == [10, 10, 3]


CHUNKED = {
    "fig3-shaped": SweepConfig(64, ((4, 2),) * 8, 1.0, (0.0, 20.0, 40.0), ("ezf",),
                               ("mmse-irc", "qr-mld"), 1, 5, "x.csv"),
    "mixed": SweepConfig(32, ((4, 2),) * 2 + ((2, 1),) * 2 + ((8, 4),), 1.0, (5.0, 35.0),
                         ("ezf", "mrt"), ("gen-lse(0.1)", "lse-limit", "mmse"), 1, 9, "x.csv"),
}


@pytest.mark.parametrize("trials", [11, 23])
@pytest.mark.parametrize("name", list(CHUNKED))
def test_chunked_rows_equal_the_per_trial_reports(name, trials):
    # 11 and 23 trials cross chunk boundaries; each row must still be the mean,
    # summed in trial order, of su_mu_report at each trial alone.
    cfg = dataclasses.replace(CHUNKED[name], trials=trials)
    channels = [
        generate_channels(Scenario(cfg.t, cfg.users, cfg.total_power, trial_seed(cfg.base_seed, i)))
        for i in range(trials)
    ]
    for row in run_sweep(cfg):
        sums = np.zeros(4)
        for trial in channels:
            sigma = calibrate_noise(trial, row.su_sinr_db)
            report = su_mu_report(trial, row.precoder, row.detector, sigma)
            sums += (report.mu_se, report.su_se, report.ratio, report.interference_power)
        got = (row.mu_se_mean, row.su_se_mean, row.ratio_mean, row.interference_power_mean)
        np.testing.assert_allclose(got, sums / trials, rtol=1e-12, atol=0.0,
                                   err_msg=f"{row.precoder}/{row.detector} at {row.su_sinr_db}")


class TestParseConfig:
    def test_minimal_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.trials == 100
        assert cfg.total_power == 1.0
        assert cfg.base_seed == 1
        assert cfg.output_path == "sweep.csv"
        assert cfg.users == ((4, 2),) * 8
        assert cfg.su_sinr_grid_db == (0.0, 20.0, 40.0)

    def test_user_shorthand_groups(self):
        cfg = parse_config(MINIMAL.replace("4x2 *8", "4x2 *3, 2x1, 8x4 *2"))
        assert cfg.users == ((4, 2),) * 3 + ((2, 1),) + ((8, 4),) * 2

    def test_duplicate_key_names_lines(self):
        text = MINIMAL + "\nt = 32\n"
        with pytest.raises(ConfigError, match=r"duplicate key 't'"):
            parse_config(text)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'foo'"):
            parse_config(MINIMAL + "foo = 1\n")

    def test_malformed_number_names_line_and_key(self):
        with pytest.raises(ConfigError, match=r"line \d+: malformed integer for key 'trials'"):
            parse_config(MINIMAL + "trials = many\n")

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="missing required key 'grid'"):
            parse_config("t = 8\nusers = 2x2\nprecoders = zf\ndetectors = mmse\n")

    def test_grid_validation(self):
        with pytest.raises(ConfigError, match="step must be > 0"):
            parse_config(MINIMAL.replace("0:40:20", "0:40:-5"))
        with pytest.raises(ConfigError, match="start:stop:step"):
            parse_config(MINIMAL.replace("0:40:20", "0,40"))

    def test_grid_point_bound(self):
        assert len(parse_config(MINIMAL.replace("0:40:20", "0:999:1")).su_sinr_grid_db) == 1000
        for grid in ("0:1000:1", "0:1e15:1", "-1e308:1e308:1e-300"):
            with pytest.raises(ConfigError, match=r"^line \d+: 'grid' has more than 1000 points$"):
                parse_config(MINIMAL.replace("0:40:20", grid))

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config(SMALL)
        assert cfg.trials == 2
        assert cfg.precoders == ("ezf", "mrt")

    def test_zf_requires_full_rank_users(self):
        with pytest.raises(ConfigError, match="p_k = q_k"):
            parse_config(MINIMAL.replace("precoders = ezf", "precoders = zf"))
        cfg = parse_config(
            MINIMAL.replace("precoders = ezf", "precoders = zf").replace("4x2 *8", "4x4 *4")
        )
        assert cfg.precoders == ("zf",)

    def test_unknown_detector_rejected(self):
        with pytest.raises(ConfigError, match="unknown detector"):
            parse_config(MINIMAL.replace("mmse-irc", "zf"))

    def test_dimension_violations_surface_as_config_errors(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL.replace("t = 64", "t = 8"))

    @pytest.mark.parametrize("users, total", [("4x2 *100000000000", 100000000000),
                                              ("4x2 *60, 2x1 *5", 65)])
    def test_more_users_than_antennas_rejected_before_expansion(self, users, total):
        # Each user needs a layer of the t = 64: a huge repeat count is a config
        # error naming the line, not a list of that many users.
        message = rf"^line 3: {total} users exceed antenna count t=64 \(each user needs at"
        with pytest.raises(ConfigError, match=message):
            parse_config(MINIMAL.replace("4x2 *8", users))
        assert len(parse_config(MINIMAL.replace("4x2 *8", "1x1 *64")).users) == 64


class TestTrialSeeds:
    def test_frozen_values(self):
        # Derivation is pinned; a change here silently breaks reproducibility.
        assert trial_seed(1, 0) == 7434755675892716031
        assert trial_seed(1, 1) == 77803131892610477
        assert trial_seed(42, 0) == 11465652750463011511

    def test_distinct(self):
        seeds = {trial_seed(1, i) for i in range(50)}
        assert len(seeds) == 50


class TestRunSweep:
    def test_deterministic_csv(self):
        cfg = parse_config(SMALL)
        a = rows_to_csv(run_sweep(cfg))
        b = rows_to_csv(run_sweep(cfg))
        assert a == b

    def test_row_layout(self):
        cfg = parse_config(SMALL)
        rows = run_sweep(cfg)
        assert len(rows) == 4  # 2 precoders x 1 detector x 2 grid points
        assert [(r.precoder, r.su_sinr_db) for r in rows] == [
            ("ezf", 0.0),
            ("ezf", 10.0),
            ("mrt", 0.0),
            ("mrt", 10.0),
        ]
        for r in rows:
            assert r.trials == 2
            assert r.base_seed == 3
            assert r.mu_se_mean > 0
            assert r.ratio_mean >= 1.0 - 1e-9

    def test_csv_schema(self):
        cfg = parse_config(SMALL)
        text = rows_to_csv(run_sweep(cfg))
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[0] == (
            "precoder,detector,su_sinr_db,mu_se_mean,su_se_mean,"
            "ratio_mean,interference_power_mean,trials,base_seed"
        )
        first = lines[1].split(",")
        assert first[0] == "ezf"
        assert first[1] == "qr-mld"
        # nine significant digits
        assert len(first[3].replace(".", "").replace("-", "").lstrip("0")) <= 9

    def test_write_csv(self, tmp_path):
        cfg = parse_config(SMALL)
        rows = run_sweep(cfg)
        path = tmp_path / "sweep.csv"
        write_csv(rows, path)
        assert path.read_text() == rows_to_csv(rows)


    def test_rows_equal_per_point_reports(self):
        # The sweep builds each precoder, covariance and single-user SE once
        # and shares them across grid points, detectors and precoders; every
        # row must still be exactly the trial mean of the per-point API.
        cfg = SweepConfig(
            16,
            ((4, 2),) * 3 + ((2, 1),) * 2,
            1.0,
            (5.0, 25.0),
            ("ezf", "mrt"),
            ("mmse-irc", "qr-mld", "gen-lse(0.1)", "mmse", "lse-limit"),
            2,
            7,
            "x.csv",
        )
        rows = run_sweep(cfg)
        assert len(rows) == 2 * 5 * 2
        for row in rows:
            mu = su = ratio = leak = 0.0
            for i in range(cfg.trials):
                scenario = Scenario(cfg.t, cfg.users, cfg.total_power, trial_seed(cfg.base_seed, i))
                channels = generate_channels(scenario)
                sigma = calibrate_noise(channels, row.su_sinr_db)
                report = su_mu_report(channels, row.precoder, row.detector, sigma)
                mu += report.mu_se
                su += report.su_se
                ratio += report.ratio
                leak += report.interference_power
            n = float(cfg.trials)
            assert (row.mu_se_mean, row.su_se_mean, row.ratio_mean, row.interference_power_mean) == (
                mu / n,
                su / n,
                ratio / n,
                leak / n,
            ), (row.precoder, row.detector, row.su_sinr_db)

    def test_repeated_scheme_repeats_rows(self):
        cfg = parse_config(SMALL.replace("precoders = ezf, mrt", "precoders = ezf, mrt, ezf"))
        rows = run_sweep(cfg)
        assert [r.precoder for r in rows] == ["ezf", "ezf", "mrt", "mrt", "ezf", "ezf"]
        assert rows[4:] == rows[:2]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(scenarios())
def test_ezf_curves_rise_and_stay_finite(case):
    # One-trial ezf sweeps over 0:100:10 dB: MU SE never falls as the noise
    # floor drops, and no row holds a NaN or an infinity.
    scenario, seeds = case
    grid = tuple(float(db) for db in range(0, 101, 10))
    cfg = SweepConfig(scenario.t, scenario.users, 1.0, grid, ("ezf",),
                      ("mmse-irc", "qr-mld"), 1, seeds[0], "unused.csv")
    rows = run_sweep(cfg)
    for detector in cfg.detectors:
        curve = [r for r in rows if r.detector == detector]
        for r in curve:
            assert all(math.isfinite(v) for v in dataclasses.astuple(r)[2:7]), r
        mu = [r.mu_se_mean for r in curve]
        assert all(b >= a * (1 - 1e-12) for a, b in zip(mu, mu[1:])), (detector, mu)


class TestFailingSweepPoint:
    @pytest.fixture(scope="class")
    def fig3(self):
        return dataclasses.replace(
            parse_config((CONFIG_DIR / "fig3.cfg").read_text()), trials=1
        )

    def test_singular_solve_names_point(self, fig3):
        cfg = dataclasses.replace(fig3, su_sinr_grid_db=(130.0,), detectors=("mmse",))
        with pytest.raises(SingularMatrixError) as info:
            run_sweep(cfg)
        exc = info.value
        assert type(exc) is SingularMatrixError
        assert type(exc.__cause__) is SingularMatrixError
        message = str(exc)
        assert "precoder ezf" in message
        assert "detector mmse," in message
        assert "su_sinr_db 130" in message
        assert "trial 0" in message
        assert message.endswith(str(exc.__cause__))
        assert "the link has rank p_k=2 in q_k=4 dimensions" in message

    def test_mmse_irc_finishes_at_120_db(self, fig3):
        # The multi-user mmse-irc solves still succeed at 120 dB, and the
        # closed-form single-user leg has no solve that could raise.
        rows = run_sweep(
            dataclasses.replace(fig3, su_sinr_grid_db=(120.0,), detectors=("mmse-irc",))
        )
        assert len(rows) == 1
        row = rows[0]
        values = (row.mu_se_mean, row.su_se_mean, row.ratio_mean, row.interference_power_mean)
        assert all(np.isfinite(values))
        su_se = 0.0
        for i in range(fig3.trials):
            channels = generate_channels(
                Scenario(fig3.t, fig3.users, fig3.total_power, trial_seed(fig3.base_seed, i))
            )
            sigma = calibrate_noise(channels, 120.0)
            gains = su_layer_gains(channels.scenario, channels.groups)
            su_se += su_spectral_efficiency(gains, sigma)
        assert row.su_se_mean == su_se / fig3.trials

    def test_missing_noise_names_point(self, fig3):
        cfg = dataclasses.replace(fig3, su_sinr_grid_db=(130.0,), detectors=("qr-mld",))
        with pytest.raises(NeedsExternalNoiseError) as info:
            run_sweep(cfg)
        assert type(info.value.__cause__) is NeedsExternalNoiseError
        assert str(info.value).startswith(
            "precoder ezf, detector qr-mld, su_sinr_db 130, trial 0: "
        )

    # Several failing points: the sweep raises what the first of them in
    # (grid point, detector, precoder) order raises alone.
    FIRST_FAILURES = {
        "mmse@125 before qr-mld@130": (
            {"detectors": ("qr-mld", "mmse"), "su_sinr_grid_db": (125.0, 130.0)},
            SingularMatrixError,
            "precoder ezf, detector mmse, su_sinr_db 125, trial 0: user 0: signal-plus-noise "
            "covariance A A^H + sigma^2 I is singular: the link has rank p_k=2 in q_k=4 "
            "dimensions and sigma^2=1.55e-12 is too small to fill the rest",
            "matrix is singular or near-singular (condition number 2.57e+12) (user 0)",
        ),
        "lse-limit@130 after passing points": (
            {
                "precoders": ("mrt", "ezf"),
                "detectors": ("mmse-irc", "lse-limit"),
                "su_sinr_grid_db": (120.0, 130.0),
            },
            NeedsExternalNoiseError,
            "precoder ezf, detector lse-limit, su_sinr_db 130, trial 0: user 0: covariance is "
            "singular; non-zero external noise is required for the whitened limit",
            "matrix is singular or near-singular (condition number 1.7e+12) (user 0)",
        ),
        "mrt@120 before ezf@130": (
            {
                "precoders": ("mrt", "ezf"),
                "detectors": ("mmse",),
                "su_sinr_grid_db": (110.0, 120.0, 130.0),
            },
            SingularMatrixError,
            "precoder mrt, detector mmse, su_sinr_db 120, trial 0: user 0: signal-plus-noise "
            "covariance A A^H + sigma^2 I is singular: the link has rank p_k=2 in q_k=4 "
            "dimensions and sigma^2=4.89e-12 is too small to fill the rest",
            "matrix is singular or near-singular (condition number 1.06e+12) (user 0)",
        ),
        "detector before precoder at one point": (
            {
                "precoders": ("mrt", "ezf"),
                "detectors": ("lse-limit", "mmse"),
                "su_sinr_grid_db": (130.0,),
            },
            NeedsExternalNoiseError,
            "precoder ezf, detector lse-limit, su_sinr_db 130, trial 0: user 0: covariance is "
            "singular; non-zero external noise is required for the whitened limit",
            "matrix is singular or near-singular (condition number 1.7e+12) (user 0)",
        ),
    }

    @pytest.mark.parametrize("case", list(FIRST_FAILURES))
    def test_first_failing_point_in_sweep_order(self, fig3, case):
        change, error, message, solve_message = self.FIRST_FAILURES[case]
        with pytest.raises(error) as info:
            run_sweep(dataclasses.replace(fig3, **change))
        exc = info.value
        assert type(exc) is error
        assert str(exc) == message
        assert type(exc.__cause__) is error
        assert message.endswith(str(exc.__cause__))
        assert type(exc.__cause__.__cause__) is SingularMatrixError
        assert str(exc.__cause__.__cause__) == solve_message

    def test_cli_exit_code_and_message(self, tmp_path, capsys):
        text = (CONFIG_DIR / "fig3.cfg").read_text()
        text = text.replace("grid = 0:40:5", "grid = 130:130:1").replace(
            "trials = 100", "trials = 1"
        )
        text = text.replace("detectors = mmse-irc, qr-mld", "detectors = mmse")
        text = text.replace("output = fig3.csv", f"output = {tmp_path / 'out.csv'}")
        path = tmp_path / "cfg.txt"
        path.write_text(text)
        assert cli_main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "numerical failure: precoder ezf" in err
        assert "detector mmse, su_sinr_db 130, trial 0" in err
        assert not (tmp_path / "out.csv").exists()


class TestFailingSweepPointInAChunk(TestFailingSweepPoint):
    """The same failures at 12 trials: trial 0 now fails inside a chunk of ten
    trials, and every error keeps the class, text and cause it has alone."""

    @pytest.fixture(scope="class")
    def fig3(self):
        return dataclasses.replace(
            parse_config((CONFIG_DIR / "fig3.cfg").read_text()), trials=12
        )


def test_generation_failure_names_the_trial_not_the_chunk(monkeypatch):
    # Trial 13's user 2 is drawn rank deficient; trial 13 sits in the
    # second chunk, whose own error would name a seed.
    cfg = dataclasses.replace(parse_config(SMALL), users=((4, 2),) * 3, trials=20)
    bad_seed = trial_seed(cfg.base_seed, 13)
    original = system._draw_user

    def draw(seed, k, shape):
        h = original(seed, k, shape)
        if seed == bad_seed and k == 2:
            h[1] = h[0]
        return h

    monkeypatch.setattr(system, "_draw_user", draw)
    with pytest.raises(ChannelGenerationError) as info:
        run_sweep(cfg)
    assert str(info.value) == "trial 13: user 2: drawn channel is rank deficient"
    assert type(info.value.__cause__) is ChannelGenerationError
    assert str(info.value.__cause__) == "user 2: drawn channel is rank deficient"


class TestHighSnrEdge:
    """fig3 trial 0, ezf, over 100:130:5 dB, one grid point per sweep.

    The condition guard trips only where a matrix really is singular to
    working precision: plain MMSE's q_k x q_k matrix A A^H + sigma^2 I (rank
    p_k = 2 in 4 dimensions) from 125 dB, the covariance that qr-mld and
    lse-limit whiten at 130 dB, the regularized filters nowhere. Every other
    point is finite.
    """

    GRID = tuple(float(db) for db in range(100, 131, 5))
    TRIPS = {
        "mmse": {125.0: SingularMatrixError, 130.0: SingularMatrixError},
        "mmse-irc": {},
        "gen-lse(0.1)": {},
        "qr-mld": {130.0: NeedsExternalNoiseError},
        "lse-limit": {130.0: NeedsExternalNoiseError},
    }

    @pytest.fixture(scope="class")
    def points(self):
        fig3 = dataclasses.replace(parse_config((CONFIG_DIR / "fig3.cfg").read_text()), trials=1)
        out = {}
        for detector in self.TRIPS:
            for db in self.GRID:
                cfg = dataclasses.replace(fig3, su_sinr_grid_db=(db,), detectors=(detector,))
                try:
                    out[(detector, db)] = run_sweep(cfg)[0]
                except SingularMatrixError as exc:
                    out[(detector, db)] = exc
        return out

    @pytest.mark.parametrize("detector", list(TRIPS))
    def test_guard_trips_where_it_did(self, points, detector):
        for db in self.GRID:
            got = points[(detector, db)]
            if db in self.TRIPS[detector]:
                assert type(got) is self.TRIPS[detector][db], (detector, db, got)
                assert str(got).startswith(f"precoder ezf, detector {detector}, su_sinr_db {db:g}")
            else:
                assert not isinstance(got, Exception), (detector, db, got)
                values = (got.mu_se_mean, got.su_se_mean, got.ratio_mean, got.interference_power_mean)
                assert all(np.isfinite(values)), (detector, db)

    def test_lse_limit_tracks_qr_mld(self, points):
        # The whitened limit applies R^{-1} through eigh(R_int) shifted by
        # sigma^2. An LU solve of R instead loses R^{-1} A's accuracy at high
        # SINR, and the normal equations then part from the QR route.
        for db in self.GRID[:-1]:
            lse, qr = points[("lse-limit", db)], points[("qr-mld", db)]
            np.testing.assert_allclose(
                [lse.mu_se_mean, lse.ratio_mean], [qr.mu_se_mean, qr.ratio_mean],
                rtol=1e-9, atol=0.0, err_msg=f"{db} dB",
            )


class TestCli:
    def _write(self, tmp_path, text):
        path = tmp_path / "cfg.txt"
        path.write_text(text)
        return path

    def test_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "result.csv"
        cfg = SMALL.replace("output = out.csv", f"output = {out}")
        code = cli_main(["run", str(self._write(tmp_path, cfg))])
        assert code == 0
        assert out.exists()
        assert out.read_text().startswith(CSV_HEADER)

    def test_run_twice_byte_identical(self, tmp_path):
        out = tmp_path / "result.csv"
        cfg = SMALL.replace("output = out.csv", f"output = {out}")
        path = self._write(tmp_path, cfg)
        assert cli_main(["run", str(path)]) == 0
        first = out.read_bytes()
        assert cli_main(["run", str(path)]) == 0
        assert out.read_bytes() == first

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = self._write(tmp_path, "t = 64\n")
        assert cli_main(["run", str(path)]) == 1
        assert "config error" in capsys.readouterr().err

    def test_huge_user_repeat_count_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        cfg = SMALL.replace("4x2 *2", "4x2 *100000000000").replace("out.csv", str(out))
        assert cli_main(["run", str(self._write(tmp_path, cfg))]) == 1
        assert capsys.readouterr().err == (
            "config error: line 4: 100000000000 users exceed antenna count t=16 "
            "(each user needs at least one layer)\n"
        )
        assert not out.exists()

    def test_oversized_grid_is_a_config_error(self, tmp_path, capsys):
        # Rejected from start, stop and step before any grid point is built.
        cfg = SMALL.replace("0:10:10", "0:1e15:1").replace("out.csv", str(tmp_path / "out.csv"))
        assert cli_main(["run", str(self._write(tmp_path, cfg))]) == 1
        assert capsys.readouterr().err == "config error: line 6: 'grid' has more than 1000 points\n"
        assert not (tmp_path / "out.csv").exists()

    def test_grid_beyond_the_db_bound_is_a_config_error(self, tmp_path, capsys):
        # 10^(dB/10) overflows a float beyond ~3080 dB; the bound rejects the grid first.
        cfg = SMALL.replace("0:10:10", "3000:3500:100").replace("out.csv", str(tmp_path / "out.csv"))
        assert cli_main(["run", str(self._write(tmp_path, cfg))]) == 1
        assert capsys.readouterr().err == "config error: grid points must lie within +-1000 dB\n"
        assert not (tmp_path / "out.csv").exists()

    def test_missing_file_exit_code(self):
        assert cli_main(["run", "/nonexistent/cfg"]) == 1

    @pytest.mark.parametrize("seed", [-1, 2**64], ids=["negative", "2^64"])
    @pytest.mark.parametrize("command", ["run", "dump-channels"])
    def test_seed_outside_64_bits_is_a_config_error(self, tmp_path, capsys, command, seed):
        out = tmp_path / "out.txt"
        cfg = SMALL.replace("seed = 3", f"seed = {seed}").replace("out.csv", str(out))
        args = [command, str(self._write(tmp_path, cfg))]
        if command == "dump-channels":
            args.append(str(out))
        assert cli_main(args) == 1
        assert capsys.readouterr().err == "config error: seed must fit in 64 bits\n"
        assert not out.exists()

    @pytest.mark.parametrize("lam", ["inf", "1e400"])
    def test_infinite_gen_lse_parameter_is_a_config_error(self, tmp_path, capsys, lam):
        out = tmp_path / "out.csv"
        cfg = SMALL.replace("qr-mld", f"gen-lse({lam})").replace("out.csv", str(out))
        assert cli_main(["run", str(self._write(tmp_path, cfg))]) == 1
        assert capsys.readouterr().err == (
            "config error: gen-lse parameter must be finite and > 0, got inf\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "dump-channels"])
    def test_unwritable_output_is_a_config_error(self, tmp_path, capsys, command):
        out = tmp_path / "missing" / "out.txt"
        cfg = SMALL.replace("out.csv", str(out))
        args = [command, str(self._write(tmp_path, cfg))]
        if command == "dump-channels":
            args.append(str(out))
        assert cli_main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: cannot write '{out}': [Errno 2] ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_dump_channels_roundtrip(self, tmp_path):
        path = self._write(tmp_path, SMALL)
        out = tmp_path / "chans.txt"
        assert cli_main(["dump-channels", str(path), str(out)]) == 0
        channels = load_channels(out)
        assert channels.scenario.t == 16
        assert channels.scenario.users == ((4, 2), (4, 2))
        assert all(np.isfinite(h).all() for h in channels.matrices)

    def test_dump_channels_bytes(self, tmp_path):
        out = tmp_path / "chans.txt"
        assert cli_main(["dump-channels", str(CONFIG_DIR / "fig3.cfg"), str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "c46ec1fa85515597f2864f1c312cbae49348b4a8d3ca4b1b2420fbaa3235c006"
        )


def test_shipped_configs_cover_figure_scheme_pairs():
    from conftest import CONFIG_DIR

    expected = {
        "fig3.cfg": (("ezf",), ("mmse-irc", "qr-mld")),
        "fig4.cfg": (("ezf", "mrt"), ("qr-mld",)),
        "fig5.cfg": (("ezf", "mrt"), ("mmse",)),
    }
    for name, (precoders, detectors) in expected.items():
        cfg = parse_config((CONFIG_DIR / name).read_text())
        assert cfg.precoders == precoders, name
        assert cfg.detectors == detectors, name
        assert cfg.trials == 100, name
        assert cfg.su_sinr_grid_db[0] == 0.0 and cfg.su_sinr_grid_db[-1] == 40.0, name


def test_sweep_config_direct_validation():
    with pytest.raises(ConfigError, match="strictly increasing"):
        SweepConfig(16, ((4, 2),), 1.0, (0.0, 0.0), ("ezf",), ("mmse",), 1, 1, "x.csv")
    with pytest.raises(ConfigError, match="trials"):
        SweepConfig(16, ((4, 2),), 1.0, (0.0,), ("ezf",), ("mmse",), 0, 1, "x.csv")
    # The scenario checks raise ConfigError too, with the scenario's message.
    with pytest.raises(ConfigError, match=r"^user 0: layer/antenna counts must satisfy"):
        SweepConfig(16, ((4, 8),), 1.0, (0.0,), ("ezf",), ("mmse",), 1, 1, "x.csv")
    with pytest.raises(ConfigError, match="^seed must fit in 64 bits$"):
        SweepConfig(16, ((4, 2),), 1.0, (0.0,), ("ezf",), ("mmse",), 1, -1, "x.csv")


@pytest.mark.parametrize(
    "grid", [(0.0, math.nan), (0.0, math.inf), (-math.inf, 0.0)], ids=["nan", "inf", "-inf"]
)
def test_sweep_config_rejects_non_finite_grid_point(grid):
    with pytest.raises(ConfigError, match=r"^grid points must be finite, got \("):
        SweepConfig(16, ((4, 2),), 1.0, grid, ("ezf",), ("mmse",), 1, 1, "x.csv")


def test_sweep_config_rejects_non_real_power():
    # The scenario's check, rewrapped: not a bare TypeError from math.isfinite.
    with pytest.raises(ConfigError, match="^total_power must be a real number, got '1.0'$"):
        SweepConfig(16, ((4, 2),), "1.0", (0.0,), ("ezf",), ("mmse",), 1, 1, "x.csv")


def test_sweep_config_rejects_non_real_grid_point():
    with pytest.raises(ConfigError, match=r"^grid points must be real numbers, got \('0',\)$"):
        SweepConfig(16, ((4, 2),), 1.0, ("0",), ("ezf",), ("mmse",), 1, 1, "x.csv")


def test_sweep_config_rejects_bool_grid_points():
    # Not 0 dB and 1 dB.
    message = r"^grid points must be real numbers, got \(False, True\)$"
    with pytest.raises(ConfigError, match=message):
        SweepConfig(16, ((4, 2),), 1.0, (False, True), ("ezf",), ("mmse",), 1, 1, "x.csv")


def test_sweep_config_rejects_bool_power():
    with pytest.raises(ConfigError, match="^total_power must be a real number, got True$"):
        SweepConfig(16, ((4, 2),), True, (0.0,), ("ezf",), ("mmse",), 1, 1, "x.csv")


def test_sweep_config_rejects_more_grid_points_than_the_parser_allows():
    # Checked when the config is built, before any sweep: a direct config is bounded as a
    # parsed one is.
    n = experiment.MAX_GRID_POINTS
    grid = tuple(0.5 * i for i in range(n + 1))
    config = SweepConfig(16, ((4, 2),), 1.0, grid[:-1], ("ezf",), ("mmse",), 1, 1, "x.csv")
    assert len(config.su_sinr_grid_db) == n
    with pytest.raises(ConfigError, match=f"^grid has more than {n} points$"):
        SweepConfig(16, ((4, 2),), 1.0, grid, ("ezf",), ("mmse",), 1, 1, "x.csv")


@pytest.mark.parametrize("grid", [(-1000.0,), (1000.0,), (-1000.0, 1000.0)])
def test_sweep_config_accepts_grid_points_on_the_db_bound(grid):
    config = SweepConfig(16, ((4, 2),), 1.0, grid, ("ezf",), ("mmse",), 1, 1, "x.csv")
    assert config.su_sinr_grid_db == grid


@pytest.mark.parametrize(
    "grid", [(-1000.5,), (1000.5,), (0.0, 1000.0 + 1e-9), (-3000.0, 0.0), (3100.0,)]
)
def test_sweep_config_rejects_grid_points_beyond_the_db_bound(grid):
    with pytest.raises(ConfigError, match=r"^grid points must lie within \+-1000 dB$"):
        SweepConfig(16, ((4, 2),), 1.0, grid, ("ezf",), ("mmse",), 1, 1, "x.csv")


@pytest.mark.parametrize(
    "trials", [2.5, np.float64(2.0), "3", True], ids=["float", "np-float", "str", "bool"]
)
def test_sweep_config_rejects_non_integer_trials(trials):
    message = f"^trials must be an integer, got {re.escape(repr(trials))}$"
    with pytest.raises(ConfigError, match=message):
        SweepConfig(16, ((4, 2),), 1.0, (0.0,), ("ezf",), ("mmse",), trials, 1, "x.csv")


def test_sweep_config_stores_integer_like_trials_as_int():
    cfg = SweepConfig(16, ((4, 2),), 1.0, (0.0,), ("ezf",), ("mmse",), np.int64(2), 1, "x.csv")
    assert type(cfg.trials) is int and cfg.trials == 2
    assert len(run_sweep(cfg)) == 1
