import dataclasses

import numpy as np
import pytest

from mimosim.cli import main as cli_main
from mimosim.errors import ConfigError, NeedsExternalNoiseError, SingularMatrixError
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

from conftest import CONFIG_DIR

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
            ("mmse-irc", "qr-mld", "gen-lse(0.1)"),
            2,
            7,
            "x.csv",
        )
        rows = run_sweep(cfg)
        assert len(rows) == 2 * 3 * 2
        for row in rows:
            mu = su = ratio = leak = 0.0
            for i in range(cfg.trials):
                scenario = Scenario(cfg.t, cfg.users, cfg.total_power, trial_seed(cfg.base_seed, i))
                channels = generate_channels(scenario)
                noise = calibrate_noise(channels, row.su_sinr_db)
                report = su_mu_report(channels, row.precoder, row.detector, noise)
                mu += report.mu_se
                su += report.su_se
                ratio += report.ratio
                leak += float(np.mean(report.interference_power))
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
        channels = generate_channels(
            Scenario(fig3.t, fig3.users, fig3.total_power, trial_seed(fig3.base_seed, 0))
        )
        sigma = calibrate_noise(channels, 120.0).sigma
        assert row.su_se_mean == su_spectral_efficiency(su_layer_gains(channels), sigma)

    def test_missing_noise_names_point(self, fig3):
        cfg = dataclasses.replace(fig3, su_sinr_grid_db=(130.0,), detectors=("qr-mld",))
        with pytest.raises(NeedsExternalNoiseError) as info:
            run_sweep(cfg)
        assert type(info.value.__cause__) is NeedsExternalNoiseError
        assert str(info.value).startswith(
            "precoder ezf, detector qr-mld, su_sinr_db 130, trial 0: "
        )

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

    def test_missing_file_exit_code(self):
        assert cli_main(["run", "/nonexistent/cfg"]) == 1

    def test_dump_channels_roundtrip(self, tmp_path):
        path = self._write(tmp_path, SMALL)
        out = tmp_path / "chans.txt"
        assert cli_main(["dump-channels", str(path), str(out)]) == 0
        channels = load_channels(out)
        assert channels.scenario.t == 16
        assert channels.scenario.users == ((4, 2), (4, 2))
        assert all(np.isfinite(h).all() for h in channels.matrices)


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
