import math

import numpy as np
import pytest

from mimosim import linalg
from mimosim.errors import InvalidInputError
from mimosim.metrics import sinr_per_layer
from mimosim.precoding import rczf_precode, reduce_ezf
from mimosim.system import (
    ChannelSet,
    NoiseModel,
    Scenario,
    calibrate_noise,
    dump_channels,
    generate_channels,
    load_channels,
    mean_su_layer_power,
    su_layer_gains,
)

DEFAULT = Scenario(t=64, users=((4, 2),) * 8, total_power=1.0, seed=1)


class TestScenario:
    def test_layer_count_must_not_exceed_antennas(self):
        with pytest.raises(InvalidInputError):
            Scenario(t=4, users=((4, 2),) * 3)

    def test_per_user_ordering(self):
        with pytest.raises(InvalidInputError):
            Scenario(t=8, users=((2, 3),))
        with pytest.raises(InvalidInputError):
            Scenario(t=8, users=((16, 2),))

    def test_positive_power(self):
        with pytest.raises(InvalidInputError):
            Scenario(t=8, users=((2, 2),), total_power=0.0)

    def test_totals(self):
        assert DEFAULT.total_layers == 16
        assert DEFAULT.num_users == 8
        assert DEFAULT.antenna_counts == (4,) * 8


class TestGeneration:
    def test_shapes_and_rank(self):
        channels = generate_channels(DEFAULT)
        assert len(channels.matrices) == 8
        for h in channels.matrices:
            assert h.shape == (4, 64)
            s = np.linalg.svd(h, compute_uv=False)
            assert s[-1] > 1e-6 * s[0]  # rank 4 via SVD oracle

    def test_deterministic(self):
        a = generate_channels(DEFAULT)
        b = generate_channels(Scenario(t=64, users=((4, 2),) * 8, total_power=1.0, seed=1))
        for ha, hb in zip(a.matrices, b.matrices):
            assert np.array_equal(ha, hb)

    def test_seeds_differ(self):
        a = generate_channels(DEFAULT)
        b = generate_channels(Scenario(t=64, users=((4, 2),) * 8, total_power=1.0, seed=2))
        assert not np.array_equal(a.matrices[0], b.matrices[0])

    def test_substreams_are_order_free(self):
        # User k's draw depends only on (seed, k), not on how many users exist.
        small = generate_channels(Scenario(t=64, users=((4, 2),) * 3, seed=7))
        large = generate_channels(Scenario(t=64, users=((4, 2),) * 8, seed=7))
        for k in range(3):
            assert np.array_equal(small.matrices[k], large.matrices[k])

    def test_unit_entry_variance(self):
        channels = generate_channels(Scenario(t=256, users=((8, 2),) * 4, seed=3))
        ent = np.concatenate([h.ravel() for h in channels.matrices])
        assert np.mean(np.abs(ent) ** 2) == pytest.approx(1.0, rel=0.05)

    def test_channel_set_shape_validation(self):
        with pytest.raises(InvalidInputError):
            ChannelSet(DEFAULT, tuple(np.zeros((4, 8), dtype=complex) for _ in range(8)))


class TestCalibration:
    def test_zero_db_matches_mean_layer_power(self):
        channels = generate_channels(DEFAULT)
        # Independent oracle: run the actual single-user EZF precoding per user
        # at the proportional power share and measure received column powers.
        share = DEFAULT.total_power / DEFAULT.total_layers
        powers = []
        for k in range(DEFAULT.num_users):
            alone = channels.single_user(k)
            _, p = DEFAULT.users[k]
            prec = rczf_precode(reduce_ezf(alone), share * p)
            a = alone.matrices[0] @ prec.blocks[0]
            powers.extend(np.sum(np.abs(a) ** 2, axis=0))
        oracle = float(np.mean(powers))
        noise = calibrate_noise(channels, 0.0)
        assert noise.sigma**2 == pytest.approx(oracle, rel=1e-10)
        assert mean_su_layer_power(su_layer_gains(channels)) == pytest.approx(oracle, rel=1e-10)

    def test_ten_db_scales_sigma_squared_by_ten(self):
        channels = generate_channels(DEFAULT)
        s0 = calibrate_noise(channels, 0.0).sigma
        s10 = calibrate_noise(channels, 10.0).sigma
        assert s0**2 == pytest.approx(10.0 * s10**2, rel=1e-12)

    def test_closed_loop_at_20_db(self):
        # Serve each user alone (own EZF precoder at its power share) and
        # measure the mean per-layer SINR with the metrics module.
        channels = generate_channels(DEFAULT)
        noise = calibrate_noise(channels, 20.0)
        share = DEFAULT.total_power / DEFAULT.total_layers
        sinrs = []
        for k in range(DEFAULT.num_users):
            alone = channels.single_user(k)
            _, p = DEFAULT.users[k]
            prec = rczf_precode(reduce_ezf(alone), share * p)
            from mimosim.detection import build_covariance, mmse_irc

            (stack,) = build_covariance(alone, prec)
            l = noise.factors[k]
            (g,) = mmse_irc(stack.effective, stack.interference + l @ l.conj().T)
            t = g @ alone.matrices[0] @ prec.blocks[0]
            sinrs.extend(sinr_per_layer(t, 0, g, l))
        measured_db = 10.0 * math.log10(float(np.mean(sinrs)))
        assert abs(measured_db - 20.0) < 0.1

    def test_sigma_strictly_decreasing_in_target(self):
        channels = generate_channels(DEFAULT)
        sigmas = [calibrate_noise(channels, db).sigma for db in (-10.0, 0.0, 15.0, 30.0)]
        assert all(b < a for a, b in zip(sigmas, sigmas[1:]))

    def test_non_finite_target_rejected(self):
        channels = generate_channels(DEFAULT)
        with pytest.raises(InvalidInputError):
            calibrate_noise(channels, math.inf)


class TestNoiseModel:
    def test_white_factors(self):
        noise = NoiseModel.white(DEFAULT, 0.5)
        assert len(noise.factors) == 8
        np.testing.assert_allclose(noise.factors[0], 0.5 * np.eye(4))

    def test_psd_products(self):
        noise = NoiseModel.white(DEFAULT, 0.3)
        for l in noise.factors:
            prod = l @ l.conj().T
            eig = np.linalg.eigvalsh(prod)
            assert np.all(eig >= -1e-15)


class TestDumpLoad:
    def test_roundtrip_bitwise(self, tmp_path):
        channels = generate_channels(Scenario(t=6, users=((3, 2), (2, 1)), seed=5))
        path = tmp_path / "channels.txt"
        dump_channels(channels, path)
        back = load_channels(path)
        assert back.scenario.t == 6
        assert back.scenario.users == ((3, 2), (2, 1))
        for ha, hb in zip(channels.matrices, back.matrices):
            assert np.array_equal(ha, hb)

    def test_header_line_format(self, tmp_path):
        channels = generate_channels(Scenario(t=6, users=((3, 2), (2, 1)), seed=5))
        path = tmp_path / "channels.txt"
        dump_channels(channels, path)
        first = path.read_text().splitlines()[0]
        assert first == "6 3 2 2 1"

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("4 2 1\n1 0 0 0 0 0 0 0\n")
        with pytest.raises(InvalidInputError):
            load_channels(path)

    def test_malformed_number_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2 1\n1 0 x 0\n0 0 1 0\n")
        with pytest.raises(InvalidInputError):
            load_channels(path)

    def test_full_rank_check_uses_svd(self):
        assert linalg.is_full_rank(generate_channels(DEFAULT).matrices[0])
