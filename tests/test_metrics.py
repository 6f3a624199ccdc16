import dataclasses

import numpy as np
import pytest

from mimosim import linalg
from mimosim.detection import build_covariance, reference_ic
from mimosim.errors import ConfigError, InvalidInputError
from mimosim.experiment import parse_config, trial_seed
from mimosim.metrics import (
    DETECTOR_SCHEMES,
    SINR_CAP,
    effective_links,
    make_precoder,
    parse_detector_scheme,
    sinr_per_layer,
    spectral_efficiency,
    stacked_detectors,
    su_mu_report,
    su_spectral_efficiency,
)
from mimosim.precoding import mrt_precode, rczf_precode, reduce_ezf
from mimosim.system import (
    ChannelSet,
    NoiseModel,
    Scenario,
    calibrate_noise,
    generate_channels,
    su_layer_gains,
)

from conftest import CONFIG_DIR, crandn
from test_precoding import block_channels

DEFAULT = Scenario(t=64, users=((4, 2),) * 8, total_power=1.0, seed=1)


class TestEffectiveLinks:
    def test_reference_detector_gives_identity_blocks(self):
        channels = generate_channels(DEFAULT)
        prec = rczf_precode(reduce_ezf(channels), 1.0)
        (stack,) = build_covariance(channels, prec)
        links = effective_links(stack, np.stack(reference_ic(prec.reduced, prec.scale)))
        for k in range(8):
            for j in range(8):
                if j == k:
                    assert np.linalg.norm(links[k][:, 2 * k:2 * k + 2] - np.eye(2)) < 1e-8
                else:
                    assert np.linalg.norm(links[k][:, 2 * j:2 * j + 2]) < 1e-8

    def test_zero_detector_gives_zero_blocks(self):
        channels = generate_channels(DEFAULT)
        prec = rczf_precode(reduce_ezf(channels), 1.0)
        (stack,) = build_covariance(channels, prec)
        links = effective_links(stack, np.zeros((8, 2, 4), dtype=complex))
        assert all(
            np.all(links[k][:, 2 * j:2 * j + 2] == 0) for k in range(8) for j in range(8)
        )

    def test_single_user_pinv_link(self):
        scenario = Scenario(t=16, users=((4, 2),), seed=2)
        channels = generate_channels(scenario)
        prec = rczf_precode(reduce_ezf(channels), 1.0)
        g = linalg.pinv(channels.matrices[0] @ prec.blocks[0])
        (stack,) = build_covariance(channels, prec)
        links = effective_links(stack, g[np.newaxis])
        assert np.linalg.norm(links[0][:, 0:2] - np.eye(2)) < 1e-10


class TestSinrPerLayer:
    def test_plug_in(self):
        t_own = np.eye(2, dtype=complex)
        g = 0.1 * np.eye(2, dtype=complex)  # rows of G L have power 0.01
        l = np.eye(2, dtype=complex)
        out = sinr_per_layer(t_own, 0, g, l)
        np.testing.assert_allclose(out, [100.0, 100.0], rtol=1e-12)

    def test_perfect_link_caps(self):
        t_own = np.eye(2, dtype=complex)
        g = np.eye(2, dtype=complex)
        l = np.zeros((2, 2), dtype=complex)
        out = sinr_per_layer(t_own, 0, g, l)
        np.testing.assert_allclose(out, [SINR_CAP, SINR_CAP])

    def test_all_zero_layer_reports_zero(self):
        t_own = np.zeros((2, 2), dtype=complex)
        out = sinr_per_layer(t_own, 0, np.zeros((2, 4), dtype=complex), np.zeros((4, 4)))
        np.testing.assert_allclose(out, [0.0, 0.0])

    def test_matches_per_layer_loop(self, rng):
        # Reference: the per-layer loop over p_k x p_j blocks the stacked
        # form replaced. Summation order differs, so equality is to rtol 1e-12.
        layers = (2, 3, 1, 2)
        user, start = 1, 2
        link = crandn(rng, 3, sum(layers))
        link[1, start + 1] = 0.0  # all-zero signal on layer 1
        g, l = crandn(rng, 3, 4), crandn(rng, 4, 4)
        blocks = np.split(link, np.cumsum(layers)[:-1], axis=1)
        gl = g @ l
        expected = []
        for i in range(3):
            signal = abs(blocks[user][i, i]) ** 2
            self_leak = float(np.sum(np.abs(blocks[user][i]) ** 2)) - signal
            cross = sum(
                float(np.sum(np.abs(t[i]) ** 2)) for j, t in enumerate(blocks) if j != user
            )
            noise = float(np.sum(np.abs(gl[i]) ** 2))
            expected.append(0.0 if signal == 0.0 else signal / (self_leak + cross + noise))
        out = sinr_per_layer(link, start, g, l)
        assert out[1] == 0.0
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=0.0)

    def test_mrt_has_cross_interference(self):
        scenario = Scenario(t=16, users=((4, 2), (4, 2)), seed=5)
        channels = generate_channels(scenario)
        prec = mrt_precode(channels, 1.0)
        stacks = build_covariance(channels, prec)
        (core,) = stacked_detectors(stacks, "qr-mld")
        links = effective_links(stacks[0], core.filters(0.01**2))
        cross = np.linalg.norm(links[0][:, 2:4])
        assert cross > 1e-6


class TestSpectralEfficiency:
    def test_two_unit_sinrs(self):
        assert spectral_efficiency([1.0, 1.0]) == pytest.approx(2.0)

    def test_zero(self):
        assert spectral_efficiency([0.0]) == 0.0

    def test_powers_of_two(self):
        assert spectral_efficiency([3.0, 15.0]) == pytest.approx(6.0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            spectral_efficiency([-0.5])


class TestSchemeDispatch:
    def test_detector_names(self):
        assert parse_detector_scheme("mmse-irc") == ("mmse-irc", 1.0)
        assert parse_detector_scheme("gen-lse") == ("gen-lse", 1.0)
        assert parse_detector_scheme("gen-lse(0.25)") == ("gen-lse", 0.25)
        with pytest.raises(ConfigError):
            parse_detector_scheme("sphere")
        with pytest.raises(ConfigError):
            parse_detector_scheme("gen-lse(-1)")

    def test_all_detectors_build(self):
        channels = generate_channels(DEFAULT)
        noise = calibrate_noise(channels, 20.0)
        prec = make_precoder(channels, "ezf", 1.0)
        stacks = build_covariance(channels, prec)
        for name in ("mmse-irc", "mmse", "gen-lse", "gen-lse(0.1)", "lse-limit", "qr-mld"):
            cores = stacked_detectors(stacks, name)
            assert sum(len(core.filters(noise.sigma**2)) for core in cores) == 8

    def test_unknown_precoder_rejected(self):
        channels = generate_channels(DEFAULT)
        with pytest.raises(ConfigError):
            make_precoder(channels, "rzf", 1.0)


class TestSuMuReport:
    def test_orthogonal_users_ratio_is_one(self):
        channels = block_channels(8, [(4, 2)] * 4, seed=2)
        noise = calibrate_noise(channels, 15.0)
        report = su_mu_report(channels, "ezf", "mmse-irc", noise)
        assert report.ratio == pytest.approx(1.0, abs=1e-6)

    def test_ratio_decreases_toward_one_for_zero_forcing(self):
        channels = generate_channels(DEFAULT)
        ratios = []
        for db in (0.0, 10.0, 20.0, 30.0, 40.0):
            noise = calibrate_noise(channels, db)
            ratios.append(su_mu_report(channels, "ezf", "mmse-irc", noise).ratio)
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 1.05

    def test_mrt_ratio_bounded_away_from_one(self):
        channels = generate_channels(DEFAULT)
        noise = calibrate_noise(channels, 35.0)
        report = su_mu_report(channels, "mrt", "qr-mld", noise)
        assert report.ratio > 1.05

    @pytest.mark.parametrize("precoder,detector", [("ezf", "mmse-irc"), ("mrt", "qr-mld"), ("ezf", "mmse")])
    def test_ratio_at_least_one(self, precoder, detector):
        channels = generate_channels(DEFAULT)
        noise = calibrate_noise(channels, 18.0)
        report = su_mu_report(channels, precoder, detector, noise)
        assert report.ratio >= 1.0 - 1e-9

    def test_report_shapes_and_totals(self):
        channels = generate_channels(DEFAULT)
        noise = calibrate_noise(channels, 20.0)
        report = su_mu_report(channels, "ezf", "qr-mld", noise)
        assert len(report.se) == 8
        assert len(report.sinr) == 8
        assert report.mu_se == pytest.approx(sum(report.se))
        assert report.su_se > 0
        assert all(len(s) == 2 for s in report.sinr)
        assert report.links[0][:, 0:2].shape == (2, 2)

    def test_mu_se_non_decreasing_in_target(self):
        # Averaged over a few seeds; the 100-seed version is the fig3 run.
        grid = (0.0, 10.0, 20.0, 30.0)
        means = []
        for db in grid:
            acc = 0.0
            for seed in range(1, 11):
                scenario = Scenario(t=64, users=((4, 2),) * 8, seed=seed)
                channels = generate_channels(scenario)
                noise = calibrate_noise(channels, db)
                acc += su_mu_report(channels, "ezf", "mmse-irc", noise).mu_se
            means.append(acc / 10)
        assert all(b > a for a, b in zip(means, means[1:]))


class TestSingleUserClosedForm:
    """Each user served alone through the detector route, against the closed form.

    Alone, user k's links c U_p S_p have orthogonal columns, so every
    detector scheme gives layer i the SINR (P / p) s_i^2 / sigma^2.
    """

    SCHEMES = DETECTOR_SCHEMES + ("gen-lse(0.1)", "gen-lse(10)")

    @staticmethod
    def _scenario(name):
        if name == "mixed":
            return Scenario(t=32, users=((4, 2), (2, 1), (8, 4)), seed=3)
        config = parse_config((CONFIG_DIR / "fig3.cfg").read_text())
        return Scenario(config.t, config.users, config.total_power, trial_seed(config.base_seed, 0))

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("name", ["mixed", "fig3"])
    def test_detector_route_matches(self, name, scheme):
        scenario = self._scenario(name)
        channels = generate_channels(scenario)
        gains = su_layer_gains(channels)
        share = scenario.total_power / scenario.total_layers
        for db in np.arange(0.0, 81.0, 10.0):
            noise = calibrate_noise(channels, db)
            total = 0.0
            for k, (_, p_k) in enumerate(scenario.users):
                # User k alone, with its own EZF precoder at power share * p_k.
                solo = channels.single_user(k)
                alone = ChannelSet(
                    dataclasses.replace(solo.scenario, total_power=share * p_k), solo.matrices
                )
                noise_k = NoiseModel((noise.factors[k],), noise.sigma)
                se = su_mu_report(alone, "ezf", scheme, noise_k).mu_se
                np.testing.assert_allclose(
                    se, su_spectral_efficiency((gains[k],), noise.sigma), rtol=1e-12, atol=0.0
                )
                total += se
            np.testing.assert_allclose(
                total, su_spectral_efficiency(gains, noise.sigma), rtol=1e-12, atol=0.0
            )

    def test_su_mu_report_rejects_non_white_noise(self, rng):
        channels = generate_channels(DEFAULT)
        white = calibrate_noise(channels, 20.0)
        coloured = list(white.factors)
        coloured[3] = white.sigma * (np.eye(4) + 0.1 * crandn(rng, 4, 4))
        with pytest.raises(InvalidInputError, match="user 3"):
            su_mu_report(channels, "ezf", "mmse-irc", NoiseModel(coloured, white.sigma))
        # White factors whose sigma field disagrees would give another SU leg.
        with pytest.raises(InvalidInputError, match="user 0"):
            su_mu_report(channels, "ezf", "mmse-irc", NoiseModel(white.factors, 0.0))


def test_noiseless_interference_criterion():
    """Zero-forcing + reference detector: cross power below 1e-12 of signal."""
    channels = generate_channels(DEFAULT)
    prec = rczf_precode(reduce_ezf(channels), 1.0)
    (stack,) = build_covariance(channels, prec)
    links = effective_links(stack, np.stack(reference_ic(prec.reduced, prec.scale)))
    for k in range(8):
        own = links[k][:, 2 * k:2 * k + 2]
        for i in range(2):
            signal = abs(own[i, i]) ** 2
            cross = sum(
                float(np.sum(np.abs(links[k][i, 2 * j:2 * j + 2]) ** 2))
                for j in range(8)
                if j != k
            )
            assert cross < 1e-12 * signal
