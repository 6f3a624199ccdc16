import dataclasses

import numpy as np
import pytest

from mimosim import linalg
from mimosim.detection import build_covariance, reference_ic
from mimosim.errors import ConfigError, DimensionMismatchError, InvalidInputError
from mimosim.experiment import parse_config, trial_seed
from mimosim.metrics import (
    DETECTOR_SCHEMES,
    SINR_CAP,
    LinkReport,
    effective_links,
    parse_detector_scheme,
    sinr_per_layer,
    spectral_efficiency,
    su_mu_report,
    su_spectral_efficiency,
)
from mimosim.precoding import mrt_precode, rczf_precode, reduce_ezf, reduce_full_zf
from mimosim.system import (
    ChannelSet,
    Scenario,
    calibrate_noise,
    generate_channels,
    su_layer_gains,
)

from conftest import CONFIG_DIR, blocks, crandn, single_user, stack_filters
from test_precoding import block_channels

DEFAULT = Scenario(t=64, users=((4, 2),) * 8, total_power=1.0, seed=1)


class TestEffectiveLinks:
    def test_reference_detector_gives_identity_blocks(self):
        channels = generate_channels(DEFAULT)
        red = reduce_ezf(channels)
        w, scale = rczf_precode(red, 1.0)
        (stack,) = build_covariance(channels, w)
        ((_, g0),) = reference_ic(red, scale)  # one group: every user is 4x2
        links = effective_links(stack, g0)
        for k in range(8):
            for j in range(8):
                if j == k:
                    assert np.linalg.norm(links[k][:, 2 * k:2 * k + 2] - np.eye(2)) < 1e-8
                else:
                    assert np.linalg.norm(links[k][:, 2 * j:2 * j + 2]) < 1e-8

    def test_zero_detector_gives_zero_blocks(self):
        channels = generate_channels(DEFAULT)
        w, _ = rczf_precode(reduce_ezf(channels), 1.0)
        (stack,) = build_covariance(channels, w)
        links = effective_links(stack, np.zeros((8, 2, 4), dtype=complex))
        assert all(
            np.all(links[k][:, 2 * j:2 * j + 2] == 0) for k in range(8) for j in range(8)
        )

    def test_single_user_pinv_link(self):
        scenario = Scenario(t=16, users=((4, 2),), seed=2)
        channels = generate_channels(scenario)
        red = reduce_ezf(channels)
        w, _ = rczf_precode(red, 1.0)
        g = linalg.pinv(channels.matrices[0] @ blocks(w, red)[0])
        (stack,) = build_covariance(channels, w)
        links = effective_links(stack, g[np.newaxis])
        assert np.linalg.norm(links[0][:, 0:2] - np.eye(2)) < 1e-10


class TestSinrPerLayer:
    def test_plug_in(self):
        t_own = np.eye(2, dtype=complex)
        g = 0.1 * np.eye(2, dtype=complex)  # rows of sigma G have power 0.01 at sigma = 1
        out = sinr_per_layer(t_own, 0, g, 1.0)
        np.testing.assert_allclose(out, [100.0, 100.0], rtol=1e-12)

    def test_perfect_link_caps(self):
        t_own = np.eye(2, dtype=complex)
        g = np.eye(2, dtype=complex)
        out = sinr_per_layer(t_own, 0, g, 0.0)
        np.testing.assert_allclose(out, [SINR_CAP, SINR_CAP])

    def test_all_zero_layer_reports_zero(self):
        t_own = np.zeros((2, 2), dtype=complex)
        out = sinr_per_layer(t_own, 0, np.zeros((2, 4), dtype=complex), 0.0)
        np.testing.assert_allclose(out, [0.0, 0.0])

    def test_matches_per_layer_loop(self, rng):
        # Reference: the per-layer loop over p_k x p_j blocks the stacked
        # form replaced. Summation order differs, so equality is to rtol 1e-12.
        layers = (2, 3, 1, 2)
        user, start = 1, 2
        link = crandn(rng, 3, sum(layers))
        link[1, start + 1] = 0.0  # all-zero signal on layer 1
        g, sigma = crandn(rng, 3, 4), 0.1 + rng.random()
        blocks = np.split(link, np.cumsum(layers)[:-1], axis=1)
        gl = sigma * g
        expected = []
        for i in range(3):
            signal = abs(blocks[user][i, i]) ** 2
            self_leak = float(np.sum(np.abs(blocks[user][i]) ** 2)) - signal
            cross = sum(
                float(np.sum(np.abs(t[i]) ** 2)) for j, t in enumerate(blocks) if j != user
            )
            noise = float(np.sum(np.abs(gl[i]) ** 2))
            expected.append(0.0 if signal == 0.0 else signal / (self_leak + cross + noise))
        out = sinr_per_layer(link, start, g, sigma)
        assert out[1] == 0.0
        np.testing.assert_allclose(out, expected, rtol=1e-12, atol=0.0)

    def test_grid_axis_matches_loop_bitwise(self, rng):
        # A (G, n, p, P) stack with one sigma per grid point against one
        # call per point; point 0 is noiseless with a perfect link for user
        # 1 (capped) and point 2 has an all-zero signal (0).
        starts = np.array([0, 2, 6, 10])
        link, g = crandn(rng, 3, 4, 2, 12), crandn(rng, 3, 4, 2, 4)
        sigma = np.array([0.0, 0.3, 1.7])
        link[0, 1] = 0.0
        link[0, 1, :, 2:4] = np.eye(2)
        link[2, 3, 1, 11] = 0.0
        out = sinr_per_layer(link, starts, g, sigma.reshape(-1, 1, 1, 1))
        assert out.shape == (3, 4, 2)
        assert out[0, 1].tolist() == [SINR_CAP, SINR_CAP] and out[2, 3, 1] == 0.0
        for i in range(3):
            assert out[i].tobytes() == sinr_per_layer(link[i], starts, g[i], sigma[i]).tobytes()

    def test_mrt_has_cross_interference(self):
        scenario = Scenario(t=16, users=((4, 2), (4, 2)), seed=5)
        channels = generate_channels(scenario)
        w, _ = mrt_precode(channels, 1.0)
        stacks = build_covariance(channels, w)
        links = effective_links(stacks[0], stack_filters(stacks[0], "qr-mld", 0.01**2))
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
        # NaN too, as a ValueError the CLI reports as a numerical failure.
        for sinrs in ([-0.5], [np.nan, 1.0]):
            with pytest.raises(InvalidInputError, match="SINR values must be >= 0"):
                spectral_efficiency(sinrs)


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
        sigma = calibrate_noise(channels, 20.0)
        stacks = build_covariance(channels, rczf_precode(reduce_ezf(channels), 1.0)[0])
        for name in ("mmse-irc", "mmse", "gen-lse", "gen-lse(0.1)", "lse-limit", "qr-mld"):
            assert sum(len(stack_filters(stack, name, sigma**2)) for stack in stacks) == 8

    def test_unknown_precoder_rejected(self):
        channels = generate_channels(DEFAULT)
        with pytest.raises(ConfigError, match="unknown precoder 'rzf'"):
            su_mu_report(channels, "rzf", "mmse-irc", 0.1)

    def test_zf_with_fewer_layers_than_antennas_rejected(self):
        # The text reduce_full_zf raises, naming the first user with p_k < q_k.
        channels = generate_channels(Scenario(t=16, users=((2, 2), (4, 2), (3, 1)), seed=1))
        with pytest.raises(DimensionMismatchError) as info:
            su_mu_report(channels, "zf", "mmse-irc", 0.1)
        message = "user 1: full zero-forcing needs p_k = q_k, got p=2, q=4"
        assert str(info.value) == message
        with pytest.raises(DimensionMismatchError, match=f"^{message}$"):
            reduce_full_zf(channels)


class TestSuMuReport:
    def test_orthogonal_users_ratio_is_one(self):
        channels = block_channels(8, [(4, 2)] * 4, seed=2)
        sigma = calibrate_noise(channels, 15.0)
        report = su_mu_report(channels, "ezf", "mmse-irc", sigma)
        assert report.ratio == pytest.approx(1.0, abs=1e-6)

    def test_ratio_decreases_toward_one_for_zero_forcing(self):
        channels = generate_channels(DEFAULT)
        ratios = []
        for db in (0.0, 10.0, 20.0, 30.0, 40.0):
            sigma = calibrate_noise(channels, db)
            ratios.append(su_mu_report(channels, "ezf", "mmse-irc", sigma).ratio)
        assert all(b < a for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 1.05

    def test_mrt_ratio_bounded_away_from_one(self):
        channels = generate_channels(DEFAULT)
        sigma = calibrate_noise(channels, 35.0)
        report = su_mu_report(channels, "mrt", "qr-mld", sigma)
        assert report.ratio > 1.05

    @pytest.mark.parametrize("precoder,detector", [("ezf", "mmse-irc"), ("mrt", "qr-mld"), ("ezf", "mmse")])
    def test_ratio_at_least_one(self, precoder, detector):
        channels = generate_channels(DEFAULT)
        sigma = calibrate_noise(channels, 18.0)
        report = su_mu_report(channels, precoder, detector, sigma)
        assert report.ratio >= 1.0 - 1e-9

    def test_report_shapes_and_totals(self):
        channels = generate_channels(DEFAULT)
        sigma = calibrate_noise(channels, 20.0)
        report = su_mu_report(channels, "ezf", "qr-mld", sigma)
        names = [f.name for f in dataclasses.fields(LinkReport)]
        assert names == ["mu_se", "su_se", "ratio", "interference_power"]
        assert all(type(getattr(report, name)) is float for name in names)
        assert report.su_se > 0
        assert report.ratio == report.su_se / report.mu_se

    def test_mu_se_non_decreasing_in_target(self):
        # Averaged over a few seeds; the 100-seed version is the fig3 run.
        grid = (0.0, 10.0, 20.0, 30.0)
        means = []
        for db in grid:
            acc = 0.0
            for seed in range(1, 11):
                scenario = Scenario(t=64, users=((4, 2),) * 8, seed=seed)
                channels = generate_channels(scenario)
                sigma = calibrate_noise(channels, db)
                acc += su_mu_report(channels, "ezf", "mmse-irc", sigma).mu_se
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
        share = scenario.total_power / scenario.total_layers
        for db in np.arange(0.0, 81.0, 10.0):
            sigma = calibrate_noise(channels, db)
            total = 0.0
            for k, (_, p_k) in enumerate(scenario.users):
                # User k alone, with its own EZF precoder at power share * p_k.
                solo = single_user(channels, k)
                alone = ChannelSet(
                    dataclasses.replace(solo.scenario, total_power=share * p_k), solo.matrices
                )
                se = su_mu_report(alone, "ezf", scheme, sigma).mu_se
                gains = su_layer_gains(alone.scenario, alone.groups)
                closed_form = su_spectral_efficiency(gains, sigma)
                np.testing.assert_allclose(se, closed_form, rtol=1e-12, atol=0.0)
                total += se
            gains = su_layer_gains(channels.scenario, channels.groups)
            closed_form = su_spectral_efficiency(gains, sigma)
            np.testing.assert_allclose(total, closed_form, rtol=1e-12, atol=0.0)

    def test_su_mu_report_rejects_invalid_sigma(self):
        channels = generate_channels(DEFAULT)
        for sigma in (-1.0, np.nan, np.inf):
            with pytest.raises(InvalidInputError, match="sigma must be finite and >= 0"):
                su_mu_report(channels, "ezf", "mmse-irc", sigma)


def test_noiseless_interference_criterion():
    """Zero-forcing + reference detector: cross power below 1e-12 of signal."""
    channels = generate_channels(DEFAULT)
    red = reduce_ezf(channels)
    w, scale = rczf_precode(red, 1.0)
    (stack,) = build_covariance(channels, w)
    ((_, g0),) = reference_ic(red, scale)  # one group: every user is 4x2
    links = effective_links(stack, g0)
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
