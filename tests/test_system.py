import dataclasses
import gzip
import hashlib
import math
import warnings

import numpy as np
import pytest

from mimosim import linalg, system
from mimosim.errors import ChannelGenerationError, InvalidInputError
from mimosim.metrics import sinr_per_layer
from mimosim.precoding import rczf_precode, reduce_ezf
from mimosim.system import (
    ChannelSet,
    Scenario,
    calibrate_noise,
    dump_channels,
    generate_channels,
    load_channels,
    noise_for_target,
    su_layer_gains,
)

from conftest import blocks, single_user

DEFAULT = Scenario(t=64, users=((4, 2),) * 8, seed=1)


class TestScenario:
    def test_layer_count_must_not_exceed_antennas(self):
        with pytest.raises(InvalidInputError):
            Scenario(t=4, users=((4, 2),) * 3)

    def test_per_user_ordering(self):
        with pytest.raises(InvalidInputError):
            Scenario(t=8, users=((2, 3),))
        with pytest.raises(InvalidInputError):
            Scenario(t=8, users=((16, 2),))

    @pytest.mark.parametrize("power", ["1.0", None, 1 + 0j, math.nan, -1.0, True],
                             ids=["str", "none", "complex", "nan", "negative", "bool"])
    def test_power_rejected_with_its_message(self, power):
        # The seed took the power budget's place: a power passed third is not a seed.
        with pytest.raises(InvalidInputError, match="^seed must be an integer, got "):
            Scenario(64, ((4, 2),), power)

    @pytest.mark.parametrize("kwargs, what", [
        ({"t": 8, "users": ((4.7, 2),)}, "user 0: antenna count q_k"),
        ({"t": 8, "users": ((4, 2), (4, 2.0))}, "user 1: layer count p_k"),
        ({"t": 8.5, "users": ((4, 2),)}, "antenna count t"),
        ({"t": 8, "users": ((4, 2),), "seed": 1.9}, "seed"),
        ({"t": "8", "users": ((4, 2),)}, "antenna count t"),
        # A bool is not a count: not 1 antenna, 1 layer or seed 0.
        ({"t": True, "users": ((1, 1),)}, "antenna count t"),
        ({"t": 8, "users": ((True, 1),)}, "user 0: antenna count q_k"),
        ({"t": 8, "users": ((4, 2), (4, True))}, "user 1: layer count p_k"),
        ({"t": 8, "users": ((4, 2),), "seed": False}, "seed"),
    ])
    def test_non_integer_counts_and_seed_rejected(self, kwargs, what):
        # Not truncated to 4x2, t = 8 or seed 1: rejected before any draw.
        with pytest.raises(InvalidInputError, match=f"^{what} must be an integer, got "):
            Scenario(**kwargs)

    def test_integer_like_counts_stored_as_int(self):
        s = Scenario(t=np.int64(8), users=((np.int32(4), np.uint8(2)),), seed=np.uint64(3))
        assert (s.t, s.users, s.seed) == (8, ((4, 2),), 3)
        assert all(type(v) is int for v in (s.t, *s.users[0], s.seed))

    def test_totals(self):
        assert DEFAULT.total_layers == 16
        assert DEFAULT.num_users == 8


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
        b = generate_channels(Scenario(t=64, users=((4, 2),) * 8, seed=1))
        for ha, hb in zip(a.matrices, b.matrices):
            assert np.array_equal(ha, hb)

    def test_seeds_differ(self):
        a = generate_channels(DEFAULT)
        b = generate_channels(Scenario(t=64, users=((4, 2),) * 8, seed=2))
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


class TestSharedDecomposition:
    MIXED = Scenario(t=64, users=((4, 2), (2, 1), (8, 4), (4, 2), (2, 1)), seed=5)

    def test_one_group_per_shape_in_order_of_first_appearance(self):
        channels = generate_channels(self.MIXED)
        assert [users.tolist() for users, *_ in channels.groups] == [[0, 3], [1, 4], [2]]
        for users, h, u, s in channels.groups:
            q = self.MIXED.users[users[0]][0]
            assert h.shape == (len(users), q, 64)
            assert u.shape == (len(users), q, q) and s.shape == (len(users), q)
            for i, k in enumerate(users):
                assert np.array_equal(h[i], channels.matrices[k])
                np.testing.assert_allclose(
                    s[i], np.linalg.svd(h[i], compute_uv=False), rtol=1e-13
                )
                gram = h[i] @ h[i].conj().T
                np.testing.assert_allclose(
                    (u[i] * s[i] ** 2) @ u[i].conj().T, gram, atol=1e-12 * np.linalg.norm(gram)
                )

    def test_one_stacked_svd_per_shape_group(self, monkeypatch):
        calls = []
        svd_reduced = linalg.svd_reduced

        def counting(m):
            calls.append(np.shape(m))
            return svd_reduced(m)

        monkeypatch.setattr(linalg, "svd_reduced", counting)
        channels = generate_channels(self.MIXED)
        su_layer_gains(channels.scenario, channels.groups)
        reduce_ezf(channels)
        assert calls == [(2, 4, 64), (2, 2, 64), (1, 8, 64)]
        assert channels.groups is channels.groups
        assert "groups" not in repr(channels)

    def test_one_rank_call_per_shape_group(self, monkeypatch):
        calls = []
        rank = linalg.rank

        def counting(s):
            calls.append(np.shape(s))
            return rank(s)

        monkeypatch.setattr(linalg, "rank", counting)
        channels = generate_channels(self.MIXED)
        assert calls == [(2, 4), (2, 2), (1, 8)]
        calls.clear()
        reduce_ezf(channels)
        assert calls == [(2, 4), (2, 2), (1, 8)]

    def test_gains_come_group_by_group(self):
        channels = generate_channels(self.MIXED)
        share = 1 / self.MIXED.total_layers
        expected = np.concatenate([
            share * np.linalg.svd(channels.matrices[k], compute_uv=False)[:p] ** 2
            for k, p in ((0, 2), (3, 2), (1, 1), (4, 1), (2, 4))
        ])
        gains = su_layer_gains(channels.scenario, channels.groups)
        np.testing.assert_allclose(gains, expected, rtol=1e-13)


def _two_call_draw(seed, k, shape=(4, 64)):
    """User k's channel drawn as real parts, then imaginary parts, from its substream."""
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(k, 0))))
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


class TestDraw:
    MIXED = TestSharedDecomposition.MIXED
    SEEDS = (7, 5, 6)

    @pytest.mark.parametrize("scenario, seeds, digest", [
        (Scenario(64, ((4, 2),) * 4 + ((2, 1),) * 4 + ((8, 4),) * 2), (7, 5, 6),
         "cedbc455c4817821cd65baedd098415e1fd103c74df9045e0c691616c08fcd65"),
        (Scenario(64, ((4, 2),) * 8), range(1, 11),
         "99e524cc97e0d486c26ed8643d38b37b360dd5756f36dcc785d5d9e6d678cd33"),
    ])
    def test_draw_bytes_are_pinned(self, scenario, seeds, digest):
        sha = hashlib.sha256()
        for _, h, _, _ in system.generate_groups(scenario, seeds):
            sha.update(h.tobytes())
        assert sha.hexdigest() == digest

    def test_draw_is_the_users_substream(self):
        for k, h in enumerate(generate_channels(DEFAULT).matrices):
            assert np.array_equal(h, _two_call_draw(DEFAULT.seed, k))

    def _per_seed(self):
        return [generate_channels(dataclasses.replace(self.MIXED, seed=s)) for s in self.SEEDS]

    def _assert_equals_per_seed(self, groups, per_seed):
        """Seed i of a seed-stacked draw is the i-th one-seed draw, byte for byte."""
        for i, channels in enumerate(per_seed):
            assert len(groups) == len(channels.groups)
            for (users, h, u, s), (one_users, one_h, one_u, one_s) in zip(groups, channels.groups):
                assert np.array_equal(users, one_users)
                assert h.shape[0] == len(self.SEEDS)
                for a, b in ((h[i], one_h), (u[i], one_u), (s[i], one_s)):
                    assert a.tobytes() == b.tobytes()
                for j, k in enumerate(users):
                    assert h[i, j].tobytes() == channels.matrices[k].tobytes()

    def test_seed_stack_equals_each_seeds_draw(self):
        groups = system.generate_groups(self.MIXED, self.SEEDS)
        self._assert_equals_per_seed(groups, self._per_seed())


class TestRedraw:
    """A rank-deficient draw is not redrawn: generation gives up at once, naming the pair."""
    MIXED = TestDraw.MIXED
    SEEDS = TestDraw.SEEDS

    @staticmethod
    def _patched_draw(monkeypatch, deficient):
        """Make the draws of the `deficient` (seed, user) pairs repeat a row; log every draw."""
        calls = []
        draw = system._draw_user

        def patched(seed, k, shape):
            calls.append((seed, k))
            h = draw(seed, k, shape)
            if (seed, k) in deficient:
                h[1] = h[0]
            return h

        monkeypatch.setattr(system, "_draw_user", patched)
        return calls

    def test_gives_up_naming_the_user(self, monkeypatch):
        calls = self._patched_draw(monkeypatch, {(6, 2), (6, 4)})
        with pytest.raises(ChannelGenerationError, match=r"^user 2: drawn channel is rank deficient$"):
            generate_channels(dataclasses.replace(self.MIXED, seed=6))
        assert sorted(calls) == [(6, k) for k in range(self.MIXED.num_users)]

    def test_seed_stack_gives_up_naming_the_lowest_seed_then_user(self, monkeypatch):
        calls = self._patched_draw(monkeypatch, {(7, 1), (6, 4), (6, 2), (5, 3)})
        message = r"^seed 5, user 3: drawn channel is rank deficient$"
        with pytest.raises(ChannelGenerationError, match=message):
            system.generate_groups(self.MIXED, self.SEEDS)
        users = range(self.MIXED.num_users)
        assert sorted(calls) == sorted((seed, k) for seed in self.SEEDS for k in users)


class TestCalibration:
    def test_zero_db_matches_mean_layer_power(self):
        channels = generate_channels(DEFAULT)
        # Independent oracle: run the actual single-user EZF precoding per user
        # at the proportional share of unit power and measure received column powers.
        share = 1 / DEFAULT.total_layers
        powers = []
        for k in range(DEFAULT.num_users):
            alone = single_user(channels, k)
            _, p = DEFAULT.users[k]
            red = reduce_ezf(alone)
            w = np.sqrt(share * p) * rczf_precode(red)[0]
            a = alone.matrices[0] @ blocks(w, red)[0]
            powers.extend(np.sum(np.abs(a) ** 2, axis=0))
        oracle = float(np.mean(powers))
        sigma = calibrate_noise(channels, 0.0)
        assert sigma**2 == pytest.approx(oracle, rel=1e-10)
        gains = su_layer_gains(channels.scenario, channels.groups)
        assert np.mean(gains) == pytest.approx(oracle, rel=1e-10)

    def test_ten_db_scales_sigma_squared_by_ten(self):
        channels = generate_channels(DEFAULT)
        s0 = calibrate_noise(channels, 0.0)
        s10 = calibrate_noise(channels, 10.0)
        assert s0**2 == pytest.approx(10.0 * s10**2, rel=1e-12)

    def test_closed_loop_at_20_db(self):
        # Serve each user alone (own EZF precoder at its power share) and
        # measure the mean per-layer SINR with the metrics module.
        channels = generate_channels(DEFAULT)
        sigma = calibrate_noise(channels, 20.0)
        share = 1 / DEFAULT.total_layers
        sinrs = []
        for k in range(DEFAULT.num_users):
            alone = single_user(channels, k)
            _, p = DEFAULT.users[k]
            red = reduce_ezf(alone)
            w = np.sqrt(share * p) * rczf_precode(red)[0]
            from mimosim.detection import build_covariance, mmse_irc

            (stack,) = build_covariance(alone, w)
            noise = sigma**2 * np.eye(DEFAULT.users[k][0])
            (g,) = mmse_irc(stack.effective, stack.interference + noise)
            t = g @ alone.matrices[0] @ blocks(w, red)[0]
            sinrs.extend(sinr_per_layer(t, 0, g, sigma))
        measured_db = 10.0 * math.log10(float(np.mean(sinrs)))
        assert abs(measured_db - 20.0) < 0.1

    def test_sigma_strictly_decreasing_in_target(self):
        channels = generate_channels(DEFAULT)
        sigmas = [calibrate_noise(channels, db) for db in (-10.0, 0.0, 15.0, 30.0)]
        assert all(b < a for a, b in zip(sigmas, sigmas[1:]))

    @pytest.mark.parametrize("db", [3100.0, -3100.0, -3300.0])
    def test_target_beyond_the_float_range_rejected(self, db):
        # 10^310 overflows, 1 / 10^-310 is inf and 10^-330 is 0.
        with pytest.raises(InvalidInputError, match="out of float range"):
            noise_for_target(1.0, db)

    def test_overflowing_noise_raises_without_a_warning(self):
        # A sweep passes its mean SU power as a numpy float; the division must not warn.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match="out of float range"):
                noise_for_target(np.float64(1e300), -300.0)

    def test_non_finite_target_rejected(self):
        channels = generate_channels(DEFAULT)
        with pytest.raises(InvalidInputError):
            calibrate_noise(channels, math.inf)


def _load_error(tmp_path, text: str) -> str:
    """The `InvalidInputError` text of loading `text`, with the file's path replaced by `PATH`."""
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(InvalidInputError) as info:
        load_channels(path)
    return str(info.value).replace(str(path), "PATH")


class TestDumpLoad:
    def test_roundtrip_bitwise(self, tmp_path):
        channels = generate_channels(Scenario(t=6, users=((3, 2), (2, 1)), seed=5))
        h0 = channels.matrices[0].copy()
        h0[0, 0] = complex(-0.0, abs(h0[0, 0].imag))  # re + 1j * im with im > 0 would give +0.0
        channels = ChannelSet(channels.scenario, (h0, channels.matrices[1]))
        path = tmp_path / "channels.txt"
        dump_channels(channels, path)
        back = load_channels(path)
        assert back.scenario.t == 6
        assert back.scenario.users == ((3, 2), (2, 1))
        for ha, hb in zip(channels.matrices, back.matrices):
            assert hb.dtype == np.complex128
            assert np.array_equal(ha.view(np.uint64), hb.view(np.uint64))

    def test_header_line_format(self, tmp_path):
        channels = generate_channels(Scenario(t=6, users=((3, 2), (2, 1)), seed=5))
        path = tmp_path / "channels.txt"
        dump_channels(channels, path)
        first = path.read_text().splitlines()[0]
        assert first == "6 3 2 2 1"

    def test_written_text(self, tmp_path):
        h = np.array([[complex(-0.0, 5e-324), complex(0.1, 1e300)]])
        path = tmp_path / "channels.txt.gz"  # plain text whatever the name
        dump_channels(ChannelSet(Scenario(t=2, users=((1, 1),)), (h,)), path)
        assert path.read_text() == (
            "2 1 1\n-0 4.9406564584124654e-324 0.10000000000000001 1.0000000000000001e+300\n"
        )
        dump_channels(ChannelSet(Scenario(t=2, users=((1, 1),)), (np.array([[1.0, -2.5]]),)), path)
        assert path.read_text() == "2 1 1\n1 0 -2.5 0\n"  # a real matrix gets zero imag parts

    @pytest.mark.parametrize("text", ["", "\n  \n\t\n"], ids=["empty", "blank"])
    def test_empty_file_rejected(self, tmp_path, text):
        assert _load_error(tmp_path, text) == "PATH: empty channel file"

    @pytest.mark.parametrize("header", ["2 1", "2 1 1 1"], ids=["short", "even"])
    def test_malformed_header_rejected(self, tmp_path, header):
        assert _load_error(tmp_path, header + "\n1 0 0 0\n") == (
            "PATH: malformed header (need `t q1 p1 ...`)"
        )

    def test_non_integer_header_rejected(self, tmp_path):
        assert _load_error(tmp_path, "2.0 1 1\n1 0 0 0\n") == "PATH: non-integer value in header"

    def test_header_rejected_by_scenario_names_the_file(self, tmp_path):
        assert _load_error(tmp_path, "-2 1 1\n1 0 0 0\n") == (
            "PATH: antenna count t must be >= 1, got -2"
        )

    def test_wrong_token_count_rejected(self, tmp_path):
        assert _load_error(tmp_path, "2 1 1\n1 0 0\n") == "PATH: line 2: expected 4 numbers, got 3"

    def test_malformed_number_rejected(self, tmp_path):
        for token in ("x", "1d5"):
            assert _load_error(tmp_path, f"2 2 1\n1 0 {token} 0\n0 0 1 0\n") == (
                "PATH: line 2: malformed number"
            )

    def test_error_lines_count_blank_lines(self, tmp_path):
        assert _load_error(tmp_path, "2 1 1\n\n\n1 0 x 0\n") == "PATH: line 4: malformed number"
        assert _load_error(tmp_path, "2 1 1\n\n1 0 0\n") == (
            "PATH: line 3: expected 4 numbers, got 3"
        )

    @pytest.mark.parametrize("token", ["nan", "-inf", "1e400"])
    def test_non_finite_entry_names_its_line(self, tmp_path, token):
        assert _load_error(tmp_path, f"2 1 1 1 1\n1 0 0 0\n\n0 {token} 1 0\n") == (
            "PATH: line 4: user 1: channel has non-finite entries"
        )

    def test_truncated_rejected(self, tmp_path):
        assert _load_error(tmp_path, "4 2 1\n1 0 0 0 0 0 0 0\n") == "PATH: truncated file (user 0)"
        assert _load_error(tmp_path, "2 1 1 1 1\n1 0 0 0\n") == "PATH: truncated file (user 1)"

    def test_trailing_rows_rejected(self, tmp_path):
        assert _load_error(tmp_path, "2 1 1\n1 0 0 0\n0 0 1 0\n") == (
            "PATH: trailing data after channel rows"
        )

    def test_gzipped_dump_rejected(self, tmp_path):
        dumped = tmp_path / "channels.txt"
        dump_channels(generate_channels(Scenario(t=2, users=((1, 1),))), dumped)
        path = tmp_path / "channels.txt.gz"
        path.write_bytes(gzip.compress(dumped.read_bytes()))
        with pytest.raises(InvalidInputError) as info:
            load_channels(path)
        assert str(info.value) == f"{path}: not a text channel file"
        assert type(info.value.__cause__) is UnicodeDecodeError

    def test_full_rank_check_uses_svd(self):
        assert linalg.is_full_rank(generate_channels(DEFAULT).matrices[0])
