import numpy as np
import pytest
from scipy.linalg import subspace_angles

from mimosim import linalg
from mimosim.errors import (
    ConfigError,
    DimensionMismatchError,
    IllConditionedError,
    InfeasibleZeroForcingError,
)
from mimosim.experiment import parse_config
from mimosim.precoding import (
    custom_reduction,
    mrt_precode,
    precode,
    rczf_precode,
    reduce_ezf,
    reduce_full_zf,
)
from mimosim.system import ChannelSet, Scenario, generate_channels

from conftest import blocks, crandn, per_user

DEFAULT = Scenario(t=64, users=((4, 2),) * 8, seed=1)


def block_channels(t_per_user, users, seed=0):
    """Users with mutually orthogonal channel row spaces (disjoint antenna blocks)."""
    rng = np.random.default_rng(seed)
    t = t_per_user * len(users)
    mats = []
    for k, (q, _) in enumerate(users):
        h = np.zeros((q, t), dtype=complex)
        h[:, k * t_per_user:(k + 1) * t_per_user] = crandn(rng, q, t_per_user)
        mats.append(h)
    return ChannelSet(Scenario(t, tuple(users), seed), tuple(mats))


class TestFullZf:
    def test_copies_channel(self):
        scenario = Scenario(t=8, users=((2, 2), (3, 3)), seed=4)
        channels = generate_channels(scenario)
        vs, bs = per_user(reduce_full_zf(channels))
        for v, h in zip(vs, channels.matrices):
            assert np.array_equal(v, h)
        for b, (q, _) in zip(bs, scenario.users):
            assert np.array_equal(b, np.eye(q))

    def test_identity_channel(self):
        scenario = Scenario(t=3, users=((3, 3),), seed=0)
        channels = ChannelSet(scenario, (np.eye(3, dtype=complex),))
        vs, _ = per_user(reduce_full_zf(channels))
        assert np.array_equal(vs[0], np.eye(3))

    def test_reduced_rank_rejected(self):
        channels = generate_channels(Scenario(t=8, users=((4, 2),), seed=1))
        with pytest.raises(DimensionMismatchError):
            reduce_full_zf(channels)


class TestEzf:
    def test_diagonal_channel(self):
        scenario = Scenario(t=2, users=((2, 1),), seed=0)
        channels = ChannelSet(scenario, (np.diag([3.0, 1.0]).astype(complex),))
        vs, _ = per_user(reduce_ezf(channels))
        np.testing.assert_allclose(vs[0], [[1.0, 0.0]], atol=1e-12)

    def test_full_rank_rows_orthonormal(self):
        channels = generate_channels(Scenario(t=16, users=((4, 4),), seed=2))
        vs, _ = per_user(reduce_ezf(channels))
        v = vs[0]
        assert np.linalg.norm(v @ v.conj().T - np.eye(4)) < 1e-9

    def test_spans_dominant_right_singular_subspace(self):
        channels = generate_channels(Scenario(t=64, users=((4, 2),), seed=3))
        vs, _ = per_user(reduce_ezf(channels))
        _, _, vh = np.linalg.svd(channels.matrices[0])
        angles = subspace_angles(vs[0].conj().T, vh[:2].conj().T)
        assert np.max(angles) < 1e-8

    def test_definitional_product(self):
        channels = generate_channels(DEFAULT)
        vs, bs = per_user(reduce_ezf(channels))
        for v, b, h in zip(vs, bs, channels.matrices):
            assert np.linalg.norm(v - b @ h) < 1e-10 * np.linalg.norm(v)
            assert b.shape == (2, 4)
            assert v.shape == (2, 64)

    def test_singular_value_on_the_rank_cutoff_rejected(self):
        # The SVD returns exactly (1, 1e-12): the second value sits on the cutoff,
        # which counts as zero, so the user has one layer, not two.
        h = np.array([[1, 0, 0, 0], [0, 1e-12, 0, 0]], dtype=complex)
        channels = ChannelSet(Scenario(t=4, users=((2, 2),), seed=0), (h,))
        ((_, _, _, (s,)),) = channels.groups
        assert s.tolist() == [1.0, 1e-12]
        assert linalg.rank(s) == 1
        assert not linalg.is_full_rank(h)
        with pytest.raises(IllConditionedError):
            reduce_ezf(channels)

    def test_error_names_the_lowest_failing_user(self):
        # Users 4x2, 2x1, 4x2: user 1 (second shape group) is all zeros and
        # user 2 (first group) has rank 1; the error names user 1.
        rng = np.random.default_rng(4)
        h2 = np.outer(crandn(rng, 4), crandn(rng, 8))
        matrices = (crandn(rng, 4, 8), np.zeros((2, 8), dtype=complex), h2)
        channels = ChannelSet(Scenario(t=8, users=((4, 2), (2, 1), (4, 2)), seed=0), matrices)
        with pytest.raises(IllConditionedError, match=r"^user 1: singular value 1 is not"):
            reduce_ezf(channels)


class TestRczfPrecode:
    def test_orthonormal_rows_give_hermitian(self):
        v = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], dtype=complex)
        red = custom_reduction(
            ChannelSet(Scenario(3, ((1, 1), (1, 1)), 0), (v[:1], v[1:])),
            (np.eye(1), np.eye(1)),
        )
        w, scale = rczf_precode(red)
        np.testing.assert_allclose(
            np.hstack(blocks(w, red)), np.sqrt(0.5) * np.eye(3, 2), atol=1e-12
        )
        assert scale == pytest.approx(np.sqrt(0.5))

    def test_two_by_two_pseudo_inverse(self):
        # Hand oracle: pinv(diag(2, 1)) = diag(0.5, 1).
        h = np.diag([2.0, 1.0]).astype(complex)
        channels = ChannelSet(Scenario(2, ((1, 1), (1, 1)), 0), (h[:1], h[1:]))
        red = custom_reduction(channels, (np.eye(1), np.eye(1)))
        w, scale = rczf_precode(red)
        w0 = np.hstack(blocks(w, red)) / scale
        np.testing.assert_allclose(w0, np.diag([0.5, 1.0]), atol=1e-12)
        v = np.vstack(per_user(red)[0])
        np.testing.assert_allclose(v @ w0, np.eye(2), atol=1e-12)

    def test_zero_forcing_property(self):
        channels = generate_channels(DEFAULT)
        red = reduce_ezf(channels)
        w, _ = rczf_precode(red)
        w_norm = np.linalg.norm(w)
        vs, ws = per_user(red)[0], blocks(w, red)
        worst = max(
            np.linalg.norm(vs[i] @ ws[j])
            for i in range(8)
            for j in range(8)
            if i != j
        )
        assert worst < 1e-9 * w_norm

    def test_own_product_is_scaled_identity(self):
        channels = generate_channels(DEFAULT)
        red = reduce_ezf(channels)
        w, scale = rczf_precode(red)
        for v, wk in zip(per_user(red)[0], blocks(w, red)):
            t = v @ wk
            assert np.linalg.norm(t - scale * np.eye(2)) < 1e-8 * scale

    def test_power_normalization(self):
        w, _ = rczf_precode(reduce_ezf(generate_channels(DEFAULT)))
        assert np.linalg.norm(w) ** 2 == pytest.approx(1.0, rel=1e-9)

    def test_scale_covariance(self):
        # Scaling the reduced channel by c leaves the unit-power W and divides
        # V^+ by c, so the scale grows by c.
        red = reduce_ezf(generate_channels(DEFAULT))
        w1, scale1 = rczf_precode(red)
        w2, scale2 = rczf_precode([(users, 2.0 * v, b) for users, v, b in red])
        assert np.linalg.norm(w2 - w1) < 1e-14 * np.linalg.norm(w1)
        assert scale2 == pytest.approx(2.0 * scale1, rel=1e-12)

    def test_colinear_users_rejected(self):
        rng = np.random.default_rng(0)
        h = crandn(rng, 1, 4)
        channels = ChannelSet(Scenario(4, ((1, 1), (1, 1)), 0), (h, h.copy()))
        red = custom_reduction(channels, (np.eye(1), np.eye(1)))
        with pytest.raises(InfeasibleZeroForcingError):
            rczf_precode(red)


class TestMrt:
    def test_single_user_diagonal(self):
        channels = ChannelSet(
            Scenario(2, ((2, 1),), 0), (np.diag([3.0, 1.0]).astype(complex),)
        )
        w, _ = mrt_precode(channels)
        np.testing.assert_allclose(blocks(w, reduce_ezf(channels))[0], [[1.0], [0.0]], atol=1e-12)

    def test_orthogonal_users_coincide_with_zero_forcing(self):
        channels = block_channels(8, [(4, 2), (4, 2)], seed=1)
        mrt, _ = mrt_precode(channels)
        red = reduce_ezf(channels)
        w_norm = np.linalg.norm(mrt)
        vs, ws = per_user(red)[0], blocks(mrt, red)
        for i in range(2):
            for j in range(2):
                if i != j:
                    assert np.linalg.norm(vs[i] @ ws[j]) < 1e-9 * w_norm

    def test_generic_scenario_is_not_zero_forcing(self):
        channels = generate_channels(DEFAULT)
        w, _ = mrt_precode(channels)
        w_norm = np.linalg.norm(w)
        red = reduce_ezf(channels)
        vs, ws = per_user(red)[0], blocks(w, red)
        worst = max(
            np.linalg.norm(vs[i] @ ws[j])
            for i in range(8)
            for j in range(8)
            if i != j
        )
        assert worst > 1e-3 * w_norm

    def test_power_normalization(self):
        channels = generate_channels(DEFAULT)
        w, _ = mrt_precode(channels)
        assert np.linalg.norm(w) ** 2 == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("power", [-1.0, 0.0, float("nan"), float("inf")])
@pytest.mark.parametrize("scheme", ["ezf", "mrt"])
def test_power_must_be_finite_and_positive(scheme, power):
    # Precoders have unit power, so a config's `power` line is the one place a
    # budget still enters; any value but 1.0 is rejected there, naming the line.
    text = (f"t = 16\nusers = 4x2 *2\npower = {power}\ngrid = 0:0:1\n"
            f"precoders = {scheme}\ndetectors = mmse\n")
    with pytest.raises(ConfigError, match=r"^line 3: key 'power' must be (1\.0, got|finite$)"):
        parse_config(text)


class TestCustomReduction:
    def test_reducer_count_must_match_users(self):
        channels = generate_channels(Scenario(t=8, users=((2, 2), (2, 2)), seed=1))
        with pytest.raises(DimensionMismatchError, match="1 reducers for 2 users"):
            custom_reduction(channels, (np.eye(2),))

    @pytest.mark.parametrize("shape", [(2, 3), (1, 4), (3, 4)])
    def test_reducer_shape_names_the_user(self, shape):
        channels = generate_channels(Scenario(t=8, users=((2, 1), (4, 2)), seed=1))
        reducers = (np.ones((1, 2)), np.ones(shape))
        with pytest.raises(DimensionMismatchError, match=r"^user 1: reducer shape"):
            custom_reduction(channels, reducers)


@pytest.mark.parametrize("scheme", ["zf", "ezf", "mrt"])
def test_precode_equals_the_one_stack_precoders(scheme):
    # Users of three shapes: the dispatcher stacks their reduced channels in user order.
    channels = generate_channels(Scenario(t=32, users=((4, 4), (2, 2), (4, 4), (3, 3)), seed=2))
    one = {"zf": lambda: rczf_precode(reduce_full_zf(channels)),
           "ezf": lambda: rczf_precode(reduce_ezf(channels)),
           "mrt": lambda: mrt_precode(channels)}[scheme]()
    w, scale, _ = precode(channels.groups, channels.scenario, scheme)
    assert w.tobytes() == one[0].tobytes() and scale == one[1]


@pytest.mark.parametrize("seed", range(1, 6))
def test_rczf_membership_bullets(seed):
    """The three defining conditions, checked numerically at 1e-8 relative."""
    channels = generate_channels(Scenario(t=64, users=((4, 2),) * 8, seed=seed))
    red = reduce_ezf(channels)
    w, _ = rczf_precode(red)
    (vs, bs), ws = per_user(red), blocks(w, red)
    w_norm = np.linalg.norm(w)
    for k in range(8):
        v, b, h = vs[k], bs[k], channels.matrices[k]
        assert np.linalg.norm(v - b @ h) <= 1e-8 * np.linalg.norm(v)
        s = np.linalg.svd(v @ ws[k], compute_uv=False)
        assert s[-1] > 1e-8 * s[0]  # rank p_k
        for j in range(8):
            if j != k:
                assert np.linalg.norm(v @ ws[j]) <= 1e-8 * w_norm
