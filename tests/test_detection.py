import numpy as np
import pytest

from mimosim import linalg
from mimosim.detection import (
    build_covariance,
    constellation_by_name,
    gen_lse,
    lse_limit,
    mmse_irc,
    plain_mmse,
    qam16,
    qpsk,
    qr_mld_detect,
    qr_mld_linear,
    qr_mld_parts,
    reference_ic,
    split_columns,
)
from mimosim.errors import (
    DecompositionError,
    DimensionMismatchError,
    InvalidInputError,
    NeedsExternalNoiseError,
    SingularMatrixError,
    UniquenessError,
)
from mimosim.precoding import (
    custom_reduction,
    mrt_precode,
    rczf_precode,
    reduce_ezf,
    reduce_full_zf,
)
from mimosim.system import Scenario, generate_channels, ungroup

from conftest import blocks, crandn, per_user

DEFAULT = Scenario(t=64, users=((4, 2),) * 8, seed=1)


def white_covariance(channels, w, sigma):
    """Links A and covariances R_int + sigma^2 I of the users' one shape group."""
    (stack,) = build_covariance(channels, w)
    eye = np.eye(stack.effective.shape[-2])
    return stack.effective, stack.interference + sigma**2 * eye


def default_pipeline(seed=1, sigma=0.0, precoder="ezf"):
    scenario = Scenario(t=64, users=((4, 2),) * 8, seed=seed)
    channels = generate_channels(scenario)
    red = reduce_ezf(channels)
    if precoder == "ezf":
        w, scale = rczf_precode(red)
    else:
        w, scale = mrt_precode(channels)
    a, r = white_covariance(channels, w, sigma)
    return channels, (w, scale, red), a, r


class TestSplitColumns:
    """The one own/cross column split against naive slicing at the layer offsets."""

    USERS = ((4, 2),) * 4 + ((2, 1),) * 4 + ((8, 4),) * 2
    OFFSETS = np.cumsum((0,) + tuple(p for _, p in USERS))

    def _own_and_rest(self, x, k):
        """User k's own columns of a row block x, and x with them set to +0.0."""
        cols = slice(self.OFFSETS[k], self.OFFSETS[k + 1])
        rest = x.copy()
        rest[..., cols] = 0.0
        return np.ascontiguousarray(x[..., cols]), rest

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["stack", "seed-axis", "grid-axis"])
    def test_matches_per_user_slices_per_shape_group(self, rng, lead):
        for shape in sorted(set(self.USERS)):
            users = np.array([k for k, u in enumerate(self.USERS) if u == shape])
            q, p = shape
            x = crandn(rng, *lead, len(users), q, self.OFFSETS[-1])
            own, cross = split_columns(x, self.OFFSETS[users], p)
            assert own.shape == x.shape[:-1] + (p,) and cross.shape == x.shape
            for i, k in enumerate(users):
                want_own, want_rest = self._own_and_rest(x[..., i, :, :], k)
                assert own[..., i, :, :].tobytes() == want_own.tobytes()
                assert cross[..., i, :, :].tobytes() == want_rest.tobytes()

    def test_scalar_start_for_one_user(self, rng):
        for k, (q, p) in enumerate(self.USERS):
            for lead in ((), (3,)):
                x = crandn(rng, *lead, q, self.OFFSETS[-1])
                own, cross = split_columns(x, self.OFFSETS[k], p)
                want_own, want_rest = self._own_and_rest(x, k)
                assert own.tobytes() == want_own.tobytes() and own.shape == want_own.shape
                assert cross.tobytes() == want_rest.tobytes() and cross.shape == x.shape


class TestConstellations:
    def test_unit_average_power(self):
        for c in (qpsk(), qam16()):
            assert np.mean(np.abs(c.points) ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_qpsk_points(self):
        pts = set(np.round(qpsk().points * np.sqrt(2.0), 12))
        assert pts == {1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j}

    def test_nearest_is_vectorized(self):
        c = qpsk()
        vals = np.array([[0.9 + 0.8j, -2.0 + 0.1j], [0.1 - 0.2j, -1.0 - 1.0j]])
        out = c.nearest(vals)
        assert out.shape == vals.shape
        assert out[0, 0] == c.points[0]

    def test_by_name(self):
        assert constellation_by_name("qam16").name == "qam16"
        with pytest.raises(InvalidInputError):
            constellation_by_name("bpsk")


class TestBuildCovariance:
    def test_single_user_white_noise(self):
        scenario = Scenario(t=16, users=((4, 2),), seed=2)
        channels = generate_channels(scenario)
        red = reduce_ezf(channels)
        w, _ = rczf_precode(red)
        a, r = white_covariance(channels, w, 0.3)
        np.testing.assert_allclose(r[0], 0.09 * np.eye(4), atol=1e-12)
        np.testing.assert_allclose(a[0], channels.matrices[0] @ blocks(w, red)[0], atol=1e-14)

    def test_two_user_noiseless_matches_direct_sum(self):
        scenario = Scenario(t=16, users=((4, 2), (4, 2)), seed=3)
        channels = generate_channels(scenario)
        red = reduce_ezf(channels)
        prec, _ = rczf_precode(red)
        (stack,) = build_covariance(channels, prec)
        for k, j in ((0, 1), (1, 0)):
            h, w = channels.matrices[k], blocks(prec, red)[j]
            direct = h @ w @ w.conj().T @ h.conj().T
            r = stack.interference[k]
            assert np.linalg.norm(r - direct) < 1e-10 * np.linalg.norm(direct)
            s = np.linalg.svd(r, compute_uv=False)
            assert s[2] < 1e-10 * s[0]  # rank <= p_j = 2
            assert np.all(np.linalg.eigvalsh(r) > -1e-12)

    def test_hermitian_exactly(self):
        _, _, _, r = default_pipeline(sigma=0.1)
        for m in r:
            assert np.linalg.norm(m - m.conj().T) < 1e-12 * np.linalg.norm(m)

    def test_correlated_noise_factor(self, rng):
        # Non-isotropic L_k enters as R_int,k + L_k L_k^H, even though the
        # default calibration only produces sigma * I.
        scenario = Scenario(t=16, users=((4, 2), (4, 2)), seed=7)
        channels = generate_channels(scenario)
        red = reduce_ezf(channels)
        prec, _ = rczf_precode(red)
        factors = np.stack([0.1 * crandn(rng, 4, 4) for _ in range(2)])
        (stack,) = build_covariance(channels, prec)
        r = stack.interference + factors @ factors.conj().swapaxes(-1, -2)
        for k in range(2):
            j = 1 - k
            h, w, l = channels.matrices[k], blocks(prec, red)[j], factors[k]
            direct = h @ w @ w.conj().T @ h.conj().T + l @ l.conj().T
            assert np.linalg.norm(r[k] - direct) < 1e-10 * np.linalg.norm(direct)
        assert np.isfinite(mmse_irc(stack.effective, r)).all()


# Each public detector on a faulty input, and the one (class, text) that every detector
# gives for it. Plain mmse takes no covariance; the NaN covariance of mmse-irc is pinned in
# TestMmseIrc, and qr-mld rejected it before the other detectors shared its check.
DETECTORS = {"mmse-irc": mmse_irc, "gen-lse": lambda a, r: gen_lse(a, r, 0.5),
             "lse-limit": lse_limit, "qr-mld": qr_mld_linear,
             "mmse": lambda a, r: plain_mmse(a, 1.0)}
LINK, COVARIANCE = np.eye(4)[np.newaxis, :, :2], np.eye(4)[np.newaxis]
INPUT_FAULTS = {
    "3x3-covariance": (LINK, np.eye(3)[np.newaxis], DimensionMismatchError,
                       "covariance of shape (3, 3) does not match q_k=4"),
    "nan-covariance": (LINK, np.full((1, 4, 4), np.nan), InvalidInputError,
                       "covariance contains non-finite entries"),
    "1-d-link": (np.ones(4), COVARIANCE, InvalidInputError,
                 "effective link must be at least 2-D, got ndim=1"),
    "0-d-link": (np.float64(1.0), COVARIANCE, InvalidInputError,
                 "effective link must be at least 2-D, got ndim=0"),
    "wide-link": (np.eye(4)[np.newaxis, :2], np.eye(2)[np.newaxis], DimensionMismatchError,
                  "effective link of shape (2, 4) has p_k > q_k"),
}


@pytest.mark.parametrize("detector, fault", [
    (detector, fault) for detector in DETECTORS for fault in INPUT_FAULTS
    if not ("covariance" in fault and detector == "mmse"
            or fault == "nan-covariance" and detector in ("mmse-irc", "qr-mld"))
])
def test_detector_input_fault_has_one_class(detector, fault):
    a, r, error, text = INPUT_FAULTS[fault]
    with pytest.raises(error) as info:
        DETECTORS[detector](a, r)
    assert type(info.value) is error
    assert str(info.value) == text


def _skewed_covariance(rng):
    """A 4x4 positive definite covariance with one entry above the diagonal off by 0.5."""
    c = crandn(rng, 4, 4)
    r = c @ c.conj().T + 0.5 * np.eye(4)
    r[0, 2] += 0.5
    return r[np.newaxis]


def test_detectors_read_the_hermitian_part(rng):
    # One covariance contract: every public detector gives the filters of R's Hermitian part.
    a, r = crandn(rng, 4, 2)[np.newaxis], _skewed_covariance(rng)
    hermitian = 0.5 * (r + linalg.herm(r))
    for name, detector in DETECTORS.items():
        g, want = detector(a, r), detector(a, hermitian)
        assert np.linalg.norm(g - want) < 1e-12 * np.linalg.norm(want), name


class TestMmseIrc:
    def test_diagonal_two_by_one(self):
        g = mmse_irc(np.array([[1.0], [0.0]])[np.newaxis], np.eye(2)[np.newaxis])
        np.testing.assert_allclose(g[0], [[0.5, 0.0]], atol=1e-12)

    def test_nan_covariance_is_invalid_input(self):
        with pytest.raises(InvalidInputError, match="^covariance contains non-finite entries$"):
            mmse_irc(np.ones((1, 4, 2)), np.full((1, 4, 4), np.nan))

    def test_identity_zero_noise(self):
        g = mmse_irc(np.eye(3)[np.newaxis], np.zeros((1, 3, 3)))
        np.testing.assert_allclose(g[0], np.eye(3), atol=1e-12)

    def test_noiseless_equals_reference(self):
        _, (_, scale, red), a, r = default_pipeline(sigma=0.0)
        ref = ungroup(reference_ic(red, scale))
        for g, g0 in zip(mmse_irc(a, r), ref):
            assert np.linalg.norm(g - g0) < 1e-8 * np.linalg.norm(g0)

    def test_singular_sum_reports_layer_condition(self):
        # One 2-antenna user alone with one layer and no noise: rank 1 < q_k.
        scenario = Scenario(t=8, users=((2, 1),), seed=4)
        channels = generate_channels(scenario)
        w, _ = rczf_precode(reduce_ezf(channels))
        a, r = white_covariance(channels, w, 0.0)
        with pytest.raises(SingularMatrixError, match="layers in total"):
            mmse_irc(a, r)

    def test_quadratic_convergence_rate(self):
        channels, (w, scale, red), _, _ = default_pipeline()
        ref = ungroup(reference_ic(red, scale))
        errs = {}
        for sigma in (1e-2, 1e-3):
            g = mmse_irc(*white_covariance(channels, w, sigma))
            errs[sigma] = max(np.linalg.norm(gk - g0) for gk, g0 in zip(g, ref))
        assert 50.0 <= errs[1e-2] / errs[1e-3] <= 200.0


class TestPlainMmse:
    def test_identity(self):
        g = plain_mmse(np.eye(2)[np.newaxis], sigma=1.0)
        np.testing.assert_allclose(g[0], 0.5 * np.eye(2), atol=1e-12)

    def test_pseudo_inverse_limit(self, rng):
        # Link scaled so sigma = 1e-6 stays inside the 1e12 condition
        # guard and the solve error stays below the 1e-6 target.
        q, _ = linalg.qr(crandn(rng, 4, 2))
        a = 0.03 * q
        g = plain_mmse(a[np.newaxis], sigma=1e-6)
        target = linalg.pinv(a)
        assert np.linalg.norm(g[0] - target) < 1e-6 * np.linalg.norm(target)

    def test_condition_guard_trips_for_vanishing_sigma(self, rng):
        a = crandn(rng, 4, 2)
        with pytest.raises(SingularMatrixError):
            plain_mmse(a[np.newaxis], sigma=1e-9)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_non_finite_sigma_rejected(self, rng, sigma):
        a = crandn(rng, 4, 2)
        with pytest.raises(InvalidInputError, match="sigma must be finite and >= 0"):
            plain_mmse(a[np.newaxis], sigma)

    def test_does_not_cancel_reduced_rank_interference(self):
        sigma = 1e-3
        channels, (w, _, red), a, _ = default_pipeline(sigma=sigma)
        g = plain_mmse(a, sigma)
        leaks = []
        for k in range(8):
            h = channels.matrices[k]
            for j in range(8):
                if j != k:
                    hw = h @ blocks(w, red)[j]
                    leaks.append(
                        np.linalg.norm(g[k] @ hw)
                        / (np.linalg.norm(g[k]) * np.linalg.norm(hw))
                    )
        assert max(leaks) > 1e-3


class TestGenLse:
    def test_lambda_one_is_bitwise_mmse_irc(self):
        _, _, a, r = default_pipeline(sigma=0.05)
        assert np.array_equal(gen_lse(a, r, 1.0), mmse_irc(a, r))

    def test_hand_computed_two_by_one(self):
        # A = [[1],[0]], R = diag(0, 1): AA^H + lam R = diag(1, lam),
        # so G = [1, 0] for every lam > 0.
        a = np.array([[1.0], [0.0]])[np.newaxis]
        r = np.diag([0.0, 1.0])[np.newaxis]
        for lam in (7.0, 0.1, 3.0):
            np.testing.assert_allclose(gen_lse(a, r, lam)[0], [[1.0, 0.0]], atol=1e-12)

    def test_noiseless_lambda_independence(self):
        _, _, a, r = default_pipeline(sigma=0.0)
        gs = [gen_lse(a, r, lam) for lam in (1e-3, 1.0, 1e3)]
        for i in range(3):
            for j in range(i + 1, 3):
                for gi, gj in zip(gs[i], gs[j]):
                    assert np.linalg.norm(gi - gj) < 1e-7 * np.linalg.norm(gj)

    def test_nonpositive_lambda_rejected(self):
        _, _, a, r = default_pipeline(sigma=0.1)
        with pytest.raises(InvalidInputError):
            gen_lse(a, r, 0.0)

    def test_infinite_lambda_rejected(self):
        _, _, a, r = default_pipeline(sigma=0.1)
        with pytest.raises(InvalidInputError, match="lam must be finite and > 0"):
            gen_lse(a, r, np.inf)


class TestLseLimit:
    def test_identity(self):
        g = lse_limit(np.eye(2)[np.newaxis], np.eye(2)[np.newaxis])
        np.testing.assert_allclose(g[0], np.eye(2), atol=1e-12)

    def test_hand_computed(self):
        # (A^H A)^{-1} A^H = pinv(A) when R = I.
        g = lse_limit(np.array([[2.0], [0.0]])[np.newaxis], np.eye(2)[np.newaxis])
        np.testing.assert_allclose(g[0], [[0.5, 0.0]], atol=1e-12)

    def test_matches_small_lambda(self, rng):
        a = crandn(rng, 4, 2)[np.newaxis]
        c = crandn(rng, 4, 4)
        r = (c @ c.conj().T + 0.5 * np.eye(4))[np.newaxis]
        g_lim = lse_limit(a, r)[0]
        g_lam = gen_lse(a, r, 1e-8)[0]
        assert np.linalg.norm(g_lam - g_lim) < 1e-5 * np.linalg.norm(g_lim)

    def test_singular_covariance_rejected(self):
        _, _, a, r = default_pipeline(sigma=0.0)
        with pytest.raises(NeedsExternalNoiseError):
            lse_limit(a, r)


class TestQrMldLinear:
    def test_diagonal(self):
        g = qr_mld_linear(np.diag([2.0, 1.0])[np.newaxis], np.eye(2)[np.newaxis])
        np.testing.assert_allclose(g[0], np.diag([0.5, 1.0]), atol=1e-12)

    @pytest.mark.parametrize("seed", range(1, 21))
    def test_equals_lse_limit(self, seed):
        rng = np.random.default_rng(seed)
        a = crandn(rng, 4, 2)[np.newaxis]
        c = crandn(rng, 4, 4)
        r = (c @ c.conj().T + 0.5 * np.eye(4))[np.newaxis]
        g_qr = qr_mld_linear(a, r)[0]
        g_lim = lse_limit(a, r)[0]
        assert np.linalg.norm(g_qr - g_lim) < 1e-9 * np.linalg.norm(g_lim)

    def test_limit_matches_reference(self):
        channels, (w, scale, red), _, _ = default_pipeline()
        g = qr_mld_linear(*white_covariance(channels, w, 1e-4))
        ref = ungroup(reference_ic(red, scale))
        for gk, g0 in zip(g, ref):
            assert np.linalg.norm(gk - g0) < 1e-6 * np.linalg.norm(g0)

    def test_singular_covariance_rejected(self):
        _, _, a, r = default_pipeline(sigma=0.0)
        with pytest.raises(NeedsExternalNoiseError):
            qr_mld_linear(a, r)

    def test_whitener_rotation_invariance(self, rng):
        a = crandn(rng, 4, 2)
        c = crandn(rng, 4, 4)
        r = c @ c.conj().T + 0.5 * np.eye(4)
        u, _ = linalg.qr(crandn(rng, 4, 4))
        l = linalg.cholesky(r)
        _, _, _, g0 = qr_mld_parts(a, r)
        _, _, _, g1 = qr_mld_parts(a, r, whitener=l @ u)
        assert np.linalg.norm(g1 - g0) < 1e-9 * np.linalg.norm(g0)

    def test_nan_covariance_is_invalid_input(self):
        with pytest.raises(InvalidInputError, match="^covariance contains non-finite entries$"):
            qr_mld_parts(np.ones((1, 4, 2)), np.full((1, 4, 4), np.nan))

    @pytest.mark.parametrize("shape", [(1, 4, 3), (1, 3, 3)])
    def test_covariance_must_be_q_by_q(self, shape):
        with pytest.raises(DimensionMismatchError,
                           match=rf"^covariance of shape \({shape[1]}, 3\) does not match q_k=4$"):
            qr_mld_parts(np.ones((1, 4, 2)), np.ones(shape))

    def test_non_hermitian_covariance_equals_lse_limit_of_its_hermitian_part(self, rng):
        a, r = crandn(rng, 4, 2)[np.newaxis], _skewed_covariance(rng)
        want = lse_limit(a, 0.5 * (r + linalg.herm(r)))
        np.testing.assert_allclose(qr_mld_linear(a, r), want, rtol=1e-9, atol=0.0)

    def test_indefinite_covariance_error_has_no_cause(self):
        # The guard's eigenvalues show it; no failed Cholesky sits behind the error.
        with pytest.raises(NeedsExternalNoiseError, match="not positive definite") as info:
            qr_mld_parts(np.eye(4)[:, :2], -np.eye(4))
        assert info.value.__cause__ is None

    def test_singular_whitener_is_a_decomposition_error(self):
        with pytest.raises(DecompositionError, match="^whitener is not invertible$"):
            qr_mld_parts(np.eye(4)[:, :2], np.eye(4), whitener=np.zeros((4, 4)))


class TestQrMldDetect:
    def test_identity_link_exact(self):
        c = qpsk()
        sent = np.array([c.points[0], c.points[3]])
        out = qr_mld_detect(sent, np.eye(2), 1e-12 * np.eye(2), c)
        np.testing.assert_allclose(out, sent, atol=1e-9)

    @pytest.mark.parametrize("coupling,min_one_shot_failures", [(0.9, 0), (1.2, 1)])
    def test_sic_vs_one_shot_on_triangular_coupling(self, coupling, min_one_shot_failures):
        # Triangular link T = [[1, c], [0, 1]] with unit whitener: the
        # cancellation pass recovers every QPSK pair exactly for any c.
        # One-shot slicing of z flips a decision only for c > 1: equal-
        # amplitude symbols perturb each axis by c/sqrt(2) against a
        # separation of 1/sqrt(2), so c = 0.9 provably never errs while
        # c = 1.2 does.
        c = qpsk()
        t = np.array([[1.0, coupling], [0.0, 1.0]], dtype=complex)
        one_shot_failures = 0
        for s1 in c.points:
            for s2 in c.points:
                s = np.array([s1, s2])
                y = t @ s  # z = Q^H L^{-1} y = T s, zero noise
                out = qr_mld_detect(y, t, np.eye(2), c)
                np.testing.assert_allclose(out, s, atol=1e-9)
                if not np.allclose(c.nearest(y), s, atol=1e-9):
                    one_shot_failures += 1
        if min_one_shot_failures:
            assert one_shot_failures >= min_one_shot_failures
        else:
            assert one_shot_failures == 0

    def test_array_like_inputs_match_arrays(self):
        a, r, y = np.eye(4)[:, :2], 2.0 * np.eye(4), np.array([1.0, -1.0, 0.5, 0.0])
        np.testing.assert_array_equal(qr_mld_detect(y.tolist(), a.tolist(), r.tolist(), qpsk()),
                                      qr_mld_detect(y, a, r, qpsk()))

    def test_batched_columns_match_single(self):
        rng = np.random.default_rng(9)
        c = qpsk()
        a = crandn(rng, 4, 2)
        r = 0.01 * np.eye(4)
        idx = rng.integers(0, 4, size=(2, 5))
        s = c.points[idx]
        noise = 0.05 * crandn(rng, 4, 5)
        y = a @ s + noise
        batched = qr_mld_detect(y, a, r, c)
        for n in range(5):
            single = qr_mld_detect(y[:, n], a, r, c)
            np.testing.assert_allclose(batched[:, n], single, atol=1e-12)

    @pytest.mark.parametrize("y", [np.full(4, np.nan), np.array([[0.0], [np.inf], [0.0], [0.0]])],
                             ids=["nan-vector", "inf-column"])
    def test_non_finite_received_vector_rejected(self, y):
        # Not a decision: argmin over NaN distances would pick the first point.
        with pytest.raises(InvalidInputError, match="^received vector contains non-finite"):
            qr_mld_detect(y, np.eye(4)[:, :2], np.eye(4), qpsk())


class TestReferenceIc:
    def test_full_zf_identity_reducer(self):
        scenario = Scenario(t=8, users=((2, 2), (2, 2)), seed=6)
        channels = generate_channels(scenario)
        red = reduce_full_zf(channels)
        _, scale = rczf_precode(red)
        for g in ungroup(reference_ic(red, scale)):
            np.testing.assert_allclose(g, np.eye(2) / scale, atol=1e-12)

    def test_cancels_interference(self):
        channels, (w, scale, red), _, _ = default_pipeline()
        ref, ws = ungroup(reference_ic(red, scale)), blocks(w, red)
        for k in range(8):
            gh = ref[k] @ channels.matrices[k]
            for j in range(8):
                t = gh @ ws[j]
                if j == k:
                    assert np.linalg.norm(t - np.eye(2)) < 1e-8
                else:
                    assert np.linalg.norm(t) < 1e-8 * (
                        np.linalg.norm(channels.matrices[k]) * np.linalg.norm(ws[j])
                    )

    def test_scale_bookkeeping(self):
        channels, (_, scale, red), _, _ = default_pipeline()
        doubled = ungroup(reference_ic(red, 2.0 * scale))
        base = ungroup(reference_ic(red, scale))
        for g2, g1 in zip(doubled, base):
            np.testing.assert_allclose(g2, 0.5 * g1, atol=1e-15)

    def test_rank_deficient_reducer_rejected(self):
        channels, (_, scale, red), _, _ = default_pipeline()
        bad = tuple(np.vstack([b[:1], b[:1]]) for b in per_user(red)[1])
        broken = custom_reduction(channels, bad)
        with pytest.raises(UniquenessError):
            reference_ic(broken, scale)

    @pytest.mark.parametrize("scale", [-1.0, 0.0, float("nan"), float("inf")])
    def test_scale_must_be_finite_and_positive(self, scale):
        _, (_, _, red), _, _ = default_pipeline()
        with pytest.raises(InvalidInputError, match="scale must be finite and > 0"):
            reference_ic(red, scale)

    def test_one_scale_per_seed_required(self):
        _, (_, scale, red), _, _ = default_pipeline()
        message = r"^scales of shape \(2,\) for seed axes \(\)$"
        with pytest.raises(DimensionMismatchError, match=message):
            reference_ic(red, [scale, scale])

    @staticmethod
    def _reducers(rng, users, deficient):
        """Random p_k x q_k reducers; those of the `deficient` users repeat their first row."""
        reducers = []
        for k, (q, p) in enumerate(users):
            b = crandn(rng, p, q)
            if k in deficient:
                b[-1] = b[0] if p > 1 else 0.0
            reducers.append(b)
        return reducers

    @pytest.mark.parametrize(
        "users, deficient, named",
        [
            (((4, 2),) * 3, {1}, 1),
            (((4, 2), (2, 1), (8, 4), (4, 2), (2, 1)), {2}, 2),
            # The first shape group holds users 0 and 3; the error still names user 2.
            (((4, 2), (2, 1), (8, 4), (4, 2), (2, 1)), {2, 3}, 2),
            (((4, 2), (2, 1), (8, 4), (4, 2), (2, 1)), {1}, 1),
        ],
    )
    def test_names_the_first_rank_deficient_user(self, rng, users, deficient, named):
        channels = generate_channels(Scenario(t=32, users=users, seed=4))
        full = custom_reduction(channels, self._reducers(rng, users, set()))
        assert len(ungroup(reference_ic(full, 1.0))) == len(users)
        broken = custom_reduction(channels, self._reducers(rng, users, deficient))
        message = rf"^user {named}: reducing map is rank deficient"
        with pytest.raises(UniquenessError, match=message):
            reference_ic(broken, 1.0)


def test_necessity_no_detector_for_mrt():
    """Constrained least-squares oracle: nulling all cross links while
    keeping the own link near identity is infeasible for the matched filter."""
    channels, (w, _, red), _, _ = default_pipeline(precoder="mrt")
    h, ws = channels.matrices[0], blocks(w, red)
    a = h @ ws[0]
    cross = np.hstack([h @ ws[j] for j in range(1, 8)])
    u, s, _ = np.linalg.svd(cross, full_matrices=True)
    rank = int(np.sum(s > 1e-12 * s[0]))
    if rank >= h.shape[0]:
        resid = np.sqrt(a.shape[1])
    else:
        na = u[:, rank:].conj().T @ a
        resid = np.linalg.norm(linalg.pinv(na) @ na - np.eye(a.shape[1]))
    assert resid > 0.1


def _random_reducers(scenario):
    """Seeded i.i.d. complex Gaussian B_k (p_k x q_k), each from its own generator.

    The generators are keyed apart from the channel substreams, so the channel
    draws are those of the scenario.
    """
    return [crandn(np.random.default_rng((scenario.seed, k, 0xB)), p, q)
            for k, (q, p) in enumerate(scenario.users)]


@pytest.mark.parametrize(
    "scenario",
    [Scenario(t=64, users=((4, 2),) * 8, seed=seed) for seed in range(1, 6)]
    + [Scenario(t=64, users=((4, 2), (2, 1), (8, 4), (4, 2), (2, 1)), seed=5)],
    ids=[f"8x4x2-seed{seed}" for seed in range(1, 6)] + ["mixed"],
)
def test_reference_holds_over_the_rczf_class(scenario):
    """Any full-rank reduction B_k, not just the eigen one: the noiseless MMSE-IRC
    filters and the small-noise QR filters reach the reference B_k / scale."""
    channels = generate_channels(scenario)
    red = custom_reduction(channels, _random_reducers(scenario))
    w, scale = rczf_precode(red)
    stacks = build_covariance(channels, w)
    refs = reference_ic(red, scale)
    assert len(stacks) == len(refs) == len(channels.groups)
    for stack, (users, g0) in zip(stacks, refs):
        assert np.array_equal(stack.users, users)
        noise = 1e-4**2 * np.eye(stack.effective.shape[-2])  # sigma = 1e-4
        for name, g, bound in (
            ("mmse-irc", mmse_irc(stack.effective, stack.interference), 1e-7),
            ("qr-mld", qr_mld_linear(stack.effective, stack.interference + noise), 1e-6),
        ):
            norms = np.linalg.norm(g - g0, axis=(-2, -1)) / np.linalg.norm(g0, axis=(-2, -1))
            assert norms.max() < bound, (name, norms.max())
