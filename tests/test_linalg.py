import numpy as np
import pytest

from mimosim import linalg
from mimosim.errors import (
    DecompositionError,
    InvalidInputError,
    RankDeficiencyError,
    SingularMatrixError,
)

from conftest import crandn


class TestSvd:
    """The economy SVD, `linalg.svd_reduced`."""

    def test_diagonal(self):
        u, s, vh = linalg.svd_reduced(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(u, np.eye(2), atol=1e-14)
        np.testing.assert_allclose(s, [3.0, 1.0], atol=1e-14)
        np.testing.assert_allclose(vh, np.eye(2), atol=1e-14)

    def test_identity(self):
        _, s, _ = linalg.svd_reduced(np.eye(4))
        np.testing.assert_allclose(s, np.ones(4), atol=1e-14)

    def test_roundtrip_wide(self, rng):
        m = crandn(rng, 4, 64)
        u, s, vh = linalg.svd_reduced(m)
        rec = u @ (s[:, None] * vh[: len(s)])
        assert np.linalg.norm(rec - m) < 1e-10 * np.linalg.norm(m)

    def test_descending_and_orthonormal(self, rng):
        m = crandn(rng, 6, 3)
        u, s, vh = linalg.svd_reduced(m)
        assert u.shape == (6, 3)
        assert np.all(np.diff(s) <= 0)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(vh @ vh.conj().T, np.eye(3), atol=1e-12)

    def test_non_finite_rejected(self):
        bad = np.array([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(InvalidInputError):
            linalg.svd_reduced(bad)
        with pytest.raises(InvalidInputError):
            linalg.svd_reduced(np.array([[np.inf + 0j, 1.0], [0.0, 1.0]]))


class TestQr:
    def test_identity(self):
        q, r = linalg.qr(np.eye(3))
        np.testing.assert_allclose(q, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(r, np.eye(3), atol=1e-14)

    def test_sign_fix_on_negative_diagonal(self):
        q, r = linalg.qr(np.diag([-2.0, 1.0]))
        np.testing.assert_allclose(q, np.diag([-1.0, 1.0]), atol=1e-14)
        np.testing.assert_allclose(r, np.diag([2.0, 1.0]), atol=1e-14)

    def test_roundtrip_and_orthonormal_columns(self, rng):
        m = crandn(rng, 4, 2)
        q, r = linalg.qr(m)
        assert np.linalg.norm(q.conj().T @ q - np.eye(2)) < 1e-10
        assert np.linalg.norm(q @ r - m) < 1e-10 * np.linalg.norm(m)

    def test_positive_real_diagonal(self, rng):
        for _ in range(5):
            m = crandn(rng, 5, 3)
            _, r = linalg.qr(m)
            d = np.diagonal(r)
            assert np.all(d.imag == 0.0)
            assert np.all(d.real > 0.0)
            assert np.allclose(np.tril(r, -1), 0.0)

    def test_deterministic_factors(self, rng):
        m = crandn(rng, 6, 4)
        q1, r1 = linalg.qr(m)
        q2, r2 = linalg.qr(m.copy())
        assert np.linalg.norm(q1 - q2) < 1e-12
        assert np.linalg.norm(r1 - r2) < 1e-12

    def test_rank_deficient_rejected(self, rng):
        col = crandn(rng, 4, 1)
        with pytest.raises(RankDeficiencyError):
            linalg.qr(np.hstack([col, col]))

    def test_wide_matrix_rejected(self, rng):
        with pytest.raises(RankDeficiencyError):
            linalg.qr(crandn(rng, 2, 5))


class TestCholesky:
    def test_identity(self):
        np.testing.assert_allclose(linalg.cholesky(np.eye(2)), np.eye(2), atol=1e-14)

    def test_diagonal(self):
        l = linalg.cholesky(np.diag([4.0, 9.0]))
        np.testing.assert_allclose(l, np.diag([2.0, 3.0]), atol=1e-14)

    def test_roundtrip(self, rng):
        m = crandn(rng, 4, 4)
        r = m @ m.conj().T + 1e-6 * np.eye(4)
        l = linalg.cholesky(r)
        assert np.linalg.norm(l @ l.conj().T - r) < 1e-9 * np.linalg.norm(r)
        assert np.allclose(np.triu(l, 1), 0.0)
        assert np.all(np.diagonal(l).real > 0)

    def test_non_hermitian_rejected(self, rng):
        with pytest.raises(DecompositionError):
            linalg.cholesky(crandn(rng, 3, 3))

    def test_non_positive_definite_rejected(self):
        with pytest.raises(DecompositionError):
            linalg.cholesky(np.diag([1.0, -1.0]))
        with pytest.raises(DecompositionError):
            linalg.cholesky(np.zeros((2, 2)))


class TestEigh:
    def test_non_finite_input_raises_decomposition_error(self):
        m = np.full((2, 3, 3), np.nan)
        with pytest.raises(DecompositionError, match="did not converge") as info:
            linalg.eigh(m)
        assert type(info.value.__cause__) is np.linalg.LinAlgError


class TestPinv:
    def test_identity(self):
        np.testing.assert_allclose(linalg.pinv(np.eye(3)), np.eye(3), atol=1e-14)

    def test_row_orthonormal_gives_hermitian(self, rng):
        m = crandn(rng, 2, 6)
        q, _ = linalg.qr(m.conj().T)
        rows = q.conj().T
        np.testing.assert_allclose(linalg.pinv(rows), rows.conj().T, atol=1e-12)

    def test_right_inverse_for_full_row_rank(self, rng):
        m = crandn(rng, 2, 5)
        np.testing.assert_allclose(m @ linalg.pinv(m), np.eye(2), atol=1e-10)

    def test_involution(self, rng):
        m = crandn(rng, 3, 5)
        back = linalg.pinv(linalg.pinv(m))
        assert np.linalg.norm(back - m) < 1e-9 * np.linalg.norm(m)

    def test_rank_deficient_still_returns(self, rng):
        col = crandn(rng, 4, 1)
        m = np.hstack([col, col])
        p = linalg.pinv(m)
        # Moore-Penrose conditions on a rank-1 matrix.
        assert np.linalg.norm(m @ p @ m - m) < 1e-10 * np.linalg.norm(m)
        assert np.linalg.norm(p @ m @ p - p) < 1e-10 * np.linalg.norm(p)


@pytest.mark.parametrize("seed", range(1, 11))
@pytest.mark.parametrize("shape", [(4, 4), (6, 3), (3, 6)])
def test_decomposition_roundtrips_well_conditioned(seed, shape):
    rng = np.random.default_rng(seed)
    m = crandn(rng, *shape)
    if linalg.cond(m) > 1e6:
        pytest.skip("draw was ill-conditioned")
    u, s, vh = linalg.svd_reduced(m)
    rec = u @ (s[:, None] * vh)
    assert np.linalg.norm(rec - m) < 1e-10 * np.linalg.norm(m)
    if shape[0] >= shape[1]:
        q, r = linalg.qr(m)
        assert np.linalg.norm(q @ r - m) < 1e-10 * np.linalg.norm(m)
    h = m @ m.conj().T + 0.1 * np.eye(shape[0])
    l = linalg.cholesky(h)
    assert np.linalg.norm(l @ l.conj().T - h) < 1e-10 * np.linalg.norm(h)


def test_solve_hermitian_guard():
    with pytest.raises(SingularMatrixError):
        linalg.solve_hermitian(np.diag([1.0, 0.0]), np.eye(2))
    x = linalg.solve_hermitian(np.diag([2.0, 4.0]), np.eye(2))
    np.testing.assert_allclose(x, np.diag([0.5, 0.25]), atol=1e-14)


def test_cond_and_rank_helpers(rng):
    assert linalg.cond(np.eye(3)) == pytest.approx(1.0)
    assert np.isinf(linalg.cond(np.diag([1.0, 0.0])))
    assert linalg.is_full_rank(crandn(rng, 3, 8))
    col = crandn(rng, 4, 1)
    assert not linalg.is_full_rank(np.hstack([col, col]))


def test_rank_counts_values_above_the_cutoff():
    assert linalg.rank(np.array([3.0, 1.0, 0.0])) == 2
    assert linalg.rank(np.array([1.0, linalg.RANK_RTOL])) == 1  # on the cutoff counts as zero
    assert linalg.rank(np.array([1.0, 2 * linalg.RANK_RTOL])) == 2
    assert linalg.rank(np.zeros(3)) == 0
    assert linalg.rank(np.array([[2.0, 1.0], [1.0, 0.0]])).tolist() == [2, 1]
    assert linalg.rank(np.empty((2, 0))).tolist() == [0, 0]


def test_is_full_rank_on_a_stack(rng):
    good = crandn(rng, 3, 8)
    deficient = np.vstack([good[:2], good[:1]])
    flags = linalg.is_full_rank(np.stack([good, deficient, good, np.zeros((3, 8))]))
    assert flags.dtype == bool and flags.tolist() == [True, False, True, False]
    assert type(linalg.is_full_rank(good)) is bool
    assert type(linalg.is_full_rank(deficient)) is bool
    assert linalg.is_full_rank(deficient[np.newaxis]).shape == (1,)


class TestStacks:
    def test_qr_and_cholesky_factor_each_matrix(self, rng):
        m = crandn(rng, 3, 5, 2)
        q, r = linalg.qr(m)
        h = m @ linalg.herm(m) + 0.1 * np.eye(5)
        l = linalg.cholesky(h)
        for i in range(3):
            qi, ri = linalg.qr(m[i])
            np.testing.assert_allclose(q[i], qi, atol=1e-12)
            np.testing.assert_allclose(r[i], ri, atol=1e-12)
            np.testing.assert_allclose(l[i], linalg.cholesky(h[i]), atol=1e-12)

    def test_every_matrix_is_checked(self, rng):
        m = crandn(rng, 3, 4, 2)
        m[1, :, 1] = m[1, :, 0]
        with pytest.raises(RankDeficiencyError):
            linalg.qr(m)
        h = np.stack([np.eye(2), np.diag([1.0, -1.0]), np.eye(2)]).astype(complex)
        with pytest.raises(DecompositionError, match="positive definite"):
            linalg.cholesky(h)
        h[1] = crandn(rng, 2, 2)
        with pytest.raises(DecompositionError, match="Hermitian"):
            linalg.cholesky(h)

    def test_solve_shifted_matches_solve(self, rng):
        c = crandn(rng, 4, 3, 3)
        s = c @ linalg.herm(c)
        b = crandn(rng, 4, 3, 2)
        eig = linalg.eigh(s)
        for shift in (0.0, 0.5):
            expected = np.linalg.solve(s + shift * np.eye(3), b)
            got = linalg.solve_shifted(eig, b, shift)
            assert np.linalg.norm(got - expected) < 1e-10 * np.linalg.norm(expected)

    def test_shifted_guard_names_the_failing_matrix(self):
        s = np.stack([np.eye(2), np.diag([1.0, 1e-13])])
        eig = linalg.eigh(s)
        with pytest.raises(SingularMatrixError, match=r"condition number 1e\+13\) \(user 7\)"):
            linalg.solve_shifted(eig, np.ones((2, 2, 1)), names=["user 3", "user 7"])
        np.testing.assert_allclose(
            linalg.solve_shifted(eig, np.ones((2, 2, 1)), 1e-3)[1, :, 0], [1 / 1.001, 1 / 1e-3]
        )
        assert np.isinf(linalg.shifted_condition(np.zeros(2)))

    def test_overflowing_condition_is_inf_without_a_warning(self):
        # Tier-1 turns warnings into errors, so an overflow warning would fail this call.
        assert np.isinf(linalg.shifted_condition(np.array([[1e-300, 1e300], [1.0, 2.0]]))[0])
        assert np.isinf(linalg.shifted_condition(np.array([1.0, 1.5e308]), 1.5e308))

    def test_both_extremes_overflowing_give_inf_without_a_warning(self):
        # |e + c| overflows at both ends: inf / inf would be NaN, and the guard would read it.
        e = np.array([1e308, 1.5e308])
        assert np.isinf(linalg.shifted_condition(e, 1.5e308))
        with pytest.raises(SingularMatrixError, match=r"\(condition number inf\)$"):
            linalg.solve_shifted(linalg.eigh(np.diag(e)), np.ones((2, 1)), 1.5e308)

    def test_huge_finite_entries_keep_their_hermitian_part(self):
        # (M + M^H) / 2 would overflow on the sum; cholesky's Frobenius scale would too.
        r = np.diag([1e308, 1.5e308, 1.2e308, 1.1e308]).astype(complex)
        r[0, 1], r[1, 0] = 1e308j, -1e308j
        np.testing.assert_array_equal(linalg.hermitian_part(r), r)
        np.testing.assert_allclose(linalg.eigh(r)[0], np.linalg.eigvalsh(r), rtol=1e-12)
        l = linalg.cholesky(r)
        np.testing.assert_allclose(l @ linalg.herm(l), r, rtol=1e-12, atol=1e-12 * 1.5e308)


class TestFloatRange:
    """Inputs whose largest entry lies outside [2^-100, 2^100] are factored at an exact
    power-of-two rescale, so no intermediate under- or overflows."""

    def test_cholesky_rejects_a_non_hermitian_matrix_near_the_float_maximum(self):
        # Unscaled, A - A^H overflows, the Hermitian test reads NaN, and the test passes.
        with pytest.raises(DecompositionError, match="^Cholesky input is not Hermitian$"):
            linalg.cholesky(np.array([[1e308, 1.5e308], [-1.5e308, 1e308]]))

    def test_qr_factors_near_the_float_maximum_are_finite(self):
        q, r = linalg.qr(np.array([[1e308, 1e308], [1e308, -1e308]]))
        np.testing.assert_allclose(q, np.array([[1, 1], [1, -1]]) / np.sqrt(2), atol=1e-15)
        np.testing.assert_allclose(r, np.sqrt(2) * 1e308 * np.eye(2), rtol=1e-15, atol=1e293)

    @pytest.mark.parametrize("k", [3, -3])
    @pytest.mark.parametrize("base", [1.0, 2.0**900, 2.0**-900], ids=["1", "2^900", "2^-900"])
    def test_factors_of_a_power_of_two_multiple_are_its_factors_rescaled(self, rng, base, k):
        # QR: Q(2^k A) = Q(A), R(2^k A) = 2^k R(A); Cholesky: L(4^k R) = 2^k L(R), bit for bit.
        m = base * crandn(rng, 5, 4, 2)
        c = crandn(rng, 5, 4, 4)
        h = base * (c @ linalg.herm(c) + np.eye(4))
        q, r = linalg.qr(m)
        q_k, r_k = linalg.qr(2.0**k * m)
        np.testing.assert_array_equal(q_k, q)
        np.testing.assert_array_equal(r_k, 2.0**k * r)
        np.testing.assert_array_equal(linalg.cholesky(4.0**k * h), 2.0**k * linalg.cholesky(h))


def test_solve_hermitian_rejects_zero_matrix():
    with pytest.raises(SingularMatrixError):
        linalg.solve_hermitian(np.zeros((2, 2)), np.ones((2, 1)))
