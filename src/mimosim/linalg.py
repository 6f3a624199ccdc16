"""Dense complex-matrix kernel with pinned decomposition conventions.

All computation is double-precision complex. The QR factor convention
(strictly positive real diagonal of R) and the lower-triangular Cholesky
variant are fixed here so every higher-level identity test compares
against the same factor pair.
"""

import numpy as np

from .errors import (
    DecompositionError,
    InvalidInputError,
    RankDeficiencyError,
    SingularMatrixError,
)

# Singular values not above RANK_RTOL * sigma_max count as zero (`rank`).
RANK_RTOL = 1e-12
# Inversions beyond this condition number raise instead of returning garbage.
CONDITION_LIMIT = 1e12


def as_cmatrix(m, name: str = "matrix") -> np.ndarray:
    """Validate and convert input to a finite complex128 matrix or stack (..., m, n)."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2:
        raise InvalidInputError(f"{name} must be at least 2-D, got ndim={a.ndim}")
    if not np.isfinite(a).all():
        raise InvalidInputError(f"{name} contains non-finite entries")
    return a


def herm(m: np.ndarray) -> np.ndarray:
    """Hermitian transpose of a matrix or of each matrix in a stack."""
    return m.conj().swapaxes(-1, -2)


def svd_reduced(m) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Economy SVD, U: m x k, S: k, Vh: k x n with k = min(m, n)."""
    a = as_cmatrix(m)
    return np.linalg.svd(a, full_matrices=False)


def qr(m) -> tuple[np.ndarray, np.ndarray]:
    """Reduced QR with the diagonal of R forced strictly positive real.

    The phase of each column of Q is absorbed so that the factor pair is
    unique; rank-deficient input raises RankDeficiencyError. A stack
    (..., m, n) is factored, and checked, matrix by matrix.
    """
    a = as_cmatrix(m)
    if a.shape[-2] < a.shape[-1]:
        raise RankDeficiencyError(
            f"matrix of shape {a.shape[-2:]} cannot have full column rank"
        )
    q, r = np.linalg.qr(a, mode="reduced")
    d = np.diagonal(r, axis1=-2, axis2=-1)
    mags = np.abs(d)
    if mags.size == 0 or np.any(mags.min(axis=-1) <= RANK_RTOL * mags.max(axis=-1)):
        raise RankDeficiencyError(
            f"matrix of shape {a.shape[-2:]} is rank deficient; QR requires full column rank"
        )
    phases = d / mags
    q = q * phases[..., np.newaxis, :]
    r = r * phases.conj()[..., :, np.newaxis]
    # Kill rounding residue on the diagonal's imaginary part.
    n = r.shape[-1]
    r[..., np.arange(n), np.arange(n)] = mags
    return q, r


def cholesky(r) -> np.ndarray:
    """Lower-triangular Cholesky factor L with L @ herm(L) = R.

    A stack (..., n, n) is factored, and checked, matrix by matrix.
    """
    a = as_cmatrix(r)
    if a.shape[-2] != a.shape[-1]:
        raise DecompositionError(f"Cholesky input must be square, got {a.shape[-2:]}")
    scale = np.linalg.norm(a, axis=(-2, -1))
    if np.any(np.linalg.norm(a - herm(a), axis=(-2, -1)) > 1e-10 * np.maximum(scale, 1e-300)):
        raise DecompositionError("Cholesky input is not Hermitian")
    sym = 0.5 * (a + herm(a))
    try:
        return np.linalg.cholesky(sym)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError("matrix is not positive definite (pivot <= 0)") from exc


def pinv(m) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with the pinned singular-value cutoff."""
    a = as_cmatrix(m)
    return np.linalg.pinv(a, rcond=RANK_RTOL)


def cond(m) -> float:
    """2-norm condition number; inf for a singular matrix."""
    s = np.linalg.svd(np.asarray(m, dtype=np.complex128), compute_uv=False)
    if s.size == 0 or s[-1] == 0.0:
        return np.inf
    return float(s[0] / s[-1])


def rank(s: np.ndarray):
    """Numerical rank: the count of singular values above RANK_RTOL * sigma_max.

    `s` holds descending singular values on its last axis; a stack of them
    gives one rank per entry.
    """
    return (s > RANK_RTOL * s[..., :1]).sum(axis=-1)


def is_full_rank(m):
    """True when all min(shape) singular values count toward the rank; False if empty.

    A stack (..., m, n) gives one boolean per matrix; a single matrix a bool.
    """
    s = np.linalg.svd(np.asarray(m, dtype=np.complex128), compute_uv=False)
    full = (rank(s) == s.shape[-1]) & (s.shape[-1] > 0)
    return bool(full) if full.ndim == 0 else full


def eigh(m) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs (e ascending, U) of the Hermitian part of each matrix in a stack."""
    a = np.asarray(m, dtype=np.complex128)
    try:
        return np.linalg.eigh(0.5 * (a + herm(a)))
    except np.linalg.LinAlgError as exc:  # e.g. a NaN or inf entry
        raise DecompositionError("eigendecomposition did not converge") from exc


def shifted_condition(e: np.ndarray, shift: float = 0.0) -> np.ndarray:
    """Condition number max|e + c| / min|e + c| of each S + cI, from S's eigenvalues.

    For Hermitian S these are its singular values, so this is the 2-norm
    condition number; a singular matrix gives inf.
    """
    mags = np.abs(e + shift)
    low = mags.min(axis=-1)
    return np.divide(mags.max(axis=-1), low, out=np.full(low.shape, np.inf), where=low > 0)


def solve_shifted(eig, b: np.ndarray, shift: float = 0.0, names=None) -> np.ndarray:
    """(S + cI)^{-1} B = U diag(1 / (e + c)) U^H B for each Hermitian S of a stack.

    `eig` is `eigh(S)`, so every shift c reuses one eigendecomposition; a
    shift array of shape (G, 1, ..., 1) adds a leading grid axis to the
    result. The guard is the condition-number limit on S + cI; a trip
    raises SingularMatrixError naming the first failing matrix, in grid
    then stack order, by its stack entry's `names[i]`.
    """
    e, u = eig
    c = shifted_condition(e, shift)
    bad = ~(c < CONDITION_LIMIT)
    if bad.any():
        i = int(np.argmax(bad.reshape(-1)))
        where = f" ({names[i % len(names)]})" if names else ""
        raise SingularMatrixError(
            f"matrix is singular or near-singular (condition number {c.reshape(-1)[i]:.3g}){where}"
        )
    return u @ ((herm(u) @ b) / (e + shift)[..., :, np.newaxis])


def solve_hermitian(m: np.ndarray, b: np.ndarray, context: str = "") -> np.ndarray:
    """Solve M X = B for Hermitian M, guarded by the condition-number limit."""
    return solve_shifted(eigh(m), b, names=(context,) if context else None)
