"""Receiver constructions: interference-aware covariance, the MMSE-IRC /
generalized-LSE family and its whitened least-squares limit, the QR-based
successive-cancellation detector, and the ideal interference-cancellation
reference they all converge to under zero-forcing precoding.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from . import linalg
from .errors import (
    DecompositionError,
    DimensionMismatchError,
    InvalidInputError,
    NeedsExternalNoiseError,
    SingularMatrixError,
    UniquenessError,
)
from .linalg import herm
from .precoding import Precoder, ReducedChannel
from .system import ChannelSet, NoiseModel


@dataclass(frozen=True)
class CovarianceModel:
    """Per-user effective link A_k = H_k @ W_k plus interference-and-noise data.

    covariances[k] is R_k = H_k (sum_{j!=k} W_j W_j^H) H_k^H + L_k L_k^H;
    with all L_k = 0 the model is flagged `noiseless` (interference-only).
    """

    effective: tuple[np.ndarray, ...]
    covariances: tuple[np.ndarray, ...]
    noise_factors: tuple[np.ndarray, ...]
    noiseless: bool

    def __post_init__(self):
        object.__setattr__(self, "effective", tuple(self.effective))
        object.__setattr__(self, "covariances", tuple(self.covariances))
        object.__setattr__(self, "noise_factors", tuple(self.noise_factors))

    @property
    def num_users(self) -> int:
        return len(self.effective)


@dataclass(frozen=True)
class Detector:
    """Per-user linear detection filters G_k (p_k x q_k) with a provenance tag."""

    filters: tuple[np.ndarray, ...]
    scheme: str

    def __post_init__(self):
        object.__setattr__(self, "filters", tuple(self.filters))
        for k, g in enumerate(self.filters):
            if not np.isfinite(g).all():
                raise InvalidInputError(f"user {k}: detector filter has non-finite entries")


@dataclass(frozen=True)
class Constellation:
    """Unit-average-power complex symbol alphabet."""

    name: str
    points: np.ndarray

    def nearest(self, values: np.ndarray) -> np.ndarray:
        """Map each value to the closest constellation point (vectorized)."""
        values = np.asarray(values, dtype=np.complex128)
        idx = np.argmin(np.abs(values[..., np.newaxis] - self.points), axis=-1)
        return self.points[idx]


def qpsk() -> Constellation:
    pts = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], dtype=np.complex128) / np.sqrt(2.0)
    return Constellation("qpsk", pts)


def qam16() -> Constellation:
    levels = np.array([-3.0, -1.0, 1.0, 3.0])
    grid = levels[:, np.newaxis] + 1j * levels[np.newaxis, :]
    return Constellation("qam16", grid.ravel() / np.sqrt(10.0))


def constellation_by_name(name: str) -> Constellation:
    table = {"qpsk": qpsk, "qam16": qam16}
    if name not in table:
        raise InvalidInputError(f"unknown constellation '{name}' (expected qpsk or qam16)")
    return table[name]()


def build_covariance(
    channels: ChannelSet, precoder: Precoder, noise: NoiseModel
) -> CovarianceModel:
    """Effective links and interference-plus-noise covariances for all users.

    The interference term is assembled as (H C)(H C)^H with C the stack of
    the other users' precoding blocks, which keeps R_k PSD by construction.
    """
    n = channels.scenario.num_users
    if len(noise.factors) != n:
        raise DimensionMismatchError("noise model and channel set disagree on user count")
    effective = []
    covariances = []
    for k, h in enumerate(channels.matrices):
        a = h @ precoder.blocks[k]
        others = [precoder.blocks[j] for j in range(n) if j != k]
        if others:
            hc = h @ np.hstack(others)
            r = hc @ herm(hc)
        else:
            r = np.zeros((h.shape[0], h.shape[0]), dtype=np.complex128)
        l = noise.factors[k]
        r = r + l @ herm(l)
        effective.append(a)
        covariances.append(0.5 * (r + herm(r)))
    return CovarianceModel(
        tuple(effective), tuple(covariances), noise.factors, noise.noiseless
    )


def _regularized_filter(a: np.ndarray, r: np.ndarray, lam: float, user: int) -> np.ndarray:
    """A^H (A A^H + lam * R)^{-1} with the shared condition guard."""
    m = a @ herm(a) + lam * r
    try:
        x = linalg.solve_hermitian(m, a, context=f"user {user}")
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"user {user}: signal-plus-noise covariance is singular; invertibility "
            f"requires at least q_k={a.shape[0]} layers in total across users"
        ) from exc
    return herm(x)


def mmse_irc(cov: CovarianceModel) -> Detector:
    """Interference-aware MMSE filters G_k = A_k^H (A_k A_k^H + R_k)^{-1}."""
    filters = tuple(
        _regularized_filter(a, r, 1.0, k)
        for k, (a, r) in enumerate(zip(cov.effective, cov.covariances))
    )
    return Detector(filters, "mmse-irc")


def plain_mmse(cov: CovarianceModel, sigma: float) -> Detector:
    """White-noise MMSE: ignores the interference part of the covariance."""
    if sigma < 0:
        raise InvalidInputError(f"sigma must be >= 0, got {sigma}")
    filters = []
    for k, a in enumerate(cov.effective):
        eye = np.eye(a.shape[0], dtype=np.complex128)
        filters.append(_regularized_filter(a, sigma**2 * eye, 1.0, k))
    return Detector(tuple(filters), "mmse")


def gen_lse(cov: CovarianceModel, lam: float) -> Detector:
    """One-parameter family G_k = A_k^H (A_k A_k^H + lam * R_k)^{-1}, lam > 0.

    At lam = 1 this is exactly the interference-aware MMSE filter; in the
    noiseless zero-forcing regime the output does not depend on lam.
    """
    if not lam > 0:
        raise InvalidInputError(f"lam must be > 0, got {lam}")
    filters = tuple(
        _regularized_filter(a, r, lam, k)
        for k, (a, r) in enumerate(zip(cov.effective, cov.covariances))
    )
    return Detector(filters, f"gen-lse({lam:g})")


def lse_limit(cov: CovarianceModel) -> Detector:
    """Whitened least-squares limit G_k = (A_k^H R_k^{-1} A_k)^{-1} A_k^H R_k^{-1}."""
    filters = []
    for k, (a, r) in enumerate(zip(cov.effective, cov.covariances)):
        if linalg.cond(r) >= linalg.CONDITION_LIMIT:
            raise NeedsExternalNoiseError(
                f"user {k}: covariance is singular; non-zero external noise is "
                "required for the whitened limit"
            )
        rinv_a = linalg.solve_hermitian(r, a, context=f"user {k} covariance")
        m = herm(a) @ rinv_a
        x = linalg.solve_hermitian(m, herm(rinv_a), context=f"user {k} normal matrix")
        filters.append(x)
    return Detector(tuple(filters), "lse-limit")


def qr_mld_parts(
    a: np.ndarray, r: np.ndarray, whitener: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Factor one user's QR-based detector; returns (whitener, Q, T, G).

    The whitener F satisfies F F^H = R (lower Cholesky by default, but any
    F U with U unitary yields the same filter); (Q, T) is the positive-
    diagonal QR of F^{-1} A, and G = T^{-1} Q^H F^{-1} is the linear part.
    """
    a = linalg.as_cmatrix(a, "effective link")
    if linalg.cond(r) >= linalg.CONDITION_LIMIT:
        raise NeedsExternalNoiseError(
            "covariance is singular; non-zero external noise is required before whitening"
        )
    if whitener is None:
        try:
            whitener = linalg.cholesky(r)
        except DecompositionError as exc:
            raise NeedsExternalNoiseError(
                "covariance is not positive definite; add external noise"
            ) from exc
        white_a = solve_triangular(whitener, a, lower=True)
        white_inv = solve_triangular(
            whitener, np.eye(whitener.shape[0], dtype=np.complex128), lower=True
        )
    else:
        whitener = linalg.as_cmatrix(whitener, "whitener")
        white_a = np.linalg.solve(whitener, a)
        white_inv = np.linalg.inv(whitener)
    q, t = linalg.qr(white_a)
    g = solve_triangular(t, herm(q) @ white_inv, lower=False)
    return whitener, q, t, g


def qr_mld_linear(cov: CovarianceModel) -> Detector:
    """Linear part of the QR detector, G_k = T_k^{-1} Q_k^H F_k^{-1}."""
    filters = tuple(
        qr_mld_parts(a, r)[3] for a, r in zip(cov.effective, cov.covariances)
    )
    return Detector(filters, "qr-mld-linear")


def qr_mld_detect(
    y: np.ndarray, cov: CovarianceModel, constellation: Constellation, user: int = 0
) -> np.ndarray:
    """Symbol-wise successive-cancellation detection for one user.

    Whiten and rotate the received vector to z = Q^H F^{-1} y, then slice
    layers last-to-first, subtracting the strictly upper-triangular
    coupling of already-decided symbols:

        s_hat[i] = nearest((z[i] - sum_{j>i} T[i, j] s_hat[j]) / T[i, i])

    `y` may be a single length-q_k vector or a (q_k, n) batch of columns.
    """
    a = cov.effective[user]
    r = cov.covariances[user]
    y = np.asarray(y, dtype=np.complex128)
    single = y.ndim == 1
    if single:
        y = y[:, np.newaxis]
    if y.shape[0] != a.shape[0]:
        raise DimensionMismatchError(
            f"received vector length {y.shape[0]} does not match q_k={a.shape[0]}"
        )
    whitener, q, t, _ = qr_mld_parts(a, r)
    z = herm(q) @ solve_triangular(whitener, y, lower=True)
    p = t.shape[0]
    s_hat = np.zeros((p, y.shape[1]), dtype=np.complex128)
    for i in range(p - 1, -1, -1):
        resid = z[i] - t[i, i + 1:] @ s_hat[i + 1:]
        s_hat[i] = constellation.nearest(resid / t[i, i])
    return s_hat[:, 0] if single else s_hat


def reference_ic(reduced: ReducedChannel, scale: float) -> Detector:
    """The unique interference-cancellation detector for a matching precoder.

    G_k = B_k / scale, valid when every reducing map B_k has full row rank;
    paired with the zero-forcing precoder built from `reduced` at power
    scale `scale`, it gives G_k H_k W_k = I and G_k H_k W_j = 0 exactly.
    """
    if not scale > 0:
        raise InvalidInputError(f"scale must be > 0, got {scale}")
    for k, b in enumerate(reduced.reducers):
        if not linalg.is_full_rank(b):
            raise UniquenessError(
                f"user {k}: reducing map is rank deficient; the interference-"
                "cancellation detector is not unique"
            )
    filters = tuple(b / scale for b in reduced.reducers)
    return Detector(filters, "reference-ic")
