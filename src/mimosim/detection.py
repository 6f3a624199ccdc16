"""Receiver constructions: interference-aware covariance, the MMSE-IRC /
generalized-LSE family and its whitened least-squares limit, the QR-based
successive-cancellation detector, and the ideal interference-cancellation
reference they all converge to under zero-forcing precoding.
"""

from dataclasses import dataclass

import numpy as np

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
from .system import ChannelSet


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


@dataclass(frozen=True)
class UserStack:
    """The users k = users[i] of one (q_k, p_k) shape under one precoder, stacked.

    links[i] = H_k W (q_k x p) for the stacked precoder W, starts[i] the first
    own column, effective[i] = A_k = H_k W_k, and interference[i] the noise-
    free R_int,k = X_k X_k^H, X_k being links[i] with the own columns zeroed.
    """

    users: tuple[int, ...]
    starts: np.ndarray
    links: np.ndarray
    effective: np.ndarray
    interference: np.ndarray


def _groups(shapes) -> list[list[int]]:
    """User indices grouped by shape, groups in order of first appearance."""
    groups: dict[tuple[int, int], list[int]] = {}
    for k, shape in enumerate(shapes):
        groups.setdefault(tuple(shape), []).append(k)
    return list(groups.values())


def build_covariance(channels: ChannelSet, precoder: Precoder) -> tuple[UserStack, ...]:
    """Group users by (q_k, p_k), in order of first appearance, and stack each group.

    One H @ W product per group. R_int is built from the other users' columns
    directly, not as total minus own, so it stays PSD and loses no cross power.
    A user's covariance under external noise L_k is R_int,k + L_k L_k^H.
    """
    w = precoder.stacked
    offsets = np.cumsum((0,) + channels.scenario.layer_counts)
    stacks = []
    for users in _groups(channels.scenario.users):
        p = channels.scenario.users[users[0]][1]
        starts = offsets[users]
        hw = np.stack([channels.matrices[k] for k in users]) @ w
        own = starts[:, np.newaxis] + np.arange(p)
        a = np.take_along_axis(hw, own[:, np.newaxis, :], axis=2)
        x = hw.copy()
        np.put_along_axis(x, own[:, np.newaxis, :], 0.0, axis=2)
        r = x @ herm(x)
        stacks.append(UserStack(tuple(users), starts, hw, a, 0.5 * (r + herm(r))))
    return tuple(stacks)


class StackedDetector:
    """One detector scheme on a user stack, split at the noise power s2.

    R = R0 + s2 I, R0 noise-free (sweep) or the whole covariance with s2 = 0
    (the detector functions below). The s2-free factorization is taken once,
    here; `filters(s2)` is then a diagonal scaling of its eigenvalues:

    - mmse-irc / gen-lse(lam): eigh(A A^H + lam R0), shifted by lam s2;
    - mmse: eigh(A A^H), shifted by s2 (the q_k x q_k guard is kept);
    - lse-limit: eigh(R0), shifted by s2, then the p_k x p_k normal matrix;
    - qr-mld: Cholesky + positive-diagonal QR of R0 + s2 I (`qr_mld_parts`).
    """

    def __init__(self, scheme: str, lam: float, users, a: np.ndarray, r0: np.ndarray):
        self.scheme, self.lam, self.users, self.a, self.r0 = scheme, lam, tuple(users), a, r0
        if scheme in ("mmse-irc", "gen-lse"):
            self.eig = linalg.eigh(a @ herm(a) + lam * r0)
        elif scheme == "mmse":
            self.eig = linalg.eigh(a @ herm(a))
        elif scheme == "lse-limit":
            self.eig = linalg.eigh(r0)

    def filters(self, s2: float) -> np.ndarray:
        """Stacked filters G (n x p_k x q_k) at noise power s2."""
        a, (q, p) = self.a, self.a.shape[-2:]
        if self.scheme == "qr-mld":
            g = qr_mld_parts(a, self.r0 + s2 * np.eye(q), users=self.users)[3]
        elif self.scheme == "lse-limit":
            rinv_a = self._solve(
                a, s2, NeedsExternalNoiseError,
                "covariance is singular; non-zero external noise is required for the "
                "whitened limit",
            )
            names = [f"user {k} normal matrix" for k in self.users]
            g = linalg.solve_shifted(linalg.eigh(herm(a) @ rinv_a), herm(rinv_a), names=names)
        elif self.scheme == "mmse":
            g = herm(self._solve(
                a, s2, SingularMatrixError,
                f"signal-plus-noise covariance A A^H + sigma^2 I is singular: the link has "
                f"rank p_k={p} in q_k={q} dimensions and sigma^2={s2:.3g} is too small to "
                "fill the rest",
            ))
        else:
            g = herm(self._solve(
                a, self.lam * s2, SingularMatrixError,
                "signal-plus-noise covariance is singular; invertibility requires at least "
                f"q_k={q} layers in total across users",
            ))
        finite = np.isfinite(g).all(axis=(-2, -1))
        if not finite.all():
            k = self.users[int(np.argmin(finite))]
            raise InvalidInputError(f"user {k}: detector filter has non-finite entries")
        return g

    def _solve(self, b, shift, error, why) -> np.ndarray:
        """`linalg.solve_shifted` on `eig`; a guard trip re-raises as `error`, naming the user."""
        try:
            return linalg.solve_shifted(self.eig, b, shift, [f"user {k}" for k in self.users])
        except SingularMatrixError as exc:
            bad = ~(linalg.shifted_condition(self.eig[0], shift) < linalg.CONDITION_LIMIT)
            raise error(f"user {self.users[int(np.argmax(bad))]}: {why}") from exc


# The detector functions take one same-shape user stack, links A (n x q x p)
# and covariances R (n x q x q), and return the filter stack G (n x p x q);
# a single user is a stack of one. A guard error names the stack entry.


def mmse_irc(a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Interference-aware MMSE filters G_k = A_k^H (A_k A_k^H + R_k)^{-1}."""
    return StackedDetector("mmse-irc", 1.0, range(len(a)), a, r).filters(0.0)


def plain_mmse(a: np.ndarray, sigma: float) -> np.ndarray:
    """White-noise MMSE G_k = A_k^H (A_k A_k^H + sigma^2 I)^{-1}: no interference term."""
    if sigma < 0:
        raise InvalidInputError(f"sigma must be >= 0, got {sigma}")
    return StackedDetector("mmse", 1.0, range(len(a)), a, None).filters(sigma**2)


def gen_lse(a: np.ndarray, r: np.ndarray, lam: float) -> np.ndarray:
    """One-parameter family G_k = A_k^H (A_k A_k^H + lam * R_k)^{-1}, lam > 0.

    At lam = 1 this is exactly the interference-aware MMSE filter; in the
    noiseless zero-forcing regime the output does not depend on lam.
    """
    if not lam > 0:
        raise InvalidInputError(f"lam must be > 0, got {lam}")
    return StackedDetector("gen-lse", lam, range(len(a)), a, r).filters(0.0)


def lse_limit(a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Whitened least-squares limit G_k = (A_k^H R_k^{-1} A_k)^{-1} A_k^H R_k^{-1}."""
    return StackedDetector("lse-limit", 1.0, range(len(a)), a, r).filters(0.0)


def qr_mld_parts(
    a: np.ndarray, r: np.ndarray, whitener: np.ndarray | None = None, users=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Factor the QR-based detector; returns (whitener, Q, T, G).

    The whitener F satisfies F F^H = R (lower Cholesky by default, but any
    F U with U unitary yields the same filter); (Q, T) is the positive-
    diagonal QR of F^{-1} A, and G = T^{-1} Q^H F^{-1} is the linear part.
    `a`, `r` (and `whitener`) may be stacks over a leading axis; `users`
    then names the stack's users in a guard error.
    """
    a = linalg.as_cmatrix(a, "effective link")
    bad = ~(linalg.shifted_condition(np.linalg.eigvalsh(r)) < linalg.CONDITION_LIMIT)
    if bad.any():
        who = f"user {users[int(np.argmax(bad))]}: " if users is not None else ""
        raise NeedsExternalNoiseError(
            f"{who}covariance is singular; non-zero external noise is required before whitening"
        )
    if whitener is None:
        try:
            whitener = linalg.cholesky(r)
        except DecompositionError as exc:
            raise NeedsExternalNoiseError(
                "covariance is not positive definite; add external noise"
            ) from exc
    else:
        whitener = linalg.as_cmatrix(whitener, "whitener")
    white_a = np.linalg.solve(whitener, a)
    white_inv = np.linalg.inv(whitener)
    q, t = linalg.qr(white_a)
    g = np.linalg.solve(t, herm(q) @ white_inv)
    return whitener, q, t, g


def qr_mld_linear(a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Linear part of the QR detector, G_k = T_k^{-1} Q_k^H F_k^{-1}."""
    return StackedDetector("qr-mld", 1.0, range(len(a)), a, r).filters(0.0)


def qr_mld_detect(
    y: np.ndarray, a: np.ndarray, r: np.ndarray, constellation: Constellation
) -> np.ndarray:
    """Symbol-wise successive-cancellation detection for one user, link a, covariance r.

    Whiten and rotate the received vector to z = Q^H F^{-1} y, then slice
    layers last-to-first, subtracting the strictly upper-triangular
    coupling of already-decided symbols:

        s_hat[i] = nearest((z[i] - sum_{j>i} T[i, j] s_hat[j]) / T[i, i])

    `y` may be a single length-q_k vector or a (q_k, n) batch of columns.
    """
    y = np.asarray(y, dtype=np.complex128)
    single = y.ndim == 1
    if single:
        y = y[:, np.newaxis]
    if y.shape[0] != a.shape[0]:
        raise DimensionMismatchError(
            f"received vector length {y.shape[0]} does not match q_k={a.shape[0]}"
        )
    whitener, q, t, _ = qr_mld_parts(a, r)
    z = herm(q) @ np.linalg.solve(whitener, y)
    p = t.shape[0]
    s_hat = np.zeros((p, y.shape[1]), dtype=np.complex128)
    for i in range(p - 1, -1, -1):
        resid = z[i] - t[i, i + 1:] @ s_hat[i + 1:]
        s_hat[i] = constellation.nearest(resid / t[i, i])
    return s_hat[:, 0] if single else s_hat


def reference_ic(reduced: ReducedChannel, scale: float) -> tuple[np.ndarray, ...]:
    """The unique interference-cancellation filters for a matching precoder.

    G_k = B_k / scale for each user in order, valid when every reducing map
    B_k has full row rank; paired with the zero-forcing precoder built from
    `reduced` at power scale `scale`, it gives G_k H_k W_k = I and
    G_k H_k W_j = 0 exactly.
    """
    if not scale > 0:
        raise InvalidInputError(f"scale must be > 0, got {scale}")
    for k, b in enumerate(reduced.reducers):
        if not linalg.is_full_rank(b):
            raise UniquenessError(
                f"user {k}: reducing map is rank deficient; the interference-"
                "cancellation detector is not unique"
            )
    return tuple(b / scale for b in reduced.reducers)
