"""Receiver constructions: interference-aware covariance, the MMSE-IRC /
generalized-LSE family and its whitened least-squares limit, the QR-based
successive-cancellation detector, and the ideal interference-cancellation
reference they all converge to under zero-forcing precoding. QR-MLD's filter is the same for
every whitener F F^H = R; `filters` whitens by eigh(R0), the `qr_mld_*` functions by Cholesky.
"""

import math
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
from .system import ChannelSet, _real


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

    links[..., i] = H_k W (q_k x p) for the stacked precoder W, starts[i] the first
    own column, effective[..., i] = A_k = H_k W_k, and interference[..., i] the
    noise-free R_int,k = X_k X_k^H, X_k being the links with own columns zeroed.
    """

    users: np.ndarray
    starts: np.ndarray
    links: np.ndarray
    effective: np.ndarray
    interference: np.ndarray


def split_columns(x: np.ndarray, starts, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Each user's own columns start:start + p of its row block (m x P) over the stacked
    W = [W_1 ... W_K] in x, and a copy of x with them set to +0.0.

    `starts` holds one first own column per block of the axes before x's last two (a
    scalar for one block); leading (seed, grid) axes of x broadcast.
    """
    cols = np.arange(x.shape[-1]) - np.asarray(starts)[..., np.newaxis, np.newaxis]
    own = np.broadcast_to((cols >= 0) & (cols < p), x.shape)
    return x[own].reshape(x.shape[:-1] + (p,)), np.where(own, 0.0, x)


def build_covariance(channels: ChannelSet, w: np.ndarray) -> tuple[UserStack, ...]:
    """The users of each `ChannelSet.groups` shape group stacked under the precoder W."""
    return user_stacks(channels.groups, channels.scenario.layer_counts, w)


def user_stacks(groups, layer_counts, w: np.ndarray) -> tuple[UserStack, ...]:
    """Stack the users of each (users, H, U, s) group under the stacked precoder W.

    H (..., n, q_k, t) and W (t, p = sum p_k), finite (`linalg.as_cmatrix`); a W with leading
    axes has one per seed, H's leading axes. One H @ W product per group. R_int is built from
    the other users' columns directly, not as total minus own, so it stays PSD and loses no
    cross power; a user's covariance under white noise sigma is R_int,k + sigma^2 I.
    """
    w, offsets = linalg.as_cmatrix(w, "precoder"), np.cumsum((0,) + tuple(layer_counts))
    if w.shape[-2:] != (t := groups[0][1].shape[-1], p := offsets[-1]):
        raise DimensionMismatchError(f"precoder shape {w.shape[-2:]} is not (t={t}, p={p})")
    if w.ndim > 2 and w.shape[:-2] != (seed_axes := groups[0][1].shape[:-3]):
        raise DimensionMismatchError(f"precoder seed axes {w.shape[:-2]} are not the "
                                     f"channels' {seed_axes}")
    w = w[..., np.newaxis, :, :]
    stacks = []
    for users, h, _, _ in groups:
        starts = offsets[users]
        hw = h @ w
        a, x = split_columns(hw, starts, layer_counts[users[0]])
        r = x @ herm(x)
        stacks.append(UserStack(users, starts, hw, a, linalg.hermitian_part(r)))
    return tuple(stacks)


# Each eigen scheme's guard error: its class, and its text, which gets q, p and the shift s2
# of the first failing grid point's first failing user.
_GUARDS = {
    "mmse-irc": (SingularMatrixError, "signal-plus-noise covariance is singular; invertibility "
                 "requires at least q_k={q} layers in total across users"),
    "mmse": (SingularMatrixError, "signal-plus-noise covariance A A^H + sigma^2 I is singular: "
             "the link has rank p_k={p} in q_k={q} dimensions and sigma^2={s2:.3g} is too small "
             "to fill the rest"),
    "lse-limit": (NeedsExternalNoiseError, "covariance is singular; non-zero external noise is "
                  "required for the whitened limit"),
}
_GUARDS["gen-lse"] = _GUARDS["mmse-irc"]


def _detector_inputs(a, r0) -> tuple[np.ndarray, np.ndarray | None]:
    """Links A (..., q_k, p_k) with p_k <= q_k and covariances R0 (..., q_k, q_k), or None,
    as finite complex stacks (`linalg.as_cmatrix`); a misfit raises DimensionMismatchError."""
    a = linalg.as_cmatrix(a, "effective link")
    q, p = a.shape[-2:]
    if p > q:
        raise DimensionMismatchError(f"effective link of shape {(q, p)} has p_k > q_k")
    if r0 is not None:
        r0 = linalg.as_cmatrix(r0, "covariance")
        if r0.shape[-2:] != (q, q):
            raise DimensionMismatchError(
                f"covariance of shape {r0.shape[-2:]} does not match q_k={q}"
            )
    return a, r0


def filters(scheme: str, lam: float, users, a: np.ndarray, r0: np.ndarray, s2) -> np.ndarray:
    """Stacked filters G (n x p_k x q_k) of one detector scheme on a user stack.

    R = R0 + s2 I, R0 noise-free (sweep) or the whole covariance with s2 = 0
    (the detector functions below). The s2-free part is factored once per
    call and every noise power is a diagonal scaling of its eigenvalues:

    - mmse-irc / gen-lse(lam): eigh(A A^H + lam R0), shifted by lam s2;
    - mmse: eigh(A A^H), shifted by s2 (the q_k x q_k guard is kept);
    - lse-limit: eigh(R0), shifted by s2, then the p_k x p_k normal matrix;
    - qr-mld: eigh(R0), shifted by s2, whitens by F = U diag(sqrt(e + s2)); QR of F^{-1} A.

    A (G,) vector of noise powers gives (G, n, p_k, q_k), and a (G, S) grid on
    a stack with a leading axis of S seeds (G, S, n, p_k, q_k). A guard error
    names the first failing point's first failing user of `users` (None: the stack
    positions); `_detector_inputs` checks `a` and `r0` first.
    """
    a, r0 = _detector_inputs(a, r0)
    users, q = tuple(range(len(a)) if users is None else users), a.shape[-2]
    s2 = np.asarray(s2, dtype=float)
    # (G, [S,] 1, 1) against the stacked eigenvalues ([S,] n, q_k).
    shift = s2.reshape(s2.shape + (1,) * (a.ndim - max(s2.ndim, 1)))
    if scheme == "qr-mld":  # F^{-1} = diag(1 / sqrt(e + s2)) U^H: per s2, a row scaling
        e, u = linalg.eigh(r0)
        _whitening_guard(e + shift, users)
        inv_root = 1.0 / np.sqrt(e + shift)[..., np.newaxis]
        q_white, t = linalg.qr(inv_root * (herm(u) @ a))
        g = _finite_filters(np.linalg.solve(t, herm(q_white) @ (inv_root * herm(u))), users)
    else:
        eig = linalg.eigh(r0 if scheme == "lse-limit" else
                          a @ herm(a) if scheme == "mmse" else a @ herm(a) + lam * r0)
        error, why = _GUARDS[scheme]  # up front: a scheme with no guard is a KeyError, not a guess
        shift = lam * shift  # lam is 1.0 for every scheme but gen-lse, so the product is exact
        try:
            rinv_a = linalg.solve_shifted(eig, a, shift, [f"user {k}" for k in users])
        except SingularMatrixError as exc:
            bad = ~(linalg.shifted_condition(eig[0], shift) < linalg.CONDITION_LIMIT)
            if not bad.any():  # an overflow, not a guard trip: solve_shifted names it
                raise
            first = int(np.argmax(bad))  # over (grid, seed, user); shift may lack the seed axis
            s2 = np.broadcast_to(shift[..., 0], bad.shape).flat[first]
            raise error(f"user {users[first % len(users)]}: "
                        + why.format(q=q, p=a.shape[-1], s2=s2)) from exc
        g = herm(rinv_a)
        if scheme == "lse-limit":
            names = [f"user {k} normal matrix" for k in users]
            g = linalg.solve_shifted(linalg.eigh(herm(a) @ rinv_a), g, names=names)
    return g


# The detector functions take one same-shape user stack, links A (n x q x p)
# and covariances R (n x q x q), and return the filter stack G (n x p x q);
# a single user is a stack of one. A guard error names the stack entry.


def mmse_irc(a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Interference-aware MMSE filters G_k = A_k^H (A_k A_k^H + R_k)^{-1}."""
    return filters("mmse-irc", 1.0, None, a, r, 0.0)


def plain_mmse(a: np.ndarray, sigma: float) -> np.ndarray:
    """White-noise MMSE G_k = A_k^H (A_k A_k^H + sigma^2 I)^{-1}: no interference term."""
    if not (_real(sigma) and math.isfinite(sigma) and sigma >= 0):
        raise InvalidInputError(f"sigma must be finite and >= 0, got {sigma}")
    return filters("mmse", 1.0, None, a, None, sigma**2)


def gen_lse(a: np.ndarray, r: np.ndarray, lam: float) -> np.ndarray:
    """One-parameter family G_k = A_k^H (A_k A_k^H + lam * R_k)^{-1}, finite lam > 0.

    At lam = 1 this is exactly the interference-aware MMSE filter; in the
    noiseless zero-forcing regime the output does not depend on lam.
    """
    if not (_real(lam) and math.isfinite(lam) and lam > 0):
        raise InvalidInputError(f"lam must be finite and > 0, got {lam}")
    return filters("gen-lse", lam, None, a, r, 0.0)


def lse_limit(a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Whitened least-squares limit G_k = (A_k^H R_k^{-1} A_k)^{-1} A_k^H R_k^{-1}."""
    return filters("lse-limit", 1.0, None, a, r, 0.0)


def _whitening_guard(e: np.ndarray, users) -> None:
    """Hold covariances of eigenvalues e positive definite, with condition < CONDITION_LIMIT."""
    if (bad := ~(linalg.shifted_condition(e) < linalg.CONDITION_LIMIT)).any():
        who = f"user {users[int(np.argmax(bad)) % len(users)]}: " if users is not None else ""
        raise NeedsExternalNoiseError(f"{who}covariance is singular; non-zero external noise "
                                      "is required before whitening")
    if (e[..., 0] <= 0).any():
        raise NeedsExternalNoiseError("covariance is not positive definite; add external noise")


def _finite_filters(g: np.ndarray, users) -> np.ndarray:
    """The QR filters g, or an error naming the first user whose filter is non-finite."""
    if not (finite := np.isfinite(g).all(axis=(-2, -1))).all():
        raise InvalidInputError(f"user {users[int(np.argmin(finite)) % len(users)]}: "
                                "detector filter has non-finite entries")
    return g


def qr_mld_parts(
    a: np.ndarray, r: np.ndarray, whitener: np.ndarray | None = None, users=None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Factor the QR-based detector; returns (whitener, Q, T, G).

    R is read by its Hermitian part, which one `eigvalsh` guard holds positive definite
    with condition number below CONDITION_LIMIT. The whitener F satisfies F F^H = R
    (lower Cholesky by default, but any F U with U unitary yields the same filter); (Q, T)
    is the positive-diagonal QR of F^{-1} A, and G = T^{-1} Q^H F^{-1} is the linear part.
    `a`, `r` (and `whitener`) may be stacks over broadcasting leading axes; `users` then
    names the stack's users in a guard error, the first failing one.
    """
    a, r = _detector_inputs(a, r)
    r = linalg.hermitian_part(r)  # as `linalg.eigh` reads R for the other schemes
    # Explicit, as numpy < 2 reads a b one axis short of the stack as vectors.
    a = np.broadcast_to(a, r.shape[:-2] + a.shape[-2:])
    _whitening_guard(np.linalg.eigvalsh(r), users)
    whitener = linalg.cholesky(r) if whitener is None else linalg.as_cmatrix(whitener, "whitener")
    try:
        white_a = np.linalg.solve(whitener, a)
        white_inv = np.linalg.inv(whitener)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError("whitener is not invertible") from exc
    q, t = linalg.qr(white_a)
    g = np.linalg.solve(t, herm(q) @ white_inv)
    return whitener, q, t, g


def qr_mld_linear(a: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Linear part of the QR detector, G_k = T_k^{-1} Q_k^H F_k^{-1}, F_k the Cholesky factor."""
    users = range(len(a := _detector_inputs(a, r)[0]))
    return _finite_filters(qr_mld_parts(a, r, users=users)[3], users)


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
    single = np.ndim(y) == 1
    y = linalg.as_cmatrix(np.reshape(y, (-1, 1)) if single else y, "received vector")
    whitener, q, t, _ = qr_mld_parts(a, r)
    if y.shape[0] != q.shape[0]:
        raise DimensionMismatchError(
            f"received vector length {y.shape[0]} does not match q_k={q.shape[0]}"
        )
    z = herm(q) @ np.linalg.solve(whitener, y)
    p = t.shape[0]
    s_hat = np.zeros((p, y.shape[1]), dtype=np.complex128)
    for i in range(p - 1, -1, -1):
        resid = z[i] - t[i, i + 1:] @ s_hat[i + 1:]
        s_hat[i] = constellation.nearest(resid / t[i, i])
    return s_hat[:, 0] if single else s_hat


def reference_ic(reduced, scale) -> tuple:
    """The unique interference-cancellation filters (users, B / scale) per reduction group.

    Valid when every reducing map B_k is finite and has full row rank (one `linalg.is_full_rank`
    per group; an error names the lowest such user). With the zero-forcing
    precoder of `reduced` at power scale `scale` (one per seed, for seed axes),
    G_k H_k W_k = I and G_k H_k W_j = 0 exactly.
    """
    scales = np.asarray(scale, dtype=float)
    if not (np.isfinite(scales).all() and (scales > 0).all()):
        raise InvalidInputError(f"scale must be finite and > 0, got {scale}")
    seed_axes = reduced[0][2].shape[:-3]
    if scales.shape != seed_axes:
        raise DimensionMismatchError(f"scales of shape {scales.shape} for seed axes {seed_axes}")
    non_finite = [k for users, _, b in reduced
                  for k in users[np.nonzero(~np.isfinite(b).all(axis=(-2, -1)))[-1]]]
    if non_finite:
        raise InvalidInputError(f"user {min(non_finite)}: reducing map has non-finite entries")
    deficient = [k for users, _, b in reduced
                 for k in users[np.nonzero(~linalg.is_full_rank(b))[-1]]]
    if deficient:
        raise UniquenessError(
            f"user {min(deficient)}: reducing map is rank deficient; the interference-"
            "cancellation detector is not unique"
        )
    return tuple((users, b / np.expand_dims(scales, (-3, -2, -1))) for users, _, b in reduced)
