"""Small Hermitian linear-algebra helpers shared across modules."""

from __future__ import annotations

import numpy as np


def herm(A: np.ndarray) -> np.ndarray:
    """Symmetrize a nominally Hermitian matrix, or a stack of them in the
    last two axes (kills roundoff skew)."""
    return 0.5 * (A + A.conj().swapaxes(-1, -2))


def _scales(A: np.ndarray) -> np.ndarray:
    """trace/n of every matrix of a Hermitian stack A [..., n, n], at least
    the smallest positive float."""
    n = A.shape[-1]
    return np.maximum(np.trace(A, axis1=-2, axis2=-1).real / n, np.finfo(float).tiny)


def _near_singular(A: np.ndarray, scale: float, floor: float) -> bool:
    """Whether the smallest eigenvalue of Hermitian A falls below
    1e-12 * scale (scale = trace/n); no eigenvalue pass when floor certifies
    A, i.e. exceeds 1e-10 * scale."""
    if floor > 1e-10 * scale:
        return False
    try:
        lo = np.linalg.eigvalsh(A)[0]
    except np.linalg.LinAlgError:
        lo = -np.inf
    return bool(not np.isfinite(lo) or lo < 1e-12 * scale)


def guard(A: np.ndarray, floor: float = 0.0):
    """Jitter the near-singular matrices of a Hermitian stack A [..., n, n].

    A matrix is near-singular when its smallest eigenvalue falls below
    1e-12 * (trace/n); it then gets jitter 1e-10 * (trace/n) * I.  floor is a
    lower bound on every smallest eigenvalue that the caller knows from the
    construction; the eigenvalues of a matrix are computed only if floor does
    not exceed 1e-10 * (trace/n).  Above that margin, 100 times the
    threshold, the computed smallest eigenvalue cannot fall below the
    threshold, so the jittered set is the one floor = 0 gives.

    Returns the guarded stack (A itself when nothing was jittered) and the
    boolean flags [...] of the jittered matrices.
    """
    n = A.shape[-1]
    scale = _scales(A)
    flags = np.zeros(scale.shape, dtype=bool)
    for i in map(tuple, np.argwhere(floor <= 1e-10 * scale)):
        flags[i] = _near_singular(A[i], scale[i], floor)
    if flags.any():
        A = A + (1e-10 * scale * flags)[..., None, None] * np.eye(n)
    return A, flags


def diag_guard(d: np.ndarray):
    """`guard` for a stack of diagonal matrices given by their diagonals
    d [..., n]: the smallest eigenvalue is the smallest entry, so the test
    needs no eigenvalue pass.  Returns the guarded diagonals and the flags."""
    n = d.shape[-1]
    scale = np.maximum(d.sum(axis=-1) / n, np.finfo(float).tiny)
    flags = ~(d.min(axis=-1) >= 1e-12 * scale)
    if flags.any():
        d = d + np.where(flags, 1e-10 * scale, 0.0)[..., None]
    return d, flags


def hermitian_solve(A: np.ndarray, B: np.ndarray | None, floor: float = 0.0):
    """Solve A X = B for Hermitian positive-definite A, or for every matrix
    of a stack A [..., n, n] (B then [..., n, m]); B = None asks for the
    inverses.

    The near-singular test and jitter of `guard` run first (floor is a known
    lower bound on the smallest eigenvalues, 0 if none: a positive floor
    skips the eigenvalue pass where it certifies a matrix without changing
    which systems are jittered).  numpy's Cholesky factorisation then tests
    that each matrix is positive definite; the ones that fail get jitter
    1e-8 * (trace/n) * I.  The systems are solved (or inverted) by LU, one
    LAPACK call per matrix, so a stack gives every member the bits of its
    solo solve.  The returned flags report either jitter: a bool for one
    matrix, a bool array [...] for a stack.  Raises ValueError when A or B
    holds a NaN or an infinity.
    """
    A = herm(A)
    if not (np.isfinite(A).all() and (B is None or np.isfinite(B).all())):
        raise ValueError("array must not contain infs or NaNs")
    A, flags, _ = _factor(A, floor)
    X = np.linalg.inv(A) if B is None else np.linalg.solve(A, B)
    return X, (flags if flags.ndim else bool(flags))


def _factor(A: np.ndarray, floor: float):
    """`guard` A, then test it by Cholesky, one LAPACK potrf per matrix;
    the matrices whose factorisation fails get jitter 1e-8 * (trace/n) * I,
    trace/n of A as given (before the guard).  Returns the regularised A,
    the flags of either jitter and the lower factors L (A = L L^H) of the
    first test, or None when it failed."""
    n = A.shape[-1]
    G, flags = guard(A, floor)
    try:
        return G, flags, np.linalg.cholesky(G)
    except np.linalg.LinAlgError:  # a leading minor is not positive definite
        pass
    failed = np.zeros(flags.shape, dtype=bool)
    for i in np.ndindex(flags.shape):
        try:
            np.linalg.cholesky(G[i])
        except np.linalg.LinAlgError:
            failed[i] = True
    G = G + (1e-8 * _scales(A) * failed)[..., None, None] * np.eye(n)
    return G, flags | failed, None


def cholesky_factor(A: np.ndarray, floor: float = 0.0):
    """Lower Cholesky factors L (A = L L^H) of every matrix of a stack
    A [..., n, n] of Hermitian positive-definite matrices: the engine's
    per-trial MMSE systems of users served in their own bases.

    The guard, the Cholesky test and the jitter are those of
    `hermitian_solve` (floor likewise); a jittered matrix is factored as
    regularised.  The factors come from one batched np.linalg.cholesky, one
    LAPACK potrf per matrix.  Only the lower triangle of A is read.  Returns
    L and the flags [...] of the jittered matrices.  Raises
    np.linalg.LinAlgError if a matrix is indefinite beyond the jitter.
    """
    A, flags, L = _factor(A, floor)
    if L is None:  # raises if a jittered matrix is still indefinite
        L = np.linalg.cholesky(A)
    return L, flags


def forward_substitute(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Y = L^{-1} B for every lower factor of a stack L [..., n, n] and
    B [..., n, m], row by row as array operations over the whole stack.
    Every operation acts on each member alone, so a member's bits do not
    depend on its position in the stack or on the stack's size."""
    S, n, m = L.shape[:-2], L.shape[-1], B.shape[-1]
    L = L.reshape((-1, n, n))
    inv = 1.0 / np.diagonal(L, axis1=-2, axis2=-1).real  # [P, n]
    # the right-hand sides along the last axis, Y [P, m, n]: each row's
    # products with Y are a reduction over contiguous entries
    Y = np.array(B.reshape((-1, n, m)).swapaxes(-1, -2), dtype=np.result_type(L, B))
    for j in range(n):
        if j:
            Y[..., j] -= np.einsum("pi,pmi->pm", L[:, j, :j], Y[..., :j])
        Y[..., j] *= inv[:, None, j]
    return Y.swapaxes(-1, -2).reshape(S + (n, m))


def back_substitute(L: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X = L^{-H} Y for every lower factor of a stack L [..., n, n] and
    Y [..., n, m]: the solve that follows `forward_substitute`, member by
    member as there."""
    S, n, m = L.shape[:-2], L.shape[-1], Y.shape[-1]
    L = L.reshape((-1, n, n))
    inv = 1.0 / np.diagonal(L, axis1=-2, axis2=-1).real
    # L^H X = Y as L^T conj(X) = conj(Y): the rows of L again, as updates
    X = Y.reshape((-1, n, m)).swapaxes(-1, -2).conj()
    for j in range(n - 1, 0, -1):
        X[..., j] *= inv[:, None, j]
        X[..., :j] -= L[:, None, j, :j] * X[..., j, None]
    X[..., 0] *= inv[:, None, 0]
    return X.conj().swapaxes(-1, -2).reshape(S + (n, m))
