"""Small Hermitian linear-algebra helpers shared across modules."""

from __future__ import annotations

import numpy as np


def herm(A: np.ndarray) -> np.ndarray:
    """Symmetrize a nominally Hermitian matrix, or a stack of them in the
    last two axes (kills roundoff skew)."""
    return 0.5 * (A + A.conj().swapaxes(-1, -2))


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
    scale = np.maximum(np.trace(A, axis1=-2, axis2=-1).real / n, np.finfo(float).tiny)
    flags = np.zeros(scale.shape, dtype=bool)
    for i in zip(*np.nonzero(floor <= 1e-10 * scale)):
        flags[i] = _near_singular(A[i], scale[i], floor)
    if flags.any():
        A = A.copy()
        A[flags] += (1e-10 * scale[flags])[:, None, None] * np.eye(n)
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


def hermitian_solve(A: np.ndarray, B: np.ndarray, floor: float = 0.0):
    """Solve A X = B for Hermitian positive-definite A, never inverting.

    The near-singular test and jitter of `guard` run first (floor is a known
    lower bound on A's smallest eigenvalue, 0 if none: a positive floor
    skips the eigenvalue pass where it certifies A without changing which
    systems are jittered), then one Cholesky factor-and-solve.  Should the
    factorisation still fail, jitter 1e-8 * (trace/n) * I is added and A
    solved by LU.  The returned flag reports either jitter.
    """
    A = herm(A)
    n = A.shape[0]
    scale = max(np.real(np.trace(A)) / n, np.finfo(float).tiny)
    jittered = _near_singular(A, scale, floor)
    if jittered:
        A = A + (1e-10 * scale) * np.eye(n)
    # scipy is loaded by the first dense factorisation: the angular engine
    # of the partial-Fourier model needs none
    from scipy.linalg import cho_factor, cho_solve

    try:
        c = cho_factor(A, lower=True)
        X = cho_solve(c, B)
    except np.linalg.LinAlgError:
        A = A + (1e-8 * scale) * np.eye(n)
        jittered = True
        X = np.linalg.solve(A, B)
    return X, jittered
