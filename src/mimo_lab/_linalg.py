"""Small Hermitian linear-algebra helpers shared across modules."""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve


def herm(A: np.ndarray) -> np.ndarray:
    """Symmetrize a nominally Hermitian matrix, or a stack of them in the
    last two axes (kills roundoff skew)."""
    return 0.5 * (A + A.conj().swapaxes(-1, -2))


def hermitian_solve(A: np.ndarray, B: np.ndarray):
    """Solve A X = B for Hermitian positive-definite A, never inverting.

    If the smallest eigenvalue falls below 1e-12 * (trace/n), adds jitter
    1e-10 * (trace/n) * I and reports it via the returned flag.
    """
    A = herm(A)
    n = A.shape[0]
    scale = max(np.real(np.trace(A)) / n, np.finfo(float).tiny)
    jittered = False
    try:
        lo = np.linalg.eigvalsh(A)[0]
    except np.linalg.LinAlgError:
        lo = -np.inf
    if not np.isfinite(lo) or lo < 1e-12 * scale:
        A = A + (1e-10 * scale) * np.eye(n)
        jittered = True
    try:
        c = cho_factor(A, lower=True)
        X = cho_solve(c, B)
    except np.linalg.LinAlgError:
        A = A + (1e-8 * scale) * np.eye(n)
        jittered = True
        X = np.linalg.solve(A, B)
    return X, jittered
