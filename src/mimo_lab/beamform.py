"""Reference design matrix Z and d-restricted support selection.

bounds.DrawEngine builds its combiners and precoders in batch from its own
design-matrix table DrawEngine.Z.  assemble_Z is the reference definition
of one cell's entries of that table: the projected covariances of all
other-cell links plus the projected error covariances of the own-cell
estimates, all expressed in the serving user's eigenbasis (the despread
observation makes every such term an r x r object).  The engine's exact
replays and detequiv calls given an explicit bank read it.  restrict_support
draws the serving bases of fig2's d-restricted spreading series."""

from __future__ import annotations

import numpy as np

from ._linalg import herm
from .covmodel import NetworkScenario
from .training import EstimatorBank, cell_projections
# not called here: perfbench's tracer counts projected_cov calls through the
# name of every module that has bound it
from .training import projected_cov  # noqa: F401


def assemble_Z(scenario: NetworkScenario, l: int, k: int | None,
               bank: EstimatorBank) -> np.ndarray:
    """Default design matrices Z_{lk} of the combiner and the precoder:
    other-cell projected covariances plus own-cell projected
    estimation-error covariances.

    Builds cell l's K matrices [K, r, r] from one GEMM of its users' bases
    against every link into BS l, and returns them all for k = None, else
    user k's."""
    L, K = scenario.L, scenario.K
    P, lam = cell_projections(scenario, l, [l] + [lp for lp in range(L) if lp != l])
    r = P.shape[-2]
    kk = np.arange(K)
    # every other-cell link: (P diag(lam) P^H) summed, one product per user
    X = P[:, 1:].transpose(0, 3, 1, 2, 4).reshape(K, r, -1)
    Z = (X * lam[1:].reshape(-1)) @ X.conj().swapaxes(-1, -2)
    # the other own-cell users' errors in user k's basis, and its own error
    err = np.stack([bank.users[(l, j)].err_cov for j in range(K)])  # [j, b, c]
    own = P[:, 0, :, :, :r]  # [k, j, a, b]
    PE = own @ err
    PE[kk, kk] = 0.0
    Z += (PE.transpose(0, 2, 1, 3).reshape(K, r, -1)
          @ own.transpose(0, 2, 1, 3).reshape(K, r, -1).conj().swapaxes(-1, -2)) + err
    Z = herm(Z)
    return Z if k is None else Z[k]


def restrict_support(U: np.ndarray, d: int, rng: np.random.Generator) -> np.ndarray:
    """Keep d of the r support columns, chosen uniformly at random (the
    d-restricted spreading variant)."""
    r = U.shape[1]
    if not 1 <= d <= r:
        raise ValueError(f"d={d} must satisfy 1 <= d <= r={r}")
    cols = np.sort(rng.choice(r, size=d, replace=False))
    return U[:, cols]
