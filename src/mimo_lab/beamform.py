"""Reference design matrix Z and d-restricted support selection.

bounds.DrawEngine builds its combiners and precoders in batch from its own
design-matrix table DrawEngine.Z.  assemble_Z is the per-link definition of
one entry of that table: the projected covariances of all other-cell links
plus the projected error covariances of the own-cell estimates, all
expressed in the serving user's eigenbasis (the despread observation makes
every such term an r x r object).  detequiv and the engine's exact replays
read it.  restrict_support draws the serving bases of fig2's d-restricted
spreading series."""

from __future__ import annotations

import numpy as np

from ._linalg import herm
from .covmodel import NetworkScenario
from .training import EstimatorBank, projected_cov, projection


def assemble_Z(scenario: NetworkScenario, l: int, k: int, bank: EstimatorBank) -> np.ndarray:
    """Default design matrix Z_{lk} of the combiner and the precoder:
    other-cell projected covariances plus own-cell projected
    estimation-error covariances."""
    r = scenario.profile(l, l, k).r
    Z = np.zeros((r, r), dtype=complex)
    for lp in range(scenario.L):
        for kp in range(scenario.K):
            if lp != l:
                Z += projected_cov(scenario, l, k, (l, lp, kp))
            else:
                err = bank.users[(l, kp)].err_cov
                if kp == k:
                    Z += err
                else:
                    P = projection(scenario, l, k, (l, l, kp))
                    Z += (P @ err) @ P.conj().T
    return herm(Z)


def restrict_support(U: np.ndarray, d: int, rng: np.random.Generator) -> np.ndarray:
    """Keep d of the r support columns, chosen uniformly at random (the
    d-restricted spreading variant)."""
    r = U.shape[1]
    if not 1 <= d <= r:
        raise ValueError(f"d={d} must satisfy 1 <= d <= r={r}")
    cols = np.sort(rng.choice(r, size=d, replace=False))
    return U[:, cols]
