"""Reference design matrix Z.

bounds.DrawEngine builds its combiners and precoders in batch from its own
design-matrix table DrawEngine.Z.  assemble_Z is the reference definition
of one cell's entries of that table, summed link by link: the projected
covariances of all other-cell links plus the projected error covariances of
the own-cell estimates, all expressed in the serving user's eigenbasis (the
despread observation makes every such term an r x r object).  No module of
the package calls it: the engine's exact replays and table tests, and the
tests' deterministic-equivalent oracle, read it.  The module stays in the
package because the benchmark's tracer patches its names."""

from __future__ import annotations

import numpy as np

from ._linalg import herm
from .covmodel import NetworkScenario
from .training import EstimatorBank, projected_cov, projection


def assemble_Z(scenario: NetworkScenario, l: int, k: int | None,
               bank: EstimatorBank) -> np.ndarray:
    """Default design matrix Z_{lk} of the combiner and the precoder: user
    (l, k)'s own error covariance, the other own-cell users' error
    covariances projected into its basis, and the projected covariances of
    every other-cell link.  k = None stacks cell l's K matrices [K, r, r]."""

    def user(k):
        Z = bank.users[(l, k)].err_cov.copy()
        for j in range(scenario.K):
            if j != k:
                P = projection(scenario, l, k, (l, l, j))
                Z += (P @ bank.users[(l, j)].err_cov) @ P.conj().T
        for lp in range(scenario.L):
            if lp != l:
                for p in range(scenario.K):
                    Z += projected_cov(scenario, l, k, (l, lp, p))
        return herm(Z)

    return np.stack([user(j) for j in range(scenario.K)]) if k is None else user(k)
