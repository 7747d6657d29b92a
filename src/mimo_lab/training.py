"""Reference MMSE channel estimators in the users' own eigenbases.

Under the orthogonal scheme, only same-index users of other cells contaminate
a user's despread pilot; under the non-orthogonal scheme every other link in
the network does.  The BS knows the low-rank covariances of its own users and
the despread (projected) covariance sums of the contaminating links, and the
MMSE filters it forms are conditioned on the realized covariance draw.

No module of the package calls this one: bounds.DrawEngine forms its
estimators from its own projection tables, and detequiv reads them from
it.  The estimators here, built one link at a time, are the reference that
the engine's exact replays and table tests, and the tests'
deterministic-equivalent oracle, compare against.  The module stays in the
package because the benchmark's tracer patches its names.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import herm, hermitian_solve
from .covmodel import NetworkScenario


def contaminators(scenario: NetworkScenario, l: int, k: int):
    """Links whose channels leak into user (l, k)'s pilot observation."""
    if scenario.scheme.kind == "orthogonal":
        return [(l, lp, k) for lp in range(scenario.L) if lp != l]
    return [
        (l, lp, kp)
        for lp in range(scenario.L)
        for kp in range(scenario.K)
        if (lp, kp) != (l, k)
    ]


def projection(scenario: NetworkScenario, l: int, k: int, src_key) -> np.ndarray:
    """U_{ll_k}^H U_src for a link (l, l', k') observed at BS l."""
    own = scenario.profile(l, l, k)
    src = scenario.profiles[src_key]
    return own.U.conj().T @ src.U


def projected_cov(scenario: NetworkScenario, l: int, k: int, src_key) -> np.ndarray:
    """Despread covariance R~ = U^H R_src U of a contaminating link."""
    P = projection(scenario, l, k, src_key)
    src = scenario.profiles[src_key]
    return herm((P * src.lam) @ P.conj().T)


@dataclass
class UserEstimator:
    """Per-user MMSE machinery in the user's own eigenbasis, fixed for a
    given covariance draw; the prior is diag(lam)."""

    xi: np.ndarray        # (Lambda + sum R~ + rho_p^{-1} I)^{-1}
    phi: np.ndarray       # Lambda Xi Lambda
    err_cov: np.ndarray   # Lambda - Phi
    filt: np.ndarray      # Lambda Xi
    jittered: bool = False


def build_estimator(scenario: NetworkScenario, l: int, k: int) -> UserEstimator:
    """MMSE estimator of user (l, k) in its own eigenbasis."""
    prof = scenario.profile(l, l, k)
    prior = np.diag(prof.lam)
    rtilde_sum = np.zeros((prof.r, prof.r), dtype=complex)
    for key in contaminators(scenario, l, k):
        rtilde_sum += projected_cov(scenario, l, k, key)
    cond = prior + rtilde_sum + (1.0 / scenario.rho_p) * np.eye(prof.r)
    # the prior and every R~ are PSD: 1 / rho_p bounds cond's spectrum below
    xi, jit = hermitian_solve(cond, None, floor=1.0 / scenario.rho_p)
    xi = herm(xi)
    # diagonal prior: scale rows and columns
    filt = prof.lam[:, None] * xi
    phi = herm(filt * prof.lam[None, :])
    err_cov = herm(prior - phi)
    return UserEstimator(xi=xi, phi=phi, err_cov=err_cov, filt=filt, jittered=jit)


@dataclass
class EstimatorBank:
    """All per-user estimators of a scenario, built once per covariance draw."""

    scenario: NetworkScenario
    users: dict = field(default_factory=dict)

    @classmethod
    def build(cls, scenario: NetworkScenario, users=None) -> "EstimatorBank":
        """Estimators of `users`, (l, k) pairs; every user by default."""
        bank = cls(scenario=scenario)
        for l, k in scenario.users() if users is None else users:
            bank.users[(l, k)] = build_estimator(scenario, l, k)
        return bank
