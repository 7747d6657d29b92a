"""Pilot observations and low/full-dimensional MMSE channel estimation.

Under the orthogonal scheme, only same-index users of other cells contaminate
a user's despread pilot; under the non-orthogonal scheme every other link in
the network does.  The BS knows the low-rank covariances of its own users and
the despread (projected) covariance sums of the contaminating links, and the
MMSE filters it forms are conditioned on the realized covariance draw.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import herm, hermitian_solve
from .covmodel import NetworkScenario, PilotScheme, complex_gaussian  # noqa: F401  (PilotScheme re-exported)
from .channel import ChannelBlock

# Full M-dimensional filters are only used for the sufficiency cross-check;
# keep them off the table for sweep-sized M.
FULLDIM_M_CAP = 1024


class PilotBudgetError(ValueError):
    pass


@dataclass
class ChannelEstimate:
    """MMSE estimate of an effective channel with its second-order statistics.

    phi is the covariance of the estimate, err_cov the error covariance; they
    sum to the prior covariance (diag(lam) in the own eigenbasis).
    """

    w_hat: np.ndarray
    phi: np.ndarray
    err_cov: np.ndarray
    jittered: bool = False


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

    def estimate(self, s: np.ndarray) -> ChannelEstimate:
        return ChannelEstimate(
            w_hat=self.filt @ s,
            phi=self.phi,
            err_cov=self.err_cov,
            jittered=self.jittered,
        )


def build_estimator(scenario: NetworkScenario, l: int, k: int) -> UserEstimator:
    """MMSE estimator of user (l, k) in its own eigenbasis."""
    prof = scenario.profile(l, l, k)
    prior = np.diag(prof.lam)
    rtilde_sum = np.zeros((prof.r, prof.r), dtype=complex)
    for key in contaminators(scenario, l, k):
        rtilde_sum += projected_cov(scenario, l, k, key)
    cond = prior + rtilde_sum + (1.0 / scenario.rho_p) * np.eye(prof.r)
    xi, jit = hermitian_solve(cond, np.eye(prof.r, dtype=complex))
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


def observe(block: ChannelBlock, scenario: NetworkScenario, rng) -> dict:
    """Despread pilot observations s_{lk}, one per served user.

    Orthogonal pilots: pilot symbol k at cell l sees the same-index users of
    every cell, and one fresh M-dimensional noise vector per (cell, pilot
    symbol) is despread by its user.  Shared non-orthogonal pilot: one
    channel use in total, so each BS receives one snapshot with every user
    superimposed and despreads it per served user.
    """
    orth = scenario.scheme.kind == "orthogonal"
    if orth and scenario.K > scenario.T_c:
        raise PilotBudgetError(
            f"orthogonal pilots need K={scenario.K} <= T_c={scenario.T_c} channel uses"
        )
    inv_sqrt_rho = 1.0 / np.sqrt(scenario.rho_p)
    out = {}
    for l in range(scenario.L):
        z = None if orth else complex_gaussian(rng, scenario.M)
        for k in range(scenario.K):
            if orth:
                z = complex_gaussian(rng, scenario.M)
            own = scenario.profile(l, l, k)
            s = block.w[(l, l, k)].astype(complex).copy()
            for key in contaminators(scenario, l, k):
                P = projection(scenario, l, k, key)
                s += P @ block.w[key]
            s += inv_sqrt_rho * (own.U.conj().T @ z)
            out[(l, k)] = s
    return out


def mmse_estimate(
    s: np.ndarray, l: int, k: int, scenario: NetworkScenario,
    estimator: UserEstimator | None = None,
) -> ChannelEstimate:
    """Low-dimensional MMSE estimate w_hat = Lambda Xi s for user (l, k)."""
    est = estimator if estimator is not None else build_estimator(scenario, l, k)
    return est.estimate(s)


def fulldim_noise_cov(scenario: NetworkScenario, l: int, k: int) -> np.ndarray:
    """Covariance of the M-dimensional pilot observation s_bar for (l, k)."""
    M = scenario.M
    Q = (1.0 / scenario.rho_p) * np.eye(M, dtype=complex)
    own = scenario.profile(l, l, k)
    Q += own.covariance()
    for key in contaminators(scenario, l, k):
        Q += scenario.profiles[key].covariance()
    return herm(Q)


def fulldim_mmse_estimate(
    s_bar: np.ndarray, l: int, k: int, scenario: NetworkScenario,
    m_cap: int = FULLDIM_M_CAP,
) -> ChannelEstimate:
    """M-dimensional MMSE estimate of w, expressed in the own eigenbasis.

    w_tilde = Lambda U^H (R + sum R' + rho_p^{-1} I)^{-1} s_bar.  Used only
    for the low-dim vs full-dim sufficiency cross-check.
    """
    if scenario.M > m_cap:
        raise MemoryError(f"full-dimensional filter disabled for M={scenario.M} > {m_cap}")
    prof = scenario.profile(l, l, k)
    Q = fulldim_noise_cov(scenario, l, k)
    X, jit = hermitian_solve(Q, np.column_stack([s_bar, prof.U]))
    q_s = X[:, 0]
    q_U = X[:, 1:]
    w_hat = prof.lam * (prof.U.conj().T @ q_s)
    phi = herm(prof.lam[:, None] * (prof.U.conj().T @ q_U) * prof.lam[None, :])
    err_cov = herm(np.diag(prof.lam) - phi)
    return ChannelEstimate(w_hat=w_hat, phi=phi, err_cov=err_cov, jittered=jit)


def observe_fulldim(block: ChannelBlock, scenario: NetworkScenario, rng) -> dict:
    """M-dimensional pilot snapshots s_bar keyed by (l, k), sharing the same
    noise layout as observe."""
    inv_sqrt_rho = 1.0 / np.sqrt(scenario.rho_p)
    orth = scenario.scheme.kind == "orthogonal"
    if orth and scenario.K > scenario.T_c:
        raise PilotBudgetError(
            f"orthogonal pilots need K={scenario.K} <= T_c={scenario.T_c} channel uses"
        )
    out = {}
    for l in range(scenario.L):
        z_cell = None if orth else complex_gaussian(rng, scenario.M)
        for k in range(scenario.K):
            z = complex_gaussian(rng, scenario.M) if orth else z_cell
            prof = scenario.profile(l, l, k)
            s_bar = prof.U @ block.w[(l, l, k)]
            for key in contaminators(scenario, l, k):
                src = scenario.profiles[key]
                s_bar = s_bar + src.U @ block.w[key]
            s_bar = s_bar + inv_sqrt_rho * z
            out[(l, k)] = s_bar
    return out
