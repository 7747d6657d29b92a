"""Low-dimensional combining (uplink) and precoding (downlink).

Everything operates in the despread r-dimensional coordinates of the served
user; the final downlink precoder is spread back to M dimensions by the
channel module.  One interference-statistics matrix Z serves both the
combiner and the precoder.  By default (assemble_Z) it holds the projected
covariances of all other-cell links plus the projected error covariances of
the own-cell estimates, all expressed in the serving user's eigenbasis (the
despread observation makes every such term an r x r object).  Z is a plain
argument, so callers can plug in their own."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import herm, hermitian_solve
from .covmodel import NetworkScenario
from .channel import spread
from .training import ChannelEstimate, EstimatorBank, projected_cov, projection


@dataclass
class Combiner:
    v: np.ndarray
    jittered: bool = False


@dataclass
class Precoder:
    g: np.ndarray          # unit-norm, r-dimensional
    p_norm: float          # per-user symbol power so E||p d||^2 = p_norm
    jittered: bool = False


def matched_filter(est: ChannelEstimate) -> Combiner:
    """v = w_hat; the despread-domain matched filter."""
    return Combiner(v=est.w_hat.copy())


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


def mmse_combiner(
    w_hats_projected: list, k: int, Z: np.ndarray, p_ul: float
) -> Combiner:
    """Single-cell MMSE combining vector for own-cell user k.

    w_hats_projected[j] is own-cell user j's estimate seen in user k's basis
    (entry k is the user's own estimate).
    """
    r = w_hats_projected[k].shape[0]
    G = np.asarray(Z, dtype=complex).copy() + (1.0 / p_ul) * np.eye(r)
    for wj in w_hats_projected:
        G += np.outer(wj, wj.conj())
    v, jit = hermitian_solve(G, w_hats_projected[k])
    return Combiner(v=v, jittered=jit)


def mmse_precoder(
    w_hats_projected: list, k: int, Zp: np.ndarray, p_dl_user: float
) -> Precoder:
    """Low-dimensional MMSE precoding direction for own-cell user k,
    normalized to unit power with the per-user symbol power carried along."""
    r = w_hats_projected[k].shape[0]
    G = np.asarray(Zp, dtype=complex).copy() + (1.0 / p_dl_user) * np.eye(r)
    for wj in w_hats_projected:
        G += np.outer(wj, wj.conj())
    g, jit = hermitian_solve(G, w_hats_projected[k])
    nrm = np.linalg.norm(g)
    if nrm > 0:
        g = g / nrm
    return Precoder(g=g, p_norm=p_dl_user, jittered=jit)


def precoder_to_antenna(scenario: NetworkScenario, l: int, k: int, prec: Precoder) -> np.ndarray:
    """Spread the r-dimensional precoder to the antenna domain (unit norm)."""
    return spread(scenario.profile(l, l, k).U, prec.g)


def restrict_support(U: np.ndarray, d: int, rng: np.random.Generator) -> np.ndarray:
    """Keep d of the r support columns, chosen uniformly at random (the
    d-restricted spreading variant)."""
    r = U.shape[1]
    if not 1 <= d <= r:
        raise ValueError(f"d={d} must satisfy 1 <= d <= r={r}")
    cols = np.sort(rng.choice(r, size=d, replace=False))
    return U[:, cols]


def cell_precoders(
    scenario: NetworkScenario,
    bank: EstimatorBank,
    ests: dict,
    l: int,
    kind: str = "mmse",
) -> dict:
    """Unit-norm precoders for every user of cell l."""
    K = scenario.K
    out = {}
    for k in range(K):
        if kind == "mf":
            g = ests[(l, k)].w_hat.copy()
            nrm = np.linalg.norm(g)
            out[k] = Precoder(g=g / nrm if nrm > 0 else g, p_norm=scenario.P_dl_per_user)
            continue
        projected = []
        for j in range(K):
            if j == k:
                projected.append(ests[(l, j)].w_hat)
            else:
                P = projection(scenario, l, k, (l, l, j))
                projected.append(P @ ests[(l, j)].w_hat)
        Zp = assemble_Z(scenario, l, k, bank)
        out[k] = mmse_precoder(projected, k, Zp, scenario.P_dl_per_user)
    return out
