"""The reference deterministic equivalents and solves the tests compare against.

`detequiv` reads every table of its SINR limits from the draw's shared
`bounds.DrawEngine`.  Here the same limits are built from the reference
estimators and design matrices instead (`training.EstimatorBank`,
`training.cell_projections`, `training.projected_cov`,
`beamform.assemble_Z`), one link at a time where the old code did so.
`cholesky_solve` composes the Cholesky halves of `_linalg` into a full solve.
"""

import numpy as np

from mimo_lab._linalg import back_substitute, cholesky_factor, forward_substitute
from mimo_lab.beamform import assemble_Z
from mimo_lab.detequiv import DetEquivProblem, DomainError, _cell_sinr_mmse, _mmse_problem
from mimo_lab.training import EstimatorBank, cell_projections, projected_cov


def mmse_detequiv_problem(scenario, l, k, bank: EstimatorBank, Z) -> DetEquivProblem:
    """Fixed-point problems behind the MMSE combiners of cell l's users,
    from the bank's phi and the cell's projections from one GEMM.  k = None
    gives the cell's K problems as one stack, with Z [K, r, r] from
    assemble_Z; else user k's problem, with its Z [r, r]."""
    P = cell_projections(scenario, l, [l])[0][:, 0]  # [k, j, a, b]
    phi = np.stack([bank.users[(l, j)].phi for j in range(scenario.K)])
    return _mmse_problem(P, phi, Z, scenario.P_ul, k)


def bank_tables(scenario, l, bank: EstimatorBank):
    """Cell l's inputs of `detequiv._cell_sinr_mmse` from the reference
    estimators and design matrices, laid out as
    `bounds.DrawEngine.detequiv_tables`."""
    L, K = scenario.L, scenario.K
    P_own = cell_projections(scenario, l, [l])[0][:, 0]
    others = [lp for lp in range(L) if lp != l]
    P_x, lam_x = cell_projections(scenario, l, others) if others else (None, None)
    phi = np.stack([bank.users[(l, j)].phi for j in range(K)])
    xi = np.stack([bank.users[(l, j)].xi for j in range(K)])
    lam = np.stack([scenario.profile(l, l, j).lam for j in range(K)])
    return P_own, P_x, lam_x, phi, xi * lam[:, None, :], assemble_Z(scenario, l, None, bank)


def sinr_mmse_detequiv(scenario, user, bank: EstimatorBank) -> float:
    """`detequiv.sinr_mmse_detequiv` from the bank's tables; keeps no memo."""
    l, k = user
    return float(_cell_sinr_mmse(scenario, l, bank_tables(scenario, l, bank))[k])


def sinr_mf_detequiv(scenario, user, bank: EstimatorBank | None = None) -> float:
    """`detequiv.sinr_mf_detequiv` from user (l, k)'s reference estimator
    (built alone without a bank) and one `projected_cov` per link."""
    if scenario.scheme.kind != "nonorthogonal":
        raise DomainError("the MF SINR deterministic equivalent assumes non-orthogonal pilots")
    l, k = user
    bank = bank if bank is not None else EstimatorBank.build(scenario, [user])
    est = bank.users[(l, k)]
    prof = scenario.profile(l, l, k)
    M = scenario.M

    tr_phi = float(np.real(np.trace(est.phi)))
    xi_lam = est.xi * prof.lam[None, :]

    num = (tr_phi / M) ** 2
    noise = tr_phi / (scenario.P_ul * M * M)
    contam = 0.0
    for lp in range(scenario.L):
        for kp in range(scenario.K):
            if (lp, kp) == (l, k):
                continue
            rt = projected_cov(scenario, l, k, (l, lp, kp))
            contam += abs(np.trace(xi_lam @ rt)) ** 2 / (M * M)
            contam += np.real(np.trace(est.phi @ rt)) / (M * M)
    return float(num / (noise + contam))


def cholesky_solve(A: np.ndarray, B: np.ndarray, floor: float = 0.0):
    """Solve A X = B for every matrix of a stack A [..., n, n] of Hermitian
    positive-definite matrices, B [..., n, m]: `cholesky_factor`, then
    `forward_substitute` and `back_substitute`, so a member's bits do not
    depend on the stack.  Returns X and the flags [...] of the jittered
    matrices.  Raises np.linalg.LinAlgError if a matrix is indefinite beyond
    the jitter.
    """
    L, flags = cholesky_factor(A, floor)
    return back_substitute(L, forward_substitute(L, B)), flags
