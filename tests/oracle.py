"""The reference tables, deterministic equivalents and solves the tests
compare against, built one link at a time.

`serving_reference` builds every draw-static table of `bounds.DrawEngine` in
the serving bases of a serving choice; in the users' own eigenbases its
estimators and design matrices are the reference ones
(`training.EstimatorBank`, `beamform.assemble_Z`).  `detequiv` reads every
table of its SINR limits from the draw's shared engine; here the same limits
are built from the reference estimators and design matrices and from
`training.projection` and `training.projected_cov`.  `angular_plans`
lists the index plans of the angular engine by loops over their
definitions.  `cholesky_solve` composes the Cholesky halves of `_linalg`
into a full solve.
"""

from dataclasses import dataclass, field

import numpy as np

from mimo_lab._linalg import (back_substitute, cholesky_factor, forward_substitute, herm,
                              hermitian_solve)
from mimo_lab.beamform import assemble_Z
from mimo_lab.detequiv import DetEquivProblem, DomainError, _cell_sinr_mmse, _mmse_problem
from mimo_lab.training import EstimatorBank, contaminators, projected_cov, projection

from conftest import serving_matrices


@dataclass
class Reference:
    """The engine's draw-static tables of user (l, k) in its serving basis
    B_lk, each entry from its per-link definition."""

    basis: dict    # (l, k) -> B_lk, M x q
    proj: object   # (l, k, src_key) -> B_lk^H U_src
    cov: object    # (l, k, src_key) -> B_lk^H R_src B_lk
    xi: dict = field(default_factory=dict)         # (C + contamination + I / rho_p)^{-1}
    filt: dict = field(default_factory=dict)       # C Xi, C = cov(own link)
    err_cov: dict = field(default_factory=dict)    # C - C Xi C
    nproj_sum: dict = field(default_factory=dict)  # other own-cell users' err_cov
    s_inter: dict = field(default_factory=dict)    # every other-cell link's cov
    Z: dict = field(default_factory=dict)          # err_cov + nproj_sum + s_inter

    def between(self, l, k, j):
        """B_lk^H B_lj."""
        return self.basis[(l, k)].conj().T @ self.basis[(l, j)]


def serving_reference(sc, bases) -> Reference:
    """Every table entry of the engine under the serving choice `bases`
    (`DrawEngine`), link by link; in the own eigenbases (bases=None) filt,
    err_cov and Z are the reference bank's and `assemble_Z`'s."""
    B = serving_matrices(sc, bases)

    def proj(l, k, key):
        return B[(l, k)].conj().T @ sc.profiles[key].U

    def cov(l, k, key):
        P = proj(l, k, key)
        return herm((P * sc.profiles[key].lam) @ P.conj().T)

    ref = Reference(basis=B, proj=proj, cov=cov)
    q = B[(0, 0)].shape[1]
    for l, k in sc.users():
        C = cov(l, k, (l, l, k))
        cond = C + sum(cov(l, k, key) for key in contaminators(sc, l, k)) + np.eye(q) / sc.rho_p
        xi, _ = hermitian_solve(cond, np.eye(q, dtype=complex))
        ref.xi[(l, k)] = xi
        ref.filt[(l, k)] = C @ xi
        ref.err_cov[(l, k)] = herm(C - C @ xi @ C)
    for l, k in sc.users():
        ref.nproj_sum[(l, k)] = sum(
            (ref.between(l, k, j) @ ref.err_cov[(l, j)] @ ref.between(l, k, j).conj().T
             for j in range(sc.K) if j != k), np.zeros((q, q)))
        ref.s_inter[(l, k)] = sum(
            (cov(l, k, (l, lp, p)) for lp in range(sc.L) if lp != l for p in range(sc.K)),
            np.zeros((q, q)))
        ref.Z[(l, k)] = ref.err_cov[(l, k)] + ref.nproj_sum[(l, k)] + ref.s_inter[(l, k)]
    if bases is None:
        bank = EstimatorBank.build(sc)
        for u in sc.users():
            ref.filt[u], ref.err_cov[u] = bank.users[u].filt, bank.users[u].err_cov
            ref.Z[u] = assemble_Z(sc, *u, bank)
    return ref


def angular_plans(sc, bases) -> dict:
    """Every index plan of `bounds._AngularEngine` under the serving choice
    `bases`, by loops over users, positions and DFT indices, in the order
    and layout the engine documents: own_pos (None for the own
    eigenbases), the link plans pairs, segs and ptr, est_pos, and the Gram
    plans gram_pairs, gram_segs and gram_ptr (None when q > K)."""
    L, K, M, r = sc.L, sc.K, sc.M, sc.r_own
    idx = {key: [int(m) for m in prof.idx] for key, prof in sc.profiles.items()}
    serve = {(l, k): (list(range(M)) if bases == "full" else idx[(l, l, k)] if bases is None
                      else [idx[(l, l, k)][a] for a in bases[(l, k)]]) for l, k in sc.users()}
    at = {u: {m: a for a, m in enumerate(ms)} for u, ms in serve.items()}  # DFT index -> a
    q = len(serve[(0, 0)])
    # one rule for the whole engine: every cell's users in the same columns
    shared = all(serve[(l, k)] == serve[(l, 0)] for l, k in sc.users())
    rx = max((len(ms) for (l, c, _), ms in idx.items() if c != l), default=0)
    ref = {"own_pos": None if bases is None else np.array(
        [[[idx[(l, l, k)].index(m) if m in idx[(l, l, k)] else r for m in serve[(l, k)]]
          for k in range(K)] for l in range(L)], dtype=np.intp)}

    pairs, segs, ptr = [], [], [[0], [0]]
    for l in range(L):
        for c in range(L):
            width, key = (r if c == l else rx), None
            for n in range(1 if shared else K):
                for p in range(K):
                    for b, m in enumerate(idx[(l, c, p)]):
                        if m in at[(l, n)]:
                            if key != n * K + p:
                                key = n * K + p
                                segs.append((len(pairs) - ptr[0][-1], key))
                            pairs.append((n * q + at[(l, n)][m], p * width + b))
            ptr[0].append(len(pairs))
            ptr[1].append(len(segs))
    ref["pairs"], ref["segs"] = (np.array(x, dtype=np.intp).reshape(-1, 2).T for x in (pairs, segs))
    ref["ptr"] = np.array(ptr, dtype=np.intp)

    ref["est_pos"] = np.array(
        [[[[j * (q + 1) + at[(l, j)].get(m, q) for m in serve[(l, k)]] for j in range(K)]
          for k in range(K)] for l in range(L)], dtype=np.intp)

    ref["gram_pairs"] = ref["gram_segs"] = ref["gram_ptr"] = None
    if q <= K:
        pairs, segs, ptr = [], [], [[0], [0]]
        for l in range(L):
            last = None
            for k in range(K) if not shared else ():
                for a, ma in enumerate(serve[(l, k)]):
                    for b, mb in enumerate(serve[(l, k)]):
                        target = (k * q + a) * q + b
                        for j in range(K):
                            if j != k and ma in at[(l, j)] and mb in at[(l, j)]:
                                if last != target:
                                    last = target
                                    segs.append((len(pairs) - ptr[0][-1], target))
                                pairs.append((j * q + at[(l, j)][ma], j * q + at[(l, j)][mb]))
            ptr[0].append(len(pairs))
            ptr[1].append(len(segs))
        ref["gram_pairs"], ref["gram_segs"] = (np.array(x, dtype=np.intp).reshape(-1, 2).T
                                               for x in (pairs, segs))
        ref["gram_ptr"] = np.array(ptr, dtype=np.intp)
    return ref


def own_projections(scenario, l):
    """Cell l's projections P_own [k, j, a, b] = U_llk^H U_llj."""
    K = scenario.K
    return np.array([[projection(scenario, l, k, (l, l, j)) for j in range(K)]
                     for k in range(K)])


def mmse_detequiv_problem(scenario, l, k, bank: EstimatorBank, Z) -> DetEquivProblem:
    """Fixed-point problems behind the MMSE combiners of cell l's users,
    from the bank's phi.  k = None gives the cell's K problems as one stack,
    with Z [K, r, r] from assemble_Z; else user k's problem, with its Z
    [r, r]."""
    phi = np.stack([bank.users[(l, j)].phi for j in range(scenario.K)])
    return _mmse_problem(own_projections(scenario, l), phi, Z, scenario.P_ul, k)


def bank_tables(scenario, l, bank: EstimatorBank):
    """Cell l's inputs of `detequiv._cell_sinr_mmse` from the reference
    estimators and design matrices, laid out as
    `bounds.DrawEngine.detequiv_tables`.  Every cross link of a draw has rank
    r_cross, so P_x [k, i, p, a, b] and lam_x [i, p, b] need no padding."""
    L, K = scenario.L, scenario.K
    others = [lp for lp in range(L) if lp != l]
    P_x = lam_x = None
    if others:
        P_x = np.array([[[projection(scenario, l, k, (l, lp, p)) for p in range(K)]
                         for lp in others] for k in range(K)])
        lam_x = np.array([[scenario.profiles[(l, lp, p)].lam for p in range(K)]
                          for lp in others])
    phi = np.stack([bank.users[(l, j)].phi for j in range(K)])
    xi = np.stack([bank.users[(l, j)].xi for j in range(K)])
    lam = np.stack([scenario.profile(l, l, j).lam for j in range(K)])
    return (own_projections(scenario, l), P_x, lam_x, phi, xi * lam[:, None, :],
            assemble_Z(scenario, l, None, bank))


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
