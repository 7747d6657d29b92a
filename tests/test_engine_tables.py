"""DrawEngine's draw-static tables against their per-link definitions.

The engine builds its projection tables, MMSE estimators and design matrices
from stacked GEMMs, one cell at a time.  Here every entry is rebuilt link by
link: in the users' own eigenbases from the op-level functions (projection,
projected_cov, build_estimator, assemble_Z), and in other serving bases
(d-restricted support, one shared I_M) from B^H U and a hermitian_solve per
user.
"""

import numpy as np
import pytest

from mimo_lab import bounds
from mimo_lab._linalg import herm, hermitian_solve
from mimo_lab.beamform import assemble_Z
from mimo_lab.bounds import DrawEngine
from mimo_lab.covmodel import CorrelationModel, stream
from mimo_lab.training import EstimatorBank, contaminators, projected_cov, projection

from conftest import full_bases, make_scenario, restricted_bases

POINT = dict(seed=31, L=2, K=3, M=24, r_own=4, snr_db=7.0,
             model=CorrelationModel.PARTIAL_UNITARY, eigen_shape="exp_decay", eigen_rate=0.5)


def close(got, want):
    want = np.asarray(want)
    scale = max(float(np.abs(want).max()), 1.0)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


def reference(sc, bases):
    """Every table entry of the engine, link by link."""
    own = bases is None
    B = {(l, k): sc.profile(l, l, k).U for l, k in sc.users()} if own else bases

    def proj(l, k, key):
        return projection(sc, l, k, key) if own else B[(l, k)].conj().T @ sc.profiles[key].U

    def cov(l, k, key):
        if own:
            return projected_cov(sc, l, k, key)
        P = proj(l, k, key)
        return herm((P * sc.profiles[key].lam) @ P.conj().T)

    q = B[(0, 0)].shape[1]
    ref = {"filt": {}, "err_cov": {}, "xi": {}, "s_inter": {}, "nproj_sum": {}, "Z": {}}
    for l, k in sc.users():
        C = cov(l, k, (l, l, k))
        cond = C + sum(cov(l, k, key) for key in contaminators(sc, l, k)) + np.eye(q) / sc.rho_p
        xi, _ = hermitian_solve(cond, np.eye(q, dtype=complex))
        ref["xi"][(l, k)] = xi
        ref["filt"][(l, k)] = C @ xi
        ref["err_cov"][(l, k)] = herm(C - C @ xi @ C)
    for l, k in sc.users():
        between = [B[(l, k)].conj().T @ B[(l, j)] for j in range(sc.K)]
        ref["nproj_sum"][(l, k)] = sum(
            (between[j] @ ref["err_cov"][(l, j)] @ between[j].conj().T
             for j in range(sc.K) if j != k), np.zeros((q, q)))
        ref["s_inter"][(l, k)] = sum(
            (cov(l, k, (l, lp, p)) for lp in range(sc.L) if lp != l for p in range(sc.K)),
            np.zeros((q, q)))
        ref["Z"][(l, k)] = ref["err_cov"][(l, k)] + ref["nproj_sum"][(l, k)] + ref["s_inter"][(l, k)]
    if own:
        # the rebuilt estimators are the op-level ones
        bank = EstimatorBank.build(sc)
        for u in sc.users():
            ref["filt"][u], ref["err_cov"][u] = bank.users[u].filt, bank.users[u].err_cov
            ref["Z"][u] = assemble_Z(sc, *u, bank)
    return proj, cov, B, ref


BASES = {
    "own": lambda sc: None,
    "d=3": lambda sc: restricted_bases(sc, 3, stream(9)),
    "full": full_bases,
}


@pytest.mark.parametrize("which", list(BASES))
@pytest.mark.parametrize("pilot", ["orthogonal", "nonorthogonal"])
@pytest.mark.parametrize("L", [2, 1])
def test_tables_match_per_link_definitions(L, pilot, which):
    sc = make_scenario(pilot=pilot, **dict(POINT, L=L))
    assert sc.r_cross < sc.r_own  # the fading table is padded
    bases = BASES[which](sc)
    eng = DrawEngine(sc, bases=bases)
    proj, cov, B, ref = reference(sc, bases)
    # a shared basis needs no basis-to-basis table: it is the identity
    assert eng.shared == [which == "full"] * sc.L
    assert (eng.P_est is None) == (which == "full")
    for l, k in sc.users():
        for j in range(sc.K):
            close(eng.P_own[l, j, k], proj(l, k, (l, l, j)))
            if eng.P_est is not None:
                close(eng.P_est[l, j, k], B[(l, k)].conj().T @ B[(l, j)])
        for i, lp in enumerate(eng.xcells[l]):
            for p in range(sc.K):
                close(eng.P_x[l, i, p, k], proj(l, k, (l, lp, p)))
        for name in ("filt", "err_cov", "s_inter", "nproj_sum", "Z"):
            close(getattr(eng, name)[l, k], ref[name][(l, k)])
    if L == 1:
        assert eng.P_x is None
    else:  # only the cross-link rank's columns, no zero padding
        assert eng.P_x.shape[-1] == eng.rx == sc.r_cross
    assert eng.jittered == ()


@pytest.mark.parametrize("which", list(BASES))
def test_conditional_tables_match_per_link_definitions(which):
    sc = make_scenario(**POINT)
    bases = BASES[which](sc)
    eng = DrawEngine(sc, conditional_contamination=True, bases=bases)
    proj, cov, B, ref = reference(sc, bases)
    for l, k in sc.users():
        xi = ref["xi"][(l, k)]
        rts = [cov(l, k, (l, lp, k)) for lp in eng.xcells[l]]
        for i, rt in enumerate(rts):
            close(eng.contam_filt[l, k, i], rt @ xi)
        residual = sum(herm(rt - rt @ xi @ rt) for rt in rts)
        others = sum(cov(l, k, (l, lp, p)) for lp in eng.xcells[l]
                     for p in range(sc.K) if p != k)
        close(eng.Z_cond[l, k], ref["err_cov"][(l, k)] + ref["nproj_sum"][(l, k)]
              + residual + others)


def test_regularised_estimators_are_recorded(monkeypatch):
    # the engine keeps hermitian_solve's jitter flag per user; here the
    # solve reports jitter for the second and fifth users it is asked for
    solve, calls = bounds.hermitian_solve, []

    def flagged(A, B):
        X, _ = solve(A, B)
        calls.append(None)
        return X, len(calls) in (2, 5)

    sc = make_scenario(**POINT)
    assert DrawEngine(sc).jittered == ()
    monkeypatch.setattr(bounds, "hermitian_solve", flagged)
    eng = DrawEngine(sc)
    assert len(calls) == sc.L * sc.K
    assert eng.jittered == ((0, 1), (1, 1))
