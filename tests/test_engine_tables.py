"""DrawEngine's draw-static tables against their per-link definitions.

The engine builds its projection tables, MMSE estimators and design matrices
from stacked GEMMs, one cell at a time.  Here every entry is rebuilt link by
link by `oracle.serving_reference`: from B^H U and a hermitian_solve per
user in every serving basis (own eigenbasis, d-restricted support, one
shared I_M), with the reference estimators and design matrices
(`EstimatorBank`, `assemble_Z`) in the own eigenbases.
"""

import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mimo_lab import bounds
from mimo_lab._linalg import herm, hermitian_solve
from mimo_lab.bounds import DrawEngine
from mimo_lab.covmodel import CorrelationModel, stream
from mimo_lab.training import contaminators

from conftest import dense_twin, full_bases, make_scenario, restricted_bases
from oracle import serving_reference

POINT = dict(seed=31, L=2, K=3, M=24, r_own=4, snr_db=7.0,
             model=CorrelationModel.PARTIAL_UNITARY, eigen_shape="exp_decay", eigen_rate=0.5)


def close(got, want):
    want = np.asarray(want)
    scale = max(float(np.abs(want).max()), 1.0)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


BASES = {
    "own": lambda sc: None,
    "d=3": lambda sc: restricted_bases(sc, 3, stream(9)),
    "full": full_bases,
}


# two cells, one cell, and three cells whose cross links are wider than the
# own ones
POINTS = {
    2: POINT,
    1: dict(POINT, L=1),
    "wide": dict(seed=23, L=3, K=4, M=40, r_own=4, r_cross=6, snr_db=12.0,
                 model=CorrelationModel.PARTIAL_UNITARY),
}


@pytest.mark.parametrize("which", list(BASES))
@pytest.mark.parametrize("pilot", ["orthogonal", "nonorthogonal"])
@pytest.mark.parametrize("point", list(POINTS))
def test_tables_match_per_link_definitions(point, pilot, which):
    sc = make_scenario(pilot=pilot, **POINTS[point])
    if point == "wide":
        assert sc.r_cross > sc.r_own
    else:
        assert sc.r_cross < sc.r_own  # the fading table is padded
    bases = BASES[which](sc)
    eng = DrawEngine(sc, bases=bases)
    ref = serving_reference(sc, bases)
    # a dense engine shares no cell, so one I_M for all users has its
    # basis-to-basis table too
    assert not eng.shared
    for l, k in sc.users():
        for j in range(sc.K):
            close(eng.P_own[l, j, k], ref.proj(l, k, (l, l, j)))
            close(eng.P_est[l, j, k], ref.between(l, k, j))
        for i, lp in enumerate(eng.xcells[l]):
            for p in range(sc.K):
                close(eng.P_x[l, i, p, k], ref.proj(l, k, (l, lp, p)))
        for name in ("filt", "err_cov", "s_inter", "nproj_sum", "Z"):
            close(getattr(eng, name)[l, k], getattr(ref, name)[(l, k)])
    if sc.L == 1:
        assert eng.P_x is None
    else:  # only the cross-link rank's columns, no zero padding
        assert eng.P_x.shape[-1] == eng.rx == sc.r_cross
    assert eng.jittered == ()


@pytest.mark.parametrize("which", list(BASES))
def test_conditional_tables_match_per_link_definitions(which):
    sc = make_scenario(**POINT)
    bases = BASES[which](sc)
    eng = DrawEngine(sc, conditional_contamination=True, bases=bases)
    ref = serving_reference(sc, bases)
    cov = ref.cov
    for l, k in sc.users():
        xi = ref.xi[(l, k)]
        rts = [cov(l, k, (l, lp, k)) for lp in eng.xcells[l]]
        for i, rt in enumerate(rts):
            close(eng.contam_filt[l, k, i], rt @ xi)
        residual = sum(herm(rt - rt @ xi @ rt) for rt in rts)
        others = sum(cov(l, k, (l, lp, p)) for lp in eng.xcells[l]
                     for p in range(sc.K) if p != k)
        close(eng.Z_cond[l, k], ref.err_cov[(l, k)] + ref.nproj_sum[(l, k)]
              + residual + others)


def test_regularised_estimators_are_recorded(monkeypatch):
    # the engine solves each cell's estimator systems as one stack and keeps
    # hermitian_solve's jitter flag per user; here the solve reports jitter
    # for the second user of the first cell and the third of the second
    solve, calls = bounds.hermitian_solve, []

    def flagged(A, B, floor=0.0):
        X, _ = solve(A, B, floor)
        calls.append(len(A))
        return X, np.arange(len(A)) == len(calls)

    sc = make_scenario(**POINT)
    assert DrawEngine(sc).jittered == ()
    monkeypatch.setattr(bounds, "hermitian_solve", flagged)
    eng = DrawEngine(sc)
    assert calls == [sc.K] * sc.L
    assert eng.jittered == ((0, 1), (1, 2))


def test_regularised_estimators_match_eigenvalue_criterion():
    # pilot boost 1e14: in I_M bases each estimator system C + contamination
    # + I/rho_p has smallest eigenvalue 1/rho_p.  Scaling user k's channels by
    # 1, 1e-3 and 1e-6 puts its trace above the jitter threshold, between the
    # threshold and the floor's certificate, and under the certificate
    sc = make_scenario(**dict(POINT, pilot_boost=1e14))
    for key, prof in sc.profiles.items():
        prof.lam = prof.lam * [1.0, 1e-3, 1e-6][key[2]]
    bases = full_bases(sc)
    cov = serving_reference(sc, bases).cov
    want = []
    for l, k in sc.users():
        A = herm(cov(l, k, (l, l, k)) + sum(cov(l, k, key) for key in contaminators(sc, l, k))
                 + np.eye(sc.M) / sc.rho_p)
        if np.linalg.eigvalsh(A)[0] < 1e-12 * np.trace(A).real / sc.M:
            want.append((l, k))
    assert DrawEngine(sc, bases=bases).jittered == tuple(want) == ((0, 0), (1, 0))


@pytest.mark.parametrize("which", ["own", "full"])
@pytest.mark.parametrize("power", [1e2, 1e16])
def test_rank_k_static_systems_are_recorded(which, power):
    # q > K: the guarded solves are those of Z + I/p, one per serving basis
    # (one per user, also when all users are served in I_M)
    sc = make_scenario(**POINT)
    eng = DrawEngine(sc, bases=BASES[which](sc))
    assert eng.q > sc.K
    w_hat = eng._estimates(*eng._draw_chunk(3, 0, 5))[0]
    for l in range(sc.L):
        eng._beamformer(w_hat, l, power)
    want = [(l, k) for l, k in sc.users()
            if hermitian_solve(eng.Z[l, k] + np.eye(eng.q) / power, np.eye(eng.q))[1]]
    assert eng.beam_jittered == tuple(want)


def overlapping_pair():
    """q = K = 2, Fourier supports {0, 1} and {1, 2}, a noiseless pilot:
    user k's leave-one-out combiner system is the rank-one y_j y_j^H of the
    other user's estimate seen in its basis (its share of DFT column 1)
    plus Z_k + I/p ~ 1e-12 at p = 1e12, so whether a trial's system is
    near-singular depends on ||y_j||^2.  User 1's channel is 1e-6 weaker,
    so user 0's system never is."""
    sc = make_scenario(seed=2, L=1, K=2, M=16, r_own=2, pilot_boost=1e16)
    for k in range(2):
        sc.profiles[(0, 0, k)].idx = np.arange(k, k + 2)
    sc.profiles[(0, 0, 1)].lam = sc.profiles[(0, 0, 1)].lam * 1e-6
    return sc


def test_direct_systems_are_recorded_per_trial():
    sc = dense_twin(overlapping_pair())
    power, T = 1e12, 40
    eng = DrawEngine(sc)
    w_hat = eng._estimates(*eng._draw_chunk(5, 0, T))[0][:, 0]
    flagged = np.zeros((T, sc.K), dtype=bool)
    for t in range(T):
        for k in range(sc.K):
            Y = [eng.P_est[0, j, k] @ w_hat[t, j] for j in range(sc.K) if j != k]
            G = sum(np.outer(y, y.conj()) for y in Y) + eng.Z[0, k] + np.eye(eng.q) / power
            flagged[t, k] = np.linalg.eigvalsh(G)[0] < 1e-12 * np.trace(G).real / eng.q
    assert 0 < flagged[:, 1].sum() < T and not flagged[:, 0].any()

    def recorded(spans):
        eng = DrawEngine(sc)
        for t0, t1 in spans:
            w = eng._estimates(*eng._draw_chunk(5, t0, t1))[0]
            eng._beamformer(w, 0, power)
        return eng.beam_jittered

    assert recorded([(0, T)]) == recorded([(0, 13), (13, T)]) == ((0, 1),)
    t = int(np.flatnonzero(~flagged[:, 1])[0])
    assert recorded([(t, t + 1)]) == ()


@pytest.mark.parametrize("which", ["direct", "rank-K"])
def test_threads_share_the_record_and_the_inverses(which, monkeypatch):
    # more workers than cores and a short switch interval: every chunk's
    # flags reach the record, and the rank-K path inverts Z + I/p in one
    # stacked solve over all cells although no chunk warmed it up
    if which == "direct":
        sc, bases, power = overlapping_pair(), None, 1e12
    else:
        sc, power = make_scenario(**POINT), 1e16
        bases = full_bases(sc)
    solve, calls = bounds.hermitian_solve, []

    def counted(A, B, floor=0.0):
        calls.append(None)
        time.sleep(1e-3)  # widens the window in which threads could race
        return solve(A, B, floor)

    serial = DrawEngine(sc, bases=bases)
    w_hat = serial._estimates(*serial._draw_chunk(5, 0, 48))[0]
    for l in range(sc.L):
        serial._beamformer(w_hat, l, power)
    assert serial.beam_jittered
    eng = DrawEngine(sc, bases=bases)
    monkeypatch.setattr(bounds, "hermitian_solve", counted)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(eng._beamformer, w_hat[t:t + 3], l, power)
                       for t in range(0, 48, 3) for l in range(sc.L)]
            for f in futures:
                f.result(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert eng.beam_jittered == serial.beam_jittered
    assert len(calls) == (0 if which == "direct" else 1)
