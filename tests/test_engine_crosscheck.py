"""Exact per-trial replays of the vectorized Monte Carlo engine.

Each replay feeds the engine's RNG streams to a loop-style oracle and
recomputes every trial independently (catches any conjugation or index slip
in the batched einsums).  The oracle is `oracle.serving_reference`, the
per-link tables of a serving choice: in the users' own eigenbases its
estimators and design matrices are the reference ones (EstimatorBank,
assemble_Z), in other serving bases (d-restricted support,
full-dimensional I_M) it solves each user's MMSE system itself.  The engine
forms its estimators from its own projection tables, so the replays check
its estimator step too.  Replays cover UL and DL, orthogonal
and shared pilots, MMSE and MF, the Fourier and Haar models, one cell, and
the exact conditionals of the pilot-sharing links, through to the reduced
per-user rates.  Every Fourier replay runs on both of the engine's
representations: the angular one its model label selects, and the dense
tables of the same draw relabelled partial-unitary (dense=True).
"""

import math

import numpy as np
import pytest

from mimo_lab.bounds import DrawEngine, prelog_factor, run_bounds
from mimo_lab.covmodel import CorrelationModel, stream
from mimo_lab.training import contaminators

from conftest import dense_twin, full_bases, make_scenario, restricted_bases
from oracle import serving_reference

TOL = 1e-9


def own_channel(sc, oracle, w, l, k):
    """User (l, k)'s own channel in its serving basis."""
    return oracle.proj(l, k, (l, l, k)) @ w[l, l, k, : sc.r_own]


def replay_trial(sc, oracle, seed, t, cells):
    """Fading, and the estimates and the despread pilot observations of the
    users of `cells`, for trial t.

    Draws as the engine documents it: from trial t's stream, one
    standard-normal draw of the whole row read as (re, im) pairs.  The row
    holds the fading blocks (l, lp) in C order, K x r_own own-cell and
    K x r_cross cross-cell, then the pilot noise (a fresh CN(0, I_q) per
    user under orthogonal pilots, one M-dimensional snapshot per BS
    despread by every served user under the shared non-orthogonal pilot).
    The fading is scaled by sqrt(lam / 2), the noise by 1 / sqrt(2).
    """
    L, K, rmax = sc.L, sc.K, max(sc.r_own, sc.r_cross)
    q = oracle.basis[(0, 0)].shape[1]
    orthogonal = sc.scheme.kind == "orthogonal"
    widths = [[sc.r_own if lp == l else sc.r_cross for lp in range(L)] for l in range(L)]
    n_w = K * sum(map(sum, widths))
    n_z = L * K * q if orthogonal else L * sc.M
    row = stream(seed, 1, t).standard_normal(2 * (n_w + n_z)).view(complex)
    w = np.zeros((L, L, K, rmax), dtype=complex)
    start = 0
    for l in range(L):
        for lp in range(L):
            block = row[start: start + K * widths[l][lp]].reshape(K, -1)
            start += block.size
            for k in range(K):
                prof = sc.profiles[(l, lp, k)]
                w[l, lp, k, : prof.r] = block[k, : prof.r] * np.sqrt(prof.lam / 2)
    z = row[n_w:] * (1.0 / np.sqrt(2.0))
    if orthogonal:
        noise = z.reshape(L, K, q)
    else:
        z = z.reshape(L, sc.M)
        noise = np.array([[oracle.basis[(l, k)].conj().T @ z[l] for k in range(K)]
                          for l in range(L)])
    w_hat, obs = {}, {}
    for l in cells:
        for k in range(K):
            s = own_channel(sc, oracle, w, l, k) + noise[l, k] / np.sqrt(sc.rho_p)
            for key in contaminators(sc, l, k):
                s = s + oracle.proj(l, k, key) @ w[key][: sc.profiles[key].r]
            obs[(l, k)] = s
            w_hat[(l, k)] = oracle.filt[(l, k)] @ s
    return w, w_hat, obs


def replay_combiner(sc, oracle, w_hat, l, k, combiner, power):
    """Unit-norm combiner (or precoder, at the DL power) of user (l, k) and
    the own-cell estimates seen in its basis."""
    proj = [w_hat[(l, j)] if j == k else oracle.between(l, k, j) @ w_hat[(l, j)]
            for j in range(sc.K)]
    if combiner == "mf":
        v = w_hat[(l, k)]
    else:
        G = oracle.Z[(l, k)] + np.eye(len(w_hat[(l, k)])) / power
        for wj in proj:
            G = G + np.outer(wj, wj.conj())
        v = np.linalg.solve(G, w_hat[(l, k)])
    return v / np.linalg.norm(v), proj


def link_order(sc, l, k):
    """The engine's interference link order for user (l, k): own cell
    j = 0..K-1 (entry k zero), then each other cell in index order."""
    for lp in [l] + [c for c in range(sc.L) if c != l]:
        for kp in range(sc.K):
            yield lp, kp


def replay_links(sc, oracle, v, w, l, k):
    """UL: v^H of every interfering link's true channel in user (l, k)'s basis."""
    return np.array([
        0.0 if (lp, kp) == (l, k) else
        np.vdot(v, oracle.proj(l, k, (l, lp, kp)) @ w[l, lp, kp][: sc.profiles[(l, lp, kp)].r])
        for lp, kp in link_order(sc, l, k)], dtype=complex)


def replay_dl_links(sc, oracle, g, w, l, k):
    """DL: user (l, k)'s channel from BS lp, seen in the basis of each of that
    BS's precoders g[(lp, kp)]."""
    return np.array([
        0.0 if (lp, kp) == (l, k) else
        np.vdot(oracle.proj(lp, kp, (lp, l, k)) @ w[lp, l, k][: sc.profiles[(lp, l, k)].r],
                g[(lp, kp)])
        for lp, kp in link_order(sc, l, k)], dtype=complex)


def assert_replayed(sc, out, alt, cells, sig, ub, ip, power):
    """The engine's per-chunk statistics and the reduced alt rate against the
    replayed per-trial sig [L, T, K], ub [L, T, K] and ip [L, T, K, LK]."""
    for l in cells:
        for name, want in (("sig", sig[l]), ("ip2_sum", (np.abs(ip[l]) ** 2).sum(axis=-1)),
                           ("ip_mean", ip[l].sum(axis=0)),
                           ("ip2", (np.abs(ip[l]) ** 2).sum(axis=0))):
            np.testing.assert_allclose(out[l][name], want, rtol=0, atol=TOL,
                                       err_msg=f"{name} at cell {l}")
    # the reduction: alt = prelog * (mean ub - sum_i log2(1 + P var_i) / T_c)
    ip_var = (np.abs(ip) ** 2).mean(axis=1) - np.abs(ip.mean(axis=1)) ** 2
    penalty = np.log2(1.0 + power * ip_var).sum(axis=2) / sc.T_c
    want = prelog_factor(sc) * (ub.mean(axis=1) - penalty)
    for l in cells:
        for k in range(sc.K):
            assert abs(alt.per_user[(l, k)] - want[l, k]) < TOL


def conditional(sc, oracle):
    """The exact Gaussian conditionals of the pilot-sharing links (orthogonal
    pilots) given user (l, k)'s observation s: mean R~ Xi s per other cell,
    and the coherent denominator's covariance Z with R~ Xi R~ taken out of
    each R~."""
    Z, mean = {}, {}
    for l, k in sc.users():
        xi = oracle.xi[(l, k)]
        rts = [oracle.cov(l, k, key) for key in contaminators(sc, l, k)]
        mean[(l, k)] = [rt @ xi for rt in rts]
        Z[(l, k)] = oracle.Z[(l, k)] - sum(rt @ xi @ rt for rt in rts)
    return Z, mean


def replay_ul(sc, oracle, combiner, cells, seed, conditional_contamination=False,
              dense=False):
    """Replay DrawEngine.ul_chunk trial by trial and check it on `cells`:
    the coherent SINR, alone (the pass that forms no vectors where it can)
    and with the bounds that read the vectors, then sig, ip2_sum, ip and
    the reduced alt rate.  dense runs the engine on the draw's dense twin."""
    trials = 3
    esc = dense_twin(sc) if dense else sc

    def chunk(want):
        return DrawEngine(esc, combiner=combiner,
                          conditional_contamination=conditional_contamination).ul_chunk(
            seed, 0, trials, cells, want)

    out = chunk({"coherent", "alt", "maxmin"})
    alone = chunk({"coherent"})
    Zc, mean = conditional(sc, oracle) if conditional_contamination else (oracle.Z, None)

    coherent = np.zeros((sc.L, trials, sc.K))
    sig = np.zeros((sc.L, trials, sc.K), dtype=complex)
    ub = np.zeros((sc.L, trials, sc.K))
    ip = np.zeros((sc.L, trials, sc.K, sc.L * sc.K), dtype=complex)
    for t in range(trials):
        w, w_hat, obs = replay_trial(sc, oracle, seed, t, cells)
        for l in cells:
            for k in range(sc.K):
                v, proj = replay_combiner(sc, oracle, w_hat, l, k, combiner, sc.P_ul)
                # coherent bound: the estimate over the conditional second
                # moments of everything else
                num = abs(np.vdot(v, w_hat[(l, k)])) ** 2
                den = np.vdot(v, Zc[(l, k)] @ v).real
                den += sum(abs(np.vdot(v, proj[j])) ** 2 for j in range(sc.K) if j != k)
                den += np.vdot(v, v).real / sc.P_ul
                if mean is not None:
                    den += sum(abs(np.vdot(v, F @ obs[(l, k)])) ** 2 for F in mean[(l, k)])
                coherent[l, t, k] = num / den
                # max-min bound and alt statistics from the true channels
                sig[l, t, k] = np.vdot(v, own_channel(sc, oracle, w, l, k))
                ip[l, t, k] = replay_links(sc, oracle, v, w, l, k)
                ub[l, t, k] = math.log2(1.0 + abs(sig[l, t, k]) ** 2 / (
                    1.0 / sc.P_ul + (np.abs(ip[l, t, k]) ** 2).sum()))

    for l in cells:
        for got in (out, alone):
            np.testing.assert_allclose(got["coherent"][l]["sinr"], coherent[l], rtol=0,
                                       atol=TOL, err_msg=f"coherent SINR at cell {l}")
    alt = run_bounds(esc, "ul", ("alt",), trials, seed, combiner, cells,
                     conditional_contamination)["alt"]
    assert_replayed(sc, out["_nc"], alt, cells, sig, ub, ip, sc.P_ul)


FOURIER, HAAR = CorrelationModel.PARTIAL_FOURIER, CorrelationModel.PARTIAL_UNITARY
ORTH = dict(seed=21, L=2, K=3, M=24, r_own=4, snr_db=7.0, model=FOURIER)
SMALL = dict(seed=23, L=2, K=3, M=24, r_own=4, snr_db=7.0)
FIG6 = dict(seed=60, L=7, K=20, M=100, r_own=8, T_c=50, snr_db=20.0)


@pytest.mark.parametrize("combiner", ["mmse", "mf"])
@pytest.mark.parametrize("point, pilot", [
    (ORTH, "orthogonal"),
    (dict(ORTH, L=1), "orthogonal"),
    (dict(ORTH, L=1), "nonorthogonal"),
], ids=["two-cell", "one-cell", "one-cell-shared-pilot"])
def test_engine_matches_loop_per_trial(point, pilot, combiner, dense=False):
    # one cell: no cross projection table, and under the shared pilot only
    # the own cell contaminates
    sc = make_scenario(pilot=pilot, **point)
    replay_ul(sc, serving_reference(sc, None), combiner, list(range(sc.L)), 505, dense=dense)


@pytest.mark.parametrize("combiner", ["mmse", "mf"])
@pytest.mark.parametrize("model", [FOURIER, HAAR], ids=["fourier", "haar"])
def test_conditional_contamination_matches_loop_per_trial(model, combiner, dense=False):
    # under Haar bases with decaying eigenvalues R~ and Xi do not commute,
    # so the mean filter R~ Xi differs from Xi R~
    sc = make_scenario(**dict(ORTH, model=model, eigen_shape="exp_decay", eigen_rate=0.5))
    replay_ul(sc, serving_reference(sc, None), combiner, list(range(sc.L)), 505,
              conditional_contamination=True, dense=dense)


@pytest.mark.parametrize("model", [FOURIER, HAAR], ids=["fourier", "haar"])
def test_conditional_contamination_on_per_user_systems(model):
    # q <= K: the combiners solve leave-one-out systems, and the conditional
    # coherent denominator still reads every estimate, the user's own too
    sc = make_scenario(**dict(ORTH, K=6, model=model, eigen_shape="exp_decay",
                              eigen_rate=0.5))
    assert DrawEngine(sc).q <= sc.K
    replay_ul(sc, serving_reference(sc, None), "mmse", list(range(sc.L)), 505,
              conditional_contamination=True)


@pytest.mark.parametrize("point, model, combiner, cells", [
    (SMALL, FOURIER, "mmse", [0, 1]),
    (SMALL, FOURIER, "mf", [0, 1]),
    (SMALL, HAAR, "mmse", [0, 1]),
    (SMALL, HAAR, "mf", [0, 1]),
    (FIG6, FOURIER, "mmse", [0]),
    (FIG6, FOURIER, "mf", [0]),
], ids=["small-fourier-mmse", "small-fourier-mf", "small-haar-mmse",
        "small-haar-mf", "fig6-fourier-mmse", "fig6-fourier-mf"])
def test_nonorthogonal_ul_matches_loop_per_trial(point, model, combiner, cells, dense=False):
    # the shared-pilot estimate path: every other link of the network leaks
    # into each despread observation, and one noise snapshot per BS is
    # despread by all of its users; r_cross < r_own narrows the cross blocks
    sc = make_scenario(pilot="nonorthogonal", model=model, **point)
    assert sc.r_cross < sc.r_own
    replay_ul(sc, serving_reference(sc, None), combiner, cells, 506, dense=dense)


def replay_dl(sc, oracle, combiner, bases=None, dense=False):
    """Replay DrawEngine.dl_chunk trial by trial and check it, all cells
    (dense: on the draw's dense twin)."""
    seed, trials = 507, 3
    cells = list(range(sc.L))
    esc = dense_twin(sc) if dense else sc
    out = DrawEngine(esc, combiner=combiner, bases=bases).dl_chunk(
        seed, 0, trials, cells, {"alt", "maxmin"})["_nc"]

    power = sc.P_dl_per_user
    sig = np.zeros((sc.L, trials, sc.K), dtype=complex)
    ub = np.zeros((sc.L, trials, sc.K))
    ip = np.zeros((sc.L, trials, sc.K, sc.L * sc.K), dtype=complex)
    for t in range(trials):
        w, w_hat, _ = replay_trial(sc, oracle, seed, t, cells)
        g = {(l, k): replay_combiner(sc, oracle, w_hat, l, k, combiner, power)[0]
             for l, k in sc.users()}
        for l, k in sc.users():
            sig[l, t, k] = np.vdot(own_channel(sc, oracle, w, l, k), g[(l, k)])
            ip[l, t, k] = replay_dl_links(sc, oracle, g, w, l, k)
            ub[l, t, k] = math.log2(1.0 + abs(sig[l, t, k]) ** 2 / (
                1.0 / power + (np.abs(ip[l, t, k]) ** 2).sum()))

    alt = run_bounds(esc, "dl", ("alt",), trials, seed, combiner, bases=bases)["alt"]
    assert_replayed(sc, out, alt, cells, sig, ub, ip, power)


@pytest.mark.parametrize("combiner", ["mmse", "mf"])
@pytest.mark.parametrize("model", [FOURIER, HAAR], ids=["fourier", "haar"])
@pytest.mark.parametrize("pilot", ["orthogonal", "nonorthogonal"])
def test_dl_matches_loop_per_trial(pilot, model, combiner, dense=False):
    sc = make_scenario(pilot=pilot, model=model, **SMALL)
    replay_dl(sc, serving_reference(sc, None), combiner, dense=dense)


@pytest.mark.parametrize("pilot, which", [("nonorthogonal", "d=3"), ("orthogonal", "full")],
                         ids=["d3-nonorthogonal", "full-orthogonal"])
def test_dl_in_serving_bases_matches_loop_per_trial(pilot, which):
    # d = 3 of the r = 4 support columns, and I_M.  Haar bases and decaying
    # eigenvalues keep the prior C = B^H R B from commuting with the
    # contamination, so the filter C Xi differs from Xi C
    sc = make_scenario(pilot=pilot, model=HAAR, eigen_shape="exp_decay", eigen_rate=0.5,
                       **SMALL)
    bases = restricted_bases(sc, 3, stream(8)) if which == "d=3" else full_bases(sc)
    replay_dl(sc, serving_reference(sc, bases), "mmse", bases)


SERVING = {
    "d=3": lambda sc: restricted_bases(sc, 3, stream(8)),
    "I_M": full_bases,
}


@pytest.mark.parametrize("dense", [False, True], ids=["angular", "dense"])
@pytest.mark.parametrize("which", list(SERVING))
@pytest.mark.parametrize("pilot", ["orthogonal", "nonorthogonal"])
def test_fourier_dl_in_serving_bases_matches_loop_per_trial(pilot, which, dense):
    # the angular engine serves d-restricted bases in their DFT columns and
    # I_M in all M of them, rotating the orthogonal-pilot noise by F^H; the
    # oracle works in the bases themselves
    sc = make_scenario(pilot=pilot, model=FOURIER, eigen_shape="exp_decay", eigen_rate=0.5,
                       **SMALL)
    bases = SERVING[which](sc)
    replay_dl(sc, serving_reference(sc, bases), "mmse", bases, dense=dense)


FOURIER_REPLAYS = {
    "two-cell": (test_engine_matches_loop_per_trial, dict(point=ORTH, pilot="orthogonal")),
    "one-cell": (test_engine_matches_loop_per_trial,
                 dict(point=dict(ORTH, L=1), pilot="orthogonal")),
    "one-cell-shared-pilot": (test_engine_matches_loop_per_trial,
                              dict(point=dict(ORTH, L=1), pilot="nonorthogonal")),
    "conditional": (test_conditional_contamination_matches_loop_per_trial,
                    dict(model=FOURIER)),
    "small-shared-pilot": (test_nonorthogonal_ul_matches_loop_per_trial,
                           dict(point=SMALL, model=FOURIER, cells=[0, 1])),
    "fig6-shared-pilot": (test_nonorthogonal_ul_matches_loop_per_trial,
                          dict(point=FIG6, model=FOURIER, cells=[0])),
    "dl-orthogonal": (test_dl_matches_loop_per_trial,
                      dict(pilot="orthogonal", model=FOURIER)),
    "dl-shared-pilot": (test_dl_matches_loop_per_trial,
                        dict(pilot="nonorthogonal", model=FOURIER)),
}


@pytest.mark.parametrize("combiner", ["mmse", "mf"])
@pytest.mark.parametrize("case", list(FOURIER_REPLAYS))
def test_fourier_replays_on_dense_tables(case, combiner):
    # the Fourier replays above ran the angular engine; here the same draws
    # run the dense tables, against the same oracle and tolerance
    replay, kwargs = FOURIER_REPLAYS[case]
    replay(combiner=combiner, dense=True, **kwargs)
