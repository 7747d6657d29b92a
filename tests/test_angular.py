"""DrawEngine's angular representation of partial-Fourier draws against its
dense one.

Relabelling a Fourier draw partial-unitary (conftest.dense_twin) keeps every
eigenbasis and gives the engine's dense tables; the angular engine must
reproduce their rates to round-off on every path, its diagonal tables must
be the dense tables' diagonals, and the model label alone must pick the
representation.
"""

import tracemalloc

import numpy as np
import pytest

from mimo_lab.bounds import (CHOLESKY_MAX_Q, CHUNK, DL_BOUNDS, UL_BOUNDS, DrawEngine,
                             _AngularEngine, _DenseEngine, _fold_trials, run_bounds)
from mimo_lab.covmodel import (
    CorrelationModel,
    CovarianceProfile,
    InvalidProfile,
    ScenarioConfig,
    build_network,
    dft_matrix,
    sample_partial_unitary,
    stream,
)

import oracle
from conftest import dense_twin, full_bases, make_scenario, restricted_bases, serving_matrices

POINT = dict(seed=5, L=2, K=3, M=24, r_own=4, snr_db=10.0)

BASES = {
    "own": lambda sc: None,
    "d=3": lambda sc: restricted_bases(sc, 3, stream(9)),
    "I_M": full_bases,
}

# (direction, pilot, combiner, bases, extra run_bounds arguments, scenario overrides)
PATHS = {
    f"{d}-{pilot[:4]}-{combiner}-{which}": (d, pilot, combiner, which, {}, {})
    for d in ("ul", "dl") for pilot in ("orthogonal", "nonorthogonal")
    for combiner in ("mmse", "mf") for which in ("own", "d=3", "I_M")
}
PATHS.update({
    "conditional-mmse-own": ("ul", "orthogonal", "mmse", "own",
                             dict(conditional_contamination=True), {}),
    "conditional-mf-I_M": ("ul", "orthogonal", "mf", "I_M",
                           dict(conditional_contamination=True), {}),
    "cells-ul": ("ul", "orthogonal", "mmse", "own", dict(cells=[1]), {}),
    "cells-dl": ("dl", "nonorthogonal", "mmse", "d=3", dict(cells=[0]), {}),
    "one-cell-ul": ("ul", "orthogonal", "mmse", "own", {}, dict(L=1)),
    "one-cell-dl-shared-pilot": ("dl", "nonorthogonal", "mmse", "I_M", {}, dict(L=1)),
    # one basis for the cell and q = M <= K: the rank-K path, one K x K
    # solve per trial
    "shared-direct": ("ul", "orthogonal", "mmse", "I_M", {},
                      dict(L=1, K=5, M=4, r_own=2, T_c=50)),
    "decaying-eigenvalues": ("dl", "orthogonal", "mmse", "d=3", {},
                             dict(eigen_shape="exp_decay", eigen_rate=0.5)),
    # the cross-link blocks wider than the own ones
    "wide-cross-links": ("ul", "nonorthogonal", "mmse", "own", {}, dict(r_cross=6)),
})


def assert_reports_agree(got, want, rel=1e-12):
    assert got.keys() == want.keys()
    for name, b in want.items():
        a = got[name]
        pairs = [(a.sum_total, b.sum_total), (a.stderr, b.stderr)]
        pairs += [(a.per_user[u], v) for u, v in b.per_user.items()]
        pairs += [(a.sum_per_cell[c], v) for c, v in b.sum_per_cell.items()]
        pairs += [(a.mean_sinr[u], v) for u, v in b.mean_sinr.items()]
        if b.sum_total_floored is not None:
            pairs.append((a.sum_total_floored, b.sum_total_floored))
        for x, y in pairs:
            assert x == pytest.approx(y, rel=rel, abs=0.0), name


@pytest.mark.parametrize("path", list(PATHS))
def test_angular_reports_match_dense(path):
    direction, pilot, combiner, which, extra, over = PATHS[path]
    sc = make_scenario(pilot=pilot, **dict(POINT, **over))
    bases = BASES[which](sc)
    bounds = UL_BOUNDS if direction == "ul" else DL_BOUNDS
    assert isinstance(DrawEngine(sc, bases=bases), _AngularEngine)
    got = run_bounds(sc, direction, bounds, 70, 11, combiner, bases=bases, **extra)
    want = run_bounds(dense_twin(sc), direction, bounds, 70, 11, combiner, bases=bases,
                      **extra)
    assert_reports_agree(got, want)


def close(got, want):
    scale = max(float(np.abs(want).max()), 1.0)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


@pytest.mark.parametrize("which", ["own", "d=3"])
@pytest.mark.parametrize("pilot", ["orthogonal", "nonorthogonal"])
def test_angular_tables_are_the_dense_diagonals(pilot, which):
    # in DFT-column serving bases both representations use the same
    # coordinates: every dense table is diagonal and its diagonal is the
    # angular table
    sc = make_scenario(pilot=pilot, eigen_shape="exp_decay", eigen_rate=0.5, **POINT)
    bases = BASES[which](sc)
    conditional = pilot == "orthogonal"
    ang = DrawEngine(sc, conditional_contamination=conditional, bases=bases)
    den = DrawEngine(dense_twin(sc), conditional_contamination=conditional, bases=bases)
    names = ["filt", "err_cov", "nproj_sum", "s_inter", "Z"]
    names += ["contam_filt", "Z_cond"] if conditional else []
    for name in names:
        A, D = getattr(ang, name), getattr(den, name)
        diag = np.diagonal(D, axis1=-2, axis2=-1)
        close(A, diag)
        close(D - np.einsum("...i,ij->...ij", diag, np.eye(ang.q)), np.zeros_like(D))
    assert ang.jittered == den.jittered == ()


def test_model_label_picks_the_representation():
    # the model label alone picks the representation, whatever the serving
    # choice
    sc = make_scenario(**POINT)
    haar = make_scenario(model=CorrelationModel.PARTIAL_UNITARY, **POINT)
    for which in ("own", "d=3", "I_M"):
        for scen, angular in [(sc, True), (dense_twin(sc), False), (haar, False)]:
            assert isinstance(DrawEngine(scen, bases=BASES[which](scen)),
                              _AngularEngine if angular else _DenseEngine)
    # the users of every cell served in the same DFT columns share its basis
    assert DrawEngine(sc, bases=full_bases(sc)).shared is True
    assert DrawEngine(sc).shared is False


@pytest.mark.parametrize("which", ["own", "d=3", "I_M"])
def test_fourier_engines_form_no_dft_matrix(monkeypatch, which):
    # every serving choice is read off the stored DFT indices: no engine
    # forms the M x M DFT matrix, nor any of its columns
    sc = make_scenario(**POINT)
    bases = BASES[which](sc)

    def unformed(M):
        raise AssertionError("DFT matrix formed")

    monkeypatch.setattr("mimo_lab.covmodel.dft_matrix", unformed)
    with pytest.raises(AssertionError, match="DFT matrix formed"):
        sc.profile(0, 0, 0).U
    assert isinstance(DrawEngine(sc, bases=bases), _AngularEngine)
    reps = run_bounds(sc, "dl", DL_BOUNDS, 8, 3, bases=bases)
    assert all(np.isfinite(reps[b].sum_total) for b in DL_BOUNDS)


def test_fourier_label_needs_dft_columns():
    # a Haar basis in a Fourier-labelled draw has no DFT indices
    sc = make_scenario(**POINT)
    prof = sc.profiles[(1, 0, 2)]
    prof.idx, prof.basis = None, sample_partial_unitary(sc.M, sc.r_cross, stream(13))
    with pytest.raises(InvalidProfile):
        DrawEngine(sc)
    # r indices that are not r distinct DFT columns: a duplicate, and one
    # out of [0, M) on either side
    for idx in ([0, 2, 2, 5], [0, 2, 5, 24], [-1, 0, 2, 5]):
        sc = make_scenario(**POINT)
        sc.profiles[(0, 0, 1)].idx = np.array(idx)
        with pytest.raises(InvalidProfile):
            DrawEngine(sc)


@pytest.mark.parametrize("which", ["own", "d=3", "I_M"])
@pytest.mark.parametrize("direction", ["ul", "dl"])
@pytest.mark.parametrize("pilot", ["orthogonal", "nonorthogonal"])
def test_own_eigenbasis_runs_never_form_a_basis(monkeypatch, direction, pilot, which):
    # served in their own eigenbases, d of their columns or I_M,
    # partial-Fourier runs read only the stored DFT indices: no M x r
    # matrix U is built
    sc = make_scenario(**POINT, pilot=pilot)
    bases = BASES[which](sc)

    def unread(prof):
        raise AssertionError("CovarianceProfile.U was read")

    monkeypatch.setattr(CovarianceProfile, "U", property(unread))
    bounds = UL_BOUNDS if direction == "ul" else DL_BOUNDS
    reps = run_bounds(sc, direction, bounds, 8, 3, bases=bases)
    assert all(np.isfinite(reps[b].sum_total) for b in bounds)


@pytest.mark.parametrize("direction", ["ul", "dl"])
def test_passes_change_no_statistic(direction):
    # a chunk too large for one pass is evaluated in several; its
    # statistics are bit for bit those of one pass over all its trials, on
    # the rank-K path (q > K) and on the per-trial solves (q <= K), by
    # Cholesky (q <= CHOLESKY_MAX_Q) and by LU; the last point folds three
    # passes into the chunk's sums
    passes = []
    for point in (dict(K=8, r_own=60), dict(K=20, r_own=CHOLESKY_MAX_Q),
                  dict(K=20, r_own=CHOLESKY_MAX_Q + 2), dict(K=40, r_own=8)):
        sc = make_scenario(seed=6, L=3, M=120, snr_db=10.0, **point)
        split, whole = DrawEngine(sc), DrawEngine(sc)
        whole.span = CHUNK
        assert split.span < CHUNK and not split.shared
        passes.append(-(-CHUNK // split.span))
        want = {"coherent", "alt"} if direction == "ul" else {"alt"}
        got, ref = (getattr(e, f"{direction}_chunk")(7, 0, CHUNK, [0, 2], want)
                    for e in (split, whole))
        for kind in ref:
            for l in ref[kind]:
                for key, value in ref[kind][l].items():
                    assert np.array_equal(got[kind][l][key], value), (point, kind, l, key)
    assert passes[-1] >= 3


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("T", [1, 2, 17])
def test_trial_fold_is_the_row_loop(dtype, T):
    # the chunk's sums over trials add one trial's row at a time to a
    # running total; magnitudes spread over 16 decades make any other order
    # of the additions round differently.  The fold runs into a slice of a
    # wider total, from a transposed view, as the downlink blocks do
    rng = np.random.default_rng(T)

    def spread(*shape):
        x = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
        if dtype is complex:
            x = x + 1j * rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
        return x

    x, total = spread(T, 6, 6), spread(6, 18)
    want = total.copy()
    for row in x.swapaxes(1, 2):
        want[:, 6:12] += row
    _fold_trials(total[:, 6:12], x.swapaxes(1, 2))
    assert np.array_equal(total, want)


def test_fig5_passes_hold_what_they_read():
    # a warm 64-trial chunk at fig5's benchmark shape: its passes hold the
    # table, the estimates and vectors, one cell's systems and one link
    # block at a time (7.95 MiB downlink and 7.78 MiB uplink when a pass
    # joined every cell's link blocks and kept the observations), and no
    # pass spans more trials than then
    sc = build_network(ScenarioConfig(L=7, K=24, M=120, r_own=12, pilot="orthogonal",
                                      snr_db=10.0, pilot_boost=2.0), stream(1, 3))
    eng = DrawEngine(sc)
    assert eng.span <= 18
    cells = list(range(sc.L))
    for direction, want in (("dl", {"alt"}), ("ul", {"coherent", "alt"})):
        chunk = getattr(eng, f"{direction}_chunk")
        chunk(1, 0, CHUNK, cells, want)
        tracemalloc.start()
        try:
            chunk(1, CHUNK, 2 * CHUNK, cells, want)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6.0 * 2 ** 20, (direction, peak / 2 ** 20)


GRAM_CASES = {
    "own-orth": (dict(), None),
    "own-nono": (dict(pilot="nonorthogonal"), None),
    "d=3-orth": (dict(), "d=3"),
    "d=3-nono": (dict(pilot="nonorthogonal"), "d=3"),
    "one-cell-orth": (dict(L=1), None),
    "one-cell-nono-d=3": (dict(L=1, pilot="nonorthogonal"), "d=3"),
    "wide-cross-links": (dict(r_cross=6, pilot="nonorthogonal"), None),
}


def assert_each_trial_close(got, want, rel=1e-12):
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=0, atol=rel * float(np.abs(w).max()))


@pytest.mark.parametrize("case", list(GRAM_CASES))
def test_leave_one_out_grams_match_dense(case):
    # the angular Grams, summed over the matched index pairs only, are the
    # dense twin's sums over every seen estimate, trial by trial, from the
    # same estimates; the draws' own estimates agree to round-off too
    over, which = GRAM_CASES[case]
    sc = make_scenario(eigen_shape="exp_decay", eigen_rate=0.5, **dict(POINT, K=5, **over))
    bases = BASES[which](sc) if which else None
    ang, den = DrawEngine(sc, bases=bases), DrawEngine(dense_twin(sc), bases=bases)
    assert isinstance(ang, _AngularEngine) and isinstance(den, _DenseEngine)
    assert ang.q <= sc.K and ang.gram_ptr is not None
    w_ang = ang._estimates(*ang._draw_chunk(4, 0, 9))[0]
    w_den = den._estimates(*den._draw_chunk(4, 0, 9))[0]
    assert_each_trial_close(w_ang, w_den)
    for l in range(sc.L):
        G = ang._loo_grams(w_den, l)
        assert_each_trial_close(G, den._loo_grams(w_den, l))
        assert_each_trial_close(ang._loo_grams(w_ang, l), G)
        assert np.abs(G).max() > 0


def dft_rotation(sc, B):
    """F^H B: the DFT coordinates of a vector given in the M x M basis B."""
    return dft_matrix(sc.M).conj().T @ B


@pytest.mark.parametrize("which", ["own", "d=3", "I_M"])
@pytest.mark.parametrize("pilot", ["orthogonal", "nonorthogonal"])
def test_observations_match_dense(pilot, which):
    # the pilot observations summed in the served slots are the dense
    # twin's, in DFT coordinates: the same coordinates in DFT-column bases,
    # F^H s in I_M, whose orthogonal-pilot noise the angular draw rotates
    # by an FFT
    sc = make_scenario(pilot=pilot, **POINT)
    bases = BASES[which](sc)
    ang, den = DrawEngine(sc, bases=bases), DrawEngine(dense_twin(sc), bases=bases)
    s_ang = ang._estimates(*ang._draw_chunk(8, 0, 7))[1]
    s_den = den._estimates(*den._draw_chunk(8, 0, 7))[1]
    if which == "I_M":
        B = serving_matrices(sc, bases)
        s_den = np.stack([s_den[:, l, k] @ dft_rotation(sc, B[(l, k)]).T
                          for l, k in sc.users()], axis=1).reshape(s_ang.shape)
    assert_each_trial_close(s_ang, s_den)


def test_orthogonal_pilots_read_only_served_slots():
    # under orthogonal pilots a link adds to the observation only at the
    # DFT indices its pilot's user serves: the plan gathers those entries
    sc = make_scenario(**POINT)
    eng = DrawEngine(sc)
    take = eng.served_take
    assert take.size < np.count_nonzero(eng.supp >= 0)
    served = sum(np.isin(eng.supp[l, :, k], eng.serve[l, k]).sum()
                 for l in range(sc.L) for k in range(sc.K))
    assert take.size == served


@pytest.mark.parametrize("pilot", ["orthogonal", "nonorthogonal"])
def test_per_user_pass_forms_no_seen_estimates(monkeypatch, pilot):
    # the angular per-user MMSE systems (q <= K, cells not shared) are built
    # from the matched products alone, in both directions and for every
    # bound; the MF coherent SINR still reads the seen estimates
    sc = make_scenario(pilot=pilot, **dict(POINT, K=5))
    eng = DrawEngine(sc)
    assert isinstance(eng, _AngularEngine) and eng.q <= sc.K and not eng.shared

    def unseen(*args):
        raise AssertionError("seen estimates formed")

    monkeypatch.setattr(DrawEngine, "_seen_estimates", unseen)
    ul = eng.ul_chunk(5, 0, 6, [0, 1], set(UL_BOUNDS))
    dl = eng.dl_chunk(5, 0, 6, [0, 1], set(DL_BOUNDS))
    assert all(np.isfinite(ul["coherent"][l]["sinr"]).all() for l in (0, 1))
    assert all(np.isfinite(out["_nc"][l][key]).all() for out in (ul, dl) for l in (0, 1)
               for key in ("sig", "ip2_sum"))
    with pytest.raises(AssertionError, match="seen estimates"):
        DrawEngine(sc, combiner="mf").ul_chunk(5, 0, 6, [0], {"coherent"})


def disjoint_block_scenario(pilot):
    """A draw whose BS 0 shares no DFT index with cell 1's links: its
    (BS 0, source cell 1) block matches nothing, and cell 0's users hold
    overlapping, distinct supports."""
    sc = make_scenario(pilot=pilot, **dict(POINT, M=40))
    for (l, c, p), prof in sc.profiles.items():
        if l == 0:
            prof.idx = np.arange(prof.r) + (p if c == 0 else 30 + p)
    return sc


PLAN_CASES = {f"{name}-{which}": (over, which) for name, over in
              [("orth", {}), ("nono", dict(pilot="nonorthogonal")), ("one-cell", dict(L=1))]
              for which in BASES}
PLAN_CASES.update({f"gram-{name}": (over, which or "own") for name, (over, which)
                   in GRAM_CASES.items()})
PLAN_CASES["fig2-full"] = (dict(L=4, K=5, M=100, r_own=8, pilot_boost=2.0), "I_M")


def assert_plans_match_definition(sc, bases, combiner):
    eng = DrawEngine(sc, combiner=combiner, bases=bases)
    ref = oracle.angular_plans(sc, bases)
    for name in ("own_pos", "pairs", "segs", "ptr", "gram_pairs", "gram_segs", "gram_ptr"):
        got, want = getattr(eng, name), ref[name]
        if name.startswith("gram") and (combiner != "mmse" or eng.shared):
            want = None
        if want is None:
            assert got is None, name
        else:
            assert got.dtype == want.dtype and np.array_equal(got, want), name
    # built with the plans exactly where a pass gathers seen estimates
    gathers = not eng.shared and (eng.q > sc.K or combiner == "mf")
    assert (eng.est_pos is not None) == gathers
    if gathers:
        assert eng.est_pos.dtype == np.intp and np.array_equal(eng.est_pos, ref["est_pos"])
    return eng


@pytest.mark.parametrize("combiner", ["mmse", "mf"])
@pytest.mark.parametrize("case", list(PLAN_CASES))
def test_plans_match_their_definition(case, combiner):
    # every index plan, bytewise, against loops over its definition
    over, which = PLAN_CASES[case]
    sc = make_scenario(eigen_shape="exp_decay", eigen_rate=0.5, **dict(POINT, K=5) | over)
    eng = assert_plans_match_definition(sc, BASES[which](sc), combiner)
    if case == "fig2-full":
        assert eng.shared


@pytest.mark.parametrize("combiner", ["mmse", "mf"])
@pytest.mark.parametrize("pilot", ["orthogonal", "nonorthogonal"])
def test_plans_match_their_definition_with_an_empty_block(pilot, combiner):
    sc = disjoint_block_scenario(pilot)
    eng = assert_plans_match_definition(sc, None, combiner)
    (p0, p1), (s0, s1) = eng.ptr[:, 1:3]
    assert p0 == p1 and s0 == s1 and not eng.shared


def mixed_cells_scenario(pilot, K):
    """A draw whose cell 0 users all store one DFT support and whose cell 1
    users do not: its own eigenbases serve every user of cell 0 in the same
    columns."""
    sc = make_scenario(pilot=pilot, **dict(POINT, M=40, K=K))
    for (l, c, p), prof in sc.profiles.items():
        if l == c == 0:
            prof.idx = np.arange(prof.r) + 5
    return sc


@pytest.mark.parametrize("K", [3, 5], ids=["rank-K", "per-user"])
@pytest.mark.parametrize("pilot", ["orthogonal", "nonorthogonal"])
def test_sharing_is_decided_once_per_engine(monkeypatch, pilot, K):
    # one cell whose users share their columns does not make the engine
    # shared: every cell takes the per-user-basis path (rank-K at q > K,
    # per-user systems at q <= K), its plans are as defined, and the rates
    # are the dense twin's in both directions
    sc = mixed_cells_scenario(pilot, K)
    eng = assert_plans_match_definition(sc, None, "mmse")
    assert (eng.serve[0] == eng.serve[0, :1]).all() and (eng.serve[1] != eng.serve[1, :1]).any()
    assert eng.shared is False
    calls = []
    for name in ("_seen_estimates", "_loo_grams"):
        def spy(self, w_hat, l, _name=name, _method=getattr(_AngularEngine, name)):
            out = _method(self, w_hat, l)
            # the seen estimates of a cell: one basis per user unless shared
            calls.append((_name, l, out.shape[2] if _name == "_seen_estimates" else None))
            return out
        monkeypatch.setattr(_AngularEngine, name, spy)
    for direction, bounds in (("ul", UL_BOUNDS), ("dl", DL_BOUNDS)):
        got = run_bounds(sc, direction, bounds, 70, 11)
        assert_reports_agree(got, run_bounds(dense_twin(sc), direction, bounds, 70, 11))
    path = ("_seen_estimates", K) if eng.q > K else ("_loo_grams", None)
    assert set(calls) == {(path[0], l, path[1]) for l in (0, 1)}


@pytest.mark.parametrize("over, bases", [(dict(K=1), None), (dict(M=8, r_own=8), None),
                                         ({}, "full")], ids=["K=1", "r=M", "full"])
def test_one_set_of_columns_per_cell_stays_shared(over, bases):
    eng = DrawEngine(make_scenario(**dict(POINT, **over)), bases=bases)
    assert eng.shared is True and eng.gram_ptr is None and eng.est_pos is None


def test_default_mmse_engine_holds_no_seen_estimate_plan():
    # the per-user MMSE engine plans its Grams but never gathers seen
    # estimates: no table of L K K q entries, before or after its passes
    sc = make_scenario(seed=2, L=3, K=64, M=320, r_own=4, snr_db=10.0, pilot="nonorthogonal")
    eng = DrawEngine(sc)
    assert eng.gram_ptr is not None and eng.q <= sc.K
    eng.ul_chunk(1, 0, 4, [0, 2], set(UL_BOUNDS))
    eng.dl_chunk(1, 0, 4, [1], set(DL_BOUNDS))
    assert eng.est_pos is None
    big = sc.L * sc.K * sc.K * eng.q
    assert max(v.size for v in vars(eng).values() if isinstance(v, np.ndarray)) < big
    # MF, and a serving map with q > K, gather seen estimates: est_pos is
    # one of their tables, as defined
    small = make_scenario(**dict(POINT, r_own=6))
    for scen, combiner, bases in [(sc, "mf", None),
                                  (small, "mmse", restricted_bases(small, 4, stream(9)))]:
        eng = DrawEngine(scen, combiner=combiner, bases=bases)
        assert eng.q > scen.K or combiner == "mf"
        assert eng.est_pos is not None
        assert np.array_equal(eng.est_pos, oracle.angular_plans(scen, bases)["est_pos"])
