"""DrawEngine's angular representation of partial-Fourier draws against its
dense one.

Relabelling a Fourier draw partial-unitary (conftest.dense_twin) keeps every
eigenbasis and gives the engine's dense tables; the angular engine must
reproduce their rates to round-off on every path, its diagonal tables must
be the dense tables' diagonals, and the model label alone must pick the
representation.
"""

import numpy as np
import pytest

from mimo_lab.bounds import CHUNK, DL_BOUNDS, UL_BOUNDS, DrawEngine, run_bounds
from mimo_lab.covmodel import (
    CorrelationModel,
    CovarianceProfile,
    InvalidProfile,
    sample_partial_unitary,
    stream,
)

from conftest import dense_twin, full_bases, make_scenario, restricted_bases

POINT = dict(seed=5, L=2, K=3, M=24, r_own=4, snr_db=10.0)

BASES = {
    "own": lambda sc: None,
    "d=3": lambda sc: restricted_bases(sc, 3, stream(9)),
    "I_M": full_bases,
    "distinct I_M": lambda sc: {u: np.eye(sc.M, dtype=complex) for u in sc.users()},
    "M x M unitary": lambda sc: {u: sample_partial_unitary(sc.M, sc.M, stream(10))
                                 for u in sc.users()},
}

# (direction, pilot, combiner, bases, extra run_bounds arguments, scenario overrides)
PATHS = {
    f"{d}-{pilot[:4]}-{combiner}-{which}": (d, pilot, combiner, which, {}, {})
    for d in ("ul", "dl") for pilot in ("orthogonal", "nonorthogonal")
    for combiner in ("mmse", "mf") for which in ("own", "d=3", "I_M", "distinct I_M")
}
PATHS.update({
    "ul-orth-mmse-M x M unitary": ("ul", "orthogonal", "mmse", "M x M unitary", {}, {}),
    "dl-nono-mmse-M x M unitary": ("dl", "nonorthogonal", "mmse", "M x M unitary", {}, {}),
    "conditional-mmse-own": ("ul", "orthogonal", "mmse", "own",
                             dict(conditional_contamination=True), {}),
    "conditional-mf-I_M": ("ul", "orthogonal", "mf", "I_M",
                           dict(conditional_contamination=True), {}),
    "cells-ul": ("ul", "orthogonal", "mmse", "own", dict(cells=[1]), {}),
    "cells-dl": ("dl", "nonorthogonal", "mmse", "d=3", dict(cells=[0]), {}),
    "one-cell-ul": ("ul", "orthogonal", "mmse", "own", {}, dict(L=1)),
    "one-cell-dl-shared-pilot": ("dl", "nonorthogonal", "mmse", "I_M", {}, dict(L=1)),
    # one basis for the cell and q = M <= K: one direct solve per trial
    "shared-direct": ("ul", "orthogonal", "mmse", "I_M", {},
                      dict(L=1, K=5, M=4, r_own=2, T_c=50)),
    "decaying-eigenvalues": ("dl", "orthogonal", "mmse", "d=3", {},
                             dict(eigen_shape="exp_decay", eigen_rate=0.5)),
    # the own links are the padded ones
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
    assert DrawEngine(sc, bases=bases).angular
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
    sc = make_scenario(**POINT)
    haar = make_scenario(model=CorrelationModel.PARTIAL_UNITARY, **POINT)
    tall = {u: sample_partial_unitary(sc.M, 3, stream(12)) for u in sc.users()}
    for scen, bases, angular in [
        (sc, None, True),
        (sc, BASES["d=3"](sc), True),
        (sc, full_bases(sc), True),
        (sc, BASES["distinct I_M"](sc), True),
        (sc, BASES["M x M unitary"](sc), True),
        (sc, tall, False),  # q < M columns that are not DFT columns
        (dense_twin(sc), None, False),
        (dense_twin(sc), full_bases(sc), False),
        (haar, None, False),
        (haar, full_bases(haar), False),
    ]:
        eng = DrawEngine(scen, bases=bases)
        assert eng.angular is angular
        assert (eng.P_own is None) is angular
    # the users of a cell served in the same DFT columns share its basis
    assert DrawEngine(sc, bases=BASES["distinct I_M"](sc)).shared == [True, True]
    assert DrawEngine(sc).shared == [False, False]


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


@pytest.mark.parametrize("direction", ["ul", "dl"])
@pytest.mark.parametrize("pilot", ["orthogonal", "nonorthogonal"])
def test_own_eigenbasis_runs_never_form_a_basis(monkeypatch, direction, pilot):
    # served in their own eigenbases, partial-Fourier runs read only the
    # stored DFT indices: no M x r matrix U is built
    sc = make_scenario(**POINT, pilot=pilot)

    def unread(prof):
        raise AssertionError("CovarianceProfile.U was read")

    monkeypatch.setattr(CovarianceProfile, "U", property(unread))
    bounds = UL_BOUNDS if direction == "ul" else DL_BOUNDS
    reps = run_bounds(sc, direction, bounds, 8, 3)
    assert all(np.isfinite(reps[b].sum_total) for b in bounds)


@pytest.mark.parametrize("direction", ["ul", "dl"])
def test_passes_change_no_statistic(direction):
    # a chunk too large for one pass is evaluated in several; its
    # statistics are bit for bit those of one pass over all its trials
    sc = make_scenario(seed=6, L=3, K=8, M=120, r_own=60, snr_db=10.0)
    split, whole = DrawEngine(sc), DrawEngine(sc)
    whole.span = CHUNK
    assert split.span < CHUNK
    want = {"coherent", "alt"} if direction == "ul" else {"alt"}
    got, ref = (getattr(e, f"{direction}_chunk")(7, 0, CHUNK, [0, 2], want)
                for e in (split, whole))
    for kind in ref:
        for l in ref[kind]:
            for key, value in ref[kind][l].items():
                assert np.array_equal(got[kind][l][key], value), (kind, l, key)
