"""Fading draws, despreading and cross-projections as DrawEngine makes them;
angular-support overlaps and the concentration of random projections."""

import re
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from mimo_lab.bounds import DrawEngine
from mimo_lab.covmodel import (
    CorrelationModel,
    InvalidProfile,
    complex_gaussian,
    sample_partial_fourier,
    sample_partial_unitary,
    stream,
)

from conftest import dense_twin, full_bases, make_scenario, single_link_scenario


def own_bases(sc):
    """All of each user's eigencolumns, as kept positions: the engine then
    computes its own-link projections U^H U instead of taking them as the
    identity."""
    return {u: np.arange(sc.r_own) for u in sc.users()}


class TestRealizeBlock:
    def test_scalar_channel_second_moment(self):
        sc = single_link_scenario([4.0])
        eng = DrawEngine(sc)
        w, _ = eng._draw_chunk(31, 0, 10_000)
        vals = np.abs(eng._block(w, 0, 0)[:, 0, 0]) ** 2
        assert abs(vals.mean() - 4.0) / 4.0 < 0.05

    def test_parseval_per_link(self):
        # in I_M serving bases a link's table entry is its own basis U, so
        # the seen channel is the M-dimensional U w
        sc = dense_twin(make_scenario(L=2, K=2, M=32, r_own=4))
        eng = DrawEngine(sc, bases=full_bases(sc))
        w, _ = eng._draw_chunk(37, 0, 1)
        for l, k in sc.users():
            own = eng._block(w, l, l)[0, k]
            x_own = eng._own_channels(w, l)[0, k]
            assert abs(np.linalg.norm(x_own) - np.linalg.norm(own)) < 1e-10
            for i, lp in enumerate(eng.xcells[l]):
                x = eng._block(w, l, lp)[0, k]
                h = eng.P_x[l, i, k, 0] @ x
                assert abs(np.linalg.norm(h) - np.linalg.norm(x)) < 1e-10

    def test_fig3_energy(self):
        # tr Lambda = M = 200 under the strong regime
        sc = make_scenario(L=1, K=1, M=200, r_own=10)
        eng = DrawEngine(sc)
        w, _ = eng._draw_chunk(41, 0, 1000)
        vals = np.linalg.norm(eng._block(w, 0, 0)[:, 0], axis=-1) ** 2
        assert abs(np.mean(vals) - 200.0) / 200.0 < 0.05


class TestTrialStreams:
    def test_trials_are_independent(self):
        # 4,000 single-trial chunks of one link with unit eigenvalues: each
        # of the row's 64 floats is N(0, 1/2).  Each one's mean over the
        # trials lies within 5 standard errors of 0, and its lag-1
        # correlation across trials within 5 / sqrt(T).  Jointly, the 64
        # squared z-scores of the means sum to a chi-squared variate with
        # 64 degrees of freedom: trials keyed by a shift of one PCG64
        # stream (advance(t << 64)) inflate it to 150-290 at base seeds 1 to
        # 15, while each of their z-scores may stay below 5
        sc = single_link_scenario(np.ones(16))
        eng = DrawEngine(sc)
        T = 4000
        x = np.concatenate([eng._draw_chunk(3, t, t + 1)[0] for t in range(T)]).view(float)
        assert x.shape == (T, 64)
        mean = x.mean(axis=0)
        z = mean / (x.std(axis=0, ddof=1) / np.sqrt(T))
        assert (np.abs(z) <= 5.0).all()
        assert (z ** 2).sum() <= stats.chi2.ppf(1.0 - 1e-6, z.size)
        d = x - mean
        lag1 = (d[1:] * d[:-1]).sum(axis=0) / (d * d).sum(axis=0)
        assert (np.abs(lag1) <= 5.0 / np.sqrt(T)).all()


class TestDespreadSpread:
    def test_despread_recovers_effective_channel(self):
        sc = make_scenario(L=2, K=2, M=16, r_own=4, model=CorrelationModel.PARTIAL_UNITARY)
        eng = DrawEngine(sc, bases=own_bases(sc))
        w, _ = eng._draw_chunk(3, 0, 1)
        for l in range(sc.L):
            assert np.max(np.abs(eng._own_channels(w, l) - eng._block(w, l, l))) < 1e-12

    def test_nullspace_despreads_to_zero(self):
        # the other cell's channel lies in the null space of the user's basis
        # U: with no pilot noise, the despread observation is the own channel
        sc = make_scenario(L=2, K=1, M=16, r_own=4, r_cross=1,
                           model=CorrelationModel.PARTIAL_UNITARY)
        U = sample_partial_unitary(16, 4, stream(4))
        x = complex_gaussian(stream(5), 16)
        y = x - U @ (U.conj().T @ x)
        sc.profiles[(0, 0, 0)].basis = U
        sc.profiles[(0, 1, 0)].basis = (y / np.linalg.norm(y))[:, None]
        eng = DrawEngine(sc)
        w, noise = eng._draw_chunk(5, 0, 1)
        s = eng._estimates(w, np.zeros_like(noise))[1]
        assert np.max(np.abs(s[0, 0, 0] - eng._own_channels(w, 0)[0, 0])) < 1e-10

    def test_fourier_despread_matches_fft(self):
        # the shared pilot's noise snapshot, despread by the user's basis
        sc = make_scenario(L=1, K=1, M=32, r_own=5, pilot="nonorthogonal")
        eng = DrawEngine(sc)
        _, noise = eng._draw_chunk(7, 0, 1)
        # trial 0's row: one draw of (re, im) pairs, the K x r fading block
        # of the one link, then z, scaled by 1 / sqrt(2)
        n_w = sc.K * sc.r_own
        row = stream(7, 1, 0).standard_normal(2 * (n_w + sc.M)).view(complex)
        z = row[n_w:] * (1.0 / np.sqrt(2.0))
        idx = sc.profile(0, 0, 0).idx
        expect = np.fft.fft(z)[idx] / np.sqrt(sc.M)
        assert np.max(np.abs(noise[0, 0, 0] - expect)) < 1e-10


# serving choices DrawEngine refuses, and the user its error names
BAD_CHOICES = {
    "unknown string": ("eye", "every user"),
    "missing user": ({(0, 0): [0, 2]}, "user (0, 1)"),
    "unsorted": ({(0, 0): [0, 2], (0, 1): [2, 0]}, "user (0, 1)"),
    "repeated": ({(0, 0): [1, 1], (0, 1): [0, 2]}, "user (0, 0)"),
    "negative": ({(0, 0): [0, 2], (0, 1): [-1, 2]}, "user (0, 1)"),
    "past r": ({(0, 0): [0, 3], (0, 1): [0, 2]}, "user (0, 0)"),
    "empty": ({(0, 0): [], (0, 1): []}, "user (0, 0)"),
    "different d": ({(0, 0): [0, 2], (0, 1): [1]}, "user (0, 1)"),
    "not integers": ({(0, 0): [0.0, 2.0], (0, 1): [0, 2]}, "user (0, 0)"),
    "M x q matrix": ({(0, 0): np.eye(8)[:, :2], (0, 1): np.eye(8)[:, :2]}, "user (0, 0)"),
    # every user valid, and a key for a user of a larger network
    "unknown user": ({(0, 0): [0, 2], (0, 1): [1, 2], (3, 7): [0]}, "key (3, 7)"),
}


@pytest.mark.parametrize("model", list(CorrelationModel), ids=lambda m: m.value)
@pytest.mark.parametrize("case", list(BAD_CHOICES))
def test_bad_serving_choice_names_the_user(case, model):
    sc = make_scenario(L=1, K=2, M=8, r_own=3, model=model)
    bases, user = BAD_CHOICES[case]
    with pytest.raises(ValueError, match=re.escape(user)):
        DrawEngine(sc, bases=bases)
    # the same positions, sorted, distinct and of one d, are served
    assert DrawEngine(sc, bases={(0, 0): [0, 2], (0, 1): [1, 2]}).q == 2


class TestCrossChannel:
    def test_identity_projection(self):
        sc = make_scenario(L=1, K=3, M=16, r_own=4, model=CorrelationModel.PARTIAL_UNITARY)
        eng = DrawEngine(sc, bases=own_bases(sc))
        for k in range(sc.K):
            assert np.max(np.abs(eng.P_own[0, k, k] - np.eye(4))) < 1e-10

    def test_disjoint_supports_give_zero(self):
        sc = make_scenario(L=2, K=1, M=32, r_own=4, r_cross=4)
        for i, key in enumerate(sorted(sc.profiles)):
            sc.profiles[key].idx = np.arange(4 * i, 4 * i + 4)
        assert np.max(np.abs(DrawEngine(dense_twin(sc)).P_x)) < 1e-12

    def test_projection_never_grows(self):
        # 50 cross-projections U_a^H U_b of Haar bases: no singular value
        # above 1, so no seen channel is longer than the channel itself
        sc = make_scenario(seed=14, L=2, K=5, M=24, r_own=5, r_cross=3,
                           model=CorrelationModel.PARTIAL_UNITARY)
        assert np.linalg.svd(DrawEngine(sc).P_x, compute_uv=False).max() <= 1 + 1e-12

    def test_contamination_suppression_mean(self):
        # E||U_a^H U_b w||^2 = (r / M) tr Lambda_b for Haar bases: the
        # cross-cell covariance table s_inter over 392 basis pairs
        M, r = 256, 16
        sc = make_scenario(seed=15, L=2, K=14, M=M, r_own=r, r_cross=r,
                           model=CorrelationModel.PARTIAL_UNITARY)
        eng = DrawEngine(sc)
        ratios = []
        for l, k in sc.users():
            energy = sum(sc.profile(l, lp, p).energy for lp in eng.xcells[l]
                         for p in range(sc.K))
            ratios.append(np.trace(eng.s_inter[l, k]).real / energy)
        target = r / M
        assert abs(np.mean(ratios) - target) / target < 0.12


def angular_overlap(a, b):
    """Number of DFT columns shared by two partial Fourier supports."""
    return len(np.intersect1d(a, b))


class TestAngularOverlap:
    def test_identical_and_disjoint(self):
        a = sample_partial_fourier(64, 8, stream(16))
        assert angular_overlap(a, a) == 8
        free = sorted(set(range(64)) - set(a))[:8]
        assert angular_overlap(a, np.array(free)) == 0

    def test_expected_overlap_hypergeometric(self):
        M, r, draws = 64, 8, 10_000
        g = stream(17)
        tot = 0
        for _ in range(draws):
            a = sample_partial_fourier(M, r, g)
            b = sample_partial_fourier(M, r, g)
            tot += angular_overlap(a, b)
        assert abs(tot / draws - r * r / M) / (r * r / M) < 0.10

    def test_rejects_unitary_model(self):
        # a partial-unitary draw has no angular support: labelled
        # partial-Fourier, the engine refuses it
        sc = make_scenario(seed=18, L=2, K=2, M=16, r_own=3,
                           model=CorrelationModel.PARTIAL_UNITARY)
        assert all(prof.idx is None for prof in sc.profiles.values())
        with pytest.raises(InvalidProfile):
            DrawEngine(replace(sc, model=CorrelationModel.PARTIAL_FOURIER))


class TestConcentrationProperties:
    def test_hardening_rate_in_dimension(self):
        # sample std of ||w||^2 / tr Lambda shrinks like r^{-1/2}
        g = stream(20)
        stds = {}
        for r in (64, 256):
            lam = np.full(r, 1.0)
            w2 = (np.abs(complex_gaussian(g, 12_000, r)) ** 2 * lam).sum(axis=1)
            stds[r] = (w2 / r).std(ddof=1)
        ratio = stds[64] / stds[256]
        assert 1.6 <= ratio <= 2.6

    def test_quadratic_form_vanishing(self):
        r, trials = 256, 4000
        g = stream(21)
        x = complex_gaussian(g, trials, r)
        y = complex_gaussian(g, trials, r)
        vals = np.abs(np.einsum("ti,ti->t", x.conj(), y)) ** 2 / r ** 2
        assert vals.mean() < 1.0 / 128

    def test_cross_projection_concentration_improves_with_m(self):
        # max entry deviation of U^H V V^H U from (r/M) I shrinks >= 2x
        r, trials = 8, 60
        devs = {}
        for M in (128, 512):
            g = stream(22, M)
            acc = 0.0
            for _ in range(trials):
                U = sample_partial_unitary(M, r, g)
                V = sample_partial_unitary(M, r, g)
                W = U.conj().T @ V
                acc += np.max(np.abs(W @ W.conj().T - (r / M) * np.eye(r)))
            devs[M] = acc / trials
        assert devs[512] <= devs[128] / 2.0
