import numpy as np
import pytest

from mimo_lab import bounds
from mimo_lab.bounds import CHOLESKY_MAX_Q, DrawEngine, run_bounds
from mimo_lab.covmodel import CorrelationModel, stream
from mimo_lab.harness import restrict_support

from conftest import full_bases, make_scenario, restricted_bases, single_link_scenario

FOURIER, HAAR = CorrelationModel.PARTIAL_FOURIER, CorrelationModel.PARTIAL_UNITARY


def cell_vectors(sc, seed, power, bases=None):
    """Cell 0's unit-norm MMSE combiners (or precoders) and estimates of one
    trial, [1, K, q]."""
    eng = DrawEngine(sc, bases=bases)
    w_hat = eng._estimates(*eng._draw_chunk(seed, 0, 1))[0]
    return eng._beamformer(w_hat, 0, power)[0], w_hat[:, 0]


def exact_direction_error(sc, seed, power):
    """Distance, up to a phase, of user (0, 0)'s unit MMSE vector from the
    exact single-user direction (Z + I/p)^{-1} w_hat, which the inversion
    lemma gives for K = 1."""
    eng = DrawEngine(sc)
    w_hat = eng._estimates(*eng._draw_chunk(seed, 0, 1))[0]
    v = eng._beamformer(w_hat, 0, power)[0][0, 0]
    x = np.linalg.solve(eng.Z[0, 0] + np.eye(eng.q) / power, w_hat[0, 0, 0])
    x /= np.linalg.norm(x)
    phase = np.vdot(x, v)
    return np.linalg.norm(v - phase / abs(phase) * x)


class TestMatchedFilter:
    def test_basis_vector(self):
        eng = DrawEngine(single_link_scenario(np.ones(4)), combiner="mf")
        w_hat = np.eye(4, dtype=complex)[None, None, :1]  # [T, L, K, q]
        v, Y, sinr = eng._beamformer(w_hat, 0, 1.0, sinr=True)
        assert np.allclose(v[0, 0], np.eye(4)[0])
        assert Y is None and sinr is None


class TestMmseCombiner:
    def test_single_user_high_power_reduces_to_mf(self):
        # noiseless pilot: Z is the vanishing estimation error.  At power
        # 1e12, Z ~ 1e-12 I is as large as I/p, so even the exact MMSE
        # direction is up to 1.2e-9 short of the estimate's: 1e6 here, and
        # the direction itself at 1e12 below
        sc = single_link_scenario([1.0, 2.0, 0.3, 0.5], boost=1e12)
        v, w = cell_vectors(sc, 1, 1e6)
        cos = abs(np.vdot(v[0, 0], w[0, 0])) / np.linalg.norm(w[0, 0])
        assert cos > 1 - 1e-9

    def test_single_user_power_1e12_is_exact_mmse_direction(self):
        sc = single_link_scenario([1.0, 2.0, 0.3, 0.5], boost=1e12)
        for seed in range(1, 6):
            assert exact_direction_error(sc, seed, 1e12) < 1e-9

    def test_orthogonal_estimates_decouple(self):
        # one cell, disjoint Fourier supports, I_M serving bases: user 0's
        # combiner is orthogonal to user 1's estimate
        sc = make_scenario(seed=2, L=1, K=2, M=16, r_own=4)
        for k in range(2):
            sc.profiles[(0, 0, k)].idx = np.arange(4 * k, 4 * k + 4)
        v, w = cell_vectors(sc, 3, 10.0, bases=full_bases(sc))
        assert abs(np.vdot(v[0, 0], w[0, 1])) < 1e-9

    def test_sinr_scale_invariance(self, monkeypatch):
        # replacing v by c v leaves the evaluated coherent SINR unchanged.
        # MF: the MMSE coherent SINR of per-user systems reads no vectors
        sc = make_scenario(seed=33, L=2, K=4, M=32, r_own=5)
        sinr = DrawEngine(sc, combiner="mf").ul_chunk(33, 0, 8, [0, 1], {"coherent"})
        unit, calls = DrawEngine._beamformer, []

        def scaled(self, *args, **kwargs):
            calls.append(None)
            v, Y, s = unit(self, *args, **kwargs)
            return 3.7j * v, Y, s

        monkeypatch.setattr(DrawEngine, "_beamformer", scaled)
        again = DrawEngine(sc, combiner="mf").ul_chunk(33, 0, 8, [0, 1], {"coherent"})
        assert len(calls) == 2
        for l in (0, 1):
            np.testing.assert_allclose(again["coherent"][l]["sinr"],
                                       sinr["coherent"][l]["sinr"], rtol=1e-9)


class TestLeaveOneOut:
    """Per-user MMSE systems leave the user's own estimate out: the coherent
    SINR |v^H w_k|^2 / (v^H G_k v) of the MMSE vector is w_k^H G_k^{-1} w_k,
    which the engine reads off the solve without forming the vectors."""

    @pytest.mark.parametrize("model", [HAAR, FOURIER], ids=["haar", "fourier"])
    @pytest.mark.parametrize("pilot", ["orthogonal", "nonorthogonal"])
    @pytest.mark.parametrize("q", [4, CHOLESKY_MAX_Q + 2], ids=["cholesky", "lu"])
    def test_identity_matches_the_explicit_formula(self, model, pilot, q):
        sc = make_scenario(seed=41, L=2, K=CHOLESKY_MAX_Q + 4, M=48, r_own=q, snr_db=15.0,
                           model=model, pilot=pilot)
        eng = DrawEngine(sc)
        assert q <= sc.K and not any(eng.shared)
        w_hat, s_obs = eng._estimates(*eng._draw_chunk(7, 0, 5))
        for l in range(sc.L):
            v, Y, sinr = eng._beamformer(w_hat, l, sc.P_ul, sinr=True)
            assert Y is None and sinr.shape == (5, sc.K)
            explicit = eng._coherent_sinr(w_hat, l, v, None, s_obs)
            np.testing.assert_allclose(sinr, explicit, rtol=1e-12, atol=0)
            # the vectors do not depend on whether the SINR was asked for
            alone, _, no_sinr = eng._beamformer(w_hat, l, sc.P_ul)
            assert no_sinr is None
            np.testing.assert_array_equal(alone, v)
            # nor does the SINR on whether the vectors were
            none, _, again = eng._beamformer(w_hat, l, sc.P_ul, vectors=False, sinr=True)
            assert none is None
            np.testing.assert_array_equal(again, sinr)

    def test_coherent_only_pass_forms_no_vectors(self, monkeypatch):
        # a coherent-only MMSE pass on per-user Cholesky systems never runs
        # the back substitution; a pass that reads the vectors does
        sc = make_scenario(seed=42, L=2, K=6, M=40, r_own=4, model=HAAR)
        eng = DrawEngine(sc)
        assert eng.q <= min(sc.K, CHOLESKY_MAX_Q) and not any(eng.shared)

        def no_back_substitution(*args):
            raise AssertionError("back substitution in a coherent-only pass")

        monkeypatch.setattr(bounds, "back_substitute", no_back_substitution)
        out = eng.ul_chunk(3, 0, 6, [0, 1], {"coherent"})
        assert all(np.isfinite(out["coherent"][l]["sinr"]).all() for l in (0, 1))
        with pytest.raises(AssertionError, match="back substitution"):
            eng.ul_chunk(3, 0, 6, [0, 1], {"coherent", "alt"})

    def test_forced_jitter_is_recorded_and_finite(self):
        # a noiseless pilot in one cell leaves Z ~ 1e-16; at power 1e16 the
        # leave-one-out system is the other user's rank-one y y^H plus
        # ~1e-16 I, below the guard's threshold: it is jittered, the user
        # recorded, and the SINR (of the regularised system) finite
        sc = make_scenario(seed=43, L=1, K=2, M=16, r_own=2, snr_db=163.0,
                           pilot_boost=1e16, model=HAAR)
        eng = DrawEngine(sc)
        coherent = eng.ul_chunk(4, 0, 8, [0], {"coherent"})["coherent"][0]
        assert (0, 0) in eng.beam_jittered
        assert np.isfinite(coherent["sinr"]).all() and (coherent["sinr"] > 0).all()


class TestMmsePrecoder:
    def test_single_user_high_power_is_transmit_mf(self):
        sc = single_link_scenario([0.5, 1.0, 2.0], boost=1e12)
        g, w = cell_vectors(sc, 2, 1e6)
        cos = abs(np.vdot(g[0, 0], w[0, 0])) / np.linalg.norm(w[0, 0])
        assert cos > 1 - 1e-9

    def test_single_user_power_1e12_is_exact_mmse_direction(self):
        sc = single_link_scenario([0.5, 1.0, 2.0], boost=1e12)
        for seed in range(1, 6):
            assert exact_direction_error(sc, seed, 1e12) < 1e-9

    def test_power_constraint(self):
        # unit-norm precoders: ||g||^2 P_dl / K is each user's share, in
        # the own eigenbases and spread over I_M alike
        sc = make_scenario(seed=3, L=2, K=3, M=32, r_own=4)
        for bases in (None, full_bases(sc)):
            g, _ = cell_vectors(sc, 4, sc.P_dl_per_user, bases=bases)
            assert np.max(np.abs(np.linalg.norm(g, axis=-1) ** 2 * sc.P_dl_per_user
                                 - sc.P_dl_per_user)) < 1e-9

    def test_restrict_support(self):
        # the sorted positions of one draw of d of the r columns
        cols = restrict_support(4, 2, stream(6))
        assert np.array_equal(cols, np.sort(stream(6).choice(4, size=2, replace=False)))
        assert cols.shape == (2,) and 0 <= cols[0] < cols[1] < 4
        with pytest.raises(ValueError):
            restrict_support(4, 5, stream(7))


class TestCombinerQuality:
    def test_mmse_at_least_mf(self):
        sc = make_scenario(seed=8, L=2, K=4, M=64, r_own=8, snr_db=10.0,
                           model=CorrelationModel.PARTIAL_FOURIER)
        rep_mmse = run_bounds(sc, "ul", ("coherent",), 150, 99, "mmse")["coherent"]
        rep_mf = run_bounds(sc, "ul", ("coherent",), 150, 99, "mf")["coherent"]
        for u in rep_mmse.per_user:
            assert rep_mmse.per_user[u] >= rep_mf.per_user[u] - 1e-9

    def test_mf_sinr_limit_small(self):
        # L = K = 1, noiseless pilot, P_ul = 1: mean post-combining SINR is
        # P_ul tr Lambda regardless of hardening
        sc = single_link_scenario(np.full(16, 2.0), M=64, boost=1e12)
        rep = run_bounds(sc, "ul", ("coherent",), 400, 5, "mf")["coherent"]
        assert abs(rep.mean_sinr[(0, 0)] - 32.0) / 32.0 < 0.10


def _alt_dl(sc, trials, seed, bases=None):
    return run_bounds(sc, "dl", ("alt",), trials, seed, bases=bases)["alt"]


@pytest.mark.slow
class TestFulldimBaseline:
    def test_fig2_lowdim_tracks_fulldim(self):
        sc = make_scenario(seed=9, L=4, K=5, M=100, r_own=8, snr_db=10.0,
                           model=CorrelationModel.PARTIAL_FOURIER)
        alt_full = _alt_dl(sc, 120, 3, full_bases(sc))
        alt_low = _alt_dl(sc, 120, 3, restricted_bases(sc, 8, stream(3, 3)))
        per_cell_full = alt_full.sum_total / sc.L
        per_cell_low = alt_low.sum_total / sc.L
        assert abs(per_cell_low - per_cell_full) / per_cell_full < 0.15

    def test_data_processing_ordering(self):
        sc = make_scenario(seed=10, L=4, K=5, M=100, r_own=8, snr_db=10.0,
                           model=CorrelationModel.PARTIAL_FOURIER)
        alt_full = _alt_dl(sc, 120, 4, full_bases(sc))
        alt_low = _alt_dl(sc, 120, 4, restricted_bases(sc, 8, stream(4, 3)))
        slack = 3 * (alt_full.stderr + alt_low.stderr)
        assert alt_full.sum_total >= alt_low.sum_total - slack

    def test_d_restricted_spreading_loses_rate(self):
        sc = make_scenario(seed=11, L=4, K=5, M=100, r_own=8, snr_db=20.0,
                           model=CorrelationModel.PARTIAL_FOURIER)
        alt_d8 = _alt_dl(sc, 120, 5, restricted_bases(sc, 8, stream(5, 3)))
        alt_d4 = _alt_dl(sc, 120, 5, restricted_bases(sc, 4, stream(5, 3)))
        assert alt_d4.sum_total < alt_d8.sum_total

    def test_single_user_noiseless_fulldim_matches_lowdim(self):
        sc = single_link_scenario(np.full(6, 4.0), M=48, snr_db=3.0, boost=1e10,
                                  model=CorrelationModel.PARTIAL_FOURIER)
        alt_full = _alt_dl(sc, 250, 6, full_bases(sc))
        alt_low = _alt_dl(sc, 250, 6)  # d = r: the own eigenbasis
        slack = 3 * (alt_full.stderr + alt_low.stderr) + 0.02 * alt_full.sum_total
        assert abs(alt_full.sum_total - alt_low.sum_total) <= slack
