import numpy as np
import pytest

from mimo_lab.bounds import DrawEngine, run_bounds
from mimo_lab.covmodel import CorrelationModel, stream
from mimo_lab.harness import restrict_support

from conftest import full_bases, make_scenario, restricted_bases, single_link_scenario


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
        v, Y = eng._beamformer(w_hat, 0, 1.0)
        assert np.allclose(v[0, 0], np.eye(4)[0])
        assert Y is None


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
        # replacing v by c v leaves the evaluated coherent SINR unchanged
        sc = make_scenario(seed=33, L=2, K=4, M=32, r_own=5)
        sinr = DrawEngine(sc).ul_chunk(33, 0, 8, [0, 1], {"coherent"})["coherent"]
        unit = DrawEngine._beamformer

        def scaled(self, w_hat, l, power):
            v, Y = unit(self, w_hat, l, power)
            return 3.7j * v, Y

        monkeypatch.setattr(DrawEngine, "_beamformer", scaled)
        again = DrawEngine(sc).ul_chunk(33, 0, 8, [0, 1], {"coherent"})["coherent"]
        for l in (0, 1):
            np.testing.assert_allclose(again[l]["sinr"], sinr[l]["sinr"], rtol=1e-9)


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
        U = np.eye(8)[:, :4]
        Ud = restrict_support(U, 2, stream(6))
        assert Ud.shape == (8, 2)
        with pytest.raises(ValueError):
            restrict_support(U, 5, stream(7))


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
