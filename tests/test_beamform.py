import numpy as np
import pytest

from mimo_lab.beamform import (
    cell_precoders,
    matched_filter,
    mmse_combiner,
    mmse_precoder,
    precoder_to_antenna,
    restrict_support,
)
from mimo_lab.bounds import run_bounds
from mimo_lab.channel import realize_block
from mimo_lab.covmodel import CorrelationModel, stream
from mimo_lab.training import ChannelEstimate, EstimatorBank, observe

from conftest import full_bases, make_scenario, restricted_bases, single_link_scenario


def _est(vec):
    r = len(vec)
    return ChannelEstimate(w_hat=np.asarray(vec, dtype=complex),
                           phi=np.eye(r), err_cov=np.zeros((r, r)))


class TestMatchedFilter:
    def test_basis_vector(self):
        v = matched_filter(_est(np.eye(4)[:, 0])).v
        assert np.allclose(v, np.eye(4)[:, 0])

    def test_linearity(self):
        w = np.array([1.0 + 1j, -2.0, 0.5j])
        a = matched_filter(_est(3.0 * w)).v
        assert np.allclose(a, 3.0 * matched_filter(_est(w)).v)


class TestMmseCombiner:
    def test_single_user_high_power_reduces_to_mf(self):
        w = np.array([1.0, 2.0 - 1j, 0.3j, -0.5])
        v = mmse_combiner([w], 0, np.zeros((4, 4)), 1e12).v
        cos = abs(np.vdot(v, w)) / (np.linalg.norm(v) * np.linalg.norm(w))
        assert cos > 1 - 1e-9

    def test_orthogonal_estimates_decouple(self):
        w1 = np.eye(4)[:, 0].astype(complex)
        w2 = np.eye(4)[:, 1].astype(complex)
        v1 = mmse_combiner([w1, w2], 0, np.zeros((4, 4)), 10.0).v
        assert abs(np.vdot(v1, w2)) < 1e-9

    def test_sinr_scale_invariance(self):
        # replacing v by c v leaves the evaluated SINR unchanged
        g = stream(33)
        w_hat = g.standard_normal(5) + 1j * g.standard_normal(5)
        others = g.standard_normal((3, 5)) + 1j * g.standard_normal((3, 5))
        C = np.eye(5) * 0.3
        def sinr(v):
            num = abs(np.vdot(v, w_hat)) ** 2
            den = np.vdot(v, C @ v).real + sum(
                abs(np.vdot(v, o)) ** 2 for o in others) + np.vdot(v, v).real / 10.0
            return num / den
        v = mmse_combiner([w_hat] + list(others), 0, C, 10.0).v
        assert abs(sinr(v) - sinr(3.7j * v)) / sinr(v) < 1e-9


class TestMmsePrecoder:
    def test_single_user_high_power_is_transmit_mf(self):
        w = np.array([0.5, 1.0 + 0.2j, -2.0])
        g = mmse_precoder([w], 0, np.zeros((3, 3)), 1e12).g
        cos = abs(np.vdot(g, w)) / np.linalg.norm(w)
        assert cos > 1 - 1e-9

    def test_power_constraint(self):
        sc = make_scenario(seed=3, L=2, K=3, M=32, r_own=4)
        bank = EstimatorBank.build(sc)
        block = realize_block(sc, stream(4))
        ests = {u: bank.users[u].estimate(s)
                for u, s in observe(block, sc, stream(5)).items()}
        for k, prec in cell_precoders(sc, bank, ests, 0).items():
            p = precoder_to_antenna(sc, 0, k, prec)
            # ||U g||^2 E|d|^2 == P_dl / K with unit-norm spread precoder
            assert abs(np.linalg.norm(p) ** 2 * prec.p_norm - sc.P_dl_per_user) < 1e-9

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
