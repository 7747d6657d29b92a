import math

import numpy as np
import pytest
from scipy import integrate, stats

from mimo_lab.bounds import (
    DL_BOUNDS,
    UL_BOUNDS,
    asymptotic_capacity,
    cutset_upper,
    legacy_scaling,
    noncoherent_expression,
    prelog_factor,
    run_bounds,
)
from mimo_lab import training
from mimo_lab.covmodel import CorrelationModel, stream

from conftest import full_bases, make_scenario, restricted_bases, single_link_scenario


class TestClosedForms:
    def test_legacy_contaminated_hand_value(self):
        val = legacy_scaling("Contaminated", M=100, K=10, L=4, T_c=500, iota=0.2)
        expect = (1 - 10 / 500) * 10 * 4 * math.log2(1 + 1 / 0.6)
        assert abs(val - expect) < 1e-12
        assert abs(val - 55.5) < 0.1

    def test_legacy_contaminated_single_cell_is_infinite(self):
        assert legacy_scaling("Contaminated", M=64, K=4, L=1, T_c=200) == math.inf

    def test_legacy_global_orth_hand_value(self):
        val = legacy_scaling("GlobalOrth", M=100, K=5, L=4, T_c=500, snr=10.0)
        expect = (1 - 20 / 500) * 20 * math.log2(10 * 100 / 5)
        assert abs(val - expect) < 1e-12
        assert abs(val - 146.8) < 0.1

    def test_asymptotic_orthogonal_fig2_value(self):
        val = asymptotic_capacity("strong", "ul", M=100, K=5, L=4, T_c=500,
                                  snr=10.0, pilot="orthogonal")
        expect = (1 - 5 / 500) * 5 * 4 * math.log2(2 * 100)
        assert abs(val - expect) < 1e-12
        assert abs(val - 151.4) < 0.1

    def test_nonorthogonal_prelog_beats_orthogonal(self):
        strong = asymptotic_capacity("strong", "ul", M=64, K=8, L=2, T_c=100,
                                     snr=10.0, pilot="nonorthogonal")
        orth = asymptotic_capacity("strong", "ul", M=64, K=8, L=2, T_c=100,
                                   snr=10.0, pilot="orthogonal")
        # same per-user log factor, larger prelog: (1 - 1/T_c) K > (1 - K/T_c) K
        assert strong > orth

    def test_very_strong_per_user_growth(self):
        # K = M/5, r = sqrt(M), per-user power fixed: per-user rate grows as
        # (1/2) log2 M
        def per_user(M):
            K = M // 5
            r = int(math.isqrt(M))
            snr = 1.0 * K  # keeps snr / K = 1
            tot = asymptotic_capacity("verystrong", "ul", M=M, K=K, L=1,
                                      T_c=1_000_000, snr=snr, r=r)
            return tot / K
        assert abs((per_user(6400) - per_user(1600)) - 1.0) < 1e-5

    def test_very_strong_requires_rank(self):
        with pytest.raises(ValueError):
            asymptotic_capacity("verystrong", "ul", M=64, K=8, L=1, T_c=100, snr=10.0)


class TestCutset:
    def test_leading_term(self):
        sc = single_link_scenario(np.full(16, 1023.0 / 16))
        assert sc.T_c == 500
        rep = cutset_upper(sc, trials=4000, rng=1)
        assert abs(rep.per_user[(0, 0)] - 0.998 * math.log2(1024)) < 0.2

    def test_vanishing_energy(self):
        sc = single_link_scenario(np.full(4, 1e-9))
        rep = cutset_upper(sc, trials=500, rng=2)
        assert rep.per_user[(0, 0)] < 1e-6


class TestCoherentBound:
    def test_rate_vanishes_at_zero_power(self):
        sc = make_scenario(seed=1, L=2, K=2, M=32, r_own=4, snr_db=-140.0)
        rep = run_bounds(sc, "ul", ("coherent",), 50, 3)["coherent"]
        assert rep.sum_total < 1e-6

    def test_chi_square_quadrature_oracle(self):
        # L = K = 1 noiseless, r = 8, Lambda = I, P = 1: per-block SINR is
        # ||w||^2 ~ Gamma(8, 1); the rate matches quadrature of log2(1 + x)
        sc = single_link_scenario(np.ones(8), M=32, snr_db=0.0, boost=1e12)
        rep = run_bounds(sc, "ul", ("coherent",), 2000, 4)["coherent"]
        oracle, _ = integrate.quad(
            lambda x: math.log2(1 + x) * stats.gamma(8).pdf(x), 0, 200)
        rate = rep.per_user[(0, 0)] / rep.prelog
        se = rep.stderr / rep.prelog
        assert abs(rate - oracle) < 3 * se + 1e-3

    def test_prelog_bookkeeping(self):
        sc_o = make_scenario(seed=5, L=2, K=4, M=32, r_own=4, T_c=100)
        assert abs(prelog_factor(sc_o) - (1 - 4 / 100)) < 1e-12
        sc_n = make_scenario(seed=5, L=2, K=4, M=32, r_own=4, T_c=100,
                             pilot="nonorthogonal")
        assert abs(prelog_factor(sc_n) - (1 - 1 / 100)) < 1e-12
        sc_big = make_scenario(seed=5, L=2, K=80, M=32, r_own=4, T_c=100)
        assert abs(prelog_factor(sc_big) - (1 - 50 / 100)) < 1e-12


class TestNonCoherentBounds:
    def test_deterministic_channel_expression(self):
        # no fluctuation, no interference: log2(1 + P |mean|^2)
        val = noncoherent_expression(2.0 - 1.0j, 0.0, 0.0, 1.0 / 4.0)
        assert abs(val - math.log2(1 + 4.0 * 5.0)) < 1e-12

    def test_scalar_rayleigh_self_interference(self):
        # r = 1 with MF: the hardening bound strictly loses to the coherent
        # bound because var[v^H w] stays order |lambda|^2
        sc = single_link_scenario([4.0], snr_db=0.0, boost=1e10)
        coh = run_bounds(sc, "ul", ("coherent",), 1500, 6, "mf")["coherent"]
        ncoh = run_bounds(sc, "ul", ("noncoherent",), 1500, 6, "mf")["noncoherent"]
        assert ncoh.sum_total < coh.sum_total - 3 * (coh.stderr + ncoh.stderr)

    def test_penalty_vanishes_with_block_length(self):
        sc = make_scenario(seed=7, L=2, K=2, M=32, r_own=4, T_c=10 ** 9)
        reps = run_bounds(sc, "ul", ("maxmin", "alt"), 150, 7)
        mm, alt = reps["maxmin"], reps["alt"]
        assert abs(mm.sum_total - alt.sum_total) <= 1e-6 * mm.sum_total

    def test_disjoint_supports_zero_penalty(self):
        # hand-built disjoint Fourier supports, noiseless: all cross variances
        # vanish so the alternative bound equals the max-min bound
        sc = make_scenario(seed=8, L=2, K=2, M=64, r_own=8, r_cross=8,
                           pilot_boost=1e12,
                           model=CorrelationModel.PARTIAL_FOURIER)
        for i, key in enumerate(sorted(sc.profiles)):
            sc.profiles[key].idx = np.arange(i * 8, (i + 1) * 8)
        reps = run_bounds(sc, "ul", ("maxmin", "alt"), 100, 8)
        mm, alt = reps["maxmin"], reps["alt"]
        assert alt.sum_total == pytest.approx(mm.sum_total, abs=1e-9)

    def test_fig3_hardening_bound_trails_at_high_snr(self):
        # at 30 dB even the hardening bound's best curve (r = 100) sits below
        # the coherent and alternative bounds at their favorable sparsity
        # (r = 10), where despreading keeps them growing linearly
        def at(r_own):
            sc = make_scenario(seed=9, L=4, K=10, M=200, r_own=r_own,
                               snr_db=30.0,
                               model=CorrelationModel.PARTIAL_FOURIER)
            return run_bounds(sc, "ul", ("coherent", "noncoherent", "alt"),
                              80, 9, "mmse", cells=[0])
        sparse, dense = at(10), at(100)
        best_nc = max(sparse["noncoherent"].sum_total, dense["noncoherent"].sum_total)
        assert best_nc < sparse["alt"].sum_total
        assert best_nc < sparse["coherent"].sum_total

    def test_conditional_contamination_restores_ordering(self):
        # with the exact Gaussian conditionals the coherent bound stays below
        # the max-min bound even under heavy support overlap (r/M = 1/2)
        sc = make_scenario(seed=9, L=4, K=10, M=200, r_own=100, snr_db=30.0,
                           model=CorrelationModel.PARTIAL_FOURIER)
        reps = run_bounds(sc, "ul", ("coherent", "maxmin"), 80, 9, "mmse",
                          cells=[0], conditional_contamination=True)
        coh, mm = reps["coherent"], reps["maxmin"]
        assert coh.sum_total <= mm.sum_total + 2 * (coh.stderr + mm.stderr)

    def test_ordering_against_upper_bounds(self):
        sc = make_scenario(seed=10, L=2, K=3, M=64, r_own=8, snr_db=10.0,
                           model=CorrelationModel.PARTIAL_FOURIER)
        reps = run_bounds(sc, "ul", ("coherent", "noncoherent", "alt", "maxmin"),
                          200, 10, "mmse")
        cut = cutset_upper(sc, trials=2000, rng=10)
        mm = reps["maxmin"]
        for name in ("noncoherent", "alt"):
            rep = reps[name]
            assert rep.sum_total <= mm.sum_total + 2 * (rep.stderr + mm.stderr)
        coh = reps["coherent"]
        assert coh.sum_total <= cut.sum_total + 2 * (coh.stderr + cut.stderr)
        # converse ordering: the cut-set bound dominates the max-min bound
        assert mm.sum_total <= cut.sum_total + 2 * (mm.stderr + cut.stderr)

    def test_ul_dl_symmetry(self):
        sc = make_scenario(seed=11, L=2, K=3, M=64, r_own=8, snr_db=10.0,
                           model=CorrelationModel.PARTIAL_FOURIER)
        ul = run_bounds(sc, "ul", ("noncoherent",), 400, 11)["noncoherent"]
        dl = run_bounds(sc, "dl", ("noncoherent",), 400, 12)["noncoherent"]
        tol = 3 * (ul.stderr + dl.stderr) + 0.05 * ul.sum_total
        assert abs(ul.sum_total - dl.sum_total) <= tol

    def test_alt_reports_floored_total(self):
        sc = make_scenario(seed=12, L=2, K=2, M=32, r_own=4, snr_db=10.0)
        alt = run_bounds(sc, "ul", ("alt",), 100, 13)["alt"]
        assert alt.sum_total_floored is not None
        assert alt.sum_total_floored >= alt.sum_total - 1e-12

    def test_detequiv_rate_agreement(self):
        from mimo_lab.detequiv import sinr_mmse_detequiv
        sc = make_scenario(seed=13, L=4, K=10, M=200, r_own=10, snr_db=20.0,
                           model=CorrelationModel.PARTIAL_FOURIER)
        rep = run_bounds(sc, "ul", ("coherent",), 300, 14, "mmse", cells=[0])["coherent"]
        mc_rate = np.mean([rep.per_user[(0, k)] / rep.prelog for k in range(10)])
        de_rate = np.mean([math.log2(1 + sinr_mmse_detequiv(sc, (0, k)))
                           for k in range(10)])
        assert abs(mc_rate - de_rate) / de_rate < 0.10


class TestDeterminism:
    def test_same_seed_same_rates(self):
        sc = make_scenario(seed=14, L=2, K=2, M=32, r_own=4)
        a = run_bounds(sc, "ul", ("coherent", "alt", "maxmin"), 64, 77, "mmse")
        b = run_bounds(sc, "ul", ("coherent", "alt", "maxmin"), 64, 77, "mmse")
        for k in a:
            assert a[k].sum_total == b[k].sum_total
            assert a[k].stderr == b[k].stderr

    def test_stderr_scales_with_trials(self):
        sc = make_scenario(seed=15, L=2, K=2, M=32, r_own=4)
        se1 = run_bounds(sc, "ul", ("coherent",), 300, 15, "mmse")["coherent"].stderr
        se2 = run_bounds(sc, "ul", ("coherent",), 600, 15, "mmse")["coherent"].stderr
        assert 0.8 / math.sqrt(2) < se2 / se1 < 1.2 / math.sqrt(2)

    def test_thread_count_does_not_change_serving_basis_reports(self, monkeypatch):
        # fig2's full-dimensional series on the pool: 130 trials, 3 chunks
        sc = make_scenario(seed=16, L=2, K=3, M=24, r_own=4, snr_db=10.0)
        reps = []
        for threads in ("1", "4"):
            monkeypatch.setenv("MIMO_LAB_THREADS", threads)
            reps.append(run_bounds(sc, "dl", DL_BOUNDS, 130, 16, bases=full_bases(sc)))
        assert reps[0] == reps[1]


class TestServingBases:
    @pytest.mark.parametrize("which", ["own", "d=3", "full"])
    @pytest.mark.parametrize("pilot", ["orthogonal", "nonorthogonal"])
    @pytest.mark.parametrize("direction, bounds", [("ul", UL_BOUNDS), ("dl", DL_BOUNDS)],
                             ids=["ul", "dl"])
    def test_engine_projects_each_covariance_once(self, monkeypatch, direction, bounds,
                                                  pilot, which):
        # the engine forms its MMSE estimators from its own projection
        # tables: neither the op-level estimator bank nor projected_cov runs
        def refuse(*args, **kwargs):
            raise AssertionError("the engine projected a covariance a second time")

        monkeypatch.setattr(training.EstimatorBank, "build", refuse)
        monkeypatch.setattr(training, "projected_cov", refuse)
        sc = make_scenario(seed=19, L=2, K=3, M=24, r_own=4, snr_db=10.0, pilot=pilot)
        bases = {"own": None, "d=3": restricted_bases(sc, 3, stream(19)),
                 "full": full_bases(sc)}[which]
        reps = run_bounds(sc, direction, bounds, 10, 19, bases=bases)
        assert reps.keys() == set(bounds)
        assert all(math.isfinite(rep.sum_total) for rep in reps.values())

    @pytest.mark.parametrize("pilot", ["orthogonal", "nonorthogonal"])
    @pytest.mark.parametrize("direction, bounds", [("ul", UL_BOUNDS), ("dl", DL_BOUNDS)])
    def test_own_eigenbases_reproduce_default(self, pilot, direction, bounds):
        # B = U: the prior B^H R B is diag(lam) up to round-off
        sc = make_scenario(seed=17, L=2, K=3, M=32, r_own=4, snr_db=10.0, pilot=pilot,
                           model=CorrelationModel.PARTIAL_UNITARY)
        own = {(l, k): sc.profile(l, l, k).U for l, k in sc.users()}
        plain = run_bounds(sc, direction, bounds, 70, 17)
        based = run_bounds(sc, direction, bounds, 70, 17, bases=own)
        assert plain.keys() == based.keys()
        for name, rep in plain.items():
            for u, rate in rep.per_user.items():
                assert based[name].per_user[u] == pytest.approx(rate, rel=1e-12, abs=1e-12)
            assert based[name].stderr == pytest.approx(rep.stderr, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("direction, bounds", [("ul", UL_BOUNDS), ("dl", DL_BOUNDS)])
    def test_shared_basis_matches_per_user_copies(self, direction, bounds):
        # one I_M object for all users takes the shared-cell shortcuts (one
        # Gram matrix per cell, no basis-to-basis table); distinct copies of
        # I_M take the per-user path
        sc = make_scenario(seed=18, L=2, K=3, M=24, r_own=4, snr_db=10.0)
        shared = run_bounds(sc, direction, bounds, 70, 18, bases=full_bases(sc))
        copies = run_bounds(sc, direction, bounds, 70, 18,
                            bases={u: np.eye(sc.M, dtype=complex) for u in sc.users()})
        for name, rep in copies.items():
            for u, rate in rep.per_user.items():
                assert shared[name].per_user[u] == pytest.approx(rate, rel=1e-12, abs=1e-12)
