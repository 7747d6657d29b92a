import itertools
import math
import os

import numpy as np
import pytest
from scipy import integrate, stats

from mimo_lab.bounds import (
    CHUNK,
    DL_BOUNDS,
    UL_BOUNDS,
    DrawEngine,
    RateReport,
    asymptotic_capacity,
    cutset_upper,
    legacy_scaling,
    noncoherent_expression,
    prelog_factor,
    run_bounds,
    _threads,
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
        val = asymptotic_capacity("strong", M=100, K=5, L=4, T_c=500,
                                  snr=10.0, pilot="orthogonal")
        expect = (1 - 5 / 500) * 5 * 4 * math.log2(2 * 100)
        assert abs(val - expect) < 1e-12
        assert abs(val - 151.4) < 0.1

    def test_nonorthogonal_prelog_beats_orthogonal(self):
        strong = asymptotic_capacity("strong", M=64, K=8, L=2, T_c=100,
                                     snr=10.0, pilot="nonorthogonal")
        orth = asymptotic_capacity("strong", M=64, K=8, L=2, T_c=100,
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
            tot = asymptotic_capacity("verystrong", M=M, K=K, L=1,
                                      T_c=1_000_000, snr=snr, r=r)
            return tot / K
        assert abs((per_user(6400) - per_user(1600)) - 1.0) < 1e-5

    def test_very_strong_requires_rank(self):
        with pytest.raises(ValueError):
            asymptotic_capacity("verystrong", M=64, K=8, L=1, T_c=100, snr=10.0)


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
        # K orthogonal pilots cost K channel uses, also past T_c / 2
        sc_big = make_scenario(seed=5, L=2, K=80, M=32, r_own=4, T_c=100)
        assert abs(prelog_factor(sc_big) - (1 - 80 / 100)) < 1e-12

    def test_reports_charge_every_orthogonal_pilot(self):
        T_c = 10
        K = T_c // 2 + 1
        sc = make_scenario(seed=5, L=2, K=K, M=32, r_own=4, T_c=T_c)
        for direction, bound in (("ul", "coherent"), ("dl", "alt")):
            rep = run_bounds(sc, direction, (bound,), 4, 3)[bound]
            assert abs(rep.prelog - (1 - K / T_c)) < 1e-12


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

    def test_unparsable_thread_cap_falls_back(self, monkeypatch):
        monkeypatch.setenv("MIMO_LAB_THREADS", "abc")
        assert _threads() == min(4, os.cpu_count() or 1)


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
        own = {u: np.arange(sc.r_own) for u in sc.users()}
        plain = run_bounds(sc, direction, bounds, 70, 17)
        based = run_bounds(sc, direction, bounds, 70, 17, bases=own)
        assert plain.keys() == based.keys()
        for name, rep in plain.items():
            for u, rate in rep.per_user.items():
                assert based[name].per_user[u] == pytest.approx(rate, rel=1e-12, abs=1e-12)
            assert based[name].stderr == pytest.approx(rep.stderr, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("model", [CorrelationModel.PARTIAL_FOURIER,
                                   CorrelationModel.PARTIAL_UNITARY], ids=["fourier", "haar"])
@pytest.mark.parametrize("direction, bounds", [("ul", UL_BOUNDS), ("dl", DL_BOUNDS)],
                         ids=["ul", "dl"])
def test_chunks_return_the_statistics_their_bounds_read(direction, bounds, model):
    # a chunk returns statistics only, and only those the wanted bounds
    # read; run_bounds forms every rate from them
    engine = DrawEngine(make_scenario(seed=20, L=2, K=3, M=24, r_own=4, model=model))
    chunk = engine.ul_chunk if direction == "ul" else engine.dl_chunk
    for n in range(1, len(bounds) + 1):
        for want in itertools.combinations(bounds, n):
            expect = {"coherent": {"sinr"}} if "coherent" in want else {}
            if set(want) - {"coherent"}:
                expect["_nc"] = {"sig", "ip2_sum"} | ({"ip_mean", "ip2"} if "alt" in want
                                                      else set())
            out = chunk(3, 0, 5, [1, 0], set(want))
            assert {group: {l: set(stats) for l, stats in cells.items()}
                    for group, cells in out.items()} == {
                group: {1: keys, 0: keys} for group, keys in expect.items()}, want


def loop_reports(sc, direction, bounds, trials, seed_key, cells):
    """run_bounds' reports reduced by per-user Python loops over the engine's
    own chunk statistics: the literal reduction that the array code replaced,
    kept as its oracle (math.log2 and scalar moments per user and batch).
    The per-trial coherent and max-min rates are formed from the chunks'
    sinr, sig and ip2_sum by run_bounds' elementwise expressions."""
    want = set(bounds) & set(DL_BOUNDS if direction == "dl" else UL_BOUNDS)
    engine = DrawEngine(sc)
    fn = engine.ul_chunk if direction == "ul" else engine.dl_chunk
    chunks = [fn(seed_key, a, min(a + CHUNK, trials), cells, want)
              for a in range(0, trials, CHUNK)]

    def nc_rate(mean_sig, var_sig, interf_power, inv_power):
        return math.log2(1.0 + abs(mean_sig) ** 2 / (inv_power + var_sig + interf_power))

    prelog = prelog_factor(sc)
    K = sc.K
    reports = {}
    if "coherent" in want:
        per_user, per_cell, mean_sinr = {}, {}, {}
        sum_trials = None
        for l in cells:
            sinrs = np.concatenate([c["coherent"][l]["sinr"] for c in chunks], axis=0)
            rates = np.log2(1.0 + sinrs)
            for k in range(K):
                per_user[(l, k)] = prelog * float(rates[:, k].mean())
                mean_sinr[(l, k)] = float(sinrs[:, k].mean())
            per_cell[l] = prelog * float(rates.sum(axis=1).mean())
            cell_tot = rates.sum(axis=1)
            sum_trials = cell_tot if sum_trials is None else sum_trials + cell_tot
        stderr = (prelog * float(sum_trials.std(ddof=1) / np.sqrt(trials))
                  if trials > 1 else 0.0)
        reports["coherent"] = RateReport(
            bound_id="CoherentUL", direction="ul", per_user=per_user,
            sum_per_cell=per_cell, sum_total=sum(per_cell.values()),
            stderr=stderr, trials=trials, prelog=prelog, mean_sinr=mean_sinr)
    if want & {"noncoherent", "alt", "maxmin"}:
        inv_p = 1.0 / (sc.P_ul if direction == "ul" else sc.P_dl_per_user)
        nbatch = max(min(10, trials // 2), 1)
        bedges = np.linspace(0, trials, nbatch + 1).astype(int)
        nc_user, nc_cell = {}, {}
        ub_user, ub_cell, ub_sum_trials = {}, {}, None
        alt_user, alt_cell = {}, {}
        nc_batch_tot = np.zeros(nbatch)
        for l in cells:
            sig = np.concatenate([c["_nc"][l]["sig"] for c in chunks], axis=0)
            ip2_sum = np.concatenate([c["_nc"][l]["ip2_sum"] for c in chunks], axis=0)
            ub = np.log2(1.0 + np.abs(sig) ** 2 / (inv_p + ip2_sum))
            ip_mean = sum(c["_nc"][l]["ip_mean"] for c in chunks) / trials
            ip2 = sum(c["_nc"][l]["ip2"] for c in chunks) / trials
            ip_var = np.maximum(ip2 - np.abs(ip_mean) ** 2, 0.0)
            for k in range(K):
                mean_sig = sig[:, k].mean()
                var_sig = max(float((np.abs(sig[:, k]) ** 2).mean() - abs(mean_sig) ** 2), 0.0)
                nc_user[(l, k)] = prelog * nc_rate(
                    mean_sig, var_sig, float(ip2_sum[:, k].mean()), inv_p)
                ub_user[(l, k)] = prelog * float(ub[:, k].mean())
                power = 1.0 / inv_p
                penalty = float(np.log2(1.0 + power * ip_var[k]).sum()) / sc.T_c
                alt_user[(l, k)] = ub_user[(l, k)] - prelog * penalty
            nc_cell[l] = sum(nc_user[(l, k)] for k in range(K))
            ub_cell[l] = sum(ub_user[(l, k)] for k in range(K))
            alt_cell[l] = sum(alt_user[(l, k)] for k in range(K))
            cell_tot = ub.sum(axis=1)
            ub_sum_trials = cell_tot if ub_sum_trials is None else ub_sum_trials + cell_tot
            for b in range(nbatch):
                sl = slice(bedges[b], bedges[b + 1])
                bsum_nc = 0.0
                for k in range(K):
                    ms = sig[sl, k].mean()
                    vs = max(float((np.abs(sig[sl, k]) ** 2).mean() - abs(ms) ** 2), 0.0)
                    bsum_nc += nc_rate(ms, vs, float(ip2_sum[sl, k].mean()), inv_p)
                nc_batch_tot[b] += prelog * bsum_nc
        ub_stderr = (prelog * float(ub_sum_trials.std(ddof=1) / np.sqrt(trials))
                     if trials > 1 else 0.0)
        nc_stderr = float(nc_batch_tot.std(ddof=1) / np.sqrt(nbatch)) if nbatch > 1 else 0.0
        common = dict(direction=direction, trials=trials, prelog=prelog)
        if "noncoherent" in want:
            reports["noncoherent"] = RateReport(
                bound_id="NonCoherent", per_user=nc_user, sum_per_cell=nc_cell,
                sum_total=sum(nc_cell.values()), stderr=nc_stderr, **common)
        if "maxmin" in want:
            reports["maxmin"] = RateReport(
                bound_id="MaxMinUB", per_user=ub_user, sum_per_cell=ub_cell,
                sum_total=sum(ub_cell.values()), stderr=ub_stderr, **common)
        if "alt" in want:
            reports["alt"] = RateReport(
                bound_id="AltNonCoherent", per_user=alt_user, sum_per_cell=alt_cell,
                sum_total=sum(alt_cell.values()), stderr=ub_stderr,
                sum_total_floored=sum(max(v, 0.0) for v in alt_user.values()), **common)
    return reports


class TestArrayReductionsMatchLoops:
    """run_bounds reduces users as arrays; the per-user loops it replaced
    give the same reports bit for bit.  Only the non-coherent bound may
    differ, at round-off: np.log2 and math.log2 can round apart."""

    @pytest.mark.parametrize("trials", [1, 3, 130])
    @pytest.mark.parametrize("model", [CorrelationModel.PARTIAL_FOURIER,
                                       CorrelationModel.PARTIAL_UNITARY],
                             ids=["fourier", "haar"])
    @pytest.mark.parametrize("direction, bounds", [("ul", UL_BOUNDS), ("dl", DL_BOUNDS)],
                             ids=["ul", "dl"])
    def test_reports_equal_the_loop_oracle(self, direction, bounds, model, trials):
        sc = make_scenario(seed=20, L=2, K=3, M=24, r_own=4, snr_db=10.0, model=model)
        got = run_bounds(sc, direction, bounds, trials, 21, cells=[1])
        want = loop_reports(sc, direction, bounds, trials, 21, [1])
        assert list(got) == list(want) == [b for b in ("coherent", "noncoherent", "maxmin",
                                                       "alt") if b in bounds]
        for name, rep in want.items():
            ours, rel = got[name], (1e-15 if name == "noncoherent" else 0.0)
            for field in ("per_user", "sum_per_cell", "mean_sinr", "sum_total", "stderr"):
                assert getattr(ours, field) == pytest.approx(
                    getattr(rep, field), rel=rel, abs=0.0), (name, field)
            assert ours.sum_total_floored == rep.sum_total_floored


class TestRunBoundsArguments:
    def scenario(self):
        return make_scenario(L=1, K=2, M=8, T_c=50, r_own=2)

    def test_unknown_direction_is_rejected(self):
        with pytest.raises(ValueError, match="direction must be 'ul' or 'dl', got 'up'"):
            run_bounds(self.scenario(), "up", ("noncoherent",), 4, 0)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_trials_below_one_are_rejected(self, trials):
        with pytest.raises(ValueError, match=f"trials must be >= 1, got {trials}"):
            run_bounds(self.scenario(), "ul", ("coherent",), trials, 0)

    @pytest.mark.parametrize("direction", ["ul", "dl"])
    def test_unknown_bound_is_rejected(self, direction):
        with pytest.raises(ValueError, match="unknown bound 'hardening'"):
            run_bounds(self.scenario(), direction, ("maxmin", "hardening"), 4, 0)

    def test_downlink_drops_the_coherent_bound(self):
        # one bound list serves both directions
        reps = run_bounds(self.scenario(), "dl", UL_BOUNDS, 4, 0)
        assert set(reps) == set(DL_BOUNDS)
