import numpy as np
import pytest

from mimo_lab import training
from mimo_lab.bounds import DrawEngine, PilotBudgetError
from mimo_lab.covmodel import CorrelationModel, stream
from mimo_lab.training import (
    EstimatorBank,
    build_estimator,
    contaminators,
    projected_cov,
)

from conftest import full_bases, make_scenario, single_link_scenario


def fourier_scenario(seed=0, **kw):
    kw.setdefault("model", CorrelationModel.PARTIAL_FOURIER)
    return make_scenario(seed=seed, **kw)


def pilots(sc, seed, trials):
    """DrawEngine's despread pilot observations s, MMSE estimates w_hat and
    own channels w of every user over `trials` trials, each [T, L, K, q]."""
    eng = DrawEngine(sc)
    w_hat, _, x_own, s = eng._estimates(*eng._draw_chunk(seed, 0, trials))
    return s, w_hat, x_own


def residual_energy(sc, seed, trials):
    """||s - w||^2 of user (0, 0) per trial: contamination plus noise."""
    s, _, w = pilots(sc, seed, trials)
    return np.linalg.norm(s[:, 0, 0] - w[:, 0, 0], axis=-1) ** 2


class TestObservations:
    def test_noiseless_single_cell_recovers_channel(self):
        sc = single_link_scenario(np.full(4, 2.0), boost=1e12)
        s, _, w = pilots(sc, 1, 1)
        assert np.linalg.norm(s - w) / np.linalg.norm(w) < 1e-5

    def test_disjoint_supports_project_out_contamination(self):
        # L = 2 with hand-made disjoint Fourier supports: the other cell's
        # pilot vanishes after despreading
        sc = fourier_scenario(seed=3, L=2, K=1, M=64, r_own=8, pilot_boost=1e12)
        for i, key in enumerate(sorted(sc.profiles)):
            prof = sc.profiles[key]
            prof.idx = np.arange(i * 16, i * 16 + prof.r)
        s, _, w = pilots(sc, 4, 1)
        assert np.linalg.norm(s[0, 0, 0] - w[0, 0, 0]) / np.linalg.norm(w[0, 0, 0]) < 1e-5

    def test_orthogonal_contamination_second_moment(self):
        # E||s - w||^2 = sum tr R~ + r / rho_p
        sc = fourier_scenario(seed=7, L=3, K=2, M=64, r_own=8, pilot_boost=2.0,
                              snr_db=3.0)
        rt = sum(projected_cov(sc, 0, 0, key) for key in contaminators(sc, 0, 0))
        expect = float(np.real(np.trace(rt))) + sc.profile(0, 0, 0).r / sc.rho_p
        acc = residual_energy(sc, 8, 1200).mean()
        assert abs(acc - expect) / expect < 0.10

    def test_contaminator_bookkeeping(self):
        sc = fourier_scenario(L=3, K=4)
        assert len(contaminators(sc, 0, 0)) == 2  # orthogonal: same index only
        sc.scheme.kind = "nonorthogonal"
        assert len(contaminators(sc, 1, 2)) == 3 * 4 - 1

    def test_single_user_schemes_agree_in_law(self):
        sc = single_link_scenario(np.full(4, 2.0), boost=2.0, pilot="nonorthogonal")
        # no contamination: residual is pure noise with energy r / rho_p
        expect = 4 / sc.rho_p
        acc = residual_energy(sc, 9, 3000).mean()
        assert abs(acc - expect) / expect < 0.10

    def test_nonorthogonal_contamination_ratio(self):
        # symmetric profiles: per-entry contamination variance ratio is
        # (LK - 1) / (L - 1) against the orthogonal scheme; pooled over
        # covariance draws since single-draw projected traces fluctuate
        common = dict(L=3, K=4, M=64, r_own=6, r_cross=6, iota=1.0,
                      pilot_boost=1e9, snr_db=0.0,
                      model=CorrelationModel.PARTIAL_UNITARY)
        acc_o = acc_n = 0.0
        trials = 120
        for draw in range(8):
            sc_o = make_scenario(seed=100 + draw, pilot="orthogonal", **common)
            sc_n = make_scenario(seed=100 + draw, pilot="nonorthogonal", **common)
            acc_o += residual_energy(sc_o, 12 + draw, trials).sum()
            acc_n += residual_energy(sc_n, 12 + draw, trials).sum()
        expect = (3 * 4 - 1) / (3 - 1)
        assert abs((acc_n / acc_o) - expect) / expect < 0.20

    def test_pilot_budget_error(self):
        sc = fourier_scenario(L=1, K=8, M=32, r_own=4, T_c=6)
        with pytest.raises(PilotBudgetError):
            DrawEngine(sc)


class TestMmseEstimate:
    def test_scalar_wiener_filter(self):
        # lambda = 2, rho_p = 1: w_hat = (2/3) s, Phi = 4/3, N = 2/3
        sc = single_link_scenario([2.0], snr_db=0.0, boost=1.0)
        assert abs(sc.rho_p - 1.0) < 1e-12
        eng = DrawEngine(sc)
        s = np.array([1.5 - 0.5j])
        # no channel, and pilot noise s: the observation is s itself
        w_hat = eng._estimates(np.zeros((1, 1, 1, 1, 1), dtype=complex),
                               s.reshape(1, 1, 1, 1))[0]
        assert np.allclose(w_hat[0, 0, 0], (2.0 / 3.0) * s)
        assert abs(sc.profile(0, 0, 0).lam[0] - eng.err_cov[0, 0, 0, 0] - 4.0 / 3.0) < 1e-12
        assert abs(eng.err_cov[0, 0, 0, 0] - 2.0 / 3.0) < 1e-12

    def test_noiseless_limit(self):
        sc = single_link_scenario(np.full(3, 5.0), boost=1e12)
        s, w_hat, _ = pilots(sc, 16, 1)
        assert np.linalg.norm(w_hat - s) / np.linalg.norm(s) < 1e-6
        assert np.real(np.trace(DrawEngine(sc).err_cov[0, 0])) < 1e-6

    def test_orthogonality_principle(self):
        sc = single_link_scenario(np.full(1, 3.0), boost=2.0)
        _, what, w = pilots(sc, 18, 10_000)
        what, err = what[:, 0, 0, 0], w[:, 0, 0, 0] - what[:, 0, 0, 0]
        corr = np.vdot(what, err) / (np.linalg.norm(what) * np.linalg.norm(err))
        assert abs(corr) < 0.02

    def test_phi_plus_err_cov_is_prior(self):
        sc = fourier_scenario(seed=19, L=2, K=3, M=48, r_own=6)
        for (l, k) in sc.users():
            est = build_estimator(sc, l, k)
            lam = sc.profile(l, l, k).lam
            assert np.max(np.abs(est.phi + est.err_cov - np.diag(lam))) < 1e-9

    def test_estimate_covariance_consistency(self):
        sc = fourier_scenario(seed=20, L=2, K=2, M=32, r_own=4, snr_db=6.0)
        bank = EstimatorBank.build(sc)
        _, w_hat, _ = pilots(sc, 21, 12_000)
        acc = (np.abs(w_hat[:, 0, 0]) ** 2).mean(axis=0)
        diag = np.real(np.diag(bank.users[(0, 0)].phi))
        assert np.max(np.abs(acc - diag) / diag) < 0.05

    def test_mmse_dominance(self):
        sc = fourier_scenario(seed=22, L=3, K=3, M=64, r_own=8, snr_db=-20.0)
        for (l, k) in sc.users():
            est = build_estimator(sc, l, k)
            lam_sum = sc.profile(l, l, k).lam.sum()
            assert np.real(np.trace(est.err_cov)) <= lam_sum + 1e-9

    def test_bank_floor_skips_the_eigenvalue_pass(self, monkeypatch):
        # 1/rho_p bounds every estimator system from below, so a
        # well-conditioned draw needs no eigvalsh, and the estimators are
        # bit for bit those of the floor-free guard
        sc = make_scenario(seed=24, L=2, K=3, M=32, r_own=4, snr_db=10.0,
                           model=CorrelationModel.PARTIAL_UNITARY)
        solve = training.hermitian_solve
        monkeypatch.setattr(training, "hermitian_solve", lambda A, B, floor=0.0: solve(A, B))
        want = EstimatorBank.build(sc)
        monkeypatch.setattr(training, "hermitian_solve", solve)

        def refuse(*args, **kwargs):
            raise AssertionError("an eigenvalue pass ran")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        got = EstimatorBank.build(sc)
        for u in sc.users():
            for name in ("xi", "phi", "err_cov", "filt", "jittered"):
                assert np.array_equal(getattr(got.users[u], name), getattr(want.users[u], name))

    def test_scheme_ordering(self):
        common = dict(seed=23, L=2, K=3, M=64, r_own=6, snr_db=3.0)
        err_o = np.real(np.diag(
            build_estimator(fourier_scenario(pilot="orthogonal", **common), 0, 0).err_cov))
        err_n = np.real(np.diag(
            build_estimator(fourier_scenario(pilot="nonorthogonal", **common), 0, 0).err_cov))
        assert np.all(err_n >= err_o - 1e-12)


class TestFulldimEstimate:
    # the M-dimensional MMSE estimator: the engine in I_M serving bases
    def test_noiseless_recovery(self):
        # zero pilot noise at rho_p = 1e12: the estimate is the channel U w
        # up to the 1/rho_p regularisation and round-off
        sc = single_link_scenario(np.full(4, 3.0), M=32, boost=1e12)
        eng = DrawEngine(sc, bases=full_bases(sc))
        w, noise = eng._draw_chunk(24, 0, 1)
        w_hat, _, x_own, _ = eng._estimates(w, np.zeros_like(noise))
        assert np.linalg.norm(w_hat - x_own) / np.linalg.norm(x_own) < 1e-6

    def test_lowdim_close_to_fulldim(self):
        # reduced-size version of the sufficiency check: both estimators see
        # the same pilots, the own-basis one despread by U
        sc = make_scenario(seed=26, L=2, K=1, M=128, r_own=8,
                           model=CorrelationModel.PARTIAL_UNITARY, snr_db=6.0)
        trials = 100
        full = DrawEngine(sc, bases=full_bases(sc))
        w, z = full._draw_chunk(27, 0, trials)
        noise = np.stack([z[:, l, k] @ sc.profile(l, l, k).U.conj()
                          for l, k in sc.users()], axis=1).reshape(trials, sc.L, sc.K, -1)
        w_low, w_own, _, _ = DrawEngine(sc)._estimates(w, noise)
        w_full = full._estimates(w, z)[0]
        U = sc.profile(0, 0, 0).U
        mse_low = np.linalg.norm(w_low[:, 0, 0] - w_own[:, 0, 0]) ** 2
        mse_full = np.linalg.norm(w_full[:, 0, 0] @ U.conj() - w_own[:, 0, 0]) ** 2
        # both errors vanish relative to the channel energy; the sufficiency
        # gap is measured on that scale
        gap = (mse_low - mse_full) / trials / sc.profile(0, 0, 0).energy
        assert -0.005 < gap < 0.02


class TestEstimateInvariants:
    def test_error_covariance_psd(self):
        sc = fourier_scenario(seed=30, L=3, K=3, M=64, r_own=8, snr_db=10.0)
        for (l, k) in sc.users():
            est = build_estimator(sc, l, k)
            assert np.linalg.eigvalsh(est.err_cov)[0] > -1e-9
            assert np.linalg.eigvalsh(est.phi)[0] > -1e-9

    def test_fig6_scale_contamination_ratio(self):
        # the closed-form variance ratio at the dense-network size: user (0,0)
        # observed directly to keep the runtime at a few seconds
        from mimo_lab.covmodel import CorrelationModel, complex_gaussian
        from mimo_lab.training import projection

        acc = {}
        for pilot in ("orthogonal", "nonorthogonal"):
            total = 0.0
            for draw in range(2):
                sc = make_scenario(seed=300 + draw, L=7, K=20, M=100, r_own=8,
                                   r_cross=8, iota=1.0, pilot_boost=1e9,
                                   pilot=pilot,
                                   model=CorrelationModel.PARTIAL_UNITARY)
                projs = {key: projection(sc, 0, 0, key)
                         for key in contaminators(sc, 0, 0)}
                g = stream(301, draw)
                for _ in range(150):
                    resid = np.zeros(8, dtype=complex)
                    for key, P in projs.items():
                        prof = sc.profiles[key]
                        resid += P @ (np.sqrt(prof.lam) * complex_gaussian(g, prof.r))
                    total += np.linalg.norm(resid) ** 2
            acc[pilot] = total
        expect = (7 * 20 - 1) / (7 - 1)
        ratio = acc["nonorthogonal"] / acc["orthogonal"]
        assert abs(ratio - expect) / expect < 0.20
