import gc
import time
import weakref
from dataclasses import replace

import numpy as np
import pytest

from mimo_lab import detequiv
from mimo_lab._linalg import herm, hermitian_solve
from mimo_lab.beamform import assemble_Z
from mimo_lab.bounds import DrawEngine, run_bounds
from mimo_lab.covmodel import CorrelationModel, complex_gaussian, stream
from mimo_lab.detequiv import (
    CONCENTRATION_KINDS,
    DetEquivProblem,
    DivergenceError,
    DomainError,
    concentration_check,
    sinr_mf_detequiv,
    sinr_mmse_detequiv,
    solve_fixed_point,
    solve_primed,
)
from mimo_lab.training import EstimatorBank, projected_cov, projection

import oracle
from conftest import make_scenario
from oracle import mmse_detequiv_problem

GOLDEN = (np.sqrt(5) - 1) / 2
SILVER = np.sqrt(2) - 1


def scalar_problem(N, count, z=-1.0):
    return DetEquivProblem(thetas=[np.eye(N)], A=np.zeros((N, N)),
                           Q=np.eye(N), z=z, counts=[count])


def random_problem(N, n, seed, scale=1.0):
    g = stream(seed)
    thetas = []
    for _ in range(n):
        X = complex_gaussian(g, N, N + 2)
        thetas.append(scale * (X @ X.conj().T) / (N + 2))
    Xa = complex_gaussian(g, N, N)
    A = 0.2 * (Xa @ Xa.conj().T) / N
    return DetEquivProblem(thetas=thetas, A=A, Q=np.eye(N), z=-0.8)


# ---------------------------------------------------------------------------
# Literal per-class formulas: the loop forms the stacked solver replaces
# ---------------------------------------------------------------------------

def loop_resolvent(p, e):
    N = p.N
    denom = sum((c / (1.0 + ei)) * Th for c, ei, Th in zip(p.counts, e, p.thetas))
    T, _ = hermitian_solve(denom / N + p.A - p.z * np.eye(N), np.eye(N, dtype=complex))
    return herm(T)


def loop_fixed_point(p, tol=1e-10):
    N = p.N
    e = np.full(len(p.thetas), -1.0 / p.z)
    history = []
    for it in range(1, 10_001):
        T = loop_resolvent(p, e)
        e_new = np.array([np.real(np.trace(Th @ T)) / N for Th in p.thetas])
        residual = float(np.max(np.abs(e_new - e) / (1.0 + np.abs(e_new))))
        history.append(residual)
        e = e_new
        if residual < tol:
            T = loop_resolvent(p, e)
            m = float(np.real(np.trace(p.Q @ T))) / N
            return e, T, m, it, history
    raise DivergenceError("loop oracle did not converge")


def loop_primed(p, e, T, omega):
    N, n = p.N, len(p.thetas)
    TOT = T @ omega @ T
    TTh = [T @ Th for Th in p.thetas]
    v = np.array([np.real(np.trace(Th @ TOT)) / N for Th in p.thetas])
    J = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            J[i, j] = (p.counts[j] * np.real(np.trace(TTh[i] @ TTh[j]))
                       / (N * N * (1.0 + e[j]) ** 2))
    e_prime = np.linalg.solve(np.eye(n) - J, v)
    corr = sum((c * ep / (1.0 + ei) ** 2) * Th
               for c, ep, ei, Th in zip(p.counts, e_prime, e, p.thetas))
    return J, v, e_prime, herm(TOT + T @ (corr / N) @ T)


def loop_mmse_problem(sc, l, k, bank, Z):
    P = {j: projection(sc, l, k, (l, l, j)) for j in range(sc.K) if j != k}
    thetas = [herm((P[j] @ bank.users[(l, j)].phi) @ P[j].conj().T) for j in P]
    r = sc.profile(l, l, k).r
    return DetEquivProblem(thetas=thetas, A=Z / r, Q=bank.users[(l, k)].phi,
                           z=-1.0 / (sc.P_ul * r))


def loop_sinr_mmse(sc, l, k, bank):
    est = bank.users[(l, k)]
    prof = sc.profile(l, l, k)
    r = prof.r
    Z = assemble_Z(sc, l, k, bank)
    p = loop_mmse_problem(sc, l, k, bank, Z)
    e, T, _, _, _ = loop_fixed_point(p)
    delta = np.real(np.trace(est.phi @ T)) / r
    Tp = loop_primed(p, e, T, est.phi)[3]
    den = np.real(np.trace((Z + np.eye(r) / sc.P_ul) @ Tp)) / (r * r)
    for theta, ej in zip(p.thetas, e):
        den += np.real(np.trace(theta @ Tp)) / (r * r * (1.0 + ej) ** 2)
    xi_lam_T = (est.xi * prof.lam[None, :]) @ T
    for lp in range(sc.L):
        if lp != l:
            den += abs(np.trace(xi_lam_T @ projected_cov(sc, l, k, (l, lp, k))) / r) ** 2
    return float(delta ** 2 / den)


def assert_close(got, want, rtol=1e-12):
    """Largest entry error at most rtol times the largest entry of want."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def count_engines(monkeypatch):
    """The DrawEngines initialised from now on, in order."""
    made, init = [], DrawEngine.__init__

    def counted(self, *args, **kwargs):
        made.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DrawEngine, "__init__", counted)
    return made


def haar_case():
    sc = make_scenario(seed=21, L=3, K=6, M=64, r_own=8, snr_db=15.0,
                       model=CorrelationModel.PARTIAL_UNITARY)
    bank = EstimatorBank.build(sc, [(1, j) for j in range(sc.K)])
    return sc, bank


class TestStackedFormsMatchLoops:
    """The stacked solver against the literal per-class formulas, to 1e-12."""

    def cases(self, seed):
        sc, bank = haar_case()
        Z = assemble_Z(sc, 1, 2, bank)
        return [
            (random_problem(10, 6, seed), random_problem(10, 1, seed + 50).thetas[0]),
            (mmse_detequiv_problem(sc, 1, 2, bank, Z), bank.users[(1, 2)].phi),
        ]

    @pytest.mark.parametrize("seed", [4, 13])
    def test_fixed_point_and_primed_system(self, seed):
        for p, omega in self.cases(seed):
            e, T, m, iterations, history = loop_fixed_point(p)
            sol = solve_fixed_point(p)
            assert sol.iterations == iterations
            assert_close(sol.e, e)
            assert_close(sol.T, T)
            assert_close(sol.m, m)
            assert_close(sol.residual_history, history)
            J, v, e_prime, T_prime = loop_primed(p, e, T, omega)
            pr = solve_primed(p, sol, omega)
            assert_close(pr.J, J)
            assert_close(pr.v, v)
            assert_close(pr.e_prime, e_prime)
            assert_close(pr.T_prime, T_prime)

    def test_leave_one_out_thetas(self):
        sc, bank = haar_case()
        cell = mmse_detequiv_problem(sc, 1, None, bank, assemble_Z(sc, 1, None, bank))
        assert cell.stack_shape == (sc.K,)
        for k in (0, 3, 5):
            Z = assemble_Z(sc, 1, k, bank)
            got = mmse_detequiv_problem(sc, 1, k, bank, Z)
            want = loop_mmse_problem(sc, 1, k, bank, Z)
            assert_close(got.thetas, np.array(want.thetas))
            assert np.array_equal(got.A, want.A) and got.z == want.z
            # a user's problem is its member of the cell's stack
            for name in ("thetas", "A", "Q", "counts"):
                assert np.array_equal(getattr(got, name), getattr(cell, name)[k])

    def test_sinr_mmse(self):
        sc, bank = haar_case()
        for k in range(sc.K):
            assert_close(oracle.sinr_mmse_detequiv(sc, (1, k), bank),
                         loop_sinr_mmse(sc, 1, k, bank))

    def test_fixed_point_skips_the_eigenvalue_pass(self, monkeypatch):
        # A and every Theta_i are PSD (checked when the problem is built) and
        # z < 0, so -z bounds every resolvent matrix from below: no eigvalsh,
        # and the solution is bit for bit that of the floor-free guard
        p = random_problem(10, 6, seed=4)
        solve = detequiv.hermitian_solve
        monkeypatch.setattr(detequiv, "hermitian_solve", lambda A, B, floor=0.0: solve(A, B))
        want = solve_fixed_point(p)
        monkeypatch.setattr(detequiv, "hermitian_solve", solve)

        def refuse(*args, **kwargs):
            raise AssertionError("an eigenvalue pass ran")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        got = solve_fixed_point(p)
        assert got.iterations == want.iterations
        assert np.array_equal(got.e, want.e) and np.array_equal(got.T, want.T)


def stacked(problems):
    """One stacked problem from problems that share z."""
    return DetEquivProblem(
        thetas=np.stack([p.thetas for p in problems]), A=np.stack([p.A for p in problems]),
        Q=np.stack([p.Q for p in problems]), z=problems[0].z,
        counts=np.stack([p.counts for p in problems]))


class TestStack:
    """A stack of problems against its members solved alone."""

    def members(self):
        # scales 1e-2 to 1e2 converge in different numbers of iterations
        return [random_problem(8, 4, seed, scale) for seed, scale in
                [(30, 1e-2), (31, 1.0), (32, 30.0), (33, 1e2)]]

    def test_members_get_their_solo_solutions(self):
        members = self.members()
        omegas = [random_problem(8, 1, 40 + i).thetas[0] for i in range(len(members))]
        solo = [solve_fixed_point(p) for p in members]
        assert len({s.iterations for s in solo}) > 1
        stack = stacked(members)
        sol = solve_fixed_point(stack)
        assert type(sol.iterations) is int
        assert sol.iterations == sum(s.iterations for s in solo)
        primed = solve_primed(stack, sol, np.stack(omegas))
        for i, (p, s, omega) in enumerate(zip(members, solo, omegas)):
            assert len(sol.residual_history[i]) == s.iterations
            assert_close(sol.residual_history[i], s.residual_history)
            assert_close(sol.e[i], s.e)
            assert_close(sol.T[i], s.T)
            assert_close(sol.m[i], s.m)
            assert sol.residual[i] == s.residual_history[-1]
            want = solve_primed(p, s, omega)
            for name in ("J", "v", "e_prime", "T_prime"):
                assert_close(getattr(primed, name)[i], getattr(want, name))

    def test_divergence_names_the_members_left(self):
        members = self.members()
        counts = [solve_fixed_point(p).iterations for p in members]
        with pytest.raises(DivergenceError) as err:
            solve_fixed_point(stacked(members), max_iter=min(counts))
        slow = [str(i) for i, c in enumerate(counts) if c > min(counts)]
        assert f"member(s) {', '.join(slow)} " in str(err.value)

    @pytest.mark.parametrize("where,value,message", [
        ("thetas", (1, 2), "member 1: Theta_2 is not Hermitian positive semi-definite"),
        ("A", 2, "member 2: A is not Hermitian positive semi-definite"),
        ("Q", 3, "member 3: Q must be finite"),
    ])
    def test_bad_member_is_named(self, where, value, message):
        stack = stacked(self.members())
        data = dict(thetas=stack.thetas, A=stack.A, Q=stack.Q)
        data[where] = bad = data[where].copy()
        if message.endswith("must be finite"):
            bad[value][0, 0] = np.nan
        else:
            bad[value][0, 0] = -10.0 * np.abs(bad[value]).max()
        with pytest.raises(DomainError, match=f"^{message}$"):
            DetEquivProblem(z=stack.z, **data)


class TestProblemValidation:
    def test_accepts_psd_data(self):
        assert random_problem(6, 3, seed=2).thetas.shape == (3, 6, 6)
        empty = DetEquivProblem(thetas=[], A=np.zeros((2, 2)), Q=np.eye(2), z=-1.0)
        assert empty.thetas.shape == (0, 2, 2)

    @pytest.mark.parametrize("bad", [
        dict(thetas=[np.diag([1.0, -0.5])]),
        dict(A=np.diag([0.2, -1e-6])),
        dict(A=np.array([[1.0, 0.5], [0.0, 1.0]])),
        dict(thetas=[np.array([[1.0, 1j], [1j, 1.0]])]),
        dict(thetas=[np.diag([1.0, np.nan])]),
        dict(counts=[-1.0]),
        dict(counts=[1.0, 2.0]),
        dict(z=0.0),
        dict(z=np.nan),
        dict(z=-np.inf),
        dict(z=-1.0 + 0.5j),
    ])
    def test_rejects(self, bad):
        kw = dict(thetas=[np.eye(2)], A=np.zeros((2, 2)), Q=np.eye(2), z=-1.0)
        kw.update(bad)
        with pytest.raises(DomainError):
            DetEquivProblem(**kw)

    @pytest.mark.parametrize("Q,message", [
        (np.diag([np.nan, 1.0]), "Q must be finite"),
        (np.diag([1.0, -0.5]), "Q is not Hermitian positive semi-definite"),
        (np.array([[1.0, 0.5], [0.0, 1.0]]), "Q is not Hermitian positive semi-definite"),
        (np.eye(3), "Q must be 2 x 2"),
    ])
    def test_rejects_bad_Q_by_name(self, Q, message):
        # Q enters only m = (1/N) tr Q T, which a NaN or an indefinite Q
        # would turn into a non-finite or negative number without an error
        with pytest.raises(DomainError, match=message):
            DetEquivProblem(thetas=[np.eye(2)], A=np.zeros((2, 2)), Q=Q, z=-1.0)


class TestFixedPoint:
    def test_scalar_class_golden_ratio(self):
        sol = solve_fixed_point(scalar_problem(6, 6))
        assert abs(sol.e[0] - GOLDEN) < 1e-9

    def test_scalar_class_silver_ratio(self):
        sol = solve_fixed_point(scalar_problem(6, 12))
        assert abs(sol.e[0] - SILVER) < 1e-9

    def test_runtime_under_a_second(self):
        t0 = time.perf_counter()
        solve_fixed_point(scalar_problem(8, 8))
        solve_fixed_point(scalar_problem(8, 16))
        assert time.perf_counter() - t0 < 1.0

    def test_pure_resolvent(self):
        p = DetEquivProblem(thetas=[], A=np.zeros((3, 3)), Q=np.eye(3), z=-1.0)
        sol = solve_fixed_point(p)
        assert np.allclose(sol.T, np.eye(3))
        assert abs(sol.m - 1.0) < 1e-12

    def test_domain_error_for_nonnegative_z(self):
        with pytest.raises(DomainError):
            solve_fixed_point(scalar_problem(4, 4, z=0.5))

    def test_divergence_reports_residual(self):
        with pytest.raises(DivergenceError):
            solve_fixed_point(scalar_problem(4, 4), tol=1e-30, max_iter=5)

    def test_stieltjes_positivity(self):
        sol = solve_fixed_point(random_problem(8, 5, seed=3))
        assert np.all(sol.e >= 0)
        assert np.all(np.linalg.eigvalsh(sol.T) > 0)

    def test_residual_decreases_after_transient(self):
        sol = solve_fixed_point(random_problem(10, 6, seed=4))
        hist = np.array(sol.residual_history[5:])
        assert np.all(np.diff(hist) <= 1e-14)

    def test_invariance_under_joint_rescaling(self):
        p = random_problem(6, 4, seed=5)
        sol = solve_fixed_point(p)
        c = 7.3
        p2 = DetEquivProblem(thetas=[c * t for t in p.thetas], A=c * p.A,
                             Q=p.Q, z=c * p.z)
        sol2 = solve_fixed_point(p2)
        assert np.max(np.abs(sol.e - sol2.e)) < 1e-8 * (1 + np.max(np.abs(sol.e)))
        assert np.max(np.abs(sol.T - c * sol2.T)) < 1e-8 * np.max(np.abs(sol.T))

    def test_oracle_equivalence_iid_columns(self):
        # m approximates (1/N) tr Q (X X^H + A - z I)^{-1} with columns of
        # covariance Theta / N
        N, draws = 256, 200
        g = stream(6)
        x = complex_gaussian(g, N, 3)
        theta = (x @ x.conj().T) / 3 + 0.5 * np.eye(N)
        theta *= N / np.trace(theta).real
        sqrt_th = np.linalg.cholesky(theta)
        p = DetEquivProblem(thetas=[theta], A=np.zeros((N, N)), Q=np.eye(N),
                            z=-1.0, counts=[N])
        m_pred = solve_fixed_point(p).m
        acc = 0.0
        for _ in range(draws):
            Y = complex_gaussian(g, N, N) / np.sqrt(N)
            X = sqrt_th @ Y
            B = X @ X.conj().T + np.eye(N)
            acc += np.trace(np.linalg.inv(B)).real / N
        assert abs(acc / draws - m_pred) / m_pred < 0.05


class TestPrimedSystem:
    def test_empty_correction(self):
        p = DetEquivProblem(thetas=[], A=0.5 * np.eye(3), Q=np.eye(3), z=-1.0)
        base = solve_fixed_point(p)
        omega = np.diag([1.0, 2.0, 3.0])
        pr = solve_primed(p, base, omega)
        assert np.allclose(pr.T_prime, base.T @ omega @ base.T)

    def test_scalar_derivative_matches_finite_difference(self):
        h = 1e-5
        base = solve_fixed_point(scalar_problem(6, 6), tol=1e-13)
        pr = solve_primed(scalar_problem(6, 6), base, np.eye(6))
        ep = solve_fixed_point(scalar_problem(6, 6, z=-1.0 + h), tol=1e-13).e[0]
        em = solve_fixed_point(scalar_problem(6, 6, z=-1.0 - h), tol=1e-13).e[0]
        assert abs(pr.e_prime[0] - (ep - em) / (2 * h)) < 1e-4

    def test_asymmetric_derivative_matches_finite_difference(self):
        p = random_problem(7, 3, seed=8)
        base = solve_fixed_point(p, tol=1e-13)
        pr = solve_primed(p, base, np.eye(7))
        h = 1e-6
        pp = DetEquivProblem(thetas=p.thetas, A=p.A, Q=p.Q, z=p.z + h)
        pm = DetEquivProblem(thetas=p.thetas, A=p.A, Q=p.Q, z=p.z - h)
        Tp = solve_fixed_point(pp, tol=1e-13).T
        Tm = solve_fixed_point(pm, tol=1e-13).T
        fd = (Tp - Tm) / (2 * h)
        assert np.max(np.abs(pr.T_prime - fd)) < 1e-6 * np.max(np.abs(fd))

    def test_t_prime_hermitian(self):
        p = random_problem(6, 4, seed=9)
        base = solve_fixed_point(p)
        pr = solve_primed(p, base, p.thetas[0])
        assert np.max(np.abs(pr.T_prime - pr.T_prime.conj().T)) < 1e-10


class TestSinrDetequiv:
    def test_mmse_high_snr_limit(self):
        sc = make_scenario(seed=1, L=1, K=1, M=512, T_c=500, snr_db=0.0,
                           pilot_boost=1e12, r_own=16,
                           model=CorrelationModel.PARTIAL_UNITARY)
        g = sinr_mmse_detequiv(sc, (0, 0))
        assert abs(g - 512.0) / 512.0 < 0.05

    def test_mmse_requires_orthogonal(self):
        sc = make_scenario(seed=2, L=2, K=2, M=32, r_own=4, pilot="nonorthogonal")
        with pytest.raises(DomainError):
            sinr_mmse_detequiv(sc, (0, 0))

    def test_contamination_scales_with_r_squared(self):
        def contam(r_own):
            sc = make_scenario(seed=3 + r_own, L=4, K=2, M=512, snr_db=10.0,
                               r_own=r_own,
                               model=CorrelationModel.PARTIAL_UNITARY)
            bank = EstimatorBank.build(sc)
            est = bank.users[(0, 0)]
            prof = sc.profile(0, 0, 0)
            prob = mmse_detequiv_problem(sc, 0, 0, bank, assemble_Z(sc, 0, 0, bank))
            base = solve_fixed_point(prob)
            xlt = (est.xi * prof.lam[None, :]) @ base.T
            return sum(
                abs(np.trace(xlt @ projected_cov(sc, 0, 0, (0, lp, 0))) / prof.r) ** 2
                for lp in range(1, 4)
            )
        ratio = contam(16) / contam(8)
        assert 3.0 < ratio < 5.5

    def test_mmse_matches_monte_carlo(self):
        # reduced criterion-2 configuration
        sc = make_scenario(seed=4, L=4, K=10, M=200, T_c=500, snr_db=20.0,
                           r_own=10, model=CorrelationModel.PARTIAL_FOURIER)
        rep = run_bounds(sc, "ul", ("coherent",), 300, 42, "mmse", cells=[0])["coherent"]
        mc = np.mean([rep.mean_sinr[(0, k)] for k in range(10)])
        de = np.mean([sinr_mmse_detequiv(sc, (0, k)) for k in range(10)])
        assert abs(mc - de) / de < 0.10

    def test_mf_noiseless_limit(self):
        sc = make_scenario(seed=5, L=1, K=1, M=64, snr_db=0.0, pilot_boost=1e12,
                           r_own=16, pilot="nonorthogonal",
                           model=CorrelationModel.PARTIAL_UNITARY)
        g = sinr_mf_detequiv(sc, (0, 0))
        assert abs(g - 64.0) < 1e-6 * 64.0

    def test_mf_psi_finite(self):
        for seed in range(3):
            sc = make_scenario(seed=seed, L=3, K=4, M=100, snr_db=10.0, r_own=8,
                               pilot="nonorthogonal",
                               model=CorrelationModel.PARTIAL_FOURIER)
            g = sinr_mf_detequiv(sc, (0, 0))
            assert np.isfinite(g) and g > 0

    @pytest.mark.parametrize("pilot", ["orthogonal", "nonorthogonal"])
    def test_limits_read_the_draws_engine(self, monkeypatch, pilot):
        # both limits build no estimator: they read the draw's one engine,
        # the MMSE one under orthogonal pilots, the MF one under shared ones
        from mimo_lab import training

        sc = make_scenario(seed=8, L=3, K=4, M=48, snr_db=10.0, r_own=6, pilot=pilot,
                           model=CorrelationModel.PARTIAL_UNITARY)
        full = training.EstimatorBank.build(sc)
        built = []
        build_estimator = training.build_estimator

        def counted(scenario, l, k):
            built.append((l, k))
            return build_estimator(scenario, l, k)

        monkeypatch.setattr(training, "build_estimator", counted)
        engines = count_engines(monkeypatch)
        limit, ref = ((sinr_mmse_detequiv, oracle.sinr_mmse_detequiv) if pilot == "orthogonal"
                      else (sinr_mf_detequiv, oracle.sinr_mf_detequiv))
        for l, k in [(0, 0), (1, 2), (2, 3)]:
            got = limit(sc, (l, k))
            assert built == []
            assert_close(got, ref(sc, (l, k), full))
            assert limit(sc, (l, k)) == got
        assert engines == [sc.draw_engine]

    def test_bankless_calls_build_each_cell_once(self, monkeypatch):
        from mimo_lab import training

        sc = make_scenario(seed=8, L=4, K=10, M=64, snr_db=20.0, r_own=6,
                           model=CorrelationModel.PARTIAL_UNITARY)
        full = training.EstimatorBank.build(sc)
        built = []
        build_estimator = training.build_estimator

        def counted(scenario, l, k):
            built.append((l, k))
            return build_estimator(scenario, l, k)

        monkeypatch.setattr(training, "build_estimator", counted)
        engines = count_engines(monkeypatch)
        got = [sinr_mmse_detequiv(sc, u) for u in sc.users()]
        assert built == [] and len(engines) == 1
        assert_close(got, [oracle.sinr_mmse_detequiv(sc, u, full) for u in sc.users()])
        built.clear()
        assert [sinr_mmse_detequiv(sc, u) for u in sc.users()] == got
        assert built == [] and len(engines) == 1

        # a replaced scenario starts with no engine of its own
        louder = replace(sc, snr=10 * sc.snr)
        assert sinr_mmse_detequiv(louder, (2, 3)) != got[2 * sc.K + 3]
        assert built == [] and len(engines) == 2

    def test_bankless_calls_solve_each_cell_once(self, monkeypatch):
        # the first call for a cell evaluates all of its users; the others
        # read the memo
        from mimo_lab import training

        sc = make_scenario(seed=8, L=3, K=4, M=48, snr_db=10.0, r_own=6,
                           model=CorrelationModel.PARTIAL_UNITARY)
        first = sinr_mmse_detequiv(sc, (1, 2))
        solve = detequiv.solve_fixed_point

        def refuse(*args, **kwargs):
            raise AssertionError("a fixed point was solved again")

        monkeypatch.setattr(detequiv, "solve_fixed_point", refuse)
        got = [sinr_mmse_detequiv(sc, (1, k)) for k in range(sc.K)]
        assert got[2] == first
        monkeypatch.setattr(detequiv, "solve_fixed_point", solve)
        full = training.EstimatorBank.build(sc)
        assert_close(got, [oracle.sinr_mmse_detequiv(sc, (1, k), full) for k in range(sc.K)])

    @pytest.mark.parametrize("model", [CorrelationModel.PARTIAL_UNITARY,
                                       CorrelationModel.PARTIAL_FOURIER])
    def test_bankless_matches_the_bank_path(self, model):
        # the engine's tables (dense for Haar draws, expanded angular
        # diagonals for Fourier ones) against the reference estimators;
        # decaying eigenvalues, so that Lambda and Xi do not commute
        sc = make_scenario(seed=11, L=3, K=5, M=60, snr_db=15.0, r_own=6, model=model,
                           eigen_shape="exp_decay", eigen_rate=0.4)
        bank = EstimatorBank.build(sc)
        got = [sinr_mmse_detequiv(sc, u) for u in sc.users()]
        want = [oracle.sinr_mmse_detequiv(sc, u, bank) for u in sc.users()]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("model", [CorrelationModel.PARTIAL_UNITARY,
                                       CorrelationModel.PARTIAL_FOURIER])
    @pytest.mark.parametrize("case", [
        dict(),
        dict(L=1),
        dict(r_cross=3),
        dict(eigen_shape="exp_decay", eigen_rate=0.4),
    ], ids=["cells", "one cell", "r_cross < r_own", "decaying eigenvalues"])
    def test_mf_matches_the_oracle(self, model, case):
        # the engine's tables against one projected_cov per link of the
        # reference estimator, every user; repeat calls give the same bits
        kw = dict(L=3, K=4, M=48, r_own=6, snr_db=10.0) | case
        sc = make_scenario(seed=13, pilot="nonorthogonal", model=model, **kw)
        got = [sinr_mf_detequiv(sc, u) for u in sc.users()]
        want = [oracle.sinr_mf_detequiv(sc, u) for u in sc.users()]
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert [sinr_mf_detequiv(sc, u) for u in sc.users()] == got

    @pytest.mark.parametrize("model", [CorrelationModel.PARTIAL_UNITARY,
                                       CorrelationModel.PARTIAL_FOURIER])
    def test_mf_reads_each_cells_tables_once(self, monkeypatch, model):
        # one table read per cell for all of its users, kept in the memo
        sc = make_scenario(seed=13, L=3, K=4, M=48, r_own=6, snr_db=10.0,
                           pilot="nonorthogonal", model=model)
        tables, cells = DrawEngine.detequiv_tables, []

        def counted(self, l):
            cells.append(l)
            return tables(self, l)

        monkeypatch.setattr(DrawEngine, "detequiv_tables", counted)
        got = [sinr_mf_detequiv(sc, u) for u in sc.users()]
        assert cells == list(range(sc.L))
        assert sorted(sc.cell_mf_sinr) == cells
        assert [sinr_mf_detequiv(sc, u) for u in sc.users()] == got
        assert len(cells) == sc.L

    @pytest.mark.parametrize("model", [CorrelationModel.PARTIAL_UNITARY,
                                       CorrelationModel.PARTIAL_FOURIER])
    def test_run_bounds_and_detequiv_share_one_engine(self, monkeypatch, model):
        sc = make_scenario(seed=12, L=2, K=4, M=40, snr_db=10.0, r_own=4, model=model)
        engines = count_engines(monkeypatch)
        run_bounds(sc, "ul", ("coherent", "alt"), 8, 3)
        run_bounds(sc, "dl", ("alt",), 8, 3)
        for u in sc.users():
            sinr_mmse_detequiv(sc, u)
        assert engines == [sc.draw_engine]
        # any other arguments build a fresh engine
        run_bounds(sc, "ul", ("coherent",), 8, 3, combiner="mf")
        assert len(engines) == 2 and engines[0] is sc.draw_engine

    def test_memo_makes_no_reference_cycle(self):
        # freed by reference counting alone: the memo keeps the cell's
        # SINRs, not the bank that points back to its scenario
        sc = make_scenario(seed=8, L=2, K=3, M=32, r_own=4,
                           model=CorrelationModel.PARTIAL_UNITARY)
        gc.disable()
        try:
            sinr_mmse_detequiv(sc, (1, 0))
            assert sc.cell_mmse_sinr
            ref = weakref.ref(sc)
            del sc
            assert ref() is None
        finally:
            gc.enable()

    def test_run_bounds_memo_makes_no_reference_cycle(self):
        # the memoised engine keeps scalars of its scenario, not the scenario
        sc = make_scenario(seed=8, L=2, K=3, M=32, r_own=4,
                           model=CorrelationModel.PARTIAL_UNITARY)
        gc.disable()
        try:
            run_bounds(sc, "ul", ("coherent",), 8, 3)
            assert sc.draw_engine is not None
            ref = weakref.ref(sc)
            del sc
            assert ref() is None
        finally:
            gc.enable()

    def test_mf_matches_monte_carlo_moment_ratio(self):
        # Fig.4-style configuration: moment-ratio MF SINR vs its limit
        from mimo_lab.training import EstimatorBank, contaminators, projection

        sc = make_scenario(seed=6, L=7, K=20, M=100, T_c=50, snr_db=20.0, r_own=8,
                           pilot="nonorthogonal",
                           model=CorrelationModel.PARTIAL_FOURIER)
        bank = EstimatorBank.build(sc)
        de = sinr_mf_detequiv(sc, (0, 0))
        g = stream(7)
        trials = 300
        sig = np.empty(trials, dtype=complex)
        vnorm2 = np.empty(trials)
        interf = np.empty(trials)
        projs = {key: projection(sc, 0, 0, key) for key in contaminators(sc, 0, 0)}
        own = sc.profile(0, 0, 0)
        for t in range(trials):
            # the links into BS 0 seen by user (0, 0), and its despread pilot
            w = np.sqrt(own.lam) * complex_gaussian(g, own.r)
            seen = [P @ (np.sqrt(sc.profiles[key].lam) * complex_gaussian(g, P.shape[1]))
                    for key, P in projs.items()]
            s = w + sum(seen) + complex_gaussian(g, own.r) / np.sqrt(sc.rho_p)
            v = bank.users[(0, 0)].filt @ s
            sig[t] = np.vdot(v, w)
            vnorm2[t] = np.vdot(v, v).real
            interf[t] = sum(abs(np.vdot(v, x)) ** 2 for x in seen)
        mc = abs(sig.mean()) ** 2 / (vnorm2.mean() / sc.P_ul + interf.mean())
        assert abs(mc - de) / de < 0.15


class TestConcentrationChecks:
    def test_trace_lemma_identity_mean(self):
        g = stream(8)
        x = complex_gaussian(g, 1000, 256) / np.sqrt(256)
        quad = np.einsum("ti,ti->t", x.conj(), x).real
        assert abs(quad.mean() - 1.0) < 0.02

    def test_independent_vectors_second_moment(self):
        rep = concentration_check("IndependentVectors", [256, 512], 2000, stream(9))
        m = np.mean(rep.samples[512] ** 2)
        assert abs(m - 1.0 / 512) / (1.0 / 512) < 0.15

    def test_haar_product_decay(self):
        rep = concentration_check("HaarProduct", [64, 256], 150, stream(10))
        assert rep.mean_dev[1] < 2.0 * rep.mean_dev[0]

    def test_all_kinds_have_negative_slope(self):
        for kind in CONCENTRATION_KINDS:
            trials = 150 if kind in ("HaarProduct", "FourierProduct") else 400
            rep = concentration_check(kind, [64, 128, 256], trials, stream(11))
            assert rep.slope < -0.3, f"{kind} slope {rep.slope}"

    def test_dims_must_increase(self):
        with pytest.raises(ValueError):
            concentration_check("TraceLemma", [64, 64], 10, stream(12))

    def test_one_dim_fits_no_slope(self):
        with pytest.raises(ValueError, match="two dims"):
            concentration_check("TraceLemma", [64], 10, stream(12))

    @pytest.mark.parametrize("trials", [0, 1])
    def test_spread_needs_two_trials(self, trials):
        with pytest.raises(ValueError, match="trials must be >= 2"):
            concentration_check("TraceLemma", [64, 128], trials, stream(12))


class TestUnitaryModelAgreement:
    def test_mmse_detequiv_matches_mc_under_haar_bases(self):
        # the coherent-contamination term is non-degenerate for Haar bases
        # (projected covariances are never exactly zero)
        sc = make_scenario(seed=1, L=3, K=5, M=128, r_own=8, snr_db=15.0,
                           model=CorrelationModel.PARTIAL_UNITARY)
        rep = run_bounds(sc, "ul", ("coherent",), 600, 91, "mmse",
                         cells=[0])["coherent"]
        mc = np.mean([rep.mean_sinr[(0, k)] for k in range(5)])
        de = np.mean([sinr_mmse_detequiv(sc, (0, k)) for k in range(5)])
        assert abs(mc - de) / de < 0.10
