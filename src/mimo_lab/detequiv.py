"""Deterministic equivalents: fixed-point solver, derivative system, SINR
limits, and the concentration estimators backing the property suite.

The fixed point characterizes m(z) = (1/N) tr Q (XX^H + A - zI)^{-1} for X
with independent columns of covariance Theta_i / N, allowing the rescaled
spectral norms ||b_i Theta_i|| (rather than the norms themselves) to stay
bounded.  All resolvent evaluations are Hermitian solves at negative real z,
whose matrices -z bounds from below.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._linalg import herm, hermitian_solve
from .covmodel import (
    NetworkScenario,
    complex_gaussian,
    dft_matrix,
    sample_partial_fourier,
    sample_partial_unitary,
)
from .training import EstimatorBank, projected_cov, projection


class DivergenceError(RuntimeError):
    pass


class DomainError(ValueError):
    pass


class NearCriticalPoint(RuntimeError):
    pass


# relative size of the skew and negative eigenvalues a PSD input may carry
_ROUNDOFF = 1e-10


@dataclass
class DetEquivProblem:
    """Resolvent problem data.

    thetas: the n column-covariance matrices Theta_i (N x N Hermitian PSD),
    kept as one (n, N, N) stack; counts lets identical Theta classes be
    stored once with a multiplicity.  A and Q are N x N Hermitian PSD; z must
    be negative real.  betas carry the per-class trace normalizations (all 1
    in the homogeneous case).

    Construction checks what makes -z a floor on the spectrum of every
    resolvent matrix sum_i c_i/(1+e_i) Theta_i/N + A - zI, and what keeps
    m = (1/N) tr Q T finite and non-negative: z is a finite negative real,
    every Theta_i, A and Q is Hermitian PSD within round-off (no skew entry
    and no negative eigenvalue larger than _ROUNDOFF times the spectral norm
    of the matrix's Hermitian part), counts are non-negative and betas
    positive.  Otherwise it raises DomainError.
    """

    thetas: np.ndarray
    A: np.ndarray
    Q: np.ndarray
    z: float
    counts: np.ndarray | None = None
    betas: np.ndarray | None = None
    beta0: float = 1.0

    def __post_init__(self):
        if not (np.isreal(self.z) and np.isfinite(self.z) and np.real(self.z) < 0):
            raise DomainError(f"z must be a finite negative real, got {self.z}")
        self.A = np.atleast_2d(np.asarray(self.A, dtype=complex))
        self.Q = np.atleast_2d(np.asarray(self.Q, dtype=complex))
        self.thetas = np.asarray(self.thetas, dtype=complex).reshape(
            len(self.thetas), self.N, self.N)
        n = len(self.thetas)
        self.counts = (
            np.ones(n) if self.counts is None else np.asarray(self.counts, dtype=float)
        )
        self.betas = (
            np.ones(n) if self.betas is None else np.asarray(self.betas, dtype=float)
        )
        if self.counts.shape != (n,) or not np.all(self.counts >= 0):
            raise DomainError(f"counts must be {n} non-negative numbers, got {self.counts}")
        if self.betas.shape != (n,) or not np.all(self.betas > 0):
            raise DomainError(f"betas must be {n} positive numbers, got {self.betas}")
        if self.Q.shape != self.A.shape:
            raise DomainError(f"Q must be {self.N} x {self.N}, got shape {self.Q.shape}")
        mats = np.concatenate([self.thetas, self.A[None], self.Q[None]])
        names = [f"Theta_{i}" for i in range(n)] + ["A", "Q"]
        finite = np.isfinite(mats).all(axis=(1, 2))
        if not finite.all():
            raise DomainError(f"{names[np.argmin(finite)]} must be finite")
        skew = np.abs(mats - mats.conj().swapaxes(1, 2)).max(axis=(1, 2))
        eig = np.linalg.eigvalsh(herm(mats))
        tol = _ROUNDOFF * np.abs(eig).max(axis=1)
        bad = np.flatnonzero((skew > tol) | (eig[:, 0] < -tol))
        if bad.size:
            raise DomainError(f"{names[bad[0]]} is not Hermitian positive semi-definite")

    @property
    def N(self) -> int:
        return self.A.shape[0]


@dataclass
class DetEquivSolution:
    e: np.ndarray
    T: np.ndarray
    m: float
    iterations: int
    residual: float
    residual_history: list = field(default_factory=list, repr=False)


@dataclass
class PrimedSolution:
    e_prime: np.ndarray
    T_prime: np.ndarray
    J: np.ndarray
    v: np.ndarray


def _traces(stack: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Re tr(X_i B) for every matrix X_i of a stack."""
    return np.einsum("nij,ji->n", stack, B).real


def _resolvent(problem: DetEquivProblem, e: np.ndarray, shifted: np.ndarray) -> np.ndarray:
    """T = (sum_i c_i/(1+e_i) Theta_i/N + A - zI)^{-1}, given shifted = A - zI."""
    N = problem.N
    n = len(problem.thetas)
    # the one GEMV tensordot reaches, without its reshaping: same sums, same order
    M = ((problem.counts / (1.0 + e)) @ problem.thetas.reshape(n, N * N)).reshape(N, N) / N
    # A and every Theta_i are PSD (checked at construction) and z < 0
    T, _ = hermitian_solve(M + shifted, None, floor=-problem.z)
    return herm(T)


def solve_fixed_point(
    problem: DetEquivProblem, tol: float = 1e-10, max_iter: int = 10_000
) -> DetEquivSolution:
    """Iterate the fixed point from e^(0) = -1/z until the relative change of
    every e_i drops below tol."""
    N = problem.N
    n = len(problem.thetas)
    shifted = problem.A - problem.z * np.eye(N)
    if n == 0:
        T = _resolvent(problem, np.empty(0), shifted)
        m = float(np.real(np.trace(problem.Q @ T))) / (problem.beta0 * N)
        return DetEquivSolution(e=np.empty(0), T=T, m=m, iterations=0, residual=0.0)

    e = np.full(n, -1.0 / problem.z)
    residual = np.inf
    history = []
    for it in range(1, max_iter + 1):
        T = _resolvent(problem, e, shifted)
        e_new = _traces(problem.thetas, T) / (problem.betas * N)
        residual = float((np.abs(e_new - e) / (1.0 + np.abs(e_new))).max())
        history.append(residual)
        e = e_new
        if residual < tol:
            T = _resolvent(problem, e, shifted)
            m = float(np.real(np.trace(problem.Q @ T))) / (problem.beta0 * N)
            return DetEquivSolution(
                e=e, T=T, m=m, iterations=it, residual=residual,
                residual_history=history,
            )
    raise DivergenceError(
        f"fixed point did not reach tol={tol} in {max_iter} iterations "
        f"(last residual {residual:.3e})"
    )


def solve_primed(
    problem: DetEquivProblem, base: DetEquivSolution, omega: np.ndarray
) -> PrimedSolution:
    """Deterministic equivalent of the squared resolvent sandwiching omega.

    Assembles the n x n linear system for e' and forms
    T' = T omega T + T [(1/N) sum_j c_j Theta_j e'_j / (1+e_j)^2] T.
    With omega = I this is exactly dT/dz (differentiate the fixed point).
    """
    N = problem.N
    n = len(problem.thetas)
    T = base.T
    omega = np.atleast_2d(np.asarray(omega, dtype=complex))
    TOT = T @ omega @ T
    if n == 0:
        return PrimedSolution(
            e_prime=np.empty(0), T_prime=herm(TOT), J=np.empty((0, 0)), v=np.empty(0)
        )
    e = base.e
    TTh = T @ problem.thetas
    v = _traces(problem.thetas, TOT) / (problem.betas * N)
    # column convention: the (1+e_j)^2 damping sits on the class being
    # differentiated, which is what d e_i / dz requires
    J = (
        np.einsum("iab,jba->ij", TTh, TTh).real
        * (problem.counts / (1.0 + e) ** 2)[None, :]
        / (problem.betas[:, None] * N * N)
    )
    I_minus_J = np.eye(n) - J
    if abs(np.linalg.det(I_minus_J)) < 1e-14:
        raise NearCriticalPoint("(I - J) is singular; z too close to the spectrum")
    try:
        e_prime = np.linalg.solve(I_minus_J, v)
    except np.linalg.LinAlgError as exc:
        raise NearCriticalPoint("(I - J) is singular; z too close to the spectrum") from exc
    # T corr T = sum_j w_j (T Theta_j) T
    w = problem.counts * e_prime / (N * (1.0 + e) ** 2)
    T_prime = herm(TOT + np.tensordot(w, TTh, axes=1) @ T)
    return PrimedSolution(e_prime=e_prime, T_prime=T_prime, J=J, v=v)


# ---------------------------------------------------------------------------
# SINR deterministic equivalents
# ---------------------------------------------------------------------------

def mmse_detequiv_problem(
    scenario: NetworkScenario, l: int, k: int, bank: EstimatorBank, Z: np.ndarray
) -> DetEquivProblem:
    """Fixed-point problem behind user (l, k)'s MMSE combiner.

    Works on the 1/r-rescaled combiner resolvent: the column classes are the
    other own-cell users' projected estimate covariances (leave-one-out in
    the served user), A = Z/r, z = -1/(P_ul r).
    """
    r = scenario.profile(l, l, k).r
    others = [j for j in range(scenario.K) if j != k]
    P = np.array([projection(scenario, l, k, (l, l, j)) for j in others]).reshape(-1, r, r)
    phi = np.array([bank.users[(l, j)].phi for j in others]).reshape(-1, r, r)
    return DetEquivProblem(
        thetas=herm(P @ phi @ P.conj().swapaxes(1, 2)),
        A=Z / r,
        Q=bank.users[(l, k)].phi,
        z=-1.0 / (scenario.P_ul * r),
    )


def sinr_mmse_detequiv(
    scenario: NetworkScenario,
    user: tuple,
    bank: EstimatorBank | None = None,
    Z: np.ndarray | None = None,
) -> float:
    """Deterministic equivalent of the uplink MMSE post-combining SINR.

    Orthogonal pilots only.  Assembles the signal, noise, coherent pilot
    contamination, and residual interference terms from the fixed point and
    its derivative system.  Without a bank, cell l's K estimators are built
    on the scenario's first call for that cell and kept in
    `scenario.cell_estimators`.
    """
    if scenario.scheme.kind != "orthogonal":
        raise DomainError("the MMSE SINR deterministic equivalent assumes orthogonal pilots")
    # imported at call time: the benchmark's tracer patches beamform.assemble_Z
    from .beamform import assemble_Z

    l, k = user
    if bank is None:
        # every term reads the estimators of cell l only; the memo keeps them
        # without the bank, whose back-reference to the scenario would make a
        # reference cycle
        users = scenario.cell_estimators.get(l)
        if users is None:
            users = EstimatorBank.build(scenario, [(l, j) for j in range(scenario.K)]).users
            scenario.cell_estimators[l] = users
        bank = EstimatorBank(scenario=scenario, users=users)
    est = bank.users[(l, k)]
    prof = scenario.profile(l, l, k)
    r = prof.r
    Z = Z if Z is not None else assemble_Z(scenario, l, k, bank)

    problem = mmse_detequiv_problem(scenario, l, k, bank, Z)
    base = solve_fixed_point(problem)
    T = base.T

    delta = np.real(np.trace(est.phi @ T)) / r

    # one derivative solve covers every static quadratic form through the
    # symmetry tr(Phi T'_D) = tr(D T'_Phi): noise, other-cell covariances,
    # and error covariances all live inside D_stat = Z + P_ul^{-1} I
    primed_phi = solve_primed(problem, base, est.phi)
    d_stat = Z + (1.0 / scenario.P_ul) * np.eye(r)
    den = np.real(np.trace(d_stat @ primed_phi.T_prime)) / (r * r)

    # own-cell estimate residuals, MMSE-suppressed by (1 + e_j)^2
    den += np.sum(_traces(problem.thetas, primed_phi.T_prime) / (r * r * (1.0 + base.e) ** 2))

    # coherent pilot contamination: same pilot index, other cells
    xi_lam_T = (est.xi * prof.lam[None, :]) @ T
    for lp in range(scenario.L):
        if lp == l:
            continue
        rt = projected_cov(scenario, l, k, (l, lp, k))
        den += abs(np.trace(xi_lam_T @ rt) / r) ** 2

    return float(delta ** 2 / den)


def mf_psi(scenario: NetworkScenario, user: tuple, src_key,
           bank: EstimatorBank | None = None) -> float:
    """Isotropic-average contamination factor of one link under MF:
    psi = (1/(r M)) tr Lambda_src tr(Xi' Lambda)."""
    l, k = user
    bank = bank if bank is not None else EstimatorBank.build(scenario, [user])
    est = bank.users[(l, k)]
    prof = scenario.profile(l, l, k)
    tr_xi_lam = float(np.real(np.sum(np.diagonal(est.xi) * prof.lam)))
    return scenario.profiles[src_key].energy * tr_xi_lam / (prof.r * scenario.M)


def sinr_mf_detequiv(
    scenario: NetworkScenario, user: tuple, bank: EstimatorBank | None = None
) -> float:
    """Deterministic equivalent of the matched-filter SINR under the
    network-wide non-orthogonal pilot.

    Every other link contaminates.  Per link, the coherent contamination is
    |tr(Xi' Lambda R~)|^2 and the residual (non-coherent) power is
    tr(Phi' R~), both conditioned on the realized eigenbases; averaging R~
    over isotropic bases collapses the coherent term to the alpha^2 psi^2
    form and the expression to P_ul tr Lambda in the strong-correlation
    limit.
    """
    if scenario.scheme.kind != "nonorthogonal":
        raise DomainError("the MF SINR deterministic equivalent assumes non-orthogonal pilots")
    l, k = user
    bank = bank if bank is not None else EstimatorBank.build(scenario, [user])
    est = bank.users[(l, k)]
    prof = scenario.profile(l, l, k)
    M = scenario.M

    tr_phi = float(np.real(np.trace(est.phi)))
    xi_lam = est.xi * prof.lam[None, :]

    num = (tr_phi / M) ** 2
    noise = tr_phi / (scenario.P_ul * M * M)
    contam = 0.0
    for lp in range(scenario.L):
        for kp in range(scenario.K):
            if (lp, kp) == (l, k):
                continue
            rt = projected_cov(scenario, l, k, (l, lp, kp))
            contam += abs(np.trace(xi_lam @ rt)) ** 2 / (M * M)
            contam += np.real(np.trace(est.phi @ rt)) / (M * M)
    return float(num / (noise + contam))


# ---------------------------------------------------------------------------
# Concentration estimators (property-suite backend)
# ---------------------------------------------------------------------------

CONCENTRATION_KINDS = (
    "TraceLemma",
    "ConstantModulus",
    "UnboundedNorm",
    "IndependentVectors",
    "HaarProduct",
    "FourierProduct",
)


@dataclass
class ConcentrationReport:
    kind: str
    dims: list
    mean_dev: np.ndarray
    std_dev: np.ndarray
    slope: float
    samples: dict = field(default_factory=dict, repr=False)

    def __str__(self):
        rows = "\n".join(
            f"  n={n:5d}  mean|dev|={m:.4e}  std={s:.4e}"
            for n, m, s in zip(self.dims, self.mean_dev, self.std_dev)
        )
        return f"{self.kind}: log-log decay slope {self.slope:+.3f}\n{rows}"


def _banded_test_matrix(n: int) -> np.ndarray:
    A = np.eye(n)
    off = 0.5 * np.ones(n - 1)
    A += np.diag(off, 1) + np.diag(off, -1)
    return A


def _deviation_samples(kind: str, n: int, trials: int, rng) -> np.ndarray:
    if kind == "TraceLemma":
        A = _banded_test_matrix(n)
        tr = np.trace(A) / n
        x = complex_gaussian(rng, trials, n) / np.sqrt(n)
        quad = np.einsum("ti,ij,tj->t", x.conj(), A, x)
        return np.abs(quad - tr)
    if kind == "ConstantModulus":
        A = _banded_test_matrix(n)
        tr = np.trace(A) / n
        y = np.exp(2j * np.pi * rng.random((trials, n))) / np.sqrt(n)
        quad = np.einsum("ti,ij,tj->t", y.conj(), A, y)
        return np.abs(quad - tr)
    if kind == "UnboundedNorm":
        # rank ~ sqrt(n) spikes of height sqrt(n); rescaling by n/m_n = 1/sqrt(n)
        # keeps the effective norm bounded while tr A / n stays 1
        rk = max(int(np.sqrt(n)), 1)
        diag = np.zeros(n)
        diag[:rk] = n / rk
        scale = 1.0 / np.sqrt(n)
        x = complex_gaussian(rng, trials, n) / np.sqrt(n)
        quad = np.einsum("ti,ti->t", (x * diag).conj(), x) * scale
        return np.abs(quad - scale * 1.0)
    if kind == "IndependentVectors":
        x = complex_gaussian(rng, trials, n) / np.sqrt(n)
        y = complex_gaussian(rng, trials, n) / np.sqrt(n)
        return np.abs(np.einsum("ti,ti->t", x.conj(), y))
    if kind in ("HaarProduct", "FourierProduct"):
        r = 8
        devs = np.empty(trials)
        target = (r / n) * np.eye(r)
        for t in range(trials):
            if kind == "HaarProduct":
                U, V = (sample_partial_unitary(n, r, rng) for _ in range(2))
            else:
                U, V = (dft_matrix(n)[:, sample_partial_fourier(n, r, rng)] for _ in range(2))
            W = U.conj().T @ V
            devs[t] = np.max(np.abs(W @ W.conj().T - target))
        return devs
    raise ValueError(f"unknown concentration kind {kind!r}")


def concentration_check(
    kind: str, dims, trials: int, rng: np.random.Generator
) -> ConcentrationReport:
    """Empirical deviation statistics of one concentration lemma across an
    increasing sequence of dimensions plus the fitted log-log decay slope."""
    dims = sorted(int(d) for d in dims)
    if any(d2 <= d1 for d1, d2 in zip(dims, dims[1:])):
        raise ValueError("dims must be strictly increasing")
    mean_dev, std_dev, samples = [], [], {}
    for n in dims:
        dev = _deviation_samples(kind, n, trials, rng)
        mean_dev.append(float(dev.mean()))
        std_dev.append(float(dev.std(ddof=1)))
        samples[n] = dev
    slope = float(
        np.polyfit(np.log(np.asarray(dims, float)), np.log(np.asarray(mean_dev)), 1)[0]
    )
    return ConcentrationReport(
        kind=kind,
        dims=dims,
        mean_dev=np.array(mean_dev),
        std_dev=np.array(std_dev),
        slope=slope,
        samples=samples,
    )
