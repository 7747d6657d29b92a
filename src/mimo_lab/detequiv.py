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
from .bounds import default_engine
from .covmodel import (
    NetworkScenario,
    complex_gaussian,
    dft_matrix,
    sample_partial_fourier,
    sample_partial_unitary,
)
# not called here: perfbench's tracer counts projected_cov calls through the
# name of every module that has bound it
from .training import projected_cov  # noqa: F401


class DivergenceError(RuntimeError):
    pass


class DomainError(ValueError):
    pass


class NearCriticalPoint(RuntimeError):
    pass


# relative size of the skew and negative eigenvalues a PSD input may carry
_ROUNDOFF = 1e-10


def _members(S: tuple, flat) -> str:
    """Labels of the members at flat indices of a stack of shape S: an
    index for a one-axis stack, else an index tuple."""
    idx = [tuple(int(i) for i in np.unravel_index(p, S)) for p in flat]
    return ", ".join(str(i[0]) if len(S) == 1 else str(i) for i in idx)


@dataclass
class DetEquivProblem:
    """Resolvent problem data.

    thetas: the n column-covariance matrices Theta_i (N x N Hermitian PSD),
    kept as one (n, N, N) stack; counts lets identical Theta classes be
    stored once with a multiplicity.  A and Q are N x N Hermitian PSD; z must
    be negative real.  betas carry the per-class trace normalizations (all 1
    in the homogeneous case).

    A stack of problems that share z carries leading axes S: A and Q are
    S + (N, N), thetas S + (n, N, N), counts and betas S + (n,) (their
    default ones take that shape).  An unstacked problem has S = ().

    Construction checks what makes -z a floor on the spectrum of every
    resolvent matrix sum_i c_i/(1+e_i) Theta_i/N + A - zI, and what keeps
    m = (1/N) tr Q T finite and non-negative: z is a finite negative real,
    every Theta_i, A and Q is Hermitian PSD within round-off (no skew entry
    and no negative eigenvalue larger than _ROUNDOFF times the spectral norm
    of the matrix's Hermitian part), counts are non-negative and betas
    positive.  Otherwise it raises DomainError, naming the matrix that
    failed and, in a stack, its member.
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
        S, N = self.stack_shape, self.N
        thetas = np.asarray(self.thetas, dtype=complex)
        if thetas.size == 0:
            thetas = thetas.reshape(S + (0, N, N))
        if thetas.ndim != len(S) + 3 or thetas.shape[:len(S)] != S or thetas.shape[-2:] != (N, N):
            raise DomainError(f"thetas must be {' x '.join(map(str, S + ('n', N, N)))}, "
                              f"got shape {thetas.shape}")
        self.thetas = thetas
        shape = thetas.shape[:-2]
        n = shape[-1]
        size = shape if S else n
        self.counts = (
            np.ones(shape) if self.counts is None else np.asarray(self.counts, dtype=float)
        )
        self.betas = (
            np.ones(shape) if self.betas is None else np.asarray(self.betas, dtype=float)
        )
        if self.counts.shape != shape or not np.all(self.counts >= 0):
            raise DomainError(f"counts must be {size} non-negative numbers, got {self.counts}")
        if self.betas.shape != shape or not np.all(self.betas > 0):
            raise DomainError(f"betas must be {size} positive numbers, got {self.betas}")
        if self.Q.shape != self.A.shape:
            raise DomainError(f"Q must be {' x '.join(map(str, self.A.shape))}, "
                              f"got shape {self.Q.shape}")
        # every matrix of every member, one eigenvalue pass: [member, matrix]
        mats = np.concatenate([thetas, self.A[..., None, :, :], self.Q[..., None, :, :]],
                              axis=-3).reshape(-1, n + 2, N, N)
        names = [f"Theta_{i}" for i in range(n)] + ["A", "Q"]

        def failed(bad, what):
            member, i = np.argwhere(bad)[0]
            where = f"member {_members(S, [member])}: " if S else ""
            raise DomainError(f"{where}{names[i]} {what}")

        finite = np.isfinite(mats).all(axis=(-2, -1))
        if not finite.all():
            failed(~finite, "must be finite")
        skew = np.abs(mats - mats.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
        eig = np.linalg.eigvalsh(herm(mats))
        tol = _ROUNDOFF * np.abs(eig).max(axis=-1)
        bad = (skew > tol) | (eig[..., 0] < -tol)
        if bad.any():
            failed(bad, "is not Hermitian positive semi-definite")

    @property
    def N(self) -> int:
        return self.A.shape[-1]

    @property
    def stack_shape(self) -> tuple:
        return self.A.shape[:-2]


@dataclass
class DetEquivSolution:
    """Fixed point of a problem.  For a stack, e, T and m carry its leading
    axes, iterations is the sum of the members' counts (a plain int), and
    residual and residual_history hold each member's, the history as one
    list per member in row-major order; a member's count is the length of
    its history."""

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
    """Re tr(X_i B) for every matrix X_i of a stack [..., n, N, N] and B
    [..., N, N]: one matrix-vector product per member, vec(X_i) . vec(B^T),
    so a member's traces do not depend on the stack around it."""
    N = B.shape[-1]
    flat = stack.reshape(stack.shape[:-2] + (N * N,))
    return (flat @ B.swapaxes(-1, -2).reshape(B.shape[:-2] + (N * N, 1)))[..., 0].real


def _resolvent(thetas: np.ndarray, w: np.ndarray, shifted: np.ndarray, z: float) -> np.ndarray:
    """T = (sum_i w_i Theta_i/N + A - zI)^{-1} for every member of a flat
    stack: thetas [P, n, N, N], weights w = c_i/(1+e_i) [P, n] and
    shifted = A - zI [P, N, N]."""
    P, n, N = thetas.shape[:3]
    M = (w[:, None, :] @ thetas.reshape(P, n, N * N)).reshape(P, N, N) / N
    # A and every Theta_i are PSD (checked at construction) and z < 0
    T, _ = hermitian_solve(M + shifted, None, floor=-z)
    return herm(T)


def solve_fixed_point(
    problem: DetEquivProblem, tol: float = 1e-10, max_iter: int = 10_000
) -> DetEquivSolution:
    """Iterate the fixed point from e^(0) = -1/z until the relative change of
    every e_i drops below tol.

    A stack iterates its members in lockstep.  Each member stops at its own
    tolerance and is frozen there, and every step is one LAPACK or BLAS
    call per member, so a member's iterates, count and history are those of
    its solo solve."""
    S, N = problem.stack_shape, problem.N
    n = problem.thetas.shape[-3]
    P = int(np.prod(S))
    thetas = problem.thetas.reshape(P, n, N, N)
    counts = problem.counts.reshape(P, n)
    betas = problem.betas.reshape(P, n)
    shifted = problem.A.reshape(P, N, N) - problem.z * np.eye(N)

    e = np.full((P, n), -1.0 / problem.z)
    residual = np.zeros(P) if n == 0 else np.full(P, np.inf)
    history = [[] for _ in range(P)]
    live = np.arange(P if n else 0)  # members still iterating
    it = 0
    while live.size and it < max_iter:
        it += 1
        at = slice(None) if live.size == P else live
        T = _resolvent(thetas[at], counts[at] / (1.0 + e[at]), shifted[at], problem.z)
        e_new = _traces(thetas[at], T) / (betas[at] * N)
        step = (np.abs(e_new - e[at]) / (1.0 + np.abs(e_new))).max(axis=-1)
        e[at] = e_new
        residual[live] = step
        for p, x in zip(live, step):
            history[p].append(float(x))
        live = live[step >= tol]
    if live.size:
        where = f" for member(s) {_members(S, live)}" if S else ""
        raise DivergenceError(
            f"fixed point did not reach tol={tol} in {max_iter} iterations{where} "
            f"(last residual {residual[live].max():.3e})"
        )
    T = _resolvent(thetas, counts / (1.0 + e), shifted, problem.z)
    m = _traces(problem.Q.reshape(P, 1, N, N), T)[:, 0] / (problem.beta0 * N)
    T = T.reshape(S + (N, N))
    iterations = sum(len(h) for h in history)
    if not S:
        return DetEquivSolution(e=e[0], T=T, m=float(m[0]), iterations=iterations,
                                residual=float(residual[0]), residual_history=history[0])
    return DetEquivSolution(e=e.reshape(S + (n,)), T=T, m=m.reshape(S),
                            iterations=iterations, residual=residual.reshape(S),
                            residual_history=history)


def solve_primed(
    problem: DetEquivProblem, base: DetEquivSolution, omega: np.ndarray
) -> PrimedSolution:
    """Deterministic equivalent of the squared resolvent sandwiching omega.

    Assembles the n x n linear system for e' and forms
    T' = T omega T + T [(1/N) sum_j c_j Theta_j e'_j / (1+e_j)^2] T.
    With omega = I this is exactly dT/dz (differentiate the fixed point).
    A stack solves each member's system; omega is one matrix for all
    members or one per member.
    """
    S, N = problem.stack_shape, problem.N
    n = problem.thetas.shape[-3]
    T = base.T
    omega = np.atleast_2d(np.asarray(omega, dtype=complex))
    TOT = T @ omega @ T
    if n == 0:
        return PrimedSolution(e_prime=np.empty(S + (0,)), T_prime=herm(TOT),
                              J=np.empty(S + (0, 0)), v=np.empty(S + (0,)))
    e = base.e
    TTh = T[..., None, :, :] @ problem.thetas
    v = _traces(problem.thetas, TOT) / (problem.betas * N)
    # J_ij = tr(TTh_i TTh_j) = vec(TTh_i) . vec(TTh_j^T), one product per
    # member; column convention: the (1+e_j)^2 damping sits on the class
    # being differentiated, which is what d e_i / dz requires
    flat = TTh.reshape(S + (n, N * N))
    J = (
        (flat @ TTh.swapaxes(-1, -2).reshape(S + (n, N * N)).swapaxes(-1, -2)).real
        * (problem.counts / (1.0 + e) ** 2)[..., None, :]
        / (problem.betas[..., :, None] * N * N)
    )
    I_minus_J = np.eye(n) - J
    near = np.abs(np.linalg.det(I_minus_J)) < 1e-14
    if near.any():
        where = f" for member(s) {_members(S, np.flatnonzero(near))}" if S else ""
        raise NearCriticalPoint(f"(I - J) is singular{where}; z too close to the spectrum")
    try:
        e_prime = np.linalg.solve(I_minus_J, v[..., None])[..., 0]
    except np.linalg.LinAlgError as exc:
        raise NearCriticalPoint("(I - J) is singular; z too close to the spectrum") from exc
    # T corr T = sum_j w_j (T Theta_j) T
    w = problem.counts * e_prime / (N * (1.0 + e) ** 2)
    T_prime = herm(TOT + (w[..., None, :] @ flat).reshape(S + (N, N)) @ T)
    return PrimedSolution(e_prime=e_prime, T_prime=T_prime, J=J, v=v)


# ---------------------------------------------------------------------------
# SINR deterministic equivalents
# ---------------------------------------------------------------------------

def _mmse_problem(P, phi, Z, P_ul, k=None) -> DetEquivProblem:
    """Fixed-point problems behind the MMSE combiners of cell l's users,
    from the cell's own projections P [k, j, a, b], its users' phi
    [j, a, b] and design matrices Z.

    Works on the 1/r-rescaled combiner resolvent: the column classes are the
    other own-cell users' projected estimate covariances (leave-one-out in
    the served user), A = Z/r, z = -1/(P_ul r).  k = None gives the cell's K
    problems as one stack, with Z [K, r, r]; else user k's problem, with
    its Z [r, r].
    """
    K, r = phi.shape[0], P.shape[-2]
    thetas = herm(P @ phi @ P.conj().swapaxes(-1, -2))
    # leave-one-out: user k's classes are the users j != k, in order
    thetas = thetas[~np.eye(K, dtype=bool)].reshape(K, K - 1, r, r)
    if k is not None:
        thetas, phi = thetas[k], phi[k]
    return DetEquivProblem(thetas=thetas, A=Z / r, Q=phi, z=-1.0 / (P_ul * r))


def _cell_sinr_mmse(scenario: NetworkScenario, l: int, tables) -> np.ndarray:
    """The uplink MMSE SINR deterministic equivalents of cell l's K users,
    evaluated as one stacked problem from the cell's tables (P_own, P_x,
    lam_x, phi, xi_lam, Z; see `bounds.DrawEngine.detequiv_tables`)."""
    P_own, P_x, lam_x, phi, xi_lam, Z = tables
    kk = np.arange(scenario.K)
    r = Z.shape[-1]
    problem = _mmse_problem(P_own, phi, Z, scenario.P_ul)
    base = solve_fixed_point(problem)
    T = base.T

    delta = _traces(phi[:, None], T)[:, 0] / r

    # one derivative solve covers every static quadratic form through the
    # symmetry tr(Phi T'_D) = tr(D T'_Phi): noise, other-cell covariances,
    # and error covariances all live inside D_stat = Z + P_ul^{-1} I
    T_prime = solve_primed(problem, base, phi).T_prime
    d_stat = Z + (1.0 / scenario.P_ul) * np.eye(r)
    den = _traces(d_stat[:, None], T_prime)[:, 0] / (r * r)

    # own-cell estimate residuals, MMSE-suppressed by (1 + e_j)^2
    den += np.sum(_traces(problem.thetas, T_prime) / (r * r * (1.0 + base.e) ** 2), axis=-1)

    # coherent pilot contamination: same pilot index, other cells
    if P_x is not None:
        xi_lam_T = xi_lam @ T
        Xd = P_x[kk, :, kk]  # user k against user k of each other cell: [k, i, a, b]
        lam_d = lam_x[:, kk].transpose(1, 0, 2)[:, :, None, :]
        rt = herm((Xd * lam_d) @ Xd.conj().swapaxes(-1, -2))
        den += np.sum(np.abs(np.trace(xi_lam_T[:, None] @ rt, axis1=-2, axis2=-1) / r) ** 2,
                      axis=-1)

    return delta ** 2 / den


def sinr_mmse_detequiv(scenario: NetworkScenario, user: tuple) -> float:
    """Deterministic equivalent of the uplink MMSE post-combining SINR.

    Orthogonal pilots only.  Assembles the signal, noise, coherent pilot
    contamination, and residual interference terms from the fixed point and
    its derivative system, for all K users of cell l at once.  The
    scenario's first call for cell l reads the cell's projections,
    estimators and design matrices from the draw's shared engine
    (`bounds.default_engine`, the one `run_bounds` reads; it raises
    PilotBudgetError when K > T_c) and keeps the cell's K SINRs in
    `scenario.cell_mmse_sinr`, so the cell's other calls do no work.
    """
    if scenario.scheme.kind != "orthogonal":
        raise DomainError("the MMSE SINR deterministic equivalent assumes orthogonal pilots")
    l, k = user
    sinr = scenario.cell_mmse_sinr.get(l)
    if sinr is None:
        tables = default_engine(scenario).detequiv_tables(l)
        sinr = scenario.cell_mmse_sinr[l] = _cell_sinr_mmse(scenario, l, tables)
    return float(sinr[k])


def sinr_mf_detequiv(scenario: NetworkScenario, user: tuple) -> float:
    """Deterministic equivalent of the matched-filter SINR under the
    network-wide non-orthogonal pilot.

    Every other link contaminates.  Per link, the coherent contamination is
    |tr(Xi Lambda R~)|^2 and the residual (non-coherent) power is
    tr(Phi R~), both conditioned on the realized eigenbases; averaging R~
    over isotropic bases collapses the coherent term to the alpha^2 psi^2
    form and the expression to P_ul tr Lambda in the strong-correlation
    limit.  Each R~ = P diag(lam) P^H is read from cell l's tables of the
    draw's shared engine (`bounds.default_engine`): own-cell links from
    P_own with the own eigenvalues, other-cell links from P_x and lam_x.
    """
    if scenario.scheme.kind != "nonorthogonal":
        raise DomainError("the MF SINR deterministic equivalent assumes non-orthogonal pilots")
    l, k = user
    P_own, P_x, lam_x, phi, xi_lam, _ = default_engine(scenario).detequiv_tables(l)
    lam_own = np.stack([scenario.profile(l, l, j).lam for j in range(scenario.K)])
    # every link into BS l but user k's own, seen in user k's eigenbasis
    links = [(np.delete(P_own[k], k, axis=0), np.delete(lam_own, k, axis=0))]
    if P_x is not None:
        links.append((P_x[k].reshape((-1,) + P_x.shape[-2:]),
                      lam_x.reshape(-1, lam_x.shape[-1])))
    M = scenario.M
    tr_phi = float(np.real(np.trace(phi[k])))
    contam = 0.0
    for P, lam in links:
        # tr(A P diag(lam) P^H) of every link, for A = Xi Lambda and Phi
        P_lam = P.conj() * lam[:, None, :]
        coherent = np.sum(P_lam * (xi_lam[k] @ P), axis=(-2, -1))
        residual = np.sum(P_lam * (phi[k] @ P), axis=(-2, -1)).real
        contam += (np.sum(np.abs(coherent) ** 2) + np.sum(residual)) / (M * M)
    num = (tr_phi / M) ** 2
    noise = tr_phi / (scenario.P_ul * M * M)
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
    increasing sequence of dimensions plus the fitted log-log decay slope.
    The spread needs two trials and the slope two dims."""
    dims = sorted(int(d) for d in dims)
    if any(d2 <= d1 for d1, d2 in zip(dims, dims[1:])):
        raise ValueError("dims must be strictly increasing")
    if len(dims) < 2:
        raise ValueError(f"a decay slope needs at least two dims, got {dims}")
    if trials < 2:
        raise ValueError(f"trials must be >= 2, got {trials}")
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
