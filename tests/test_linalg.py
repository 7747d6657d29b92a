import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mimo_lab._linalg import (back_substitute, cholesky_factor, diag_guard, forward_substitute,
                             guard, herm, hermitian_solve)
from oracle import cholesky_solve


def test_well_conditioned_matches_direct_solve():
    g = np.random.default_rng(0)
    X = g.standard_normal((5, 5)) + 1j * g.standard_normal((5, 5))
    A = herm(X @ X.conj().T + 5 * np.eye(5))
    B = g.standard_normal((5, 2)) + 1j * g.standard_normal((5, 2))
    sol, jittered = hermitian_solve(A, B)
    assert not jittered
    assert np.allclose(A @ sol, B, atol=1e-10)


def test_singular_matrix_gets_jitter_flag():
    u = np.array([1.0, 2.0, -1.0])[:, None]
    A = u @ u.T  # rank one, PSD
    sol, jittered = hermitian_solve(A, np.eye(3))
    assert jittered
    assert np.all(np.isfinite(sol))


def test_herm_symmetrizes():
    M = np.array([[1.0, 2.0 + 1j], [2.0 - 0.9j, 3.0]])
    H = herm(M)
    assert np.allclose(H, H.conj().T)


def near_singular(rel, n=6, rank=2, seed=1):
    """A rank-deficient PSD matrix plus rel * (its trace / n) * I."""
    g = np.random.default_rng(seed)
    X = g.standard_normal((n, rank)) + 1j * g.standard_normal((n, rank))
    P = herm(X @ X.conj().T)
    return P + rel * (np.trace(P).real / n) * np.eye(n)


# the floor on both sides of the certificate 1e-10 * trace/n, and on both
# sides of the jitter threshold 1e-12 * trace/n
RELS = [1e-14, 1e-13, 1e-11, 5e-11, 2e-10, 1e-9, 1e-6]


@pytest.mark.parametrize("rel", RELS)
def test_floor_flags_what_floor_zero_flags(rel, monkeypatch):
    A = near_singular(rel)
    n = A.shape[0]
    floor = rel * np.trace(A).real / n / (1 + rel)  # A's smallest eigenvalue
    B = np.eye(n, dtype=complex)
    X0, jit0 = hermitian_solve(A, B)
    eigvalsh, calls = np.linalg.eigvalsh, []

    def counted(a):
        calls.append(None)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    X1, jit1 = hermitian_solve(A, B, floor)
    assert jit1 == jit0 == (rel < 1e-12)
    # a plain bool: the flags are counted and written out as JSON
    assert type(jit0) is type(jit1) is bool
    np.testing.assert_array_equal(X1, X0)
    # the eigenvalue pass runs only where the floor does not certify A
    assert len(calls) == (floor <= 1e-10 * np.trace(A).real / n)


def test_guard_flags_a_stack_as_hermitian_solve_does():
    # one floor against traces on both sides of its certificate
    floor = 1e-3
    stack = np.stack([near_singular(0.0, seed=s) * t + floor * np.eye(6)
                      for s, t in enumerate([1e-2, 1e6, 1e8, 1e10, 1e12])])
    _, flags = guard(stack, floor)
    want = [hermitian_solve(A, np.eye(6))[1] for A in stack]
    assert flags.tolist() == want
    assert want == [False, False, False, True, True]


def test_diag_guard_matches_guard_on_diagonal_stacks():
    # smallest entries around the jitter threshold 1e-12 * trace/n
    d = np.array([[1.0, 2.0, 3.0], [2e-12, 1.0, 2.0], [1e-13, 1.0, 2.0], [0.0, 0.0, 0.0]])
    want, want_flags = guard(np.stack([np.diag(x) for x in d]).astype(complex))
    got, flags = diag_guard(d)
    assert flags.tolist() == want_flags.tolist() == [False, False, True, True]
    assert np.array_equal(got, np.real(np.diagonal(want, axis1=-2, axis2=-1)))


def spd(n, dtype, seed=2):
    g = np.random.default_rng(seed)
    X = g.standard_normal((n, n))
    if dtype is complex:
        X = X + 1j * g.standard_normal((n, n))
    return herm(X @ X.conj().T + n * np.eye(n))


def rhs(shape, dtype, seed=3):
    g = np.random.default_rng(seed)
    B = g.standard_normal(shape)
    return B + 1j * g.standard_normal(shape) if dtype is complex else B


@pytest.mark.parametrize("a_type,b_type,b_form", [
    (complex, complex, "matrix"),
    (float, float, "matrix"),
    (complex, float, "matrix"),
    (float, complex, "matrix"),
    (complex, complex, "vector"),
    (complex, complex, "strided"),
    (float, complex, "strided"),
])
def test_solve_matches_scipy_cho_solve(a_type, b_type, b_form):
    # numpy's LU solve against scipy's Cholesky solve: equal to round-off,
    # with the dtype and shape scipy gives
    from scipy.linalg import cho_factor, cho_solve

    A = spd(10, a_type)
    B = {"matrix": rhs((10, 3), b_type),
         "vector": rhs(10, b_type),
         "strided": rhs((10, 8), b_type)[:, ::2]}[b_form]
    X, jittered = hermitian_solve(A, B)
    want = cho_solve(cho_factor(herm(A), lower=True), B)
    assert not jittered
    assert X.dtype == want.dtype and X.shape == want.shape == B.shape
    np.testing.assert_allclose(X, want, rtol=1e-13, atol=0)


@pytest.mark.parametrize("a_type", [complex, float])
def test_no_right_hand_side_gives_the_inverse(a_type):
    A = spd(10, a_type)
    X, jittered = hermitian_solve(A, None)
    want, _ = hermitian_solve(A, np.eye(10))
    assert not jittered and X.dtype == want.dtype
    np.testing.assert_allclose(X, want, rtol=1e-13, atol=1e-15)


# the guard's eigenvalue pass flags the non-finite A and jitters it first
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["A", "B"])
def test_non_finite_input_raises(bad, where):
    A, B = spd(4, complex), rhs((4, 2), complex)
    (A if where == "A" else B)[1, 1] = bad
    with pytest.raises(ValueError, match="infs or NaNs"):
        hermitian_solve(A, B)


def test_indefinite_matrix_past_a_floor_takes_the_lu_fallback():
    # a floor that wrongly certifies A skips the eigenvalue pass; the
    # Cholesky factorisation then fails and the jittered LU solve answers
    A = np.diag([2.0, -1.0, 3.0]).astype(complex)
    B = np.eye(3, dtype=complex)
    X, jittered = hermitian_solve(A, B, floor=1.0)
    assert jittered
    scale = np.trace(A).real / 3
    np.testing.assert_allclose((A + 1e-8 * scale * np.eye(3)) @ X, B, atol=1e-12)


@pytest.mark.parametrize("B", [None, "rhs"])
def test_stack_gives_each_member_its_solo_solve(B):
    # well-conditioned members, a near-singular one whose trace is too
    # large for the floor to certify (the guard's jitter) and an indefinite
    # one the floor wrongly certifies (the Cholesky fallback): each keeps
    # the bits and the flag of its own solve
    floor = 1e-9
    stack = np.stack([spd(6, complex, seed=4), 1e12 * near_singular(1e-14),
                      np.diag([2.0, -1.0, 3.0, 1.0, 1.0, 1.0]).astype(complex),
                      spd(6, complex, seed=5)])
    B = None if B is None else rhs((4, 6, 2), complex)
    X, flags = hermitian_solve(stack, B, floor)
    assert flags.tolist() == [False, True, True, False]
    for i, A in enumerate(stack):
        want, jittered = hermitian_solve(A, None if B is None else B[i], floor)
        assert jittered == flags[i]
        np.testing.assert_array_equal(X[i], want)


def hpd_stack(shape, n, seed):
    """Hermitian positive-definite matrices [*shape, n, n] conditioned like
    the per-trial MMSE systems: a Gram matrix of n + 2 columns plus I."""
    g = np.random.default_rng(seed)
    X = g.standard_normal(shape + (n, n + 2)) + 1j * g.standard_normal(shape + (n, n + 2))
    return X @ X.conj().swapaxes(-1, -2) + np.eye(n)


@pytest.mark.parametrize("m", [1, 4])
def test_cholesky_solve_matches_lu_solve(m):
    A = hpd_stack((5, 3), 10, seed=6)
    B = rhs((5, 3, 10, m), complex)
    X, flags = cholesky_solve(A, B)
    want = np.linalg.solve(A, B)
    assert flags.shape == (5, 3) and not flags.any()
    assert X.shape == B.shape and X.dtype == want.dtype
    assert np.abs(X - want).max() <= 1e-12 * np.abs(want).max()


def test_substitution_halves_compose_the_solve():
    # L Y = B from the forward half alone; the back half on it gives the
    # solve's bits; ||L^{-1} b||^2 = b^H A^{-1} b, the engine's coherent SINR
    A = hpd_stack((4, 3), 10, seed=8)
    B = rhs((4, 3, 10, 2), complex)
    L, flags = cholesky_factor(A)
    assert not flags.any()
    Y = forward_substitute(L, B)
    assert Y.shape == B.shape
    assert np.abs(L @ Y - B).max() <= 1e-12 * np.abs(B).max()
    np.testing.assert_array_equal(back_substitute(L, Y), cholesky_solve(A, B)[0])
    quad = np.einsum("...am,...am->...m", B.conj(), np.linalg.solve(A, B)).real
    np.testing.assert_allclose((np.abs(Y) ** 2).sum(axis=-2), quad, rtol=1e-12)


def test_cholesky_solve_member_bits_do_not_depend_on_the_stack():
    # each member alone, and in a smaller stack at another position, gets
    # the bits it gets in the whole stack
    A = hpd_stack((40,), 12, seed=7)
    B = rhs((40, 12, 2), complex)
    X, _ = cholesky_solve(A, B)
    for i in (0, 1, 17, 39):
        for a, b in ((i, i + 1), (max(i - 3, 0), i + 5)):
            got, _ = cholesky_solve(A[a:b], B[a:b])
            np.testing.assert_array_equal(got[i - a], X[i])


def test_failed_cholesky_takes_the_jitter_fallback():
    # a well-conditioned member; a near-singular one whose trace is too
    # large for the floor to certify (the guard's jitter); and an indefinite
    # one the floor wrongly certifies, whose factorisation fails and which
    # gets hermitian_solve's jitter 1e-8 * trace/n
    floor = 1e-9
    bad = np.diag([2.0, -1e-13, 3.0, 1.0, 1.0, 1.0]).astype(complex)
    A = np.stack([spd(6, complex, seed=4), 1e12 * near_singular(1e-14), bad])
    B = rhs((3, 6, 2), complex)
    X, flags = cholesky_solve(A, B, floor)
    assert flags.tolist() == [hermitian_solve(a, None, floor)[1] for a in A] == [False, True, True]
    scale = np.trace(bad).real / 6
    np.testing.assert_allclose((bad + 1e-8 * scale * np.eye(6)) @ X[2], B[2], rtol=0, atol=1e-12)
    np.testing.assert_array_equal(X[[0, 2]], cholesky_solve(A[[0, 2]], B[[0, 2]], floor)[0])


NO_SCIPY = """
import sys
from dataclasses import replace
from mimo_lab import bounds, cli, detequiv
from mimo_lab.covmodel import CorrelationModel, ScenarioConfig, build_network, stream
sc = build_network(ScenarioConfig(L=2, K=3, M=32, r_own=4), stream(0))
for direction in ("ul", "dl"):
    bounds.run_bounds(sc, direction, bounds.UL_BOUNDS, 8, 0)
haar = replace(sc, model=CorrelationModel.PARTIAL_UNITARY)
bounds.run_bounds(haar, "ul", ("coherent",), 8, 0)
detequiv.sinr_mmse_detequiv(haar, (0, 0))
assert cli.main(["detequiv", sys.argv[1]]) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_no_package_path_loads_scipy(tmp_path):
    # scipy's import costs start-up time and peak memory; the package solves
    # with numpy alone, on the Fourier and the dense (Haar) paths alike
    problem = tmp_path / "p.txt"
    problem.write_text("N = 3\nz = -1.0\ntheta = identity x 3\nA = zero\nQ = identity\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", NO_SCIPY, str(problem)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == "[]"
