import numpy as np
import pytest

from mimo_lab._linalg import diag_guard, guard, herm, hermitian_solve


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
