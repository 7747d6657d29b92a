import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from mimo_lab.covmodel import (
    CorrelationModel,
    EigenProfile,
    InvalidProfile,
    RankExceedsDimension,
    Regime,
    ScenarioConfig,
    build_network,
    complex_gaussian,
    dft_matrix,
    eigen_profile,
    sample_partial_fourier,
    sample_partial_unitary,
    stream,
)

from conftest import make_scenario


@pytest.mark.parametrize("seed", [0, 5, 123])
@pytest.mark.parametrize("shape", [(6,), (4, 3), (7, 7, 24, 12), (0,), (2, 0, 3)])
def test_complex_gaussian_bits_match_two_draws_over_sqrt2(seed, shape):
    # one draw for both parts gives the bits of the two-draw formula: the
    # same stream order, and the same scaling as complex division by sqrt(2)
    got = complex_gaussian(stream(seed), *shape)
    g = stream(seed)
    want = (g.standard_normal(shape) + 1j * g.standard_normal(shape)) / np.sqrt(2.0)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestPartialUnitary:
    def test_scalar_case_is_unit_modulus(self):
        u = sample_partial_unitary(1, 1, stream(3))
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_orthonormal_columns(self):
        U = sample_partial_unitary(8, 3, stream(7))
        gram = U.conj().T @ U
        assert np.max(np.abs(gram - np.eye(3))) < 1e-10

    def test_rank_exceeds_dimension(self):
        with pytest.raises(RankExceedsDimension):
            sample_partial_unitary(4, 5, stream(0))

    def test_column_overlap_matches_beta_mean(self):
        # |u1^H v1|^2 for independent draws is Beta(1, M-1) with mean 1/M
        M, draws = 64, 2000
        g = stream(11)
        vals = np.empty(draws)
        for i in range(draws):
            u = sample_partial_unitary(M, 4, g)[:, 0]
            v = sample_partial_unitary(M, 4, g)[:, 0]
            vals[i] = abs(np.vdot(u, v)) ** 2
        assert abs(vals.mean() - 1.0 / M) / (1.0 / M) < 0.15

    def test_haar_invariance_beta_distribution(self):
        # |u1^H e1|^2 over draws follows Beta(1, M-1)
        M, n = 16, 10_000
        g = stream(13)
        samples = np.empty(n)
        for i in range(n):
            samples[i] = abs(sample_partial_unitary(M, 1, g)[0, 0]) ** 2
        ref = stats.beta(1, M - 1).rvs(size=n, random_state=99)
        assert stats.ks_2samp(samples, ref).pvalue > 0.01


class TestPartialFourier:
    def test_full_selection_is_dft_permutation(self):
        idx = sample_partial_fourier(4, 4, stream(5))
        U = dft_matrix(4)[:, idx]
        gram = U.conj().T @ U
        assert np.max(np.abs(gram - np.eye(4))) < 1e-12
        assert list(idx) == [0, 1, 2, 3]

    def test_constant_modulus(self):
        U = dft_matrix(8)[:, sample_partial_fourier(8, 2, stream(3))]
        assert np.allclose(np.abs(U), 1 / np.sqrt(8))

    def test_shared_column_probability(self):
        # P(two independent supports share a column) from the hypergeometric
        M, r, pairs = 64, 8, 5000
        p_expected = 1.0 - math.comb(M - r, r) / math.comb(M, r)
        g = stream(17)
        hits = 0
        for _ in range(pairs):
            a = set(sample_partial_fourier(M, r, g))
            b = set(sample_partial_fourier(M, r, g))
            hits += bool(a & b)
        assert abs(hits / pairs - p_expected) < 0.03

    def test_disjoint_supports_are_orthogonal(self):
        g = stream(23)
        while True:
            a = sample_partial_fourier(32, 4, g)
            b = sample_partial_fourier(32, 4, g)
            if not set(a) & set(b):
                break
        F = dft_matrix(32)
        assert np.max(np.abs(F[:, a].conj().T @ F[:, b])) < 1e-12

    def test_cached_columns_equal_the_direct_formula(self):
        # a Fourier profile holds the sorted draw of its one rng.choice, and
        # its U is bit for bit the cached DFT matrix's columns and the
        # per-column exp, a fresh copy on every read
        for M in (1, 2, 7, 8, 64, 100, 120, 333, 1000):
            j = np.arange(M)[:, None]
            for r in sorted({1, M // 3 + 1, M}):
                cfg = ScenarioConfig(L=2, K=2, M=M, r_own=r, r_cross=max(r // 2, 1))
                sc = build_network(cfg, stream(11, M, r))
                g = stream(11, M, r)
                for key in sorted(sc.profiles):
                    prof = sc.profiles[key]
                    drawn = np.sort(g.choice(M, size=prof.r, replace=False))
                    assert np.array_equal(prof.idx, drawn)
                    direct = np.exp(2j * np.pi * j * drawn[None, :] / M) / np.sqrt(M)
                    assert np.array_equal(prof.U, dft_matrix(M)[:, drawn])
                    assert np.array_equal(prof.U, direct)
        assert not dft_matrix(8).flags.writeable
        prof = make_scenario(L=1, K=1, M=8, r_own=2).profile(0, 0, 0)
        cols = prof.U
        assert cols is not prof.U
        cols[0, 0] = 0.0  # a copy: the cache stays intact
        assert np.all(dft_matrix(8)[0] == 1 / np.sqrt(8))
        with pytest.raises(AttributeError):
            prof.U = cols

    def test_unitary_profiles_store_their_basis(self):
        sc = make_scenario(L=2, K=2, M=16, r_own=3, model=CorrelationModel.PARTIAL_UNITARY)
        for prof in sc.profiles.values():
            assert prof.idx is None
            assert prof.U is prof.basis and prof.basis.shape == (16, prof.r)


class TestEigenProfile:
    def test_uniform_fig2_normalization(self):
        lam = eigen_profile(EigenProfile("uniform", 0.0, 100.0), 8)
        assert np.allclose(lam, 12.5)

    def test_single_eigenvalue(self):
        assert np.allclose(eigen_profile(EigenProfile("uniform", 0.0, 5.0), 1), [5.0])

    def test_exponential_decay(self):
        lam = eigen_profile(EigenProfile("exp_decay", 0.5, 1.0), 3)
        raw = np.exp(-0.5 * np.arange(3))
        assert np.allclose(lam, raw / raw.sum())
        assert abs(lam.sum() - 1.0) < 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(InvalidProfile):
            eigen_profile(EigenProfile("uniform", 0.0, -1.0), 4)
        with pytest.raises(InvalidProfile):
            eigen_profile(EigenProfile("exp_decay", 0.0, 1.0), 4)

    @given(st.integers(1, 40), st.floats(0.1, 1e6))
    @settings(max_examples=30, deadline=None)
    def test_energy_is_preserved(self, r, energy):
        lam = eigen_profile(EigenProfile("uniform", 0.0, energy), r)
        assert abs(lam.sum() - energy) <= 1e-12 * energy
        assert np.all(lam > 0)


class TestBuildNetwork:
    def test_fig2_setting(self):
        sc = make_scenario(L=4, K=5, M=100, r_own=8, iota=0.2,
                           model=CorrelationModel.PARTIAL_FOURIER)
        assert len(sc.profiles) == 80
        assert sc.r_cross == 4
        for (l, lp, k), prof in sc.profiles.items():
            energy = prof.lam.sum()
            if l == lp:
                assert abs(energy - 100.0) < 1e-9
                assert prof.r == 8
            else:
                assert abs(energy - 20.0) < 1e-9
                assert prof.r == 4

    def test_single_user_network(self):
        sc = make_scenario(L=1, K=1, M=16, r_own=2)
        assert len(sc.profiles) == 1

    def test_very_strong_normalization(self):
        sc = make_scenario(L=2, K=2, M=256, r_own=16, regime=Regime.VERY_STRONG,
                           iota=0.2)
        assert abs(sc.profile(0, 0, 0).energy - 16.0) < 1e-9
        assert abs(sc.profile(0, 1, 0).energy - 3.2) < 1e-9

    def test_profiles_orthonormal(self):
        sc = make_scenario(L=2, K=2, M=32, r_own=4,
                           model=CorrelationModel.PARTIAL_UNITARY)
        for prof in sc.profiles.values():
            gram = prof.U.conj().T @ prof.U
            assert np.max(np.abs(gram - np.eye(prof.r))) < 1e-10

    def test_power_mapping(self):
        sc = make_scenario(L=2, K=5, snr_db=10.0)
        assert abs(sc.P_ul - 2.0) < 1e-12
        assert abs(sc.P_dl_per_user - 2.0) < 1e-12

    def test_stream_is_reproducible(self):
        a = stream(5, 1, 2).standard_normal(4)
        b = stream(5, 1, 2).standard_normal(4)
        assert np.array_equal(a, b)
