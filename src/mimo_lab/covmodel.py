"""Random low-rank channel covariance models and network construction.

Each user-to-BS link carries second-order statistics R = U diag(lam) U^H with
an M x r orthonormal eigenbasis U and positive eigenvalues lam.  Two stochastic
models for U are supported: Haar-distributed partial unitary matrices and
random partial (subsampled) Fourier matrices.  A partial-Fourier link is
stored as its r sorted DFT indices (its angular support), a partial-unitary
link as its basis; U is read from either.  A network scenario collects one
such profile per (cell, cell', user) link together with the system parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np


class CorrelationModel(Enum):
    PARTIAL_UNITARY = "unitary"
    PARTIAL_FOURIER = "fourier"


class Regime(Enum):
    STRONG = "strong"
    VERY_STRONG = "verystrong"


class RankExceedsDimension(ValueError):
    pass


class InvalidProfile(ValueError):
    pass


def stream(*key) -> np.random.Generator:
    """Counter-based RNG stream keyed by a tuple of non-negative integers.

    Deterministic for a given key regardless of call order, so trials and
    covariance draws can be generated in parallel and still reproduce.
    """
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in key]))


_INV_SQRT2 = 1.0 / np.sqrt(2.0)


def complex_gaussian(rng, *shape):
    """I.i.d. CN(0, 1) array of the requested shape.

    One draw gives the real parts, then the imaginary parts.  Each is scaled
    by 1/sqrt(2), which is what dividing the complex array by sqrt(2) does,
    so the bits are those of (re + 1j * im) / sqrt(2) from two draws."""
    x = rng.standard_normal((2,) + shape)
    out = np.empty(shape, dtype=complex)
    np.multiply(x[0], _INV_SQRT2, out=out.real)
    np.multiply(x[1], _INV_SQRT2, out=out.imag)
    return out


def sample_partial_unitary(M: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """Draw M x r orthonormal columns uniformly (Haar) on the Grassmannian.

    QR of an i.i.d. complex Gaussian matrix, with each column's phase fixed so
    the triangular factor has positive real diagonal; this makes the column
    span exactly Haar distributed rather than merely orthonormal.
    """
    if not 1 <= r <= M:
        raise RankExceedsDimension(f"rank r={r} must satisfy 1 <= r <= M={M}")
    g = complex_gaussian(rng, M, r)
    q, rr = np.linalg.qr(g)
    d = np.diagonal(rr)
    q = q * (d / np.abs(d)).conj()
    return q


@lru_cache(maxsize=8)
def dft_matrix(M: int) -> np.ndarray:
    """The M-point unitary DFT matrix F[j, i] = exp(2 pi i j i / M) / sqrt(M),
    built once per M and read-only: partial Fourier bases are its columns."""
    j = np.arange(M)[:, None]
    F = np.exp(2j * np.pi * j * np.arange(M)[None, :] / M) / np.sqrt(M)
    F.flags.writeable = False
    return F


def sample_partial_fourier(M: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """Draw the sorted indices of r distinct columns of the M-point unitary
    DFT, uniformly without replacement; the basis is dft_matrix(M)[:, idx]."""
    if not 1 <= r <= M:
        raise RankExceedsDimension(f"rank r={r} must satisfy 1 <= r <= M={M}")
    return np.sort(rng.choice(M, size=r, replace=False))


@dataclass
class EigenProfile:
    """Eigenvalue shape and total channel energy (trace of Lambda)."""

    shape: str = "uniform"  # "uniform" | "exp_decay"
    rate: float = 0.0
    total_energy: float = 1.0


def eigen_profile(profile: EigenProfile, r: int) -> np.ndarray:
    """Eigenvalues of length r summing exactly to the profile's total energy."""
    if r < 1:
        raise InvalidProfile(f"rank must be >= 1, got {r}")
    if profile.total_energy <= 0:
        raise InvalidProfile("total_energy must be positive")
    if profile.shape == "uniform":
        lam = np.full(r, profile.total_energy / r)
    elif profile.shape == "exp_decay":
        if profile.rate <= 0:
            raise InvalidProfile("exponential decay rate must be positive")
        lam = np.exp(-profile.rate * np.arange(r))
        lam *= profile.total_energy / lam.sum()
    else:
        raise InvalidProfile(f"unknown eigenvalue shape {profile.shape!r}")
    return lam


@dataclass
class CovarianceProfile:
    """One link's second-order statistics: R = U diag(lam) U^H, rank r.

    A partial-Fourier link stores idx, its r sorted DFT indices, and a
    partial-unitary link its M x r basis.  U is built from idx on every read
    (columns of the cached dft_matrix, a fresh copy), or is the stored basis.
    """

    lam: np.ndarray
    r: int
    M: int
    idx: np.ndarray | None = None
    basis: np.ndarray | None = None

    @property
    def U(self) -> np.ndarray:
        return self.basis if self.idx is None else dft_matrix(self.M)[:, self.idx]

    @property
    def energy(self) -> float:
        return float(self.lam.sum())


@dataclass
class PilotScheme:
    """Pilot scheme: per-cell orthogonal (K channel uses) or network-wide
    non-orthogonal (a single channel use)."""

    kind: str = "orthogonal"  # "orthogonal" | "nonorthogonal"
    boost: float = 2.0  # power gap between training and data phases, linear

    def __post_init__(self):
        if self.kind not in ("orthogonal", "nonorthogonal"):
            raise ValueError(f"unknown pilot scheme {self.kind!r}")
        if self.boost < 1.0:
            raise ValueError("pilot boost must be >= 1")

    def rho_p(self, p_ul: float) -> float:
        return self.boost * p_ul

    def channel_uses(self, K: int) -> int:
        return K if self.kind == "orthogonal" else 1


@dataclass
class ScenarioConfig:
    L: int = 4
    K: int = 5
    M: int = 100
    T_c: int = 500
    snr_db: float = 10.0
    iota: float = 0.2
    pilot_boost: float = 2.0
    regime: Regime = Regime.STRONG
    r_own: int = 8
    r_cross: int = 0  # 0 -> default max(r_own // 2, 1)
    model: CorrelationModel = CorrelationModel.PARTIAL_FOURIER
    pilot: str = "orthogonal"
    eigen_shape: str = "uniform"
    eigen_rate: float = 0.0

    def resolved_r_cross(self) -> int:
        return self.r_cross or max(self.r_own // 2, 1)


@dataclass
class NetworkScenario:
    """Full network parameterization plus the drawn covariance profiles.

    Homogeneous power mapping: every user transmits at P_ul = snr / K in
    uplink and is allocated P_dl / K = snr / K in downlink, so `snr` is the
    per-cell sum-power SNR in both directions.

    Three memos keep per-draw work.  draw_engine holds the draw's default
    `bounds.DrawEngine` (MMSE, unconditional contamination, own
    eigenbases), built by `bounds.default_engine` on first use: `run_bounds`
    with those arguments and the `detequiv.sinr_mmse_detequiv` and
    `detequiv.sinr_mf_detequiv` calls all read it.  The engine keeps no
    reference to the scenario, so the memo makes no reference cycle.
    cell_mmse_sinr and cell_mf_sinr hold, per cell l, the vector of cell
    l's K MMSE and MF SINR deterministic equivalents that
    `sinr_mmse_detequiv` and `sinr_mf_detequiv` compute.  The
    profiles are fixed once drawn: a scenario whose profiles are edited in
    place must be rebuilt (`dataclasses.replace` gives empty memos).
    """

    L: int
    K: int
    M: int
    T_c: int
    snr: float  # linear per-cell sum power
    iota: float
    regime: Regime
    r_own: int
    r_cross: int
    model: CorrelationModel
    scheme: PilotScheme
    profiles: dict = field(repr=False, default_factory=dict)
    cell_mmse_sinr: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    cell_mf_sinr: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    draw_engine: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def P_ul(self) -> float:
        return self.snr / self.K

    @property
    def P_dl_per_user(self) -> float:
        return self.snr / self.K

    @property
    def rho_p(self) -> float:
        return self.scheme.rho_p(self.P_ul)

    def profile(self, l: int, lp: int, k: int) -> CovarianceProfile:
        """Statistics of the channel from user k of cell lp into BS l."""
        return self.profiles[(l, lp, k)]

    def users(self):
        return [(l, k) for l in range(self.L) for k in range(self.K)]


def link_energy(cfg: ScenarioConfig, own: bool) -> float:
    """Regime-dependent trace normalization of a link's eigenvalue matrix."""
    base = float(cfg.M) if cfg.regime is Regime.STRONG else float(cfg.r_own)
    return base if own else cfg.iota * base


def build_network(cfg: ScenarioConfig, rng: np.random.Generator) -> NetworkScenario:
    """Draw the L*L*K independent covariance profiles of a homogeneous network."""
    r_cross = cfg.resolved_r_cross()
    fourier = cfg.model is CorrelationModel.PARTIAL_FOURIER
    if fourier and cfg.r_own > cfg.M:
        raise RankExceedsDimension(f"r_own={cfg.r_own} exceeds M={cfg.M}")
    profiles = {}
    for l in range(cfg.L):
        for lp in range(cfg.L):
            for k in range(cfg.K):
                own = l == lp
                r = cfg.r_own if own else r_cross
                stored = (dict(idx=sample_partial_fourier(cfg.M, r, rng)) if fourier
                          else dict(basis=sample_partial_unitary(cfg.M, r, rng)))
                lam = eigen_profile(
                    EigenProfile(cfg.eigen_shape, cfg.eigen_rate, link_energy(cfg, own)), r
                )
                profiles[(l, lp, k)] = CovarianceProfile(lam=lam, r=r, M=cfg.M, **stored)
    scheme = PilotScheme(kind=cfg.pilot, boost=cfg.pilot_boost)
    return NetworkScenario(
        L=cfg.L,
        K=cfg.K,
        M=cfg.M,
        T_c=cfg.T_c,
        snr=10.0 ** (cfg.snr_db / 10.0),
        iota=cfg.iota,
        regime=cfg.regime,
        r_own=cfg.r_own,
        r_cross=r_cross,
        model=cfg.model,
        scheme=scheme,
        profiles=profiles,
    )
