"""Ergodic-rate bounds by Monte Carlo plus closed-form scaling laws.

All Monte Carlo rates are conditional on one covariance draw: expectations
run over fading blocks (and pilot noise) with the eigenbases held fixed.
Trials are vectorized in chunks; every trial owns a counter-based RNG stream
keyed by its index, so results are independent of chunking and thread count.
Rates are reported in bits/s/Hz (log base 2 throughout).
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._linalg import cholesky_solve, diag_guard, guard, herm, hermitian_solve
from .covmodel import (CorrelationModel, InvalidProfile, NetworkScenario, complex_gaussian,
                       dft_matrix, stream)

CHUNK = 64
# memory a partial-Fourier chunk may take per pass of its trials (DrawEngine.span)
PASS_BYTES = 2 ** 24
# the largest per-user system (q x q, q <= K) solved by `cholesky_solve`;
# larger ones are solved by LU, which is as fast at q = 12 and faster above
# (one BLAS thread, stacks of 960 and 3,840 systems)
CHOLESKY_MAX_Q = 10

UL_BOUNDS = ("coherent", "noncoherent", "alt", "maxmin")
DL_BOUNDS = ("noncoherent", "alt", "maxmin")


class PilotBudgetError(ValueError):
    """Orthogonal pilots for K users need K <= T_c channel uses."""


def _threads() -> int:
    env = os.environ.get("MIMO_LAB_THREADS", "")
    try:
        cap = int(env) if env else 0
    except ValueError:
        cap = 0
    if cap <= 0:
        cap = min(4, os.cpu_count() or 1)
    return max(cap, 1)


@dataclass
class RateReport:
    """One bound's rates for one scenario (one covariance draw or pooled)."""

    bound_id: str
    direction: str
    per_user: dict
    sum_per_cell: dict
    sum_total: float
    stderr: float
    trials: int
    prelog: float = 1.0
    sum_total_floored: float | None = None  # alt bound may go negative
    mean_sinr: dict = field(default_factory=dict, repr=False)


def prelog_factor(scenario: NetworkScenario) -> float:
    kappa = scenario.scheme.channel_uses(scenario.K, scenario.T_c)
    return 1.0 - kappa / scenario.T_c


def noncoherent_expression(mean_sig, var_sig, interf_power, inv_power):
    """Single-log non-coherent rate: useful-mean power over noise, signal
    fluctuation, and interference; scalars or arrays of users alike."""
    mean_sig = np.asarray(mean_sig)
    sinr = np.hypot(mean_sig.real, mean_sig.imag) ** 2 / (inv_power + var_sig + interf_power)
    return np.log2(1.0 + sinr)


def _users_leading(x):
    """Per-trial statistics x [..., trials, K] as a contiguous [..., K, trials]:
    a mean over its last axis rounds like the column mean x[:, k].mean()
    (numpy's pairwise sum), where x.mean(axis=-2) sums trial by trial."""
    return np.ascontiguousarray(x.swapaxes(-1, -2))


def _hardening(sig, ip2_sum, inv_p):
    """Each user's channel-hardening rate (without prelog) from its signal
    sig and interference power ip2_sum, both users-leading [..., K, trials]."""
    mean_sig = sig.mean(axis=-1)
    mean_pow = np.hypot(mean_sig.real, mean_sig.imag) ** 2
    var_sig = np.maximum((np.abs(sig) ** 2).mean(axis=-1) - mean_pow, 0.0)
    return noncoherent_expression(mean_sig, var_sig, ip2_sum.mean(axis=-1), inv_p)


def _cell_sums(x):
    """Each cell's ordered Python sum of its users' rates x [cells, K]."""
    return [sum(row.tolist()) for row in x]


def _stderr(prelog, totals):
    """prelog times the standard error of the mean of sum rates (per trial or
    per batch of trials)."""
    n = len(totals)
    return prelog * float(totals.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0


def _report(bound_id, direction, cells, per_user, stderr, trials, prelog, per_cell=None,
            mean_sinr=None, floored=False) -> RateReport:
    """The RateReport of per-user rates per_user [cells, K], row i for cell
    cells[i].  A cell's sum is the ordered sum of its users' rates unless
    per_cell [cells] gives it, and the total is the ordered sum of the cells';
    floored adds the total of the rates floored at zero."""
    def by_user(x):
        return {(l, k): v for l, row in zip(cells, x) for k, v in enumerate(row.tolist())}

    sums = dict(zip(cells, _cell_sums(per_user) if per_cell is None else per_cell.tolist()))
    return RateReport(
        bound_id=bound_id, direction=direction, per_user=by_user(per_user),
        sum_per_cell=sums, sum_total=sum(sums.values()), stderr=stderr, trials=trials,
        prelog=prelog, mean_sinr={} if mean_sinr is None else by_user(mean_sinr),
        sum_total_floored=sum(np.maximum(per_user, 0.0).ravel().tolist()) if floored else None,
    )


# ---------------------------------------------------------------------------
# Per-draw Monte Carlo engine
# ---------------------------------------------------------------------------

def _nc_stats(sig, ip, power, prev=None):
    """Per-chunk statistics of the non-coherent bounds from the signal
    sig [T, K] and the interference inner products ip [T, K, links].  prev
    holds the statistics of the chunk's earlier trials, which these extend:
    their sums over trials lead, so the sums still run in trial order."""
    ip2 = np.abs(ip) ** 2
    ip2_sum = np.einsum("tki->tk", ip2)
    out = {
        "sig": sig,
        "ip2_sum": ip2_sum,
        "ip_mean": ip,
        "ip2": ip2,
        "ub": np.log2(1.0 + np.abs(sig) ** 2 / (1.0 / power + ip2_sum)),
    }
    if prev is not None:
        for key, x in out.items():
            lead = prev[key][None] if key in ("ip_mean", "ip2") else prev[key]
            out[key] = np.concatenate([lead, x])
    out["ip_mean"] = out["ip_mean"].sum(axis=0)
    out["ip2"] = out["ip2"].sum(axis=0)
    return out


def _seen(P, w):
    """Channels w [T, S, b] of S sources seen through the table P [S, N, q, b]
    in N serving bases: [S, T, N, q], one (T x b)(b x N q) GEMM per source."""
    S, N, q, b = P.shape
    Pt = P.reshape(S, N * q, b).transpose(0, 2, 1)
    return np.matmul(w.transpose(1, 0, 2), Pt).reshape(S, -1, N, q)


def _inner(Y, u):
    """u^H y for every seen channel: [T, N, S] from Y [S, T, N, q] and the
    serving vectors u [T, N, q].  Y may hold one serving basis (N = 1) for
    all the vectors of a shared cell."""
    return np.matmul(Y.transpose(1, 2, 0, 3), u.conj()[..., None])[..., 0]


def _segments(keys):
    """Starts of the runs of equal entries in the sorted keys, and the key of
    each run: the CSR layout that np.add.reduceat sums."""
    first = np.flatnonzero(np.diff(keys, prepend=-1))
    return first, keys[first]


def _segment_sums(x, first, ids, n):
    """The sums of x's segments along its last axis (starts `first`), placed
    at entries `ids` of a zero array of n entries."""
    out = np.zeros(x.shape[:-1] + (n,), dtype=x.dtype)
    if first.size:
        out[..., ids] = np.add.reduceat(x, first, axis=-1)
    return out


def _zero_padded(x):
    """x with one zero entry appended along its last axis: index -1 or
    x.shape[-1] then reads as zero."""
    return np.concatenate([x, np.zeros_like(x[..., :1])], axis=-1)


class DrawEngine:
    """Vectorized evaluator for one covariance draw of a scenario.

    Precomputes every draw-static object (projections, estimator filters,
    design matrices), then evaluates chunks of trials.  Each user (l, k) is
    estimated and served in a basis B_lk of q orthonormal columns: its own
    eigenbasis U_llk by default (q = r_own), or bases[(l, k)], an M x q
    matrix shared in shape by all users (a column subset of U_llk for
    d-restricted spreading, I_M for full-dimensional processing).  Per-link
    padding to the largest rank keeps the fading table rectangular: channels
    of rank r_cross < r_own are zero-extended, which changes no inner product.

    The scenario's model label picks one of two representations (`angular`).

    Dense (the partial-unitary model, and partial-Fourier draws served in
    bases that are neither DFT columns nor M x M): every projection is a
    complex table, source-major, so that one GEMM per source channel gives
    its view in every serving basis of a cell: P_own[l, j, k] = B_lk^H U_llj,
    P_x[l, i, p, k] = B_lk^H U_{l lp p} for the i-th other cell lp (rx
    columns, the largest cross-link rank), and P_est[l, j, k] = B_lk^H B_lj.
    filt, err_cov, nproj_sum, s_inter and Z are [L, K, q, q].

    Angular (partial-Fourier draws): each eigenbasis is a set of DFT columns,
    supp[l, lp, k] the indices the profile of link (l, lp, k) stores (-1
    pads), and each serving basis is served in DFT columns too, serve[l, k];
    no eigenbasis is formed as a matrix.  A basis of DFT columns
    is served in its own; an M x M basis B that is not (I_M) is served in all
    M, and its users' orthogonal-pilot noise is rotated by F^H B, one FFT for
    B = I.  MMSE and MF processing are unitarily equivariant, so every rate
    is the dense one up to round-off.  Every projection B^H U is then a 0/1
    selection: filt, err_cov, nproj_sum, s_inter and Z are diagonals
    [L, K, q], and Z + I/p is inverted by a reciprocal.  The pilot
    observation is one scatter-add of the fading into angular slots (BS,
    and pilot index under orthogonal pilots) and one gather per user; the
    link inner products are gather-sums over the matched index pairs of each
    (BS, source cell) block, precomputed per draw (`pairs`, `segs`).  A
    chunk is evaluated in passes of at most `span` trials, sized from the
    scenario's shape to about PASS_BYTES; the dense representation takes a
    chunk in one pass.

    Every system the engine solves has a known eigenvalue floor, which it
    hands to the guard of `_linalg` so that no eigenvalue pass runs where
    the floor already certifies the system: C + contamination + I/rho_p
    (the estimators, >= 1/rho_p) and W W^H + Z + I/p (the MMSE combiners
    and precoders, >= 1/p).  The combiner and precoder solve depends on the
    basis dimension: when q > K it inverts Z + I/p of every serving basis
    once per power, one stacked solve per cell, and solves a K x K system per
    trial (matrix inversion lemma);
    when q <= K it solves the q x q system of each trial directly: a shared
    cell's one system per trial (K right-hand sides) by LU, and the
    per-user systems of a pass by LU too when q > CHOLESKY_MAX_Q, else
    through one `_linalg.cholesky_solve`, one LAPACK potrf per matrix, then
    forward and back substitution vectorised over the stack.  Either way a
    trial's bits do not depend on how trials are chunked.  The
    users of `jittered` had their estimator system regularised; those of
    `beam_jittered` had a combiner or precoder system regularised (Z + I/p
    when q > K, a trial's system when q <= K).

    One engine serves a covariance draw: `default_engine` memoises the
    default one (MMSE, unconditional contamination, own eigenbases) on the
    scenario, and `run_bounds` and both deterministic equivalents of
    `detequiv` (`sinr_mmse_detequiv`, `sinr_mf_detequiv`) read it, the
    latter through `detequiv_tables`; the estimator tables do not depend on
    the combiner, so the MMSE engine serves the MF limit too.  So that the
    memo makes no reference cycle, the engine keeps the few scenario scalars
    its passes read (L, K, M, rho_p, P_ul, P_dl), not the scenario; its
    records (`beam_jittered`, the cached inverses) then span every run on
    the draw.
    """

    def __init__(self, scenario: NetworkScenario, combiner: str = "mmse",
                 conditional_contamination: bool = False, bases=None):
        sc = scenario
        self.L, self.K, self.M = sc.L, sc.K, sc.M
        self.rho_p, self.P_ul, self.P_dl = sc.rho_p, sc.P_ul, sc.P_dl_per_user
        self.combiner = combiner
        self.conditional = (
            conditional_contamination and scenario.scheme.kind == "orthogonal"
            and scenario.L > 1
        )
        L, K, r = sc.L, sc.K, sc.r_own
        self.r = r
        self.rmax = max(sc.r_own, sc.r_cross)
        # largest cross-link rank: the columns of P_x
        self.rx = max((prof.r for (l, lp, _), prof in sc.profiles.items() if lp != l),
                      default=0)
        self.nonorth = sc.scheme.kind == "nonorthogonal"
        if not self.nonorth and K > sc.T_c:
            raise PilotBudgetError(
                f"orthogonal pilots need K={K} <= T_c={sc.T_c} channel uses"
            )
        self.eigen = bases is None
        self.bases = bases
        self.q = q = r if self.eigen else bases[(0, 0)].shape[1]
        if not self.eigen and any(bases[u].shape != (sc.M, q) for u in sc.users()):
            raise ValueError(f"every serving basis must be M x q = {sc.M} x {q}")
        self.xcells = {l: [lp for lp in range(L) if lp != l] for l in range(L)}

        # eigenvalue and sqrt-eigenvalue tables of all links, padded:
        # [L_rx, L_tx, K, rmax]
        lam = np.zeros((L, L, K, self.rmax))
        for (l, lp, k), prof in sc.profiles.items():
            lam[l, lp, k, : prof.r] = prof.lam
        self.lam, self.sqrt_lam = lam, np.sqrt(lam)

        self.angular = sc.model is CorrelationModel.PARTIAL_FOURIER and self._index_sets(sc)
        if self.eigen and not self.angular:
            self.bases = {(l, k): sc.profile(l, l, k).U for l, k in sc.users()}
        if self.angular:
            # cells whose users are all served in the same DFT columns
            self.shared = [bool((self.serve[l] == self.serve[l, 0]).all()) for l in range(L)]
            tab, dtype = (L, K, q), float
        else:
            # cells whose users all share one basis object (fig2's I_M)
            self.shared = [not self.eigen and all(self.bases[(l, k)] is self.bases[(l, 0)]
                                                  for k in range(K)) for l in range(L)]
            tab, dtype = (L, K, q, q), complex
        # the estimates between serving bases are the identity within a
        # shared cell, so not stored if all cells share
        dense = not self.angular
        self.P_own = np.zeros((L, K, K, q, r), dtype=complex) if dense else None
        self._P_est = (np.zeros((L, K, K, q, q), dtype=complex)
                       if dense and not (self.eigen or all(self.shared)) else None)
        self.P_x = (np.zeros((L, L - 1, K, K, q, self.rx), dtype=complex)
                    if dense and L > 1 else None)
        # per-user MMSE estimators in the serving bases, the own-cell
        # estimation errors seen in each user's basis, and the cross-cell
        # channel covariances
        self.filt = np.zeros(tab, dtype=dtype)
        self.err_cov = np.zeros(tab, dtype=dtype)
        self.nproj_sum = np.zeros(tab, dtype=dtype)
        self.s_inter = np.zeros(tab, dtype=dtype)
        if self.conditional:
            # exact Gaussian conditionals for the pilot-contaminated links:
            # mean filter R~ Xi per contaminating cell, and the coherent
            # denominator's covariance with the residuals in place of R~
            self.contam_filt = np.zeros((L, K, L - 1) + tab[2:], dtype=dtype)
            contam_res = np.zeros(tab, dtype=dtype)
        jittered = []
        for l in range(L):
            res = (self._angular_tables(l, lam[l], jittered) if self.angular
                   else self._cell_tables(sc, l, jittered))
            if self.conditional:
                contam_res[l] = res
        self.jittered = tuple(jittered)
        # the default design matrix of the combiner/precoder
        self.Z = self.err_cov + self.nproj_sum + self.s_inter
        if self.conditional:
            self.Z_cond = self.err_cov + self.nproj_sum + contam_res
        # trials per pass of a chunk: the angular representation bounds the
        # memory of a pass by PASS_BYTES (one pass in the dense one)
        self.span = CHUNK
        if self.angular:
            self._angular_plans()
            per_trial = 16 * (L * L * K * self.rmax + 2 * self.obs_take.size + 4 * L * K * q
                              + (1 if all(self.shared) else K) * 2 * K * q + 2 * L * K * K)
            self.span = max(PASS_BYTES // per_trial, 1)
        # (Z + I / power)^{-1} per power, and the users whose combiner or
        # precoder system the guard regularised; chunks may share the engine
        self._inverses = {}
        self._beam_flags = set()
        self._lock = threading.RLock()

    def _index_sets(self, sc):
        """Set supp and serve of a partial-Fourier draw (see the class
        docstring) and the noise rotations of its M x M non-DFT serving
        bases, and return True; return False, setting nothing, when a
        serving basis with q < M is not DFT columns.

        supp is read from the profiles' stored DFT indices; a link without
        r distinct indices in [0, M) raises InvalidProfile.  An explicit
        serving basis's indices come from the phase step from row 0 to row
        1 of each column, then one comparison of the basis with the DFT
        columns it names."""
        L, K, M, q = sc.L, sc.K, sc.M, self.q
        F = dft_matrix(M)
        row = min(1, M - 1)

        def columns(U):
            idx = np.rint(np.angle(U[row]) * (M / (2.0 * np.pi))).astype(np.intp) % M
            return idx if np.abs(U - F[:, idx]).max() <= 1e-8 else None

        serve = np.zeros((L, K, q), dtype=np.intp)
        rotations = {}  # id(B) -> (B, or None for I_M; its users)
        if not self.eigen:
            found = {}
            for (l, k), B in self.bases.items():
                if id(B) not in found:
                    idx = columns(B)
                    if idx is None:
                        if q < M:
                            return False
                        idx = np.arange(M)
                        rotations[id(B)] = (None if np.array_equal(B, np.eye(M)) else B, [])
                    found[id(B)] = idx
                serve[l, k] = found[id(B)]
                if id(B) in rotations:
                    rotations[id(B)][1].append((l, k))
        supp = np.full((L, L, K, self.rmax), -1, dtype=np.intp)
        rank = np.zeros((L, L, K), dtype=np.intp)
        for key, prof in sc.profiles.items():
            if prof.idx is None or np.shape(prof.idx) != (prof.r,):
                raise InvalidProfile(f"partial-Fourier link {key} needs r={prof.r} DFT indices")
            supp[key][: prof.r] = prof.idx
            rank[key] = prof.r
        held = np.arange(self.rmax) < rank[..., None]
        ordered = np.sort(supp, axis=-1)
        if (((supp >= 0) != held) | (supp >= M)).any() or (
                (ordered[..., 1:] == ordered[..., :-1]) & (ordered[..., 1:] >= 0)).any():
            raise InvalidProfile("a partial-Fourier link's DFT indices must be distinct, in [0, M)")
        if self.eigen:
            ll = np.arange(L)
            serve[:] = supp[ll, ll, :, :q]
        self.supp, self.serve = supp, serve
        self._rotations = [(B, tuple(np.array(users).T)) for B, users in rotations.values()]
        return True

    def _cell_tables(self, sc, l, jittered):
        """Fill cell l's projections, estimators and design-matrix terms.

        Every covariance projection B^H R B = (B^H U) diag(lam) (B^H U)^H of
        the cell comes from one stacked GEMM over its links; a shared cell
        projects once for all of its users.  Appends the users whose
        estimator solve was regularised to `jittered`, and returns the
        conditional denominator's covariances under conditional
        contamination."""
        L, K, M, r, q, rx = sc.L, sc.K, sc.M, self.r, self.q, self.rx
        kk = np.arange(K)
        nb = 1 if self.shared[l] else K  # distinct serving bases

        def gram(A, B):
            """A B^H per serving basis over the links in the trailing axes."""
            n = A.shape[0]
            return A.reshape(n, q, -1) @ B.reshape(n, q, -1).conj().swapaxes(-1, -2)

        Bh = np.concatenate([self.bases[(l, k)] for k in range(nb)], axis=1).conj().T
        lam_own = np.stack([sc.profile(l, l, j).lam for j in range(K)])  # [j, b]
        U_own = np.concatenate([sc.profile(l, l, j).U for j in range(K)], axis=1)
        R = (Bh @ U_own).reshape(nb, q, K, r)  # [k, a, j, b]
        self.P_own[l] = R.transpose(2, 0, 1, 3)
        if self.eigen:
            self.P_own[l, kk, kk] = np.eye(r)
        if self._P_est is not None:
            Bcols = np.concatenate([self.bases[(l, j)] for j in range(K)], axis=1)
            self._P_est[l] = (Bh @ Bcols).reshape(nb, q, K, q).transpose(2, 0, 1, 3)
            self._P_est[l, kk, kk] = np.eye(q)

        # contaminating covariances in each user's basis, summed
        contam = np.zeros((K, q, q), dtype=complex)
        if self.nonorth:
            Rk = np.broadcast_to(R, (K, q, K, r))
            Rl = Rk * lam_own
            Rl[kk, :, kk] = 0.0  # the user's own channel does not contaminate
            contam += herm(gram(Rl, Rk))
        if L > 1:
            U_x = np.zeros((M, L - 1, K, rx), dtype=complex)
            lam_x = np.zeros((L - 1, K, rx))
            for i, lp in enumerate(self.xcells[l]):
                for p in range(K):
                    src = sc.profile(l, lp, p)
                    U_x[:, i, p, : src.r] = src.U
                    lam_x[i, p, : src.r] = src.lam
            X = (Bh @ U_x.reshape(M, -1)).reshape(nb, q, L - 1, K, rx)  # [k, a, i, p, b]
            self.P_x[l] = X.transpose(2, 3, 0, 1, 4)
            self.s_inter[l] = herm(gram(X * lam_x, X))
            if self.nonorth:
                contam += self.s_inter[l]
            else:  # the same pilot index in every other cell
                Xk = np.broadcast_to(X, (K, q, L - 1, K, rx))
                Xd = Xk[kk, :, :, kk]  # [k, a, i, b]
                lam_d = lam_x[:, kk].transpose(1, 0, 2)[:, None]
                contam += herm(gram(Xd * lam_d, Xd))

        # prior C = B^H R B, Xi = (C + contamination + I / rho_p)^{-1},
        # filter C Xi = (Xi C)^H and error covariance C - C Xi C.  The filter
        # is solved for against C: formed as C times an explicit Xi, it
        # would carry round-off of order eps * rho_p in I_M bases.  The
        # system's smallest eigenvalue is at least 1 / rho_p, and Xi itself
        # is needed only by the conditional contamination tables
        own = self.P_own[l, kk, kk]  # [k, a, b]
        C = herm((own * lam_own[:, None]) @ own.conj().swapaxes(-1, -2))
        eye = np.eye(q, dtype=complex)
        rhs = (np.concatenate([C, np.broadcast_to(eye, C.shape)], axis=-1)
               if self.conditional else C)
        x, jit = hermitian_solve(C + contam + (1.0 / sc.rho_p) * eye, rhs,
                                 floor=1.0 / sc.rho_p)
        self.filt[l] = x[..., :q].conj().swapaxes(-1, -2)
        xi = herm(x[..., q:]) if self.conditional else None
        jittered.extend((l, int(k)) for k in np.flatnonzero(jit))
        err = self.err_cov[l] = herm(C - herm(self.filt[l] @ C))

        if self.shared[l]:
            # P_est is the identity: the other users' errors are all minus own
            self.nproj_sum[l] = herm(err.sum(axis=0) - err)
        else:
            P = self.P_est[l]  # [j, k, a, c]
            PE = P @ err[:, None]
            PE[kk, kk] = 0.0
            A = PE.transpose(1, 2, 0, 3).reshape(K, q, K * q)
            Pk = P.transpose(1, 2, 0, 3).reshape(K, q, K * q)
            self.nproj_sum[l] = herm(A @ Pk.conj().swapaxes(-1, -2))

        if self.conditional:
            Xd = Xd.transpose(0, 2, 1, 3)  # [k, i, a, b]
            rt = (Xd * lam_d.transpose(0, 2, 1, 3)) @ Xd.conj().swapaxes(-1, -2)
            self.contam_filt[l] = rt @ xi[:, None]
            res = herm(rt - self.contam_filt[l] @ rt).sum(axis=1)
            Xo = Xk * lam_x
            Xo[kk, :, :, kk] = 0.0  # the links of the other pilot indices
            return herm(res) + herm(gram(Xo, Xk))
        return None

    def _angular_tables(self, l, lam, jittered):
        """`_cell_tables` in the angular representation, where every table is
        a diagonal: a link's projected covariance B^H R B is its eigenvalues
        lam [L, K, rmax] placed at its DFT indices and read at the serving
        basis's.  Each estimator system is diagonal too, so `diag_guard`
        reads its smallest eigenvalue off the diagonal."""
        L, K, M = self.L, self.K, self.M
        T = self.serve[l]  # [k, a]
        # power of every link into BS l at each DFT index (padding at M)
        pw = np.zeros((L, K, M + 1))
        pw[np.arange(L)[:, None, None], np.arange(K)[:, None], self.supp[l]] = lam
        own, cross = pw[l, :, :M], pw[self.xcells[l], :, :M]
        C = np.take_along_axis(own, T, axis=-1)
        self.s_inter[l] = cross.sum(axis=(0, 1))[T]
        if self.nonorth:
            contam = own.sum(axis=0)[T] - C + self.s_inter[l]
        else:  # the same pilot index in every other cell
            rt = np.take_along_axis(cross, T[None], axis=-1)  # [i, k, a]
            contam = rt.sum(axis=0)
        d, jit = diag_guard(C + contam + 1.0 / self.rho_p)
        jittered.extend((l, int(k)) for k in np.flatnonzero(jit))
        filt = self.filt[l] = C / d
        err = self.err_cov[l] = C - filt * C
        # every user's error at its DFT indices, less the user's own
        self.nproj_sum[l] = np.bincount(T.ravel(), err.ravel(), minlength=M)[T] - err
        if self.conditional:
            rt = rt.transpose(1, 0, 2)  # [k, i, a]
            self.contam_filt[l] = rt / d[:, None]
            res = (rt - self.contam_filt[l] * rt).sum(axis=1)
            return res + (self.s_inter[l] - contam)
        return None

    def _angular_plans(self):
        """The angular representation's per-draw index plans.

        own_pos [L, K, q]: position of each serving index among the user's
        own eigencolumns (r: none).  est_pos [L, k, j, q]: where user k's
        serving indices sit among user j's, as flat indices j * (q + 1) + a
        into the zero-padded estimates (a = q: not among them), for cells
        that do not share.  obs_take, obs_first and obs_slot: the fading
        entries sorted by angular slot, the CSR segments of the slots, and
        each user's serving slots among them (one past the last: none).
        pairs [2, P] (n * q + a, p * rmax + b) and segs [2, S] (start,
        n * K + p) of each (BS l, source cell c) block, at ptr[:, l * L + c]:
        serving basis n's coordinate a and source p's eigencolumn b share a
        DFT index."""
        L, K, M, q, r, rmax = self.L, self.K, self.M, self.q, self.r, self.rmax
        ll, kk = np.arange(L)[:, None, None], np.arange(K)[:, None]

        def inverse(idx, width, none):
            """inv[..., m] = position of m in idx[..., :], `none` elsewhere
            (and at m = M, where the -1 padding reads)."""
            inv = np.full(idx.shape[:-1] + (M + 1,), none, dtype=np.intp)
            np.put_along_axis(inv, idx, np.arange(width), axis=-1)
            inv[..., M] = none
            return inv

        self.own_pos = (None if self.eigen else np.take_along_axis(
            inverse(self.supp[np.arange(L), np.arange(L), :, :r], r, r), self.serve, axis=-1))
        inv = inverse(self.serve, q, q)  # [l, j, m]
        self.est_pos = (None if all(self.shared) else
                        kk * (q + 1) + inv[ll[..., None], kk, self.serve[:, :, None]])

        # pilot slots: (BS, DFT index) for the shared pilot, (BS, pilot
        # index, DFT index) for orthogonal ones
        group = ll[..., None] if self.nonorth else ll[..., None] * K + kk
        slot = np.where(self.supp >= 0, group * M + self.supp, -1).ravel()
        take = np.flatnonzero(slot >= 0)
        self.obs_take = take[np.argsort(slot[take], kind="stable")]
        self.obs_first, slots = _segments(slot[self.obs_take])
        want = ((ll if self.nonorth else ll * K + kk[None]) * M + self.serve).ravel()
        at = np.minimum(np.searchsorted(slots, want), max(slots.size - 1, 0))
        hit = slots.size > 0 and (slots[at] == want)
        self.obs_slot = np.where(hit, at, slots.size).reshape(L, K, q)

        pairs, segs, ptr = [], [], [[0], [0]]
        for l in range(L):
            nb = 1 if self.shared[l] else K
            for c in range(L):
                A = inv[l, :nb][:, self.supp[l, c]]  # [n, p, b]
                n, p, b = np.nonzero(A < q)
                first, ids = _segments(n * K + p)
                pairs.append(np.stack([n * q + A[n, p, b], p * rmax + b]))
                segs.append(np.stack([first, ids]))
                ptr[0].append(ptr[0][-1] + n.size)
                ptr[1].append(ptr[1][-1] + first.size)
        self.pairs = np.concatenate(pairs, axis=1)
        self.segs = np.concatenate(segs, axis=1)
        self.ptr = np.array(ptr)

    @property
    def P_est(self):
        """Estimate projections between serving bases; in the own eigenbases
        they coincide with the true-channel table, so P_own itself."""
        return self.P_own if self.eigen else self._P_est

    def detequiv_tables(self, l):
        """Cell l's inputs of the uplink deterministic equivalents
        (`detequiv`: the MMSE limit reads them all, the MF limit all but Z),
        dense in both representations:

        P_own [k, j, a, b] = U_llk^H U_llj; P_x [k, i, p, a, b] =
        U_llk^H U_{l lp p} for the i-th other cell lp (None when L = 1) and
        its eigenvalues lam_x [i, p, b]; phi [k, a, b] = Lambda Xi Lambda;
        xi_lam [k, a, b] = Xi Lambda, the conjugate transpose of filt; Z
        [k, a, b].  The angular representation expands its diagonals, and
        its projections into the 0/1 selections they are.  Needs the own
        eigenbases (bases=None)."""
        if not self.eigen:
            raise ValueError("the deterministic-equivalent tables need the own eigenbases")
        r, rx, xcells = self.r, self.rx, self.xcells[l]
        lam_own, lam_x = self.lam[l, l, :, :r], self.lam[l, xcells, :, :rx]
        if self.angular:
            own = self.serve[l]  # [k, a]: the own DFT indices
            P_own = (own[:, None, :, None] == own[None, :, None, :]).astype(complex)
            P_x = ((own[:, None, None, :, None] == self.supp[l, xcells, :, None, :rx])
                   .astype(complex) if xcells else None)
            filt, Z = self.filt[l][..., None] * np.eye(r), self.Z[l][..., None] * np.eye(r)
        else:
            P_own = self.P_own[l].swapaxes(0, 1)
            P_x = None if self.P_x is None else self.P_x[l].transpose(2, 0, 1, 3, 4)
            filt, Z = self.filt[l], self.Z[l]
        phi = herm(filt * lam_own[:, None, :])
        return P_own, P_x, lam_x, phi, filt.conj().swapaxes(-1, -2), Z

    # -- trial synthesis ----------------------------------------------------

    def _draw_chunk(self, base_seed: int, t0: int, t1: int):
        """Fading + pilot noise for trials [t0, t1), one RNG stream each."""
        L, K, M, rmax, q = self.L, self.K, self.M, self.rmax, self.q
        T = t1 - t0
        w = np.empty((T, L, L, K, rmax), dtype=complex)
        noise = np.empty((T, L, K, q), dtype=complex)
        z = np.empty((T, L, M), dtype=complex) if self.nonorth else None
        for i, t in enumerate(range(t0, t1)):
            rng = stream(base_seed, 1, t)
            w[i] = complex_gaussian(rng, L, L, K, rmax)
            if self.nonorth:
                z[i] = complex_gaussian(rng, L, M)
            else:
                # fresh pilot symbol per user: despread noise is plain CN(0, I_q)
                noise[i] = complex_gaussian(rng, L, K, q)
        if self.nonorth and self.angular:
            # one snapshot per BS in DFT coordinates, read by each user
            zf = np.fft.fft(z, axis=-1, norm="ortho")
            noise = zf[:, np.arange(L)[:, None, None], self.serve]
        elif self.nonorth:
            # one snapshot per BS, despread by each of its users
            for (l, k), B in self.bases.items():
                noise[:, l, k] = z[:, l] @ B.conj()
        elif self.angular:
            # noise drawn in an M x M basis B, seen in DFT coordinates: F^H B n
            for B, (ls, ks) in self._rotations:
                x = noise[:, ls, ks] if B is None else noise[:, ls, ks] @ B.T
                noise[:, ls, ks] = np.fft.fft(x, axis=-1, norm="ortho")
        w *= self.sqrt_lam[None]
        return w, noise

    def _estimates(self, w, noise):
        """Despread pilot observations and per-user MMSE estimates.

        Returns (w_hat, w_own, x_own, s).  The estimates w_hat, the
        observations s and the own channels x_own are in the serving bases
        [T, L, K, q]; w_own holds the own channels in their eigen
        coordinates [T, L, K, r]."""
        L, K, r, rx = self.L, self.K, self.r, self.rx
        kk = np.arange(K)
        T = w.shape[0]
        w_own = np.empty((T, L, K, r), dtype=complex)
        for l in range(L):
            w_own[:, l] = w[:, l, l, :, :r]
        if self.eigen:
            x_own = w_own
        elif self.angular:
            x_own = np.take_along_axis(_zero_padded(w_own), self.own_pos[None], axis=-1)
        else:
            own = self.P_own[:, kk, kk].swapaxes(-1, -2)  # [l, k, b, a]
            x_own = np.matmul(w_own.transpose(1, 2, 0, 3), own).transpose(2, 0, 1, 3)
        if self.angular:
            # every pilot-sharing link scattered to its slots, read per user
            obs = _segment_sums(np.take(w.reshape(T, -1), self.obs_take, axis=1),
                                self.obs_first, slice(None, -1), self.obs_first.size + 1)
            s = np.take(obs, self.obs_slot, axis=1)
            s += noise / np.sqrt(self.rho_p)
            return self.filt * s, w_own, x_own, s
        s = x_own + noise / np.sqrt(self.rho_p)
        for l in range(L):
            if self.nonorth:
                # own-cell contamination of the shared pilot
                Y = _seen(self.P_own[l], w_own[:, l])
                Y[kk, :, kk] = 0.0
                s[:, l] += Y.sum(axis=0)
                for i, lp in enumerate(self.xcells[l]):
                    s[:, l] += _seen(self.P_x[l, i], w[:, l, lp, :, :rx]).sum(axis=0)
            else:
                for i, lp in enumerate(self.xcells[l]):
                    # same pilot index only
                    D = self.P_x[l, i, kk, kk].swapaxes(-1, -2)  # [k, b, a]
                    s[:, l] += np.matmul(w[:, l, lp, :, :rx].transpose(1, 0, 2), D
                                         ).transpose(1, 0, 2)
        w_hat = np.matmul(s.transpose(1, 2, 0, 3), self.filt.swapaxes(-1, -2))
        return w_hat.transpose(2, 0, 1, 3), w_own, x_own, s

    def _seen_estimates(self, w_hat, l):
        """Cell l's estimates seen in each of its users' bases [j, T, k, q];
        a shared cell's one basis gives [j, T, 1, q]."""
        wl = w_hat[:, l]
        if self.shared[l]:
            return wl.transpose(1, 0, 2)[:, :, None]
        if self.angular:
            # [T, k, j, q] in memory: the MMSE products read contiguous rows
            T = wl.shape[0]
            Y = np.take(_zero_padded(wl).reshape(T, -1), self.est_pos[l], axis=1)
            return Y.transpose(2, 0, 1, 3)
        return _seen(self.P_est[l], wl)

    def _link_inner(self, l, c, w, u):
        """u^H (B^H U w) for the channels from cell c's users into BS l, seen
        by its users' vectors u [T, K, q]: [T, K, K] (vector, source user),
        from the fading table w [T, L, L, K, rmax]."""
        K = self.K
        if not self.angular:
            P = self.P_own[l] if c == l else self.P_x[l, c - (c > l)]
            x = w[:, l, c, :, : P.shape[-1]]
            return _inner(_seen(P[:, :1] if self.shared[l] else P, x), u)
        blk = l * self.L + c
        (p0, p1), (s0, s1) = self.ptr[:, blk: blk + 2]
        ua, src = self.pairs[:, p0:p1]
        first, ids = self.segs[:, s0:s1]
        T = u.shape[0]
        x = np.take(w[:, l, c].reshape(T, -1), src, axis=1)
        if self.shared[l]:  # one set of pairs for every user's vector
            x = np.take(u.conj(), ua, axis=2) * x[:, None]
            return _segment_sums(x, first, ids, K)
        x *= np.take(u.conj().reshape(T, -1), ua, axis=1)
        return _segment_sums(x, first, ids, K * K).reshape(T, K, K)

    @property
    def beam_jittered(self):
        """Users whose MMSE combiner or precoder system the guard regularised,
        in any trial evaluated so far, sorted."""
        with self._lock:
            return tuple(sorted(self._beam_flags))

    def _flag_users(self, l, ks):
        with self._lock:
            self._beam_flags.update((l, int(k)) for k in ks)

    def _static_inverse(self, power):
        """(Z + I / power)^{-1} of every serving basis, [n, q, q] per cell
        (n = 1 for a shared cell, else K): one stacked guarded solve per cell,
        with floor 1 / power, computed once per power.  In the angular
        representation the inverses are reciprocals of diagonals, [n, q] per
        cell."""
        with self._lock:
            inv = self._inverses.get(power)
            if inv is None:
                K = self.K
                eye = np.eye(self.q, dtype=complex)
                inv = []
                for l in range(self.L):
                    nb = 1 if self.shared[l] else K
                    if self.angular:
                        d, jit = diag_guard(self.Z[l, :nb] + 1.0 / power)
                        inv.append(1.0 / d)
                    else:
                        x, jit = hermitian_solve(self.Z[l, :nb] + (1.0 / power) * eye, None,
                                                 floor=1.0 / power)
                        inv.append(herm(x))
                    if jit.any():
                        self._flag_users(l, range(K) if self.shared[l] else np.flatnonzero(jit))
                self._inverses[power] = inv
        return inv

    def _with_design(self, G, Zl, power):
        """G + Z + I / power for the design matrices Zl of a cell (diagonals
        in the angular representation)."""
        if self.angular:
            i = np.arange(self.q)
            G[..., i, i] += Zl + 1.0 / power
        else:
            G += Zl + (1.0 / power) * np.eye(self.q)
        return G

    def _beamformer(self, w_hat, l, power):
        """Unit-norm combining (power P_ul) or precoding (power P_dl per
        user) vectors of cell l's users [T, K, q], and the estimates seen in
        their bases that the MMSE design formed (_seen_estimates; None
        under MF).

        User k's MMSE vector is G^{-1} w_k with G = W W^H + A: the columns
        of W are the cell's K estimates seen in the user's basis, and
        A = Z + I / power.  When q > K the matrix inversion lemma gives
        G^{-1} W = A^{-1} W S^{-1} with S = I + W^H A^{-1} W, which is K x K
        with every eigenvalue at least 1; A^{-1} comes from one guarded solve
        per basis (_static_inverse; a reciprocal in the angular
        representation), so a trial solves S only.  When q <= K each trial
        solves G directly, after `guard` has jittered the systems that its
        floor 1 / power does not certify: a shared cell's by LU, the
        per-user systems by Cholesky (`cholesky_solve`, which also jitters a
        system whose factorisation fails) when q <= CHOLESKY_MAX_Q, else by
        LU.  Jittered systems are recorded in beam_jittered."""
        K, q = self.K, self.q
        wl = w_hat[:, l]
        T = wl.shape[0]
        Y = None if self.combiner == "mf" else self._seen_estimates(w_hat, l)
        if Y is None:
            v = wl
        elif q > K:
            Yt = Y.transpose(1, 2, 0, 3)  # [T, n, j, q]: the rows w_j^T
            inv = self._static_inverse(power)[l]
            if self.angular:  # the rows of (A^{-1} W)^H
                XT = Yt.conj()
                XT *= inv[None, :, None]
                S = np.matmul(XT, Yt.swapaxes(-1, -2))
            else:  # the rows of A^{-1} W
                XT = np.matmul(Yt, inv.swapaxes(-1, -2)[None])
                S = np.matmul(Yt.conj(), XT.swapaxes(-1, -2))  # W^H A^{-1} W
            S += np.eye(K)
            # the one basis of a shared cell serves all K users, the basis of
            # user k only its own column
            E = np.eye(K) if self.shared[l] else np.eye(K)[:, :, None]
            X = np.linalg.solve(S, E).swapaxes(-1, -2)
            v = (np.matmul(X.conj(), XT).conj() if self.angular
                 else np.matmul(X, XT)).reshape(T, K, q)
        elif self.shared[l]:
            # one basis for the whole cell: all its users share one Gram
            # matrix (and Z), so one solve serves K right-hand sides
            G = self._with_design(np.matmul(wl.swapaxes(1, 2), wl.conj()),
                                  self.Z[l, 0][None], power)
            G, flags = guard(G, 1.0 / power)
            if flags.any():
                self._flag_users(l, range(K))
            v = np.linalg.solve(G, wl.swapaxes(1, 2)).swapaxes(1, 2)
        else:
            G = self._with_design(
                np.matmul(Y.transpose(1, 2, 3, 0), Y.conj().transpose(1, 2, 0, 3)),
                self.Z[l][None], power)
            if q <= CHOLESKY_MAX_Q:
                v, flags = cholesky_solve(G, wl[..., None], 1.0 / power)
            else:
                G, flags = guard(G, 1.0 / power)
                v = np.linalg.solve(G, wl[..., None])
            if flags.any():
                self._flag_users(l, np.flatnonzero(flags.any(axis=0)))
            v = v[..., 0]
        return v / np.linalg.norm(v, axis=-1, keepdims=True), Y

    # -- per-chunk statistics -----------------------------------------------

    def ul_chunk(self, base_seed, t0, t1, cells, want):
        return self._chunk(self._ul_pass, base_seed, t0, t1, cells, want)

    def dl_chunk(self, base_seed, t0, t1, cells, want):
        return self._chunk(self._dl_pass, base_seed, t0, t1, cells, want)

    def _chunk(self, one_pass, base_seed, t0, t1, cells, want):
        """Statistics of trials [t0, t1), evaluated in passes of at most
        `span` trials, each folded into the chunk's statistics cell by cell.
        Every trial is computed on its own and the sums over trials run in
        trial order, so the split changes no value, only the memory a chunk
        holds."""
        n = max(-(-(t1 - t0) // self.span), 1)
        edges = [t0 + (t1 - t0) * i // n for i in range(n + 1)]
        out = {}
        for a, b in zip(edges, edges[1:]):
            one_pass(base_seed, a, b, cells, want, out)
        return out

    def _ul_pass(self, base_seed, t0, t1, cells, want, out):
        K = self.K
        kk = np.arange(K)
        w, noise = self._draw_chunk(base_seed, t0, t1)
        w_hat, _, x_own, s_obs = self._estimates(w, noise)
        del noise
        for l in cells:
            vl, Y = self._beamformer(w_hat, l, self.P_ul)  # [T, K, q]
            if "coherent" in want:
                if Y is None:
                    Y = self._seen_estimates(w_hat, l)
                ip2_hat = np.abs(_inner(Y, vl)) ** 2  # [T, k, j]
                num = ip2_hat[:, kk, kk].copy()
                ip2_hat[:, kk, kk] = 0.0
                Cstat = self.Z_cond[l] if self.conditional else self.Z[l]
                if self.angular:
                    den = (np.abs(vl) ** 2 * Cstat).sum(axis=-1)
                else:
                    Cv = np.matmul(vl.transpose(1, 0, 2), Cstat.swapaxes(-1, -2))  # [k, T, a]
                    den = np.einsum("tka,kta->tk", vl.conj(), Cv).real
                if self.conditional:
                    # v^H R~ Xi s for each pilot-sharing cell
                    if self.angular:
                        cm = (vl.conj()[:, :, None] * self.contam_filt[l]
                              * s_obs[:, l, :, None, :]).sum(axis=-1)
                        den += (np.abs(cm) ** 2).sum(axis=2)
                    else:
                        cmean = np.matmul(self.contam_filt[l], s_obs[:, l, :, None, :, None])
                        den += (np.abs(np.matmul(vl.conj()[:, :, None, None], cmean)) ** 2
                                ).sum(axis=(2, 3, 4))
                den += ip2_hat.sum(axis=2)
                den += (np.linalg.norm(vl, axis=-1) ** 2) / self.P_ul
                sinr = num / den
                prev = out.setdefault("coherent", {}).get(l)
                if prev is not None:
                    sinr = np.concatenate([prev["sinr"], sinr])
                out["coherent"][l] = {"rate": np.log2(1.0 + sinr), "sinr": sinr}
            del Y
            if want & {"noncoherent", "alt", "maxmin"}:
                sig = np.einsum("tka,tka->tk", vl.conj(), x_own[:, l])
                # true channels of every link into BS l, own cell first
                ips = [self._link_inner(l, c, w, vl) for c in [l] + self.xcells[l]]
                ips[0][:, kk, kk] = 0.0
                nc = out.setdefault("_nc", {})
                nc[l] = _nc_stats(sig, np.concatenate(ips, axis=2), self.P_ul, nc.get(l))

    def _dl_pass(self, base_seed, t0, t1, cells, want, out):
        L, K = self.L, self.K
        kk = np.arange(K)
        w, noise = self._draw_chunk(base_seed, t0, t1)
        w_hat, _, x_own, _ = self._estimates(w, noise)
        del noise
        g = np.stack([self._beamformer(w_hat, l, self.P_dl)[0] for l in range(L)],
                     axis=1)
        nc = out.setdefault("_nc", {})
        for l in cells:
            # signal: (B_{lk}^H U_{llk} w_{llk})^H g_{lk}
            sig = np.einsum("tka,tka->tk", x_own[:, l].conj(), g[:, l])
            # link from user (l, k) into BS lp seen through precoder (lp, j):
            # (B_{lp j}^H U_{lp l k} w_{lp l k})^H g_{lp j}, own cell first
            ips = [self._link_inner(lp, l, w, g[:, lp]).conj().swapaxes(1, 2)
                   for lp in [l] + self.xcells[l]]
            ips[0][:, kk, kk] = 0.0
            nc[l] = _nc_stats(sig, np.concatenate(ips, axis=2), self.P_dl, nc.get(l))


def default_engine(scenario: NetworkScenario) -> DrawEngine:
    """The scenario's default engine: MMSE processing, unconditional
    contamination, every user served in its own eigenbasis.  Built on first
    use and kept in `scenario.draw_engine`, so that `run_bounds` and the
    `detequiv` calls of one covariance draw share it;
    `dataclasses.replace` gives a scenario without one."""
    if scenario.draw_engine is None:
        scenario.draw_engine = DrawEngine(scenario)
    return scenario.draw_engine


def run_bounds(
    scenario: NetworkScenario,
    direction: str,
    bounds,
    trials: int,
    seed_key: int,
    combiner: str = "mmse",
    cells=None,
    conditional_contamination: bool = False,
    bases=None,
) -> dict:
    """Evaluate the requested Monte Carlo bounds for one covariance draw.

    Returns {bound_name: RateReport}; bound names are 'coherent',
    'noncoherent', 'alt', 'maxmin'.  The per-trial work is chunked and the
    chunks may run on a thread pool.  Each per-trial statistic is gathered
    once, in trial order, as a [cells, trials, K] array and reduced as arrays
    whose sums run in a fixed order, so the output is bitwise independent of
    the thread count.  A user's mean over trials is taken over a
    users-leading contiguous copy (`_users_leading`); per-trial sums run over
    the users, then the cells in order; the alt penalty's per-link sums run
    over each chunk's trials, then the chunks in order, one cell at a time.
    A cell's rate is the ordered Python sum of its users' (for the coherent
    bound, the mean of its per-trial sums), and the total the ordered sum of
    the cells'.

    conditional_contamination switches the coherent bound's denominator from
    the unconditional projected covariances R~ of the pilot-sharing links to
    their exact Gaussian conditionals given the pilot observation; the
    default follows the plain-R~ evaluation.

    bases maps every user (l, k) to its M x q serving basis (see
    DrawEngine); None serves each user in its own eigenbasis.  With the
    default combiner, contamination and bases the run reads the scenario's
    memoised engine (`default_engine`); any other arguments build a fresh
    one.

    The alternative bound of user (l, k), with prelog = 1 - kappa / T_c, is
    the max-min term less a penalty for the unknown effective gains:

        alt = prelog * E[log2(1 + |s|^2 / (1/P + sum_i |g_i|^2))]
              - prelog * sum_i log2(1 + P * Var[g_i]) / T_c,

    where s = u^H h is the user's own effective gain, g_i = u^H h_i runs
    over the interfering links (the other users of the cell and every user
    of the other cells; the own link's term is zero), P is the data power
    and Var[g_i] = E|g_i|^2 - |E g_i|^2 comes from the trials' ip_mean and
    ip2.  Derivation: over a block whose gains g = (s, g_i) are fixed and
    unknown, I(x; y) >= I(x; y | g) - I(g; y | x).  Treating interference
    as noise given g, the first term is the max-min term.  The second is
    the information the block's outputs carry about the gains.  For
    Gaussian inputs of power P it is largest for Gaussian gains: one channel
    use carries at most sum_i log2(1 + P * Var[g_i]) about the g_i, and the
    code charges that amount, scaled by prelog / T_c, per channel use.  The
    n = prelog * T_c data uses of a block together carry up to
    sum_i log2(1 + n * P * Var[g_i]) plus a term for s, which is 1/T_c of
    that per channel use.  The paper's own form is not in this repository,
    so which charge it makes is open.
    The alt report's stderr is the max-min term's: the Monte Carlo error of
    the penalty, estimated from the same trials, is not included.

    Raises FloatingPointError, before returning, if a report's sum_total,
    stderr or any per-user rate is not finite.
    """
    sc = scenario
    want = set(bounds)
    if direction == "dl":
        want &= set(DL_BOUNDS)
    cells = list(range(sc.L)) if cells is None else list(cells)
    if combiner == "mmse" and not conditional_contamination and bases is None:
        engine = default_engine(sc)
    else:
        engine = DrawEngine(sc, combiner=combiner,
                            conditional_contamination=conditional_contamination,
                            bases=bases)
    if combiner != "mf" and engine.q > sc.K:
        # the draw-static factorisations, before the chunks share the engine
        engine._static_inverse(sc.P_ul if direction == "ul" else sc.P_dl_per_user)
    edges = list(range(0, trials, CHUNK)) + [trials]
    spans = [(a, b) for a, b in zip(edges, edges[1:]) if b > a]
    fn = engine.ul_chunk if direction == "ul" else engine.dl_chunk
    nthreads = _threads()
    if nthreads > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=nthreads) as pool:
            chunks = list(pool.map(lambda ab: fn(seed_key, ab[0], ab[1], cells, want), spans))
    else:
        chunks = [fn(seed_key, a, b, cells, want) for a, b in spans]

    prelog = prelog_factor(sc)
    reports = {}

    def gather(group, key):
        """Per-trial statistic `key` of every cell, [cells, trials, K]."""
        return np.stack([np.concatenate([c[group][l][key] for c in chunks]) for l in cells])

    if "coherent" in want:
        rate = gather("coherent", "rate")
        cell_trials = rate.sum(axis=-1)
        reports["coherent"] = _report(
            "CoherentUL", "ul", cells, prelog * _users_leading(rate).mean(axis=-1),
            _stderr(prelog, cell_trials.sum(axis=0)), trials, prelog,
            per_cell=prelog * cell_trials.mean(axis=-1),
            mean_sinr=_users_leading(gather("coherent", "sinr")).mean(axis=-1))

    if want & {"noncoherent", "alt", "maxmin"}:
        inv_p = 1.0 / (sc.P_ul if direction == "ul" else sc.P_dl_per_user)
        ub = gather("_nc", "ub")
        ub_user = prelog * _users_leading(ub).mean(axis=-1)
        ub_stderr = _stderr(prelog, ub.sum(axis=-1).sum(axis=0))
        if "noncoherent" in want:
            sig = _users_leading(gather("_nc", "sig"))
            ip2_sum = _users_leading(gather("_nc", "ip2_sum"))
            # batch estimates for the moment-based bound's stderr
            nbatch = max(min(10, trials // 2), 1)
            bedges = np.linspace(0, trials, nbatch + 1).astype(int)
            batch_tot = np.array([
                sum(_cell_sums(prelog * _hardening(sig[..., a:b], ip2_sum[..., a:b], inv_p)))
                for a, b in zip(bedges, bedges[1:])])
            reports["noncoherent"] = _report(
                "NonCoherent", direction, cells, prelog * _hardening(sig, ip2_sum, inv_p),
                _stderr(1.0, batch_tot), trials, prelog)
        if "maxmin" in want:
            reports["maxmin"] = _report("MaxMinUB", direction, cells, ub_user, ub_stderr,
                                        trials, prelog)
        if "alt" in want:
            # cell by cell: stacked over the cells, the [cells, K, links]
            # temporaries raise a run's peak memory
            penalty = []
            for l in cells:
                ip_mean = sum(c["_nc"][l]["ip_mean"] for c in chunks) / trials
                ip2 = sum(c["_nc"][l]["ip2"] for c in chunks) / trials
                ip_var = np.maximum(ip2 - np.abs(ip_mean) ** 2, 0.0)
                penalty.append(np.log2(1.0 + (1.0 / inv_p) * ip_var).sum(axis=-1) / sc.T_c)
            reports["alt"] = _report("AltNonCoherent", direction, cells,
                                     ub_user - prelog * np.array(penalty), ub_stderr, trials,
                                     prelog, floored=True)
    for rep in reports.values():
        if not np.isfinite([rep.sum_total, rep.stderr, *rep.per_user.values()]).all():
            raise FloatingPointError(
                f"non-finite {rep.bound_id} {direction} rate (trial seed {seed_key})")
    return reports


# ---------------------------------------------------------------------------
# Spec-level operations
# ---------------------------------------------------------------------------

def _seed_of(rng) -> int:
    if isinstance(rng, (int, np.integer)):
        return int(rng)
    return int(rng.integers(2 ** 62))


def legacy_scaling(kind: str, M: int, K: int, L: int, T_c: int,
                   iota: float = 0.2, snr: float = 10.0) -> float:
    """Closed-form legacy laws: pilot-contaminated isotropic reuse-1 networks
    and globally orthogonal pilots (o(1) terms set to zero)."""
    if kind == "Contaminated":
        kappa1 = min(M, K, T_c // 2)
        if L <= 1:
            return math.inf  # no interfering cell: SINR unbounded
        return (1.0 - kappa1 / T_c) * kappa1 * L * math.log2(1.0 + 1.0 / (iota * (L - 1)))
    if kind == "GlobalOrth":
        kappa2 = min(M, K * L, T_c // 2)
        return (1.0 - kappa2 / T_c) * kappa2 * math.log2(snr * M / K)
    raise ValueError(f"unknown legacy scaling kind {kind!r}")


def asymptotic_capacity(regime: str, direction: str, M: int, K: int, L: int,
                        T_c: int, snr: float, r: int | None = None,
                        pilot: str = "nonorthogonal") -> float:
    """Asymptotic sum-capacity scaling laws, o(1) = 0, log base 2.

    Orthogonal pilots: (1 - k3/T_c) k3 L log2(P tr).  Non-orthogonal:
    (1 - 1/T_c) min(M, K) L log2(P tr) with tr = M under strong correlation,
    and (1 - 1/T_c) K L log2(P r) under very strong correlation.
    """
    p_user = snr / K
    if regime == "strong":
        tr = float(M)
    elif regime == "verystrong":
        if r is None:
            raise ValueError("very strong regime requires the rank r")
        tr = float(r)
    else:
        raise ValueError(f"unknown regime {regime!r}")
    if pilot == "orthogonal":
        kappa3 = min(K, T_c // 2)
        return (1.0 - kappa3 / T_c) * kappa3 * L * math.log2(p_user * tr)
    streams = min(M, K) if regime == "strong" else K
    return (1.0 - 1.0 / T_c) * streams * L * math.log2(p_user * tr)


def cutset_upper(scenario, trials: int = 2000, rng=0) -> RateReport:
    """Per-user cut-set upper bound (1 - 1/T_c) E[log2(1 + P ||h||^2)],
    evaluated by Monte Carlo over the fading of each own link."""
    seed = _seed_of(rng)
    pre = 1.0 - 1.0 / scenario.T_c
    rate = np.empty((scenario.L, scenario.K))
    tot_trials = np.zeros(trials)
    for (l, k) in scenario.users():
        prof = scenario.profile(l, l, k)
        g = stream(seed, 7, l, k)
        h2 = (np.abs(complex_gaussian(g, trials, prof.r)) ** 2 * prof.lam[None]).sum(axis=1)
        rates = np.log2(1.0 + scenario.P_ul * h2)
        rate[l, k] = rates.mean()
        tot_trials += rates
    return _report("CutsetPerUser", "ul", range(scenario.L), pre * rate,
                   _stderr(pre, tot_trials), trials, pre)
