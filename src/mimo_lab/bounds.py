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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from ._linalg import herm, hermitian_solve
from .covmodel import NetworkScenario, complex_gaussian, stream
from .training import PilotBudgetError, contaminators

CHUNK = 64

UL_BOUNDS = ("coherent", "noncoherent", "alt", "maxmin")
DL_BOUNDS = ("noncoherent", "alt", "maxmin")


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

    @property
    def per_user_rate(self) -> float:
        return self.sum_total / max(len(self.per_user), 1)


def prelog_factor(scenario: NetworkScenario) -> float:
    kappa = scenario.scheme.channel_uses(scenario.K, scenario.T_c)
    return 1.0 - kappa / scenario.T_c


def noncoherent_expression(mean_sig, var_sig, interf_power, inv_power) -> float:
    """Single-log non-coherent rate: useful-mean power over noise, signal
    fluctuation, and interference."""
    sinr = abs(mean_sig) ** 2 / (inv_power + var_sig + interf_power)
    return math.log2(1.0 + sinr)


# ---------------------------------------------------------------------------
# Per-draw Monte Carlo engine
# ---------------------------------------------------------------------------

def _nc_stats(sig, ip, power):
    """Per-chunk statistics of the non-coherent bounds from the signal
    sig [T, K] and the interference inner products ip [T, K, links]."""
    ip2 = np.abs(ip) ** 2
    ip2_sum = np.einsum("tki->tk", ip2)
    return {
        "sig": sig,
        "ip2_sum": ip2_sum,
        "ip_mean": ip.sum(axis=0),
        "ip2": ip2.sum(axis=0),
        "ub": np.log2(1.0 + np.abs(sig) ** 2 / (1.0 / power + ip2_sum)),
    }


class DrawEngine:
    """Vectorized evaluator for one covariance draw of a scenario.

    Precomputes every draw-static object (projections, estimator filters,
    design matrices), then evaluates chunks of trials.  Each user (l, k) is
    estimated and served in a basis B_lk of q orthonormal columns: its own
    eigenbasis U_llk by default (q = r_own), or bases[(l, k)], an M x q
    matrix shared in shape by all users (a column subset of U_llk for
    d-restricted spreading, I_M for full-dimensional processing).  Per-link
    padding to the largest rank keeps everything rectangular: channels of
    rank r_cross < r_own are zero-extended, which changes no inner product.
    """

    def __init__(self, scenario: NetworkScenario, combiner: str = "mmse",
                 conditional_contamination: bool = False, bases=None):
        self.sc = scenario
        self.combiner = combiner
        self.conditional = (
            conditional_contamination and scenario.scheme.kind == "orthogonal"
            and scenario.L > 1
        )
        sc = scenario
        L, K, r = sc.L, sc.K, sc.r_own
        self.r = r
        self.rmax = max(sc.r_own, sc.r_cross)
        self.nonorth = sc.scheme.kind == "nonorthogonal"
        if not self.nonorth and K > sc.T_c:
            raise PilotBudgetError(
                f"orthogonal pilots need K={K} <= T_c={sc.T_c} channel uses"
            )
        self.eigen = bases is None
        self.bases = bases if bases is not None else {
            (l, k): sc.profile(l, l, k).U for l, k in sc.users()}
        self.q = q = self.bases[(0, 0)].shape[1]
        if any(self.bases[u].shape != (sc.M, q) for u in sc.users()):
            raise ValueError(f"every serving basis must be M x q = {sc.M} x {q}")
        # cells whose users all share one basis object (fig2's I_M)
        self.shared = [not self.eigen and all(self.bases[(l, k)] is self.bases[(l, 0)]
                                              for k in range(K)) for l in range(L)]

        # sqrt-eigenvalue table for all links, padded: [L_rx, L_tx, K, rmax]
        self.sqrt_lam = np.zeros((L, L, K, self.rmax))
        for (l, lp, k), prof in sc.profiles.items():
            self.sqrt_lam[l, lp, k, : prof.r] = np.sqrt(prof.lam)

        # true own-cell channels in the serving bases P_own[l][k, j] = B_{lk}^H U_{llj},
        # and the estimates between serving bases P_est[l][k, j] = B_{lk}^H B_{lj}
        # (the identity within a shared cell, so not stored if all cells share)
        self.P_own = np.zeros((L, K, K, q, r), dtype=complex)
        self._P_est = (None if self.eigen or all(self.shared)
                       else np.zeros((L, K, K, q, q), dtype=complex))
        for l in range(L):
            Us = [sc.profile(l, l, k).U for k in range(K)]
            for k in range(K):
                Bk = self.bases[(l, k)].conj().T
                for j in range(K):
                    self.P_own[l, k, j] = np.eye(r) if j == k and self.eigen else Bk @ Us[j]
                    if self._P_est is not None:
                        self._P_est[l, k, j] = np.eye(q) if j == k else Bk @ self.bases[(l, j)]

        # cross projections P_x[l][k, lp, kp] = B_{lk}^H U_{l lp kp} (lp != l), padded
        self.xcells = {l: [lp for lp in range(L) if lp != l] for l in range(L)}
        self.P_x = np.zeros((L, K, L - 1, K, q, self.rmax), dtype=complex) if L > 1 else None
        for l in range(L):
            for k in range(K):
                Bk = self.bases[(l, k)].conj().T
                for i, lp in enumerate(self.xcells[l]):
                    for kp in range(K):
                        src = sc.profile(l, lp, kp)
                        self.P_x[l, k, i, kp, :, : src.r] = Bk @ src.U

        def cov(l, k, key):
            """B_lk^H R_key B_lk, read from the projection tables."""
            _, lp, kp = key
            src = sc.profile(l, lp, kp)
            P = (self.P_own[l, k, kp] if lp == l
                 else self.P_x[l, k, lp - (lp > l), kp, :, : src.r])
            return (P * src.lam) @ P.conj().T

        # per-user MMSE estimators in the serving bases: prior C = B^H R B,
        # Xi = (C + sum of contaminating B^H R_src B + I / rho_p)^{-1},
        # filter C Xi and error covariance C - C Xi C
        self.filt = np.zeros((L, K, q, q), dtype=complex)
        self.err_cov = np.zeros((L, K, q, q), dtype=complex)
        if self.conditional:
            # exact Gaussian conditionals for the pilot-contaminated links:
            # mean filter R~ Xi per contaminating cell, and the coherent
            # denominator's covariance with the residuals in place of R~
            self.contam_filt = np.zeros((L, K, L - 1, q, q), dtype=complex)
            contam_res = np.zeros((L, K, q, q), dtype=complex)
        for l in range(L):
            for k in range(K):
                C = herm(cov(l, k, (l, l, k)))
                acc = np.zeros((q, q), dtype=complex)
                for key in contaminators(sc, l, k):
                    acc += herm(cov(l, k, key))
                xi, _ = hermitian_solve(C + acc + (1.0 / sc.rho_p) * np.eye(q),
                                        np.eye(q, dtype=complex))
                xi = herm(xi)
                self.filt[l, k] = C @ xi
                self.err_cov[l, k] = herm(C - herm(self.filt[l, k] @ C))
                if self.conditional:
                    res = np.zeros((q, q), dtype=complex)
                    s_other = np.zeros((q, q), dtype=complex)
                    for i, lp in enumerate(self.xcells[l]):
                        rt = cov(l, k, (l, lp, k))
                        self.contam_filt[l, k, i] = rt @ xi
                        res += herm(rt - (rt @ xi) @ rt)
                        for kp in range(K):
                            if kp != k:
                                s_other += cov(l, k, (l, lp, kp))
                    contam_res[l, k] = herm(res) + herm(s_other)

        # own-cell estimation errors seen in each user's basis, and the
        # cross-cell channel covariances
        self.nproj_sum = np.zeros((L, K, q, q), dtype=complex)
        self.s_inter = np.zeros((L, K, q, q), dtype=complex)
        for l in range(L):
            for k in range(K):
                acc = np.zeros((q, q), dtype=complex)
                for j in range(K):
                    if j == k:
                        continue
                    err = self.err_cov[l, j]
                    if self.shared[l]:
                        acc += err
                    else:
                        P = self.P_est[l, k, j]
                        acc += (P @ err) @ P.conj().T
                self.nproj_sum[l, k] = herm(acc)
                s_int = np.zeros((q, q), dtype=complex)
                for lp in self.xcells[l]:
                    for kp in range(K):
                        s_int += cov(l, k, (l, lp, kp))
                self.s_inter[l, k] = herm(s_int)
        # the default design matrix of the combiner/precoder (assemble_Z)
        self.Z = self.err_cov + self.nproj_sum + self.s_inter
        if self.conditional:
            self.Z_cond = self.err_cov + self.nproj_sum + contam_res

    @property
    def P_est(self):
        """Estimate projections between serving bases; in the own eigenbases
        they coincide with the true-channel table, so P_own itself."""
        return self.P_own if self.eigen else self._P_est

    # -- trial synthesis ----------------------------------------------------

    def _draw_chunk(self, base_seed: int, t0: int, t1: int):
        """Fading + pilot noise for trials [t0, t1), one RNG stream each."""
        sc = self.sc
        L, K, rmax, q = sc.L, sc.K, self.rmax, self.q
        T = t1 - t0
        w = np.empty((T, L, L, K, rmax), dtype=complex)
        noise = np.empty((T, L, K, q), dtype=complex)
        for i, t in enumerate(range(t0, t1)):
            rng = stream(base_seed, 1, t)
            w[i] = complex_gaussian(rng, L, L, K, rmax)
            if self.nonorth:
                z = complex_gaussian(rng, L, sc.M)
                for l in range(L):
                    for k in range(K):
                        noise[i, l, k] = self.bases[(l, k)].conj().T @ z[l]
            else:
                # fresh pilot symbol per user: despread noise is plain CN(0, I_q)
                noise[i] = complex_gaussian(rng, L, K, q)
        w *= self.sqrt_lam[None]
        return w, noise

    def _estimates(self, w, noise):
        """Despread pilot observations and per-user MMSE estimates.

        Returns (w_hat, w_own, x_own, s).  The estimates w_hat, the
        observations s and the own channels x_own are in the serving bases
        [T, L, K, q]; w_own holds the own channels in their eigen
        coordinates [T, L, K, r]."""
        sc = self.sc
        L, K, r = sc.L, sc.K, self.r
        T = w.shape[0]
        w_own = np.empty((T, L, K, r), dtype=complex)
        for l in range(L):
            w_own[:, l] = w[:, l, l, :, :r]
        if self.eigen:
            x_own = w_own
        else:
            own = self.P_own[:, np.arange(K), np.arange(K)]
            x_own = np.einsum("lkab,tlkb->tlka", own, w_own)
        s = x_own + noise / np.sqrt(sc.rho_p)
        for l in range(L):
            if self.nonorth:
                for j in range(K):  # own-cell contamination of the shared pilot
                    contrib = np.einsum(
                        "kab,tb->tka", self.P_own[l, :, j], w_own[:, l, j]
                    )
                    contrib[:, j] = 0.0
                    s[:, l] += contrib
                if L > 1:
                    s[:, l] += np.einsum(
                        "kipab,tipb->tka", self.P_x[l], w[:, l, self.xcells[l]]
                    )
            elif L > 1:
                for i, lp in enumerate(self.xcells[l]):
                    # same pilot index only
                    s[:, l] += np.einsum(
                        "kab,tkb->tka", self.P_x[l, :, i, :][np.arange(K), np.arange(K)],
                        w[:, l, lp, :, : self.rmax],
                    )
        w_hat = np.einsum("lkab,tlkb->tlka", self.filt, s)
        return w_hat, w_own, x_own, s

    def _beamformers(self, w_hat, cells, power):
        """Unit-norm combining (power P_ul) or precoding (power P_dl per
        user) vectors of the users of `cells` [T, len(cells), K, q]."""
        K, q = self.sc.K, self.q
        T = w_hat.shape[0]
        v = np.empty((T, len(cells), K, q), dtype=complex)
        for ci, l in enumerate(cells):
            if self.combiner == "mf":
                vv = w_hat[:, l].copy()
            elif self.shared[l]:
                # one basis for the whole cell: all its users share one Gram
                # matrix (and Z), so one solve serves K right-hand sides
                G = np.einsum("tja,tjb->tab", w_hat[:, l], w_hat[:, l].conj())
                G += self.Z[l, 0][None] + (1.0 / power) * np.eye(q)[None]
                vv = np.linalg.solve(G, w_hat[:, l].transpose(0, 2, 1)).transpose(0, 2, 1)
            else:
                w_proj = np.einsum("kjab,tjb->tkja", self.P_est[l], w_hat[:, l])
                G = np.einsum("tkja,tkjb->tkab", w_proj, w_proj.conj())
                G += self.Z[l][None] + (1.0 / power) * np.eye(q)[None, None]
                vv = np.linalg.solve(G, w_hat[:, l][..., None])[..., 0]
            v[:, ci] = vv / np.linalg.norm(vv, axis=-1, keepdims=True)
        return v

    # -- per-chunk statistics -----------------------------------------------

    def ul_chunk(self, base_seed, t0, t1, cells, want):
        sc = self.sc
        K = sc.K
        w, noise = self._draw_chunk(base_seed, t0, t1)
        w_hat, w_own, x_own, s_obs = self._estimates(w, noise)
        v = self._beamformers(w_hat, cells, sc.P_ul)
        out = {}
        for ci, l in enumerate(cells):
            vl = v[:, ci]  # [T, K, q]
            if "coherent" in want:
                w_proj = (np.broadcast_to(w_hat[:, l, None], (t1 - t0, K, K, self.q))
                          if self.shared[l] else
                          np.einsum("kjab,tjb->tkja", self.P_est[l], w_hat[:, l]))
                num = np.abs(np.einsum("tka,tka->tk", vl.conj(), w_hat[:, l])) ** 2
                Cstat = self.Z_cond[l] if self.conditional else self.Z[l]
                den = np.einsum(
                    "tka,tka->tk", vl.conj(), np.einsum("kab,tkb->tka", Cstat, vl)
                ).real
                if self.conditional:
                    cmean = np.einsum("kiab,tkb->tkia", self.contam_filt[l], s_obs[:, l])
                    den += (np.abs(np.einsum("tka,tkia->tki", vl.conj(), cmean)) ** 2
                            ).sum(axis=2)
                ip_own_hat = np.einsum("tka,tkja->tkj", vl.conj(), w_proj)
                mask = (~np.eye(K, dtype=bool)).astype(float)
                den += (np.abs(ip_own_hat) ** 2 * mask[None]).sum(axis=2)
                den += (np.linalg.norm(vl, axis=-1) ** 2) / sc.P_ul
                sinr = num / den
                out.setdefault("coherent", {})[l] = {
                    "rate": np.log2(1.0 + sinr),
                    "sinr": sinr,
                }
            if want & {"noncoherent", "alt", "maxmin"}:
                sig = np.einsum("tka,tka->tk", vl.conj(), x_own[:, l])
                wc_own = np.einsum("kjab,tjb->tkja", self.P_own[l], w_own[:, l])
                ip_own = np.einsum("tka,tkja->tkj", vl.conj(), wc_own)
                ip_own[:, np.arange(K), np.arange(K)] = 0.0
                if sc.L > 1:
                    T = t1 - t0
                    wx = w[:, l, self.xcells[l]]  # [T, L-1, K, rmax]
                    ip_x = np.empty((T, K, (sc.L - 1) * K), dtype=complex)
                    for k in range(K):
                        pw = np.einsum("ipab,tipb->tipa", self.P_x[l, k], wx)
                        ip_x[:, k] = np.einsum(
                            "ta,tipa->tip", vl[:, k].conj(), pw
                        ).reshape(T, -1)
                    ip = np.concatenate([ip_own, ip_x], axis=2)
                else:
                    ip = ip_own
                out.setdefault("_nc", {})[l] = _nc_stats(sig, ip, sc.P_ul)
        return out

    def dl_chunk(self, base_seed, t0, t1, cells, want):
        sc = self.sc
        L, K = sc.L, sc.K
        w, noise = self._draw_chunk(base_seed, t0, t1)
        w_hat, w_own, x_own, _ = self._estimates(w, noise)
        g = self._beamformers(w_hat, range(L), sc.P_dl_per_user)
        out = {}
        for l in cells:
            # signal: (B_{lk}^H U_{llk} w_{llk})^H g_{lk}
            sig = np.einsum("tka,tka->tk", x_own[:, l].conj(), g[:, l])
            # own-cell interference: (P_own[j,k] w_{llk})^H g_{lj}
            wc = np.einsum("jkab,tkb->tkja", self.P_own[l], w_own[:, l])
            ip_own = np.einsum("tkja,tja->tkj", wc.conj(), g[:, l])
            ip_own[:, np.arange(K), np.arange(K)] = 0.0
            ips = [ip_own]
            for lp in range(L):
                if lp == l:
                    continue
                # link from user (l, k) into BS lp, seen through precoder
                # (lp, kp): its projection is already in the P_x table
                Pd = self.P_x[lp, :, l - (l > lp)]  # [kp, k, q, rmax]
                wlink = w[:, lp, l]  # [T, K, rmax]
                wc_x = np.einsum("jkab,tkb->tkja", Pd, wlink)
                ips.append(np.einsum("tkja,tja->tkj", wc_x.conj(), g[:, lp]))
            ip = np.concatenate(ips, axis=2)
            out.setdefault("_nc", {})[l] = _nc_stats(sig, ip, sc.P_dl_per_user)
        return out


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
    chunks may run on a thread pool; every reduction walks chunks in index
    order, so the output is bitwise independent of the thread count.

    conditional_contamination switches the coherent bound's denominator from
    the unconditional projected covariances R~ of the pilot-sharing links to
    their exact Gaussian conditionals given the pilot observation; the
    default follows the plain-R~ evaluation.

    bases maps every user (l, k) to its M x q serving basis (see
    DrawEngine); None serves each user in its own eigenbasis.
    """
    sc = scenario
    want = set(bounds)
    if direction == "dl":
        want &= set(DL_BOUNDS)
    cells = list(range(sc.L)) if cells is None else list(cells)
    engine = DrawEngine(sc, combiner=combiner,
                        conditional_contamination=conditional_contamination,
                        bases=bases)
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
    K = sc.K
    reports = {}

    if "coherent" in want and direction == "ul":
        per_user, per_cell, mean_sinr = {}, {}, {}
        sum_trials = None
        for l in cells:
            rates = np.concatenate([c["coherent"][l]["rate"] for c in chunks], axis=0)
            sinrs = np.concatenate([c["coherent"][l]["sinr"] for c in chunks], axis=0)
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
            stderr=stderr, trials=trials, prelog=prelog, mean_sinr=mean_sinr,
        )

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
            ub = np.concatenate([c["_nc"][l]["ub"] for c in chunks], axis=0)
            ip_mean = sum(c["_nc"][l]["ip_mean"] for c in chunks) / trials
            ip2 = sum(c["_nc"][l]["ip2"] for c in chunks) / trials
            ip_var = np.maximum(ip2 - np.abs(ip_mean) ** 2, 0.0)

            for k in range(K):
                mean_sig = sig[:, k].mean()
                var_sig = max(float((np.abs(sig[:, k]) ** 2).mean() - abs(mean_sig) ** 2), 0.0)
                nc_user[(l, k)] = prelog * noncoherent_expression(
                    mean_sig, var_sig, float(ip2_sum[:, k].mean()), inv_p
                )
                ub_user[(l, k)] = prelog * float(ub[:, k].mean())
                power = 1.0 / inv_p
                penalty = float(np.log2(1.0 + power * ip_var[k]).sum()) / sc.T_c
                alt_user[(l, k)] = ub_user[(l, k)] - prelog * penalty
            nc_cell[l] = sum(nc_user[(l, k)] for k in range(K))
            ub_cell[l] = sum(ub_user[(l, k)] for k in range(K))
            alt_cell[l] = sum(alt_user[(l, k)] for k in range(K))
            cell_tot = ub.sum(axis=1)
            ub_sum_trials = cell_tot if ub_sum_trials is None else ub_sum_trials + cell_tot

            # batch estimates for the moment-based bound's stderr
            for b in range(nbatch):
                sl = slice(bedges[b], bedges[b + 1])
                bsum_nc = 0.0
                for k in range(K):
                    ms = sig[sl, k].mean()
                    vs = max(float((np.abs(sig[sl, k]) ** 2).mean() - abs(ms) ** 2), 0.0)
                    bsum_nc += noncoherent_expression(
                        ms, vs, float(ip2_sum[sl, k].mean()), inv_p
                    )
                nc_batch_tot[b] += prelog * bsum_nc
        ub_stderr = (prelog * float(ub_sum_trials.std(ddof=1) / np.sqrt(trials))
                     if trials > 1 else 0.0)
        nc_stderr = float(nc_batch_tot.std(ddof=1) / np.sqrt(nbatch)) if nbatch > 1 else 0.0

        dirname = direction
        if "noncoherent" in want:
            reports["noncoherent"] = RateReport(
                bound_id="NonCoherent", direction=dirname, per_user=nc_user,
                sum_per_cell=nc_cell, sum_total=sum(nc_cell.values()),
                stderr=nc_stderr, trials=trials, prelog=prelog,
            )
        if "maxmin" in want:
            reports["maxmin"] = RateReport(
                bound_id="MaxMinUB", direction=dirname, per_user=ub_user,
                sum_per_cell=ub_cell, sum_total=sum(ub_cell.values()),
                stderr=ub_stderr, trials=trials, prelog=prelog,
            )
        if "alt" in want:
            tot = sum(alt_cell.values())
            reports["alt"] = RateReport(
                bound_id="AltNonCoherent", direction=dirname, per_user=alt_user,
                sum_per_cell=alt_cell, sum_total=tot,
                stderr=ub_stderr, trials=trials, prelog=prelog,
                sum_total_floored=sum(max(v, 0.0) for v in alt_user.values()),
            )
    return reports


# ---------------------------------------------------------------------------
# Spec-level operations
# ---------------------------------------------------------------------------

def _seed_of(rng) -> int:
    if isinstance(rng, (int, np.integer)):
        return int(rng)
    return int(rng.integers(2 ** 62))


def coherent_rate_ul(scenario, beamformer="mmse", trials=500, rng=0) -> RateReport:
    """Coherent lower bound: per-block SINR with closed-form conditional
    second moments in the denominator, averaged as log2(1 + SINR)."""
    return run_bounds(scenario, "ul", ("coherent",), trials, _seed_of(rng), beamformer)[
        "coherent"
    ]


def noncoherent_rate(scenario, beamformer="mmse", direction="ul", trials=500, rng=0) -> RateReport:
    """Non-coherent (hardening) bound: single log of moment ratios."""
    return run_bounds(scenario, direction, ("noncoherent",), trials, _seed_of(rng), beamformer)[
        "noncoherent"
    ]


def alt_rate(scenario, beamformer="mmse", direction="ul", trials=500, rng=0):
    """Alternative non-coherent bound and its max-min upper companion.

    Returns (maxmin_report, alt_report); the alt rate may be negative and
    also carries a floored-at-zero total.
    """
    reps = run_bounds(scenario, direction, ("maxmin", "alt"), trials, _seed_of(rng), beamformer)
    return reps["maxmin"], reps["alt"]


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
    per_user = {}
    tot_trials = np.zeros(trials)
    for (l, k) in scenario.users():
        prof = scenario.profile(l, l, k)
        g = stream(seed, 7, l, k)
        h2 = (np.abs(complex_gaussian(g, trials, prof.r)) ** 2 * prof.lam[None]).sum(axis=1)
        rates = np.log2(1.0 + scenario.P_ul * h2)
        per_user[(l, k)] = pre * float(rates.mean())
        tot_trials += rates
    cells = {l: sum(v for (ll, k), v in per_user.items() if ll == l)
             for l in range(scenario.L)}
    return RateReport(
        bound_id="CutsetPerUser", direction="ul", per_user=per_user,
        sum_per_cell=cells, sum_total=sum(cells.values()),
        stderr=(pre * float(tot_trials.std(ddof=1) / np.sqrt(trials))
                if trials > 1 else 0.0),
        trials=trials, prelog=pre,
    )
