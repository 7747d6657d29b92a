"""Ergodic-rate bounds by Monte Carlo plus closed-form scaling laws.

All Monte Carlo rates are conditional on one covariance draw: expectations
run over fading blocks (and pilot noise) with the eigenbases held fixed.
Trials are vectorized in chunks; every trial owns a counter-based RNG stream
keyed by its index, so results are independent of chunking and thread count.
A trial draws only what it uses: one standard-normal draw fills its row of
fading at the true link ranks and pilot noise (`DrawEngine._draw_chunk`).
Rates are reported in bits/s/Hz (log base 2 throughout).
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._linalg import (back_substitute, cholesky_factor, diag_guard, forward_substitute, guard,
                      herm, hermitian_solve)
from .covmodel import (CorrelationModel, InvalidProfile, NetworkScenario, complex_gaussian,
                       stream)

CHUNK = 64
# the memory a partial-Fourier pass may hold, 6.5 MiB: `_AngularEngine`
# sizes its span from the entries a pass holds per trial
PASS_BYTES = 13 * 2 ** 19
# the largest per-user system (q x q, q <= K) factored by `cholesky_factor`;
# larger ones are solved by LU, which is as fast at q = 12 and faster above
# (one BLAS thread, stacks of 960 and 3,840 systems)
CHOLESKY_MAX_Q = 10
# the seen estimates a dense per-user Gram slice forms at once (`_loo_grams`)
GRAM_BYTES = 2 ** 18

UL_BOUNDS = ("coherent", "noncoherent", "alt", "maxmin")
DL_BOUNDS = ("noncoherent", "alt", "maxmin")


class PilotBudgetError(ValueError):
    """Orthogonal pilots for K users need K <= T_c channel uses."""


def _threads() -> int:
    try:
        cap = int(os.environ.get("MIMO_LAB_THREADS") or 0)
    except ValueError:
        cap = 0
    return cap if cap > 0 else min(4, os.cpu_count() or 1)


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
    return 1.0 - scenario.scheme.channel_uses(scenario.K) / scenario.T_c


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

def _fold_trials(total, x):
    """Add the trials x[0], x[1], ... of x [T, ...] into total, in that
    order: one axis-0 reduction that starts from total + x[0], bit for bit
    the loop `for row in x: total += row`.  Overwrites x[0]."""
    x[0] += total
    np.add.reduce(x, axis=0, out=total)


def _nc_stats(sig, blocks, power, acc, ip2):
    """Fold one pass's statistics of the non-coherent bounds of one cell
    into acc, the cell's statistics over the chunk's earlier trials, from
    the signal sig [T, K] and the interference inner products of its L link
    blocks [T, K, K] (vector, source user), own cell first, each folded as
    it is formed: the own block's diagonal is zeroed, its products are
    added into its K columns of the sum over trials ip_mean [K, L K], and
    their powers written into its columns of ip2 [T, K, L K], the pass's
    buffer (of any memory layout), which every cell reuses.  The per-trial sig, ip2_sum and ub are
    then appended to lists (`_chunk` joins them), and ip2 added into its sum
    over trials.  The sums over trials run in trial order (`_fold_trials`),
    so their bits do not depend on the passes."""
    K = sig.shape[1]
    kk = np.arange(K)
    ip_mean = acc.setdefault("ip_mean", np.zeros(ip2.shape[1:], dtype=complex))
    for i, ip in enumerate(blocks):
        if i == 0:
            ip[:, kk, kk] = 0.0
        cols = slice(i * K, (i + 1) * K)
        np.abs(ip, out=ip2[..., cols])
        np.square(ip2[..., cols], out=ip2[..., cols])
        _fold_trials(ip_mean[:, cols], ip)
    ip2_sum = np.einsum("tki->tk", ip2)
    ub = np.log2(1.0 + np.abs(sig) ** 2 / (1.0 / power + ip2_sum))
    for key, x in (("sig", sig), ("ip2_sum", ip2_sum), ("ub", ub)):
        acc.setdefault(key, []).append(x)
    _fold_trials(acc.setdefault("ip2", np.zeros(ip2.shape[1:])), ip2)


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
    new = np.empty(keys.shape, dtype=bool)
    new[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    first = np.flatnonzero(new)
    return first, keys[first]


def _equal_pairs(left, right):
    """Every pair (i, j) with left[i] == right[j] of two integer key arrays,
    in order of i, then j (the join of one stable sort of right)."""
    order = np.argsort(right, kind="stable")
    keys = right[order]
    lo, hi = (np.searchsorted(keys, left, side) for side in ("left", "right"))
    i = np.repeat(np.arange(left.size), hi - lo)
    return i, order[np.arange(i.size) - np.repeat(np.cumsum(hi - lo) - hi, hi - lo)]


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


def _kept_positions(sc, bases):
    """The kept positions [L, K, d] of DrawEngine's serving choice `bases`,
    None for None and "full"; a ValueError names the first key of the map
    that is no user of the scenario, else the first invalid user."""
    if isinstance(bases, str) and bases != "full":
        raise ValueError(f"serving choice {bases!r} for every user: not None, 'full' or a map")
    if bases is None or isinstance(bases, str):
        return None
    users = set(sc.users())
    for u in bases:
        if u not in users:
            raise ValueError(f"serving choice for key {u!r}: not a user (l, k) of the scenario's "
                             f"L={sc.L} cells of K={sc.K} users")
    keep = []
    for u in sc.users():
        pos = np.asarray(bases.get(u, ()))
        if not (pos.ndim == 1 and 0 < pos.size == (keep[0].size if keep else pos.size)
                and pos.dtype.kind in "iu" and 0 <= pos[0] and pos[-1] < sc.r_own
                and (np.diff(pos) > 0).all()):
            raise ValueError(f"user {u}: expected sorted, distinct integer positions in [0, "
                             f"r={sc.r_own}), as many as user (0, 0)'s, got {bases.get(u)!r}")
        keep.append(pos)
    return np.array(keep, dtype=np.intp).reshape(sc.L, sc.K, -1)


class DrawEngine:
    """Vectorized evaluator for one covariance draw of a scenario.

    Precomputes every draw-static object (projections, estimator filters,
    design matrices), then evaluates chunks of trials.  Each user (l, k) is
    estimated and served in a basis B_lk of q orthonormal columns: by
    default (bases=None) its own eigenbasis U_llk (q = r_own); under "full"
    I_M (q = M); under a map from users to sorted positions among their
    r_own eigencolumns, U_llk[:, positions] (q = d, d-restricted spreading).

    Trial t's fading and pilot noise come from one standard-normal draw of
    its own stream, `stream(base_seed, 1, t)`, into its row of a complex
    table [T, n_w + n_z] whose floats are read as (re, im) pairs: the
    fading blocks (l, c) of the links from cell c's users into BS l, in C
    order, each K x r_own (c = l) or K x rx (c != l, rx the largest
    cross-link rank), then the pilot noise, [L, K, q] under orthogonal
    pilots or one M-dimensional snapshot per BS [L, M] under the shared
    pilot.  One real multiply scales the table, by sqrt(lam / 2) on the
    fading and 1 / sqrt(2) on the noise; the columns of a link of lower
    rank than its block get amplitude zero.  Consumers read views of the
    blocks (`_block`).

    DrawEngine(...) returns one of two representations, picked by the
    scenario's model label alone (`__new__`): `_AngularEngine` for a
    partial-Fourier draw, else `_DenseEngine`.  This class holds the draw,
    the passes, the solves and the reductions; a representation holds its
    tables (per user: filt, err_cov, nproj_sum, s_inter and Z = err_cov +
    nproj_sum + s_inter) and the hooks `_layout`, `_cell_tables`,
    `_pilot_noise`, `_own_channels`, `_estimates`, `_seen_in_bases`, `_link_inner`,
    `_loo_grams`, `_invert_design`, `_with_design`, `_rank_k_rows`,
    `_rank_k_vectors`, `_design_power` and `_expanded_tables`.  The users
    of a `shared` cell are all served in one basis; a chunk is evaluated in
    passes of at most `span` trials.

    Every system the engine solves has a known eigenvalue floor, which it
    hands to the guard of `_linalg` so that no eigenvalue pass runs where
    the floor already certifies the system: C + contamination + I/rho_p
    (the estimators, >= 1/rho_p) and W W^H + Z + I/p (the MMSE combiners
    and precoders, >= 1/p).  When q > K, or the cell is shared, the combiner
    and precoder solve inverts Z + I/p of every serving basis once per power,
    one stacked solve per cell, and solves a K x K system per trial (matrix
    inversion lemma).  Otherwise user k solves the q x q leave-one-out
    system G_k = W W^H - w_k w_k^H + Z + I/p, whose solution G_k^{-1} w_k is
    parallel to the MMSE vector; the uplink coherent SINR of that vector is
    w_k^H G_k^{-1} w_k, read off the solve without forming the vectors or
    their interference products (`_beamformer`).
    These per-user systems are solved by LU when q > CHOLESKY_MAX_Q, else
    factored by `_linalg.cholesky_factor`, one LAPACK potrf per matrix, with
    forward and back substitution vectorised over the stack; the back
    substitution runs only when a bound reads the vectors.  Either way a
    trial's bits do not depend on how trials are chunked.  The
    users of `jittered` had their estimator system regularised; those of
    `beam_jittered` had a combiner or precoder system regularised (Z + I/p
    on the rank-K path, a trial's system on the per-user one).

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

    span = CHUNK

    def __new__(cls, scenario: NetworkScenario, *args, **kwargs):
        if cls is DrawEngine:
            cls = (_AngularEngine if scenario.model is CorrelationModel.PARTIAL_FOURIER
                   else _DenseEngine)
        return super().__new__(cls)

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
        self.keep = _kept_positions(sc, bases)
        self.eigen, self.full = bases is None, isinstance(bases, str)
        self.q = r if self.eigen else sc.M if self.full else self.keep.shape[-1]
        self.xcells = {l: [lp for lp in range(L) if lp != l] for l in range(L)}

        # eigenvalues of all links, padded: [L_rx, L_tx, K, rmax]
        lam = np.zeros((L, L, K, self.rmax))
        for (l, lp, k), prof in sc.profiles.items():
            lam[l, lp, k, : prof.r] = prof.lam
        self.lam = lam
        # a trial's row (class docstring): the start of every fading block
        # (l, c), at l * L + c, and of the noise at L * L; the multiplier of
        # each of the row's floats
        width = np.where(np.eye(L, dtype=bool), r, self.rx)
        self.w_off = tuple(np.concatenate([[0], np.cumsum(K * width.ravel())]).tolist())
        n_z = L * sc.M if self.nonorth else L * K * self.q
        amp = np.full(self.w_off[-1] + n_z, 1.0 / np.sqrt(2.0))
        for i, (l, c) in enumerate(np.ndindex(L, L)):
            block = np.sqrt(lam[l, c, :, : width[l, c]] / 2)
            amp[self.w_off[i]: self.w_off[i + 1]] = block.ravel()
        self._amp = np.repeat(amp, 2)

        tab, dtype = self._layout(sc)
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
            res = self._cell_tables(sc, l, jittered)
            if self.conditional:
                contam_res[l] = res
        self.jittered = tuple(jittered)
        # the default design matrix of the combiner/precoder
        self.Z = self.err_cov + self.nproj_sum + self.s_inter
        if self.conditional:
            self.Z_cond = self.err_cov + self.nproj_sum + contam_res
        # (Z + I / power)^{-1} per power, and the users whose combiner or
        # precoder system the guard regularised; chunks may share the engine
        self._inverses = {}
        self._beam_flags = set()
        self._lock = threading.RLock()

    def detequiv_tables(self, l):
        """Cell l's inputs of the uplink deterministic equivalents
        (`detequiv`: the MMSE limit reads them all, the MF limit all but Z),
        dense in both representations:

        P_own [k, j, a, b] = U_llk^H U_llj; P_x [k, i, p, a, b] =
        U_llk^H U_{l lp p} for the i-th other cell lp (None when L = 1) and
        its eigenvalues lam_x [i, p, b]; phi [k, a, b] = Lambda Xi Lambda;
        xi_lam [k, a, b] = Xi Lambda, the conjugate transpose of filt; Z
        [k, a, b].  Needs the own eigenbases (bases=None)."""
        if not self.eigen:
            raise ValueError("the deterministic-equivalent tables need the own eigenbases")
        lam_own, lam_x = self.lam[l, l, :, :self.r], self.lam[l, self.xcells[l], :, :self.rx]
        P_own, P_x, filt, Z = self._expanded_tables(l)
        phi = herm(filt * lam_own[:, None, :])
        return P_own, P_x, lam_x, phi, filt.conj().swapaxes(-1, -2), Z

    # -- trial synthesis ----------------------------------------------------

    def _draw_chunk(self, base_seed: int, t0: int, t1: int):
        """The table of trials [t0, t1) (class docstring), one standard-normal
        draw of each trial's stream into its row, and their pilot noise
        [T, L, K, q] in the serving bases (`_pilot_noise`)."""
        w = np.empty((t1 - t0, self._amp.size // 2), dtype=complex)
        x = w.view(float)
        for i, t in enumerate(range(t0, t1)):
            stream(base_seed, 1, t).standard_normal(out=x[i])
        x *= self._amp
        return w, self._pilot_noise(w[:, self.w_off[-1]:])

    def _block(self, w, l, c):
        """The fading of the links from cell c's users into BS l in the table
        w: a view [T, K, width], width r_own if c = l, else rx."""
        a, b = self.w_off[l * self.L + c: l * self.L + c + 2]
        return w[:, a:b].reshape(len(w), self.K, (b - a) // self.K)

    def _seen_estimates(self, w_hat, l):
        """Cell l's estimates seen in each of its users' bases [j, T, k, q]
        (`_seen_in_bases`); a shared cell's one basis gives [j, T, 1, q]."""
        wl = w_hat[:, l]
        if self.shared[l]:
            return wl.transpose(1, 0, 2)[:, :, None]
        return self._seen_in_bases(wl, l)

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
        """(Z + I / power)^{-1} of every serving basis (n = 1 for a shared
        cell, else K) per cell, from `_invert_design`: one stacked guarded
        solve per cell, with floor 1 / power, computed on first use once per
        power; the lock lets the chunks of a pool share it."""
        with self._lock:
            inv = self._inverses.get(power)
            if inv is None:
                inv = []
                for l in range(self.L):
                    n = 1 if self.shared[l] else self.K
                    x, jit = self._invert_design(self.Z[l, :n], power)
                    inv.append(x)
                    if jit.any():
                        self._flag_users(l, range(self.K) if n == 1 else np.flatnonzero(jit))
                self._inverses[power] = inv
        return inv

    def _beamformer(self, w_hat, l, power, vectors=True, sinr=False):
        """MMSE or MF processing of cell l's users: returns (v, Y, s).

        v holds the unit-norm combining (power P_ul) or precoding (power
        P_dl per user) vectors [T, K, q]; Y the estimates seen in the users'
        bases (_seen_estimates) when the MMSE design formed them and keeps
        them, else None; s [T, K] the uplink coherent SINR of every user when
        sinr is True and the cell's users solve per-user systems (below)
        without conditional contamination, else None.  v is None when
        vectors is False and s is given.

        User k's MMSE vector is G^{-1} w_k with G = W W^H + A: the columns
        of W are the cell's K estimates seen in the user's basis, and
        A = Z + I / power.  When q > K, or the cell is shared, the matrix
        inversion lemma gives G^{-1} W = A^{-1} W S^{-1} with
        S = I + W^H A^{-1} W, which is K x K with every eigenvalue at least
        1; A^{-1} comes from one guarded solve per basis (_static_inverse),
        so a trial solves S only (`_rank_k_rows`, `_rank_k_vectors`).
        Otherwise each user solves the q x q leave-one-out system
        G_k = G - w_k w_k^H, whose Gram part sums the other users' terms
        (`_loo_grams`), after `guard` has jittered the systems that its
        floor 1 / power does not certify; by Sherman-Morrison G_k^{-1} w_k
        is parallel to G^{-1} w_k, so the unit vectors are the same up to
        round-off, and the coherent SINR |v^H w_k|^2 / (v^H G_k v) of that
        vector is w_k^H G_k^{-1} w_k.  With q <= CHOLESKY_MAX_Q the system is factored
        G_k = L L^H (`cholesky_factor`, which also jitters a system whose
        factorisation fails): s = ||L^{-1} w_k||^2 from the forward
        substitution, and the back substitution and the normalisation run
        only when vectors is True.  Above, G_k is solved by LU and
        s = Re(w_k^H G_k^{-1} w_k).  s is the SINR of the system as solved,
        so of the regularised one where the guard or the jitter acted.
        Jittered systems are recorded in beam_jittered."""
        K, q = self.K, self.q
        wl = w_hat[:, l]
        T = wl.shape[0]
        per_user = q <= K and not self.shared[l]
        Y = None if self.combiner == "mf" or per_user else self._seen_estimates(w_hat, l)
        s = None
        if self.combiner == "mf":
            v = wl
        elif not per_user:
            XT, S = self._rank_k_rows(Y.transpose(1, 2, 0, 3), self._static_inverse(power)[l])
            S += np.eye(K)
            # the one basis of a shared cell serves all K users, the basis of
            # user k only its own column
            E = np.eye(K) if self.shared[l] else np.eye(K)[:, :, None]
            X = np.linalg.solve(S, E).swapaxes(-1, -2)
            v = self._rank_k_vectors(X, XT).reshape(T, K, q)
        else:
            G = self._with_design(self._loo_grams(w_hat, l), self.Z[l][None], power)
            sinr = sinr and not self.conditional
            if q <= CHOLESKY_MAX_Q:
                Lf, flags = cholesky_factor(G, 1.0 / power)
                del G
                x = forward_substitute(Lf, wl[..., None])[..., 0]
                if sinr:
                    s = np.einsum("tka,tka->tk", x.conj(), x).real
                if vectors or not sinr:
                    v = back_substitute(Lf, x[..., None])[..., 0]
            else:
                G, flags = guard(G, 1.0 / power)
                v = np.linalg.solve(G, wl[..., None])[..., 0]
                if sinr:
                    s = np.einsum("tka,tka->tk", wl.conj(), v).real
            if flags.any():
                self._flag_users(l, np.flatnonzero(flags.any(axis=0)))
        if s is not None and not vectors:
            return None, Y, s
        return v / np.linalg.norm(v, axis=-1, keepdims=True), Y, s

    # -- per-chunk statistics -----------------------------------------------

    def ul_chunk(self, base_seed, t0, t1, cells, want):
        return self._chunk(self._ul_pass, base_seed, t0, t1, cells, want)

    def dl_chunk(self, base_seed, t0, t1, cells, want):
        return self._chunk(self._dl_pass, base_seed, t0, t1, cells, want)

    def _chunk(self, one_pass, base_seed, t0, t1, cells, want):
        """Statistics of trials [t0, t1), evaluated in passes of at most
        `span` trials, each folded into the chunk's statistics cell by cell:
        a pass appends its per-trial statistics to lists, joined here once,
        and adds its sums over trials into the chunk's (`_nc_stats`).  A
        pass holds its rows of the trial table; the estimates while every
        cell's precoders or combiners form, one cell's MMSE systems at a
        time; then the vectors and its link statistics: one float buffer of
        every link's power, which each cell overwrites, and one link block
        of inner products at a time; the observations only while the
        estimates form, unless the conditional coherent SINR reads them.
        Every trial is computed on its own and the sums over trials run in
        trial order, so the split changes no value, only the memory a chunk
        holds."""
        n = max(-(-(t1 - t0) // self.span), 1)
        edges = [t0 + (t1 - t0) * i // n for i in range(n + 1)]
        out = {}
        for a, b in zip(edges, edges[1:]):
            one_pass(base_seed, a, b, cells, want, out)
        for stats in (s for group in out.values() for s in group.values()):
            for key, x in stats.items():
                if isinstance(x, list):
                    stats[key] = x[0] if len(x) == 1 else np.concatenate(x)
        return out

    def _ul_pass(self, base_seed, t0, t1, cells, want, out):
        nc_bounds = want & {"noncoherent", "alt", "maxmin"}
        w, noise = self._draw_chunk(base_seed, t0, t1)
        w_hat, s = self._estimates(w, noise)
        # only the coherent SINR under conditional contamination reads the
        # observations
        s_obs = s if self.conditional and "coherent" in want else None
        del noise, s
        v = {}
        for l in cells:
            # [T, K, q]; sinr from the leave-one-out identity where it applies
            vl, Y, sinr = self._beamformer(w_hat, l, self.P_ul, vectors=bool(nc_bounds),
                                           sinr="coherent" in want)
            if "coherent" in want:
                if sinr is None:
                    sinr = self._coherent_sinr(w_hat, l, vl, Y, s_obs)
                stats = out.setdefault("coherent", {}).setdefault(l, {"rate": [], "sinr": []})
                stats["rate"].append(np.log2(1.0 + sinr))
                stats["sinr"].append(sinr)
            del Y
            v[l] = vl if nc_bounds else None
        del w_hat, s_obs
        ip2 = np.empty((len(w), self.K, self.L * self.K)) if nc_bounds else None
        for l in cells if nc_bounds else ():
            sig = np.einsum("tka,tka->tk", v[l].conj(), self._own_channels(w, l))
            # true channels of every link into BS l, own cell first
            ips = (self._link_inner(l, c, w, v[l]) for c in [l] + self.xcells[l])
            _nc_stats(sig, ips, self.P_ul, out.setdefault("_nc", {}).setdefault(l, {}), ip2)

    def _coherent_sinr(self, w_hat, l, vl, Y, s_obs):
        """The coherent SINR [T, K] of cell l's unit vectors vl from their
        definition: |v^H w_k|^2 over the second moments of everything else,
        v^H (sum_{j != k} w_j w_j^H + Z + I / P_ul) v, with Z's conditional
        form and the conditional means' powers under conditional
        contamination (`_design_power`).  Y is the unmasked seen estimates,
        or None."""
        kk = np.arange(self.K)
        if Y is None:
            Y = self._seen_estimates(w_hat, l)
        ip2_hat = np.abs(_inner(Y, vl)) ** 2  # [T, k, j]
        num = ip2_hat[:, kk, kk].copy()
        ip2_hat[:, kk, kk] = 0.0
        den = self._design_power(vl, l, s_obs)
        den += ip2_hat.sum(axis=2)
        den += (np.linalg.norm(vl, axis=-1) ** 2) / self.P_ul
        return num / den

    def _dl_pass(self, base_seed, t0, t1, cells, want, out):
        L, K = self.L, self.K
        w, noise = self._draw_chunk(base_seed, t0, t1)
        w_hat = self._estimates(w, noise)[0]
        del noise
        g = np.stack([self._beamformer(w_hat, l, self.P_dl)[0] for l in range(L)],
                     axis=1)
        del w_hat
        # link-major, as the transposed blocks are: ip2_sum then sums a
        # user's links in strides of K, the order that reproduces the
        # recorded rates bit for bit
        ip2 = np.empty((len(w), L * K, K)).swapaxes(1, 2)
        nc = out.setdefault("_nc", {})
        for l in cells:
            # signal: (B_{lk}^H U_{llk} w_{llk})^H g_{lk}
            sig = np.einsum("tka,tka->tk", self._own_channels(w, l).conj(), g[:, l])
            # link from user (l, k) into BS lp seen through precoder (lp, j):
            # (B_{lp j}^H U_{lp l k} w_{lp l k})^H g_{lp j}, own cell first
            ips = (self._link_inner(lp, l, w, g[:, lp]).conj().swapaxes(1, 2)
                   for lp in [l] + self.xcells[l])
            _nc_stats(sig, ips, self.P_dl, nc.setdefault(l, {}), ip2)


class _DenseEngine(DrawEngine):
    """DrawEngine's dense representation of partial-unitary draws, every
    serving basis a matrix.  Every projection is a complex table,
    source-major, so that one GEMM per source channel gives its view in
    every serving basis of a cell:
    P_own[l, j, k] = B_lk^H U_llj, P_x[l, i, p, k] = B_lk^H U_{l lp p} for
    the i-th other cell lp (rx columns, the largest cross-link rank), and
    P_est[l, j, k] = B_lk^H B_lj.  filt, err_cov, nproj_sum, s_inter and Z
    are [L, K, q, q].  No cell is shared, and a chunk is evaluated in one
    pass."""

    def _layout(self, sc):
        L, K, q = self.L, self.K, self.q
        U = {(l, k): sc.profile(l, l, k).U for l, k in sc.users()}
        self.bases = (dict.fromkeys(U, np.eye(self.M, dtype=complex)) if self.full
                      else U if self.eigen else {u: B[:, self.keep[u]] for u, B in U.items()})
        self.shared = [False] * L
        self.P_own = np.zeros((L, K, K, q, self.r), dtype=complex)
        # the estimates between serving bases: P_own itself in the eigenbases
        self._P_est = None if self.eigen else np.zeros((L, K, K, q, q), dtype=complex)
        self.P_x = np.zeros((L, L - 1, K, K, q, self.rx), dtype=complex) if L > 1 else None
        return (L, K, q, q), complex

    @property
    def P_est(self):
        """Estimate projections between serving bases; in the own eigenbases
        they coincide with the true-channel table, so P_own itself."""
        return self.P_own if self.eigen else self._P_est

    def _cell_tables(self, sc, l, jittered):
        """Fill cell l's projections, estimators and design-matrix terms.

        Every covariance projection B^H R B = (B^H U) diag(lam) (B^H U)^H of
        the cell comes from one stacked GEMM over its links.  Appends the
        users whose estimator solve was regularised to `jittered`, and
        returns the conditional denominator's covariances under conditional
        contamination."""
        L, K, M, r, q, rx = sc.L, sc.K, sc.M, self.r, self.q, self.rx
        kk = np.arange(K)

        def gram(A, B):
            """A B^H per serving basis over the links in the trailing axes."""
            return A.reshape(K, q, -1) @ B.reshape(K, q, -1).conj().swapaxes(-1, -2)

        Bcols = np.concatenate([self.bases[(l, k)] for k in range(K)], axis=1)
        Bh = Bcols.conj().T
        lam_own = np.stack([sc.profile(l, l, j).lam for j in range(K)])  # [j, b]
        U_own = np.concatenate([sc.profile(l, l, j).U for j in range(K)], axis=1)
        R = (Bh @ U_own).reshape(K, q, K, r)  # [k, a, j, b]
        self.P_own[l] = R.transpose(2, 0, 1, 3)
        if self.eigen:
            self.P_own[l, kk, kk] = np.eye(r)
        else:
            self._P_est[l] = (Bh @ Bcols).reshape(K, q, K, q).transpose(2, 0, 1, 3)
            self._P_est[l, kk, kk] = np.eye(q)

        # contaminating covariances in each user's basis, summed
        contam = np.zeros((K, q, q), dtype=complex)
        if self.nonorth:
            Rl = R * lam_own
            Rl[kk, :, kk] = 0.0  # the user's own channel does not contaminate
            contam += herm(gram(Rl, R))
        if L > 1:
            U_x = np.zeros((M, L - 1, K, rx), dtype=complex)
            lam_x = np.zeros((L - 1, K, rx))
            for i, lp in enumerate(self.xcells[l]):
                for p in range(K):
                    src = sc.profile(l, lp, p)
                    U_x[:, i, p, : src.r] = src.U
                    lam_x[i, p, : src.r] = src.lam
            X = (Bh @ U_x.reshape(M, -1)).reshape(K, q, L - 1, K, rx)  # [k, a, i, p, b]
            self.P_x[l] = X.transpose(2, 3, 0, 1, 4)
            self.s_inter[l] = herm(gram(X * lam_x, X))
            if self.nonorth:
                contam += self.s_inter[l]
            else:  # the same pilot index in every other cell
                Xd = X[kk, :, :, kk]  # [k, a, i, b]
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
            Xo = X * lam_x
            Xo[kk, :, :, kk] = 0.0  # the links of the other pilot indices
            return herm(res) + herm(gram(Xo, X))
        return None

    def _expanded_tables(self, l):
        P_x = None if self.P_x is None else self.P_x[l].transpose(2, 0, 1, 3, 4)
        return self.P_own[l].swapaxes(0, 1), P_x, self.filt[l], self.Z[l]

    def _pilot_noise(self, z):
        T, L, K, q = len(z), self.L, self.K, self.q
        if not self.nonorth:
            # fresh pilot symbol per user: despread noise is plain CN(0, I_q)
            return z.reshape(T, L, K, q)
        # one snapshot per BS, despread by each of its users
        z = z.reshape(T, L, self.M)
        noise = np.empty((T, L, K, q), dtype=complex)
        for (l, k), B in self.bases.items():
            noise[:, l, k] = z[:, l] @ B.conj()
        return noise

    def _own_channels(self, w, l):
        """Cell l's own channels in the serving bases [T, K, q], from the
        table w: in the own eigenbases a view of it (`_block`)."""
        w_own = self._block(w, l, l)
        if self.eigen:
            return w_own
        kk = np.arange(self.K)
        own = self.P_own[l, kk, kk].swapaxes(-1, -2)  # [k, b, a]
        return np.matmul(w_own.transpose(1, 0, 2), own).transpose(1, 0, 2)

    def _estimates(self, w, noise):
        """Despread pilot observations and per-user MMSE estimates.

        Returns (w_hat, s) from the table w and the noise: the estimates
        and the observations in the serving bases [T, L, K, q]."""
        L, K = self.L, self.K
        kk = np.arange(K)
        s = noise / np.sqrt(self.rho_p)
        for l in range(L):
            s[:, l] += self._own_channels(w, l)
            if self.nonorth:
                # own-cell contamination of the shared pilot
                Y = _seen(self.P_own[l], self._block(w, l, l))
                Y[kk, :, kk] = 0.0
                s[:, l] += Y.sum(axis=0)
                for i, lp in enumerate(self.xcells[l]):
                    s[:, l] += _seen(self.P_x[l, i], self._block(w, l, lp)).sum(axis=0)
            else:
                for i, lp in enumerate(self.xcells[l]):
                    # same pilot index only
                    D = self.P_x[l, i, kk, kk].swapaxes(-1, -2)  # [k, b, a]
                    s[:, l] += np.matmul(self._block(w, l, lp).transpose(1, 0, 2), D
                                         ).transpose(1, 0, 2)
        w_hat = np.matmul(s.transpose(1, 2, 0, 3), self.filt.swapaxes(-1, -2))
        return w_hat.transpose(2, 0, 1, 3), s

    def _seen_in_bases(self, wl, l):
        return _seen(self.P_est[l], wl)

    def _link_inner(self, l, c, w, u):
        """u^H (B^H U w) for the channels from cell c's users into BS l, seen
        by its users' vectors u [T, K, q]: [T, K, K] (vector, source user),
        from the table w."""
        P = self.P_own[l] if c == l else self.P_x[l, c - (c > l)]
        return _inner(_seen(P, self._block(w, l, c)), u)

    def _invert_design(self, Zl, power):
        x, jit = hermitian_solve(Zl + (1.0 / power) * np.eye(self.q, dtype=complex), None,
                                 floor=1.0 / power)
        return herm(x), jit

    def _with_design(self, G, Zl, power):
        """G + Z + I / power for the design matrices Zl of a cell."""
        G += Zl + (1.0 / power) * np.eye(self.q)
        return G

    def _rank_k_rows(self, Yt, inv):
        """The rows of A^{-1} W and W^H A^{-1} W, from the rows w_j^T of W
        Yt [T, n, j, q] and A^{-1} [n, q, q]."""
        XT = np.matmul(Yt, inv.swapaxes(-1, -2)[None])
        return XT, np.matmul(Yt.conj(), XT.swapaxes(-1, -2))

    def _rank_k_vectors(self, X, XT):
        return np.matmul(X, XT)

    def _loo_grams(self, w_hat, l):
        """sum_{j != k} y_j y_j^H [T, K, q, q] for every user k of cell l, y_j
        the estimates seen in user k's basis, formed in slices of trials
        that take about GRAM_BYTES: a whole pass's seen estimates and their
        conjugates, live beside the Grams, would add 2 T K^2 q entries to the
        pass's peak memory."""
        K, q, T = self.K, self.q, w_hat.shape[0]
        kk = np.arange(K)
        G = np.empty((T, K, q, q), dtype=complex)
        step = max(GRAM_BYTES // (16 * K * K * q), 1)
        for a in range(0, T, step):
            Y = self._seen_estimates(w_hat[a:a + step], l)  # fresh: zeroed in place
            Y[kk, :, kk] = 0.0
            np.matmul(Y.transpose(1, 2, 3, 0), Y.conj().transpose(1, 2, 0, 3),
                      out=G[a:a + step])
        return G

    def _design_power(self, vl, l, s_obs):
        """v^H Z v [T, K] of cell l's vectors vl; under conditional
        contamination v^H Z_cond v plus the powers |v^H R~ Xi s|^2 of each
        pilot-sharing cell's conditional mean, from the observations s_obs."""
        Cstat = self.Z_cond[l] if self.conditional else self.Z[l]
        Cv = np.matmul(vl.transpose(1, 0, 2), Cstat.swapaxes(-1, -2))  # [k, T, a]
        den = np.einsum("tka,kta->tk", vl.conj(), Cv).real
        if self.conditional:
            cmean = np.matmul(self.contam_filt[l], s_obs[:, l, :, None, :, None])
            den += (np.abs(np.matmul(vl.conj()[:, :, None, None], cmean)) ** 2
                    ).sum(axis=(2, 3, 4))
        return den


class _AngularEngine(DrawEngine):
    """DrawEngine's angular representation of partial-Fourier draws.

    Each eigenbasis is a set of DFT columns, supp[l, lp, k] the indices the
    profile of link (l, lp, k) stores (-1 pads), and each user is served in
    DFT columns too, serve[l, k]: its own indices, the kept ones among them,
    or all M under "full", where the orthogonal-pilot noise, drawn in I_M,
    is rotated by F^H, one FFT; no basis is formed as a matrix.  MMSE and MF
    processing are unitarily equivariant, so every rate is the dense one up
    to round-off.  Every projection B^H U is then a 0/1 selection: filt,
    err_cov, nproj_sum, s_inter and Z are diagonals [L, K, q], and Z + I/p
    is inverted by a reciprocal.  A cell is shared when its users are all
    served in the same DFT columns.  The pilot observation sums, in each
    served slot (a BS, its pilot index under orthogonal pilots, and a DFT
    index that one of its users reads), the fading entries stored there,
    and gathers every user's slots; fading that no user reads is never
    touched.  The link inner products are gather-sums over the matched
    index pairs of each (BS, source cell) block (`pairs`, `segs`), and the
    per-user leave-one-out Grams over the estimate products whose DFT
    indices match a user's serving pair (`gram_pairs`, `gram_segs`), planned
    once per draw by DFT-index joins.  A chunk is evaluated in passes of at
    most `span` trials: PASS_BYTES over what a pass holds per trial (its
    row of the table, every cell's estimates, observations and vectors, one
    cell's MMSE systems and the link statistics, `_layout`)."""

    def _layout(self, sc):
        L, K, q = self.L, self.K, self.q
        self._index_sets(sc)
        self.shared = [bool((self.serve[l] == self.serve[l, 0]).all()) for l in range(L)]
        self._angular_plans()
        # per trial, the complex entries a pass holds at most: its row of the
        # table; every cell's estimates, observations, and precoders or
        # combiners; one cell's MMSE systems, per-user Grams and their
        # matched products or the rank-K path's seen estimates and K x K
        # systems; the link statistics, every link's power (real) and one
        # block of inner products with its conjugate
        if self.gram_ptr is not None:
            beam = K * q * q + 2 * int(np.diff(self.gram_ptr[0]).max())
        else:
            n = 1 if all(self.shared) else K
            beam = n * K * (2 * q + K) + K * K
        per_trial = self._amp.size // 2 + 3 * L * K * q + beam + L * K * K // 2 + 2 * K * K
        self.span = max(PASS_BYTES // (16 * per_trial), 1)
        return (L, K, q), float

    def _index_sets(self, sc):
        """Set supp, serve (class docstring) and own_pos [L, K, q], each serving
        index's position among the user's own eigencolumns (r: none; None in
        them), from the stored DFT indices; InvalidProfile for a link without
        r distinct indices in [0, M)."""
        L, K, M = sc.L, sc.K, sc.M
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
        self.supp, own = supp, supp[np.arange(L), np.arange(L), :, :self.r]  # own: [L, K, r]
        self.serve = (np.tile(np.arange(M), (L, K, 1)) if self.full
                      else own if self.eigen else np.take_along_axis(own, self.keep, -1))
        self.own_pos = self.keep
        if self.full:
            self.own_pos = np.full((L, K, M), self.r)
            np.put_along_axis(self.own_pos, own, np.arange(self.r), axis=-1)

    def _cell_tables(self, sc, l, jittered):
        """`_DenseEngine._cell_tables` in the angular representation, where
        every table is a diagonal: a link's projected covariance B^H R B is
        its eigenvalues lam [L, K, rmax] placed at its DFT indices and read
        at the serving basis's.  Each estimator system is diagonal too, so
        `diag_guard` reads its smallest eigenvalue off the diagonal."""
        L, K, M = self.L, self.K, self.M
        T = self.serve[l]  # [k, a]
        # power of every link into BS l at each DFT index (padding at M)
        pw = np.zeros((L, K, M + 1))
        pw[np.arange(L)[:, None, None], np.arange(K)[:, None], self.supp[l]] = self.lam[l]
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
        """The per-draw index plans.  Projections between DFT-column bases
        select the columns that share a DFT index, so the link plans are one
        join (`_equal_pairs`) of all blocks' entries on (BS, DFT index), and
        the Gram plans and `est_pos` one join per cell of its serving indices.

        served_take, served_first and served_slot: the positions in a
        trial's row of the fading entries in served slots (those some user
        reads), sorted by slot; the slots' CSR segments; and each user's
        serving slots among them [L, K, q] (one past the last, which reads
        zero, if no entry reaches one).  pairs [2, P] (n * q + a,
        p * width + b) and segs [2, S] (start, n * K + p) of each (BS l,
        source cell c) block, width its columns, at ptr[:, l * L + c]:
        serving basis n's coordinate a and source p's eigencolumn b share a
        DFT index.  gram_pairs, gram_segs and gram_ptr: `_gram_plans`."""
        L, K, M, q, rmax = self.L, self.K, self.M, self.q, self.rmax
        ll, kk = np.arange(L)[:, None, None], np.arange(K)[:, None]
        # pilot slots: (BS, DFT index) for the shared pilot, (BS, pilot
        # index, DFT index) for orthogonal ones; the served ones are read
        group = ll[..., None] if self.nonorth else ll[..., None] * K + kk
        slot = np.where(self.supp >= 0, group * M + self.supp, -1).ravel()
        want = ((ll if self.nonorth else ll * K + kk[None]) * M + self.serve).ravel()
        served = np.zeros(L * K * M + 1, dtype=bool)  # the last reads slot -1
        served[want] = True
        take = np.flatnonzero(served[slot])
        take = take[np.argsort(slot[take], kind="stable")]
        # entry (l, c, p, b) of supp sits at w_off[l * L + c] + p * width + b
        width = np.diff(self.w_off) // K
        start = np.array(self.w_off[:-1]).reshape(L, L, 1, 1)
        pos = start + kk * width.reshape(L, L, 1, 1) + np.arange(rmax)
        self.served_take = pos.ravel()[take]
        self.served_first, slots = _segments(slot[take])
        at = np.minimum(np.searchsorted(slots, want), max(slots.size - 1, 0))
        hit = slots.size > 0 and (slots[at] == want)
        self.served_slot = np.where(hit, at, slots.size).reshape(L, K, q)
        gram = self.combiner == "mmse" and q <= K and not all(self.shared)
        self.gram_pairs, self.gram_segs, self.gram_ptr = self._gram_plans() if gram else [None] * 3
        if not all(self.shared) and (q > K or self.combiner == "mf" or self.conditional):
            self.est_pos  # built now: a pass gathers seen estimates

        # every stored entry (l, c, p, b) with the serving entries (l, n, a)
        # of BS l's bases (one for a shared cell), put in (l, c, n, p, b) order
        f = np.flatnonzero(self.supp >= 0)
        g = np.flatnonzero(np.repeat(kk < np.where(self.shared, 1, K)[:, None, None], q, -1))
        i, j = _equal_pairs(f // (L * K * rmax) * M + self.supp.ravel()[f],
                            g // (K * q) * M + self.serve.ravel()[g])
        blk, (p, b), ua = f[i] // (K * rmax), np.divmod(f[i] % (K * rmax), rmax), g[j] % (K * q)
        seg = (blk * K + ua // q) * K + p  # ua = n * q + a
        order = np.argsort(seg * rmax + b)  # blk stays sorted
        first, ids = _segments(seg[order])
        self.ptr = np.stack([np.searchsorted(x, np.arange(L * L + 1)) for x in (blk, ids // K**2)])
        self.pairs = np.stack([ua[order], (p * width[blk] + b)[order]])
        self.segs = np.stack([first - self.ptr[0, ids // K**2], ids % K**2])

    @cached_property
    def est_pos(self):
        """[L, k, j, q]: where user k's serving indices sit among user j's, as
        flat indices j * (q + 1) + a into the zero-padded estimates (a = q: not
        among them).  Built with the plans where a pass gathers seen estimates
        (`_angular_plans`), else on first read."""
        L, K, q = self.L, self.K, self.q
        est = np.zeros((L, K, K, q), dtype=np.intp) + (np.arange(K)[:, None] * (q + 1) + q)
        for l in range(L):
            i, j = _equal_pairs(*2 * (self.serve[l].ravel(),))  # k q + a, j q + a'
            est[l].reshape(-1)[(i // q * K + j // q) * q + i % q] = j + j // q
        return est

    def _gram_plans(self):
        """The plan of the per-user leave-one-out Grams of the cells whose
        users solve per-user MMSE systems (q <= K, the cell not shared):
        entry (a, b) of user k's Gram sums w_j[a'] conj(w_j[b']) over the
        users j != k of the cell that hold both of its serving indices, at
        a' and b'.  Returns pairs [2, P] (j * q + a', j * q + b'), the flat
        estimate indices of every such product, sorted by target entry
        (k * q + a) * q + b with j ascending within one; segs [2, S]
        (start, target), the CSR segments of the targets; and ptr [2, L + 1],
        where each cell's products and segments begin, its starts counted
        from its first product."""
        L, K, q = self.L, self.K, self.q
        pairs, segs = [], []
        for l in range(L):
            ka, ja = _equal_pairs(*2 * (self.serve[l].ravel(),))  # k q + a, j q + a'
            # no user's own estimate, nothing in a shared cell
            held = (ka // q != ja // q) & (not self.shared[l])
            ka, ja = ka[held], ja[held]
            # each match of a pair (k, j) times each match of it, in
            # (k, a, j, b) order: sorted stably by target, j ascends within
            x, y = _equal_pairs(*2 * (ka // q * K + ja // q,))
            target = ka[x] * q + ka[y] % q
            order = np.argsort(target, kind="stable")
            pairs.append(np.stack([ja[x][order], ja[y][order]]))
            segs.append(np.stack(_segments(target[order])))
        ptr = np.stack([np.cumsum([0] + [x.shape[1] for x in parts]) for parts in (pairs, segs)])
        return np.concatenate(pairs, axis=1), np.concatenate(segs, axis=1), ptr

    def _expanded_tables(self, l):
        """The diagonals expanded, and the projections as the 0/1 selections
        they are."""
        own, xcells = self.serve[l], self.xcells[l]  # [k, a]: the own DFT indices
        P_own = (own[:, None, :, None] == own[None, :, None, :]).astype(complex)
        P_x = ((own[:, None, None, :, None] == self.supp[l, xcells, :, None, :self.rx])
               .astype(complex) if xcells else None)
        eye = np.eye(self.r)
        return P_own, P_x, self.filt[l][..., None] * eye, self.Z[l][..., None] * eye

    def _pilot_noise(self, z):
        T, L = len(z), self.L
        if self.nonorth:
            # one snapshot per BS in DFT coordinates, read by each user
            zf = np.fft.fft(z.reshape(T, L, self.M), axis=-1, norm="ortho")
            return zf[:, np.arange(L)[:, None, None], self.serve]
        # fresh pilot symbol per user: despread noise is plain CN(0, I_q),
        # drawn in I_M under "full" and seen in DFT coordinates: F^H n
        noise = z.reshape(T, L, self.K, self.q)
        return np.fft.fft(noise, axis=-1, norm="ortho") if self.full else noise

    def _own_channels(self, w, l):
        w_own = self._block(w, l, l)
        if self.eigen:
            return w_own
        return np.take_along_axis(_zero_padded(w_own), self.own_pos[l][None], axis=-1)

    def _estimates(self, w, noise):
        """`_DenseEngine._estimates`: the pilot-sharing links are summed in
        the served slots, read per user."""
        first = self.served_first
        obs = _segment_sums(np.take(w, self.served_take, axis=1), first, slice(None, -1),
                            first.size + 1)
        s = np.take(obs, self.served_slot, axis=1)
        s += noise / np.sqrt(self.rho_p)
        return self.filt * s, s

    def _seen_in_bases(self, wl, l):
        # [T, k, j, q] in memory: the MMSE products read contiguous rows
        T = wl.shape[0]
        Y = np.take(_zero_padded(wl).reshape(T, -1), self.est_pos[l], axis=1)
        return Y.transpose(2, 0, 1, 3)

    def _link_inner(self, l, c, w, u):
        K = self.K
        blk = l * self.L + c
        (p0, p1), (s0, s1) = self.ptr[:, blk: blk + 2]
        ua, src = self.pairs[:, p0:p1]
        first, ids = self.segs[:, s0:s1]
        T = u.shape[0]
        x = np.take(self._block(w, l, c).reshape(T, -1), src, axis=1)
        if self.shared[l]:  # one set of pairs for every user's vector
            x = np.take(u.conj(), ua, axis=2) * x[:, None]
            return _segment_sums(x, first, ids, K)
        x *= np.take(u.conj().reshape(T, -1), ua, axis=1)
        return _segment_sums(x, first, ids, K * K).reshape(T, K, K)

    def _invert_design(self, Zl, power):
        d, jit = diag_guard(Zl + 1.0 / power)
        return 1.0 / d, jit

    def _with_design(self, G, Zl, power):
        i = np.arange(self.q)
        G[..., i, i] += Zl + 1.0 / power
        return G

    def _rank_k_rows(self, Yt, inv):
        """The rows of (A^{-1} W)^H, and W^H A^{-1} W, for the diagonal
        A^{-1} [n, q]."""
        XT = Yt.conj()
        XT *= inv[None, :, None]
        return XT, np.matmul(XT, Yt.swapaxes(-1, -2))

    def _rank_k_vectors(self, X, XT):
        return np.matmul(X.conj(), XT).conj()

    def _loo_grams(self, w_hat, l):
        """Only the products whose DFT indices match (`_gram_plans`); no seen
        estimate is formed, and the products are summed and dropped before
        the Grams are allocated (`_segment_sums` in two steps)."""
        K, q, T = self.K, self.q, w_hat.shape[0]
        (p0, p1), (s0, s1) = self.gram_ptr[:, l: l + 2]
        src_a, src_b = self.gram_pairs[:, p0:p1]
        first, ids = self.gram_segs[:, s0:s1]
        x = w_hat[:, l].reshape(T, K * q)
        prod = np.take(x, src_a, axis=1)
        prod *= np.take(x.conj(), src_b, axis=1)
        sums = np.add.reduceat(prod, first, axis=-1) if first.size else prod
        del prod
        G = np.zeros((T, K * q * q), dtype=complex)
        G[:, ids] = sums
        return G.reshape(T, K, q, q)

    def _design_power(self, vl, l, s_obs):
        den = (np.abs(vl) ** 2 * (self.Z_cond[l] if self.conditional else self.Z[l])).sum(axis=-1)
        if self.conditional:
            cm = (vl.conj()[:, :, None] * self.contam_filt[l]
                  * s_obs[:, l, :, None, :]).sum(axis=-1)
            den += (np.abs(cm) ** 2).sum(axis=2)
        return den


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

    bases is DrawEngine's serving choice; None serves each user in its own
    eigenbasis.  With the default combiner, contamination and bases the run
    reads the scenario's memoised engine (`default_engine`); any other
    arguments build a fresh one.

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

    direction is "ul" or "dl"; a downlink run drops "coherent", which has
    no downlink form, so one bound list (UL_BOUNDS) serves both directions.
    Raises ValueError for any other direction, for trials < 1 and for a
    bound name in neither UL_BOUNDS nor DL_BOUNDS, and FloatingPointError,
    before returning, if a report's sum_total, stderr or any per-user rate
    is not finite.
    """
    sc = scenario
    if direction not in ("ul", "dl"):
        raise ValueError(f"direction must be 'ul' or 'dl', got {direction!r}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    want = set(bounds)
    unknown = sorted(want - set(UL_BOUNDS) - set(DL_BOUNDS))
    if unknown:
        raise ValueError(f"unknown bound {unknown[0]!r}; valid: {', '.join(UL_BOUNDS)}")
    if direction == "dl":
        want &= set(DL_BOUNDS)
    cells = list(range(sc.L)) if cells is None else list(cells)
    if combiner == "mmse" and not conditional_contamination and bases is None:
        engine = default_engine(sc)
    else:
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


def asymptotic_capacity(regime: str, M: int, K: int, L: int, T_c: int, snr: float,
                        r: int | None = None, pilot: str = "nonorthogonal") -> float:
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
    evaluated by Monte Carlo over the fading of each own link; rng is the
    integer seed of the links' streams."""
    pre = 1.0 - 1.0 / scenario.T_c
    rate = np.empty((scenario.L, scenario.K))
    tot_trials = np.zeros(trials)
    for (l, k) in scenario.users():
        prof = scenario.profile(l, l, k)
        g = stream(int(rng), 7, l, k)
        h2 = (np.abs(complex_gaussian(g, trials, prof.r)) ** 2 * prof.lam[None]).sum(axis=1)
        rates = np.log2(1.0 + scenario.P_ul * h2)
        rate[l, k] = rates.mean()
        tot_trials += rates
    return _report("CutsetPerUser", "ul", range(scenario.L), pre * rate,
                   _stderr(pre, tot_trials), trials, pre)
