"""Experiment orchestration: config parsing, sweeps, figure reproduction,
and result persistence.

Config files are flat `key = value` text, one entry per line, lists
comma-separated, `#` starts a comment.  Exactly one of snr_db / M / r / T_c
may be a list (the sweep axis).  Results are deterministic functions of
(spec, seed): every covariance draw and every trial owns a counter-based
stream, and reductions walk fixed index order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import bounds as bnd
from .beamform import restrict_support
from .covmodel import CorrelationModel, Regime, ScenarioConfig, build_network, stream

DESK_TRIALS_CAP = 500


class ConfigError(ValueError):
    pass


# bound tokens -> (kind, bound_id, direction)
BOUND_TOKENS = {
    "coherent_ul": ("mc", "CoherentUL", "ul"),
    "noncoherent_ul": ("mc", "NonCoherent", "ul"),
    "noncoherent_dl": ("mc", "NonCoherent", "dl"),
    "alt_ul": ("mc", "AltNonCoherent", "ul"),
    "alt_dl": ("mc", "AltNonCoherent", "dl"),
    "maxmin_ul": ("mc", "MaxMinUB", "ul"),
    "maxmin_dl": ("mc", "MaxMinUB", "dl"),
    "cutset": ("cutset", "CutsetPerUser", "ul"),
    "legacy_contaminated": ("closed", "LegacyContaminated", "ul"),
    "legacy_global_orth": ("closed", "LegacyGlobalOrth", "ul"),
    "asymptotic_lb_orth": ("closed", "AsymptoticLB_Orth", "ul"),
    "asymptotic_scaling": ("closed", "AsymptoticScaling", "ul"),
}

SWEEP_AXES = ("snr_db", "M", "r", "T_c")


@dataclass
class ExperimentSpec:
    name: str = "experiment"
    L: int = 4
    K: int = 5
    M: int = 100
    T_c: int = 500
    snr_db: float = 10.0
    iota: float = 0.2
    boost: float = 2.0
    pilot: str = "orthogonal"
    model: str = "fourier"
    regime: str = "strong"
    r_own: int = 8
    r_cross: int = 0
    combiner: str = "mmse"
    sweep_axis: str = "snr_db"
    sweep_values: tuple = (10.0,)
    bounds: tuple = ("coherent_ul",)
    trials: int = 500
    seed: int = 1
    covariance_draws: int = 3

    def validate(self):
        if self.sweep_axis not in SWEEP_AXES:
            raise ConfigError(f"unknown sweep axis {self.sweep_axis!r}")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.covariance_draws < 1:
            raise ConfigError("covariance_draws must be >= 1")
        for b in self.bounds:
            if b not in BOUND_TOKENS:
                raise ConfigError(
                    f"unknown bound {b!r}; valid: {', '.join(sorted(BOUND_TOKENS))}"
                )
        if self.pilot not in ("orthogonal", "nonorthogonal"):
            raise ConfigError(f"pilot must be orthogonal|nonorthogonal, got {self.pilot!r}")
        if self.model not in ("fourier", "unitary"):
            raise ConfigError(f"model must be fourier|unitary, got {self.model!r}")
        if self.regime not in ("strong", "verystrong"):
            raise ConfigError(f"regime must be strong|verystrong, got {self.regime!r}")
        if self.combiner not in ("mmse", "mf"):
            raise ConfigError(f"combiner must be mmse|mf, got {self.combiner!r}")
        for value in self.sweep_values:
            sc = self.scenario_config(value)
            if self.pilot == "orthogonal" and sc.K > sc.T_c:
                raise ConfigError(
                    f"K={sc.K} exceeds T_c={sc.T_c}: orthogonal pilots do not fit the block"
                )
            if sc.r_own > sc.M:
                raise ConfigError(f"r_own={sc.r_own} exceeds M={sc.M}")
        return self

    def scenario_config(self, sweep_value) -> ScenarioConfig:
        params = dict(
            L=self.L, K=self.K, M=self.M, T_c=self.T_c, snr_db=self.snr_db,
            iota=self.iota, pilot_boost=self.boost,
            regime=Regime.STRONG if self.regime == "strong" else Regime.VERY_STRONG,
            r_own=self.r_own, r_cross=self.r_cross,
            model=CorrelationModel.PARTIAL_FOURIER
            if self.model == "fourier" else CorrelationModel.PARTIAL_UNITARY,
            pilot=self.pilot,
        )
        axis = "r_own" if self.sweep_axis == "r" else self.sweep_axis
        params[axis] = float(sweep_value) if axis == "snr_db" else int(sweep_value)
        return ScenarioConfig(**params)


_INT_KEYS = {"L", "K", "M", "T_c", "r_own", "r_cross", "trials", "seed", "covariance_draws"}
_FLOAT_KEYS = {"snr_db", "iota", "boost"}
_STR_KEYS = {"name", "pilot", "model", "regime", "combiner"}
_LIST_KEYS = {"bounds"}


def load_config(path: str) -> ExperimentSpec:
    """Parse and validate a flat key = value config file."""
    spec = ExperimentSpec()
    sweep_axis = None
    with open(path) as fh:
        lines = fh.readlines()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not val:
            raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
        is_list = "," in val
        try:
            if key in SWEEP_AXES:
                if is_list:
                    if sweep_axis is not None:
                        raise ConfigError(
                            f"{path}:{lineno}: second sweep axis {key!r} "
                            f"(already sweeping {sweep_axis!r})"
                        )
                    sweep_axis = key
                    values = tuple(float(x) for x in val.split(","))
                    spec = replace(spec, sweep_axis=key, sweep_values=values)
                else:
                    fval = float(val)
                    spec = replace(
                        spec, **{("r_own" if key == "r" else key):
                                 (int(fval) if key != "snr_db" else fval)}
                    )
            elif key in _INT_KEYS:
                spec = replace(spec, **{key: int(val)})
            elif key in _FLOAT_KEYS:
                spec = replace(spec, **{key: float(val)})
            elif key in _STR_KEYS:
                spec = replace(spec, **{key: val})
            elif key in _LIST_KEYS:
                spec = replace(spec, **{key: tuple(x.strip() for x in val.split(",")) })
            else:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    if sweep_axis is None:
        # single-point sweep over the configured snr_db
        spec = replace(spec, sweep_axis="snr_db", sweep_values=(spec.snr_db,))
    return spec.validate()


@dataclass
class ResultRow:
    experiment: str
    sweep_value: float
    M: int
    K: int
    r: int
    T_c: int
    bound_id: str
    direction: str
    per_user_rate: float
    sum_per_cell: float
    sum_total: float
    stderr: float
    trials: int
    seed: int


@dataclass
class ResultTable:
    rows: list = field(default_factory=list)
    audit: list = field(default_factory=list)
    per_draw: dict = field(default_factory=dict)  # (exp, sweep, bound, dir) -> [sum_total]

    def extend(self, other: "ResultTable"):
        self.rows.extend(other.rows)
        self.audit.extend(a for a in other.audit if a not in self.audit)
        self.per_draw.update(other.per_draw)


CSV_COLUMNS = (
    "experiment,sweep_value,M,K,r,T_c,bound_id,direction,"
    "per_user_rate,sum_per_cell,sum_total,stderr,trials,seed"
)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def write_results(table: ResultTable, path: str, format: str = "csv"):
    """Persist a result table as CSV (fixed column order) or as plotdata
    blocks, one `# curve:` block per (experiment, bound_id, direction)."""
    if format == "csv":
        lines = [f"# {a}" for a in table.audit]
        lines.append(CSV_COLUMNS)
        for row in table.rows:
            lines.append(",".join(_fmt(getattr(row, c)) for c in CSV_COLUMNS.split(",")))
        text = "\n".join(lines) + "\n"
    elif format == "plotdata":
        lines = [f"# {a}" for a in table.audit]
        curves = {}
        for row in table.rows:
            curves.setdefault((row.experiment, row.bound_id, row.direction), []).append(row)
        blocks = []
        for (exp, bid, dname), rows in curves.items():
            head = f"# curve: {exp} {bid} {dname}"
            body = "\n".join(
                f"{_fmt(r.sweep_value)} {_fmt(r.sum_total)} {_fmt(r.stderr)}"
                for r in sorted(rows, key=lambda r: r.sweep_value)
            )
            blocks.append(head + "\n" + body)
        text = "\n".join(lines + ["\n\n".join(blocks)]) + "\n"
    else:
        raise ConfigError(f"unknown output format {format!r}")
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc


def parse_csv(path: str) -> ResultTable:
    table = ResultTable()
    with open(path) as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line or line.startswith("#") or line.startswith("experiment,"):
                if line.startswith("# "):
                    table.audit.append(line[2:])
                continue
            vals = line.split(",")
            names = CSV_COLUMNS.split(",")
            kw = {}
            for name, v in zip(names, vals):
                if name in ("M", "K", "r", "T_c", "trials", "seed"):
                    kw[name] = int(v)
                elif name in ("sweep_value", "per_user_rate", "sum_per_cell",
                              "sum_total", "stderr"):
                    kw[name] = float(v)
                else:
                    kw[name] = v
            table.rows.append(ResultRow(**kw))
    return table


def _pool(values, stderrs):
    d = len(values)
    mean = float(np.mean(values))
    se2 = float(np.sum(np.square(stderrs))) / d ** 2
    if d > 1:
        se2 += float(np.var(values, ddof=1)) / d
    return mean, math.sqrt(se2)


def run_experiment(spec: ExperimentSpec) -> ResultTable:
    """Evaluate every requested bound on every (sweep value x covariance draw)
    and pool draws into one row per (sweep value, bound, direction)."""
    spec.validate()
    table = ResultTable()
    table.audit.append(
        f"experiment={spec.name} seed={spec.seed} trials={spec.trials} "
        f"draws={spec.covariance_draws} sweep={spec.sweep_axis}"
    )
    mc_tokens = [b for b in spec.bounds if BOUND_TOKENS[b][0] == "mc"]
    by_direction = {}
    for tok in mc_tokens:
        _, bid, dname = BOUND_TOKENS[tok]
        by_direction.setdefault(dname, set()).add(bid)

    for si, value in enumerate(spec.sweep_values):
        cfg = spec.scenario_config(value)
        acc = {}
        for d in range(spec.covariance_draws):
            scen = build_network(cfg, stream(spec.seed, 100 + si, d))
            trial_seed = int(
                np.random.SeedSequence([spec.seed, 200 + si, d]).generate_state(1)[0]
            )
            for dname, bids in by_direction.items():
                names = set()
                if "CoherentUL" in bids:
                    names.add("coherent")
                if "NonCoherent" in bids:
                    names.add("noncoherent")
                if "AltNonCoherent" in bids:
                    names.update(("alt", "maxmin"))
                if "MaxMinUB" in bids:
                    names.add("maxmin")
                reps = bnd.run_bounds(
                    scen, dname, tuple(names), spec.trials, trial_seed, spec.combiner
                )
                for rep in reps.values():
                    if rep.bound_id in bids or (
                        rep.bound_id == "MaxMinUB" and "AltNonCoherent" in bids
                    ):
                        acc.setdefault((rep.bound_id, rep.direction), []).append(rep)
            for tok in spec.bounds:
                kind, bid, dname = BOUND_TOKENS[tok]
                if kind == "cutset":
                    rep = bnd.cutset_upper(scen, trials=spec.trials, rng=trial_seed)
                    acc.setdefault((bid, dname), []).append(rep)

        for (bid, dname), reps in acc.items():
            tot, se = _pool([r.sum_total for r in reps], [r.stderr for r in reps])
            n_users = cfg.L * cfg.K
            table.per_draw[(spec.name, value, bid, dname)] = [r.sum_total for r in reps]
            table.rows.append(ResultRow(
                experiment=spec.name, sweep_value=float(value), M=cfg.M, K=cfg.K,
                r=cfg.r_own, T_c=cfg.T_c, bound_id=bid, direction=dname,
                per_user_rate=tot / n_users, sum_per_cell=tot / cfg.L, sum_total=tot,
                stderr=se, trials=spec.trials, seed=spec.seed,
            ))
        for tok in spec.bounds:
            kind, bid, dname = BOUND_TOKENS[tok]
            if kind != "closed":
                continue
            snr = 10.0 ** (cfg.snr_db / 10.0)
            if bid == "LegacyContaminated":
                tot = bnd.legacy_scaling("Contaminated", cfg.M, cfg.K, cfg.L,
                                         cfg.T_c, cfg.iota, snr)
            elif bid == "LegacyGlobalOrth":
                tot = bnd.legacy_scaling("GlobalOrth", cfg.M, cfg.K, cfg.L,
                                         cfg.T_c, cfg.iota, snr)
            elif bid == "AsymptoticLB_Orth":
                tot = bnd.asymptotic_capacity(spec.regime, dname, cfg.M, cfg.K, cfg.L,
                                              cfg.T_c, snr, r=cfg.r_own,
                                              pilot="orthogonal")
            else:
                tot = bnd.asymptotic_capacity(spec.regime, dname, cfg.M, cfg.K, cfg.L,
                                              cfg.T_c, snr, r=cfg.r_own,
                                              pilot="nonorthogonal")
            n_users = cfg.L * cfg.K
            table.rows.append(ResultRow(
                experiment=spec.name, sweep_value=float(value), M=cfg.M, K=cfg.K,
                r=cfg.r_own, T_c=cfg.T_c, bound_id=bid, direction=dname,
                per_user_rate=tot / n_users, sum_per_cell=tot / cfg.L, sum_total=tot,
                stderr=0.0, trials=0, seed=spec.seed,
            ))
    return table


# ---------------------------------------------------------------------------
# Figure reproduction
# ---------------------------------------------------------------------------

def _desk(spec: ExperimentSpec, scale: str, table: ResultTable) -> ExperimentSpec:
    if scale == "desk":
        capped = "none applied"
        if spec.trials > DESK_TRIALS_CAP:
            spec = replace(spec, trials=DESK_TRIALS_CAP)
            capped = f"trials->{DESK_TRIALS_CAP}"
        table.audit.append(f"scale=desk caps: {capped}")
    else:
        table.audit.append("scale=full")
    return spec


def reproduce_figure(fig: str, scale: str = "desk", seed: int = 1,
                     trials: int | None = None) -> ResultTable:
    """Reproduce one of the predefined experiment figures as a result table.

    fig2: downlink full-dim vs low-dim (d in {8,6,4}) MMSE precoding vs SNR.
    fig3: uplink bounds 1-3 + max-min vs SNR at r in {10, 30, 100}.
    fig5: downlink sum rate vs M at fixed M/K = 5 and fixed M/r.
    fig6: per-cell uplink rate vs r at T_c = 50 (orthogonal vs non-orthogonal).
    fig7: uplink rate vs T_c for r in {4, 8} under both pilot schemes.
    """
    if trials is None:
        trials = 300
    elif trials < 1:
        raise ConfigError("trials must be >= 1")
    table = ResultTable()
    if fig == "fig2":
        base = ExperimentSpec(
            name="fig2", L=4, K=5, M=100, T_c=500, r_own=8, iota=0.2, boost=2.0,
            pilot="orthogonal", model="fourier", sweep_axis="snr_db",
            sweep_values=(-10.0, 0.0, 10.0, 20.0, 30.0),
            bounds=("alt_dl",), trials=trials, seed=seed, covariance_draws=2,
        )
        base = _desk(base, scale, table)
        for si, snr_db in enumerate(base.sweep_values):
            cfg = base.scenario_config(snr_db)
            draws = [(build_network(cfg, stream(seed, 100 + si, dr)),
                      int(np.random.SeedSequence([seed, 300 + si, dr]).generate_state(1)[0]))
                     for dr in range(base.covariance_draws)]
            for series, d in (("fulldim", None), ("d=8", 8), ("d=6", 6), ("d=4", 4)):
                tots, ses = [], []
                for dr, (scen, tseed) in enumerate(draws):
                    if d is None:  # conventional M-dimensional processing
                        eye = np.eye(scen.M, dtype=complex)
                        bases = {u: eye for u in scen.users()}
                    else:  # d of the r own-support columns, drawn per user
                        support_rng = stream(seed, 400 + si, dr)
                        bases = {(l, k): restrict_support(scen.profile(l, l, k).U, d,
                                                          support_rng)
                                 for l, k in scen.users()}
                    alt = bnd.run_bounds(scen, "dl", ("alt",), base.trials, tseed,
                                         bases=bases)["alt"]
                    tots.append(alt.sum_total)
                    ses.append(alt.stderr)
                tot, se = _pool(tots, ses)
                table.per_draw[(f"fig2:{series}", snr_db, "AltNonCoherent", "dl")] = tots
                table.rows.append(ResultRow(
                    experiment=f"fig2:{series}", sweep_value=snr_db, M=cfg.M, K=cfg.K,
                    r=cfg.r_own, T_c=cfg.T_c, bound_id="AltNonCoherent", direction="dl",
                    per_user_rate=tot / (cfg.L * cfg.K), sum_per_cell=tot / cfg.L,
                    sum_total=tot, stderr=se, trials=base.trials, seed=seed,
                ))
        return table

    if fig == "fig3":
        for r in (10, 30, 100):
            spec = ExperimentSpec(
                name=f"fig3:r={r}", L=4, K=10, M=200, T_c=500, r_own=r, iota=0.2,
                boost=2.0, pilot="orthogonal", model="fourier", sweep_axis="snr_db",
                sweep_values=(-10.0, 0.0, 10.0, 20.0, 30.0),
                bounds=("coherent_ul", "noncoherent_ul", "alt_ul", "asymptotic_lb_orth"),
                trials=trials, seed=seed, covariance_draws=2,
            )
            spec = _desk(spec, scale, table)
            table.extend(run_experiment(spec))
        return table

    if fig == "fig5":
        spec = ExperimentSpec(
            name="fig5", L=7, K=8, M=40, T_c=500, r_own=4, iota=0.2, boost=2.0,
            pilot="orthogonal", model="fourier", sweep_axis="M",
            sweep_values=(40, 80, 160), snr_db=10.0,
            bounds=("alt_dl",), trials=trials, seed=seed, covariance_draws=2,
        )
        spec = _desk(spec, scale, table)
        # M/K = 5 and M/r = 10 fixed along the sweep
        for si, M in enumerate(spec.sweep_values):
            sub = replace(spec, name="fig5", M=int(M), K=int(M) // 5, r_own=int(M) // 10,
                          sweep_axis="M", sweep_values=(M,))
            table.extend(run_experiment(sub))
        return table

    if fig == "fig6":
        for pilot in ("orthogonal", "nonorthogonal"):
            spec = ExperimentSpec(
                name=f"fig6:{pilot}", L=7, K=20, M=100, T_c=50, iota=0.2, boost=2.0,
                pilot=pilot, model="fourier", sweep_axis="r",
                sweep_values=(2, 4, 8, 16), snr_db=20.0,
                bounds=("alt_ul",), trials=trials, seed=seed, covariance_draws=2,
            )
            spec = _desk(spec, scale, table)
            table.extend(run_experiment(spec))
        return table

    if fig == "fig7":
        for pilot in ("orthogonal", "nonorthogonal"):
            for r in (4, 8):
                spec = ExperimentSpec(
                    name=f"fig7:{pilot}:r={r}", L=7, K=10, M=100, r_own=r, iota=0.2,
                    boost=2.0, pilot=pilot, model="fourier", sweep_axis="T_c",
                    sweep_values=(25, 50, 100, 200, 400), snr_db=20.0,
                    bounds=("alt_ul",), trials=trials, seed=seed,
                    covariance_draws=2,
                )
                spec = _desk(spec, scale, table)
                table.extend(run_experiment(spec))
        return table

    raise ConfigError(f"unknown figure {fig!r}; valid: fig2, fig3, fig5, fig6, fig7")
