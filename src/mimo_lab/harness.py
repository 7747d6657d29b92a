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
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import bounds as bnd
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

# the run_bounds reports behind each Monte Carlo bound id (alt brings its max-min term)
MC_NAMES = {"CoherentUL": ("coherent",), "NonCoherent": ("noncoherent",),
            "AltNonCoherent": ("alt", "maxmin"), "MaxMinUB": ("maxmin",)}

SWEEP_AXES = ("snr_db", "M", "r", "T_c")
# the figures `reproduce_figure` reproduces
FIGURES = ("fig2", "fig3", "fig5", "fig6", "fig7")


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
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.covariance_draws < 1:
            raise ConfigError("covariance_draws must be >= 1")
        if self.r_cross < 0:
            raise ConfigError(f"r_cross must be >= 0 (0: the default rank), got {self.r_cross}")
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
        if self.sweep_axis != "snr_db" and not all(float(v).is_integer()
                                                   for v in self.sweep_values):
            raise ConfigError(f"{self.sweep_axis} must be an integer, got {self.sweep_values}")
        for value in self.sweep_values:
            sc = self.scenario_config(value)
            for key in ("L", "K", "M", "T_c"):
                if getattr(sc, key) < 1:
                    raise ConfigError(f"{key} must be >= 1, got {getattr(sc, key)}")
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


def read_pairs(path: str) -> list:
    """The (line number, key, value) entries of a flat `key = value` file,
    `#` starting a comment; ConfigError names a line without `=` or with an
    empty value."""
    entries = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, eq, val = (part.strip() for part in line.partition("="))
            if not eq:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            if not val:
                raise ConfigError(f"{path}:{lineno}: empty value for {key!r}")
            entries.append((lineno, key, val))
    return entries


# the parser of each field type of ExperimentSpec and ResultRow; a tuple is a comma list
_PARSERS = {"int": int, "float": float, "str": str,
            "tuple": lambda val: tuple(x.strip() for x in val.split(","))}


def load_config(path: str) -> ExperimentSpec:
    """Parse and validate a flat key = value config file: a key is a field
    of ExperimentSpec, typed by its annotation, or a sweep axis."""
    spec = ExperimentSpec()
    kinds = {f.name: _PARSERS[f.type] for f in fields(ExperimentSpec)
             if f.name not in ("sweep_axis", "sweep_values")}
    sweep_axis = None
    for lineno, key, val in read_pairs(path):
        try:
            if key in SWEEP_AXES:
                values = tuple(float(x) for x in val.split(","))
                if key != "snr_db" and not all(v.is_integer() for v in values):
                    raise ConfigError(f"{path}:{lineno}: {key} must be an integer, got {val!r}")
                if len(values) > 1:
                    if sweep_axis is not None:
                        raise ConfigError(
                            f"{path}:{lineno}: second sweep axis {key!r} "
                            f"(already sweeping {sweep_axis!r})"
                        )
                    sweep_axis = key
                    spec = replace(spec, sweep_axis=key, sweep_values=values)
                else:
                    name = "r_own" if key == "r" else key
                    spec = replace(spec, **{name: kinds[name](values[0])})
            elif key in kinds:
                spec = replace(spec, **{key: kinds[key](val)})
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

    def extend(self, other: "ResultTable"):
        self.rows.extend(other.rows)
        self.audit.extend(a for a in other.audit if a not in self.audit)


CSV_COLUMNS = ",".join(f.name for f in fields(ResultRow))


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def csv_text(table: ResultTable) -> str:
    """The table as CSV text: its audit lines as comments, the header, and
    one line per row in the fixed column order."""
    lines = [f"# {a}" for a in table.audit] + [CSV_COLUMNS]
    lines += [",".join(_fmt(getattr(row, c)) for c in CSV_COLUMNS.split(","))
              for row in table.rows]
    return "\n".join(lines) + "\n"


def results_text(table: ResultTable, format: str = "csv") -> str:
    """A result table as text: CSV (`csv_text`) or plotdata blocks, one
    `# curve:` block per (experiment, bound_id, direction)."""
    if format == "csv":
        return csv_text(table)
    if format != "plotdata":
        raise ConfigError(f"unknown output format {format!r}")
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
    return "\n".join(lines + ["\n\n".join(blocks)]) + "\n"


def write_results(table: ResultTable, path: str, format: str = "csv"):
    """Persist a result table as `results_text` gives it."""
    text = results_text(table, format)
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc


def parse_csv(path: str) -> ResultTable:
    """Read a CSV written by `write_results` back into a table."""
    table = ResultTable()
    # each column's type, from ResultRow's annotations
    kinds = {f.name: _PARSERS[f.type] for f in fields(ResultRow)}
    with open(path) as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if line.startswith("# "):
                table.audit.append(line[2:])
            elif line and not line.startswith(("#", "experiment,")):
                values = zip(CSV_COLUMNS.split(","), line.split(","))
                table.rows.append(ResultRow(**{name: kinds[name](v) for name, v in values}))
    return table


def _pool(values, stderrs):
    d = len(values)
    mean = float(np.mean(values))
    se2 = float(np.sum(np.square(stderrs))) / d ** 2
    if d > 1:
        se2 += float(np.var(values, ddof=1)) / d
    return mean, math.sqrt(se2)


def _row(name, value, cfg, bound_id, direction, tot, stderr, trials, seed) -> ResultRow:
    """The result row of total rate tot at one sweep value of scenario cfg."""
    return ResultRow(
        experiment=name, sweep_value=float(value), M=cfg.M, K=cfg.K, r=cfg.r_own,
        T_c=cfg.T_c, bound_id=bound_id, direction=direction,
        per_user_rate=tot / (cfg.L * cfg.K), sum_per_cell=tot / cfg.L, sum_total=tot,
        stderr=stderr, trials=trials, seed=seed,
    )


def _add_pooled(table, name, value, cfg, reps, trials, seed):
    """Pool one bound's reports over the covariance draws into a row of table."""
    tot, se = _pool([r.sum_total for r in reps], [r.stderr for r in reps])
    bid, dname = reps[0].bound_id, reps[0].direction
    table.rows.append(_row(name, value, cfg, bid, dname, tot, se, trials, seed))


def closed_form(bound_id, regime, M, K, L, T_c, snr_db, iota, r) -> float:
    """The total rate of a closed-form bound id of BOUND_TOKENS (the legacy
    laws, or the asymptotic law under orthogonal or non-orthogonal pilots)."""
    snr = 10.0 ** (snr_db / 10.0)
    if bound_id.startswith("Legacy"):
        return bnd.legacy_scaling(bound_id.removeprefix("Legacy"), M, K, L, T_c, iota, snr)
    pilot = "orthogonal" if bound_id == "AsymptoticLB_Orth" else "nonorthogonal"
    return bnd.asymptotic_capacity(regime, M, K, L, T_c, snr, r=r, pilot=pilot)


def run_experiment(spec: ExperimentSpec) -> ResultTable:
    """Evaluate every requested bound on every (sweep value x covariance draw)
    and pool draws into one row per (sweep value, bound, direction)."""
    spec.validate()
    table = ResultTable()
    table.audit.append(
        f"experiment={spec.name} seed={spec.seed} trials={spec.trials} "
        f"draws={spec.covariance_draws} sweep={spec.sweep_axis}"
    )
    names = {}  # direction -> run_bounds names
    for tok in spec.bounds:
        kind, bid, dname = BOUND_TOKENS[tok]
        if kind == "mc":
            names.setdefault(dname, set()).update(MC_NAMES[bid])

    for si, value in enumerate(spec.sweep_values):
        cfg = spec.scenario_config(value)
        acc = {}
        for d in range(spec.covariance_draws):
            scen = build_network(cfg, stream(spec.seed, 100 + si, d))
            trial_seed = int(
                np.random.SeedSequence([spec.seed, 200 + si, d]).generate_state(1)[0]
            )
            reps = [rep for dname, want in names.items()
                    for rep in bnd.run_bounds(scen, dname, tuple(want), spec.trials,
                                              trial_seed, spec.combiner).values()]
            reps += [bnd.cutset_upper(scen, trials=spec.trials, rng=trial_seed)
                     for tok in spec.bounds if BOUND_TOKENS[tok][0] == "cutset"]
            for rep in reps:
                acc.setdefault((rep.bound_id, rep.direction), []).append(rep)
        for reps in acc.values():
            _add_pooled(table, spec.name, value, cfg, reps, spec.trials, spec.seed)
        for tok in spec.bounds:
            kind, bid, dname = BOUND_TOKENS[tok]
            if kind == "closed":
                tot = closed_form(bid, spec.regime, cfg.M, cfg.K, cfg.L, cfg.T_c, cfg.snr_db,
                                  cfg.iota, cfg.r_own)
                table.rows.append(_row(spec.name, value, cfg, bid, dname, tot, 0.0, 0,
                                       spec.seed))
    return table


# ---------------------------------------------------------------------------
# Figure reproduction
# ---------------------------------------------------------------------------

def _desk(spec: ExperimentSpec, scale: str, table: ResultTable) -> ExperimentSpec:
    """spec under the scale's caps; the table's audit names them once."""
    line = "scale=full"
    if scale == "desk":
        capped = "none applied"
        if spec.trials > DESK_TRIALS_CAP:
            spec = replace(spec, trials=DESK_TRIALS_CAP)
            capped = f"trials->{DESK_TRIALS_CAP}"
        line = f"scale=desk caps: {capped}"
    if line not in table.audit:
        table.audit.append(line)
    return spec


def restrict_support(r: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """The sorted positions of d of a user's r support columns, chosen
    uniformly at random (the d-restricted spreading variant of fig2)."""
    if not 1 <= d <= r:
        raise ValueError(f"d={d} must satisfy 1 <= d <= r={r}")
    return np.sort(rng.choice(r, size=d, replace=False))


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
    table = ResultTable()
    if fig == "fig2":
        base = ExperimentSpec(
            name="fig2", L=4, K=5, M=100, T_c=500, r_own=8, iota=0.2, boost=2.0,
            pilot="orthogonal", model="fourier", sweep_axis="snr_db",
            sweep_values=(-10.0, 0.0, 10.0, 20.0, 30.0),
            bounds=("alt_dl",), trials=trials, seed=seed, covariance_draws=2,
        )
        base = _desk(base, scale, table).validate()
        for si, snr_db in enumerate(base.sweep_values):
            cfg = base.scenario_config(snr_db)
            draws = [(build_network(cfg, stream(seed, 100 + si, dr)),
                      int(np.random.SeedSequence([seed, 300 + si, dr]).generate_state(1)[0]))
                     for dr in range(base.covariance_draws)]
            for series, d in (("fulldim", None), ("d=8", 8), ("d=6", 6), ("d=4", 4)):
                alts = []
                for dr, (scen, tseed) in enumerate(draws):
                    # M-dimensional processing, or d of the r own-support columns per user
                    support_rng = stream(seed, 400 + si, dr)
                    bases = "full" if d is None else {
                        u: restrict_support(scen.r_own, d, support_rng) for u in scen.users()}
                    alts.append(bnd.run_bounds(scen, "dl", ("alt",), base.trials, tseed,
                                               bases=bases)["alt"])
                _add_pooled(table, f"fig2:{series}", snr_db, cfg, alts, base.trials, seed)
        return table

    if fig == "fig5":
        # M/K = 5 and M/r = 10 fixed along M: one spec per point
        specs = [ExperimentSpec(
            name="fig5", L=7, K=M // 5, M=M, T_c=500, r_own=M // 10, iota=0.2, boost=2.0,
            pilot="orthogonal", model="fourier", sweep_axis="M", sweep_values=(M,),
            snr_db=10.0, bounds=("alt_dl",), trials=trials, seed=seed, covariance_draws=2,
        ) for M in (40, 80, 160)]
    elif fig == "fig3":
        specs = [ExperimentSpec(
            name=f"fig3:r={r}", L=4, K=10, M=200, T_c=500, r_own=r, iota=0.2,
            boost=2.0, pilot="orthogonal", model="fourier", sweep_axis="snr_db",
            sweep_values=(-10.0, 0.0, 10.0, 20.0, 30.0),
            bounds=("coherent_ul", "noncoherent_ul", "alt_ul", "asymptotic_lb_orth"),
            trials=trials, seed=seed, covariance_draws=2,
        ) for r in (10, 30, 100)]
    elif fig == "fig6":
        specs = [ExperimentSpec(
            name=f"fig6:{pilot}", L=7, K=20, M=100, T_c=50, iota=0.2, boost=2.0,
            pilot=pilot, model="fourier", sweep_axis="r",
            sweep_values=(2, 4, 8, 16), snr_db=20.0,
            bounds=("alt_ul",), trials=trials, seed=seed, covariance_draws=2,
        ) for pilot in ("orthogonal", "nonorthogonal")]
    elif fig == "fig7":
        specs = [ExperimentSpec(
            name=f"fig7:{pilot}:r={r}", L=7, K=10, M=100, r_own=r, iota=0.2,
            boost=2.0, pilot=pilot, model="fourier", sweep_axis="T_c",
            sweep_values=(25, 50, 100, 200, 400), snr_db=20.0,
            bounds=("alt_ul",), trials=trials, seed=seed, covariance_draws=2,
        ) for pilot in ("orthogonal", "nonorthogonal") for r in (4, 8)]
    else:
        raise ConfigError(f"unknown figure {fig!r}; valid: {', '.join(FIGURES)}")
    for spec in specs:
        table.extend(run_experiment(_desk(spec, scale, table)))
    return table
