"""Command-line interface.

Subcommands: run <config>, reproduce <fig>, detequiv <problem-file>,
scaling <kind>, lemma-check <kind>.  Exit codes: 0 success, 2 config error,
3 numerical failure.  MIMO_LAB_THREADS caps trial-chunk parallelism.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .covmodel import stream
from .detequiv import (
    CONCENTRATION_KINDS,
    DetEquivProblem,
    DivergenceError,
    DomainError,
    NearCriticalPoint,
    concentration_check,
    solve_fixed_point,
)
from .harness import (ConfigError, closed_form, load_config, read_pairs, reproduce_figure,
                      results_text, run_experiment, write_results)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# scaling kinds -> (closed-form bound id, regime)
SCALING_KINDS = {
    "contaminated": ("LegacyContaminated", "strong"),
    "global-orth": ("LegacyGlobalOrth", "strong"),
    "coherent-orth": ("AsymptoticLB_Orth", "strong"),
    "strong": ("AsymptoticScaling", "strong"),
    "verystrong": ("AsymptoticScaling", "verystrong"),
}


def _parse_detequiv_problem(path: str) -> DetEquivProblem:
    """Problem description: flat key = value (`harness.read_pairs`) with
    diagonal matrices.

    Keys: N (dimension), z (negative real), A and Q as comma-separated
    diagonals or 'zero'/'identity', and one or more theta lines, each either
    'identity x <count>' or a comma-separated diagonal (optionally with
    'x <count>').  N must be an integer >= 1, a count an integer >= 0, z
    and every diagonal entry a number, and a diagonal N entries long;
    ConfigError names the line of a value that is not.
    """
    N = z = A = Q = None
    thetas, counts = [], []

    def number(lineno, name, text, cast=float, least=None):
        try:
            value = cast(text)
        except ValueError:
            value = None
        if value is None or least is not None and value < least:
            need = "a number" if least is None else f"an integer >= {least}"
            raise ConfigError(f"{path}:{lineno}: {name} must be {need}, got {text.strip()!r}")
        return value

    def diag_of(lineno, name, val, n):
        if val == "identity":
            return np.eye(n)
        if val == "zero":
            return np.zeros((n, n))
        entries = np.array([number(lineno, f"{name} entry", x) for x in val.split(",")])
        if len(entries) != n:
            raise ConfigError(f"{path}:{lineno}: {name} diagonal has {len(entries)} entries, "
                              f"expected N={n}")
        return np.diag(entries)

    # keys match case-insensitively; an error quotes a key as the file wrote it
    pairs = [(lineno, key, key.lower(), val) for lineno, key, val in read_pairs(path)]
    for lineno, _, name, val in pairs:
        if name == "n":
            N = number(lineno, "N", val, int, 1)
        elif name == "z":
            z = number(lineno, "z", val)
    if N is None or z is None:
        raise ConfigError(f"{path}: both N and z are required")
    for lineno, key, name, val in pairs:
        if name in ("n", "z"):
            continue
        if name == "a":
            A = diag_of(lineno, "A", val, N)
        elif name == "q":
            Q = diag_of(lineno, "Q", val, N)
        elif name == "theta":
            count = 1
            if "x" in val:
                val, _, cnt = val.rpartition("x")
                val = val.strip()
                count = number(lineno, "theta count", cnt, int, 0)
            thetas.append(diag_of(lineno, "theta", val, N))
            counts.append(count)
        else:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
    A = np.zeros((N, N)) if A is None else A
    Q = np.eye(N) if Q is None else Q
    return DetEquivProblem(thetas=thetas, A=A, Q=Q, z=z, counts=counts or None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mimo-lab",
        description="Multicell massive-MIMO Monte Carlo simulator and "
                    "deterministic-equivalent cross-validator",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--trials", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--format", choices=("csv", "plotdata"), default="csv")

    p_fig = sub.add_parser("reproduce", help="reproduce one of the figures")
    p_fig.add_argument("fig", choices=("fig2", "fig3", "fig5", "fig6", "fig7"))
    p_fig.add_argument("--scale", choices=("desk", "full"), default="desk")
    p_fig.add_argument("--seed", type=int, default=1)
    p_fig.add_argument("--trials", type=int, default=None)
    p_fig.add_argument("--out", default=None)
    p_fig.add_argument("--format", choices=("csv", "plotdata"), default="csv")

    p_de = sub.add_parser("detequiv", help="solve a fixed-point problem file")
    p_de.add_argument("problem")
    p_de.add_argument("--tol", type=float, default=1e-10)
    p_de.add_argument("--max-iter", type=int, default=10_000)

    p_sc = sub.add_parser("scaling", help="closed-form scaling laws")
    p_sc.add_argument("kind", choices=tuple(SCALING_KINDS))
    p_sc.add_argument("--M", type=int, required=True)
    p_sc.add_argument("--K", type=int, required=True)
    p_sc.add_argument("--L", type=int, required=True)
    p_sc.add_argument("--T-c", type=int, required=True, dest="T_c")
    p_sc.add_argument("--snr-db", type=float, default=10.0)
    p_sc.add_argument("--iota", type=float, default=0.2)
    p_sc.add_argument("--r", type=int, default=None)

    p_lc = sub.add_parser("lemma-check", help="concentration lemma statistics")
    p_lc.add_argument("kind", choices=CONCENTRATION_KINDS)
    p_lc.add_argument("dims", nargs="?", default="64,128,256,512")
    p_lc.add_argument("--trials", type=int, default=1000)
    p_lc.add_argument("--seed", type=int, default=1)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else 0
    try:
        if args.cmd == "run":
            spec = load_config(args.config)
            if args.seed is not None:
                spec = replace(spec, seed=args.seed).validate()
            if args.trials is not None:
                spec = replace(spec, trials=args.trials).validate()
            table = run_experiment(spec)
        elif args.cmd == "reproduce":
            table = reproduce_figure(args.fig, scale=args.scale, seed=args.seed,
                                     trials=args.trials)
        elif args.cmd == "detequiv":
            if args.max_iter < 1:
                raise ConfigError(f"--max-iter must be >= 1, got {args.max_iter}")
            if not (np.isfinite(args.tol) and args.tol > 0):
                raise ConfigError(f"--tol must be a positive finite number, got {args.tol}")
            problem = _parse_detequiv_problem(args.problem)
            sol = solve_fixed_point(problem, tol=args.tol, max_iter=args.max_iter)
            if not np.isfinite(sol.m):
                raise FloatingPointError(f"non-finite m ({sol.m})")
            print("e:", " ".join(f"{x:.12g}" for x in sol.e))
            print(f"m: {sol.m:.12g}")
            print(f"iterations: {sol.iterations}")
        elif args.cmd == "scaling":
            for flag, size in (("--M", args.M), ("--K", args.K), ("--L", args.L),
                               ("--T-c", args.T_c)):
                if size < 1:
                    raise ConfigError(f"{flag} must be >= 1, got {size}")
            if args.r is not None and not 1 <= args.r <= args.M:
                raise ConfigError(f"--r must satisfy 1 <= r <= --M = {args.M}, got {args.r}")
            val = closed_form(*SCALING_KINDS[args.kind], args.M, args.K, args.L, args.T_c,
                              args.snr_db, args.iota, args.r)
            print(f"{val:.12g}")
        elif args.cmd == "lemma-check":
            dims = [int(x) for x in str(args.dims).split(",")]
            rep = concentration_check(args.kind, dims, args.trials, stream(args.seed, 9))
            print(rep)
        if args.cmd in ("run", "reproduce"):
            if args.out:
                write_results(table, args.out, args.format)
                print(f"wrote {len(table.rows)} rows to {args.out}")
            else:
                print(results_text(table, args.format), end="")
    except (DivergenceError, DomainError, NearCriticalPoint, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, FileNotFoundError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
