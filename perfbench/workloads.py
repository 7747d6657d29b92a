"""The benchmark's workloads and the checks on their outputs.

Each workload is one batch job through mimo-lab's public API: it runs to
completion and writes its results to one CSV file.  The checks read that
file back, so they see what a user of the program would see.

Re-record the default-seed references (only after a deliberate change of
the program's outputs) with:

    PYTHONPATH=src python3 perfbench/workloads.py record
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from mimo_lab import bounds, covmodel, detequiv, harness

DEFAULT_SEED = 1
REFERENCE_PATH = Path(__file__).with_name("reference.json")

HAAR_DRAWS = 1
HAAR_TRIALS = 500
CROSSCHECK_TOL = 0.10   # criterion 2's relative tolerance
STDERR_BAND = 4.0       # reference band, in stderrs of the difference
EXACT_RTOL = 1e-8       # deterministic values against their references


@dataclass
class Outcome:
    """What a workload's CSV says, keyed for the checks."""

    rates: dict = field(default_factory=dict)       # key -> (sum_total, stderr), Monte Carlo
    exact: dict = field(default_factory=dict)       # key -> deterministic value
    crosscheck: dict = field(default_factory=dict)  # draw -> (mean MC SINR, mean det.-equiv. SINR)


def dl_fig2_fig5(seed: int, path: str):
    """fig2 through reproduce_figure, then fig5's shape (M/K = 5, M/r = 10) at
    M=120, K=24, r=12, in four 64-trial chunks so both pool threads stay busy."""
    table = harness.reproduce_figure("fig2", seed=seed, trials=4)
    table.extend(harness.run_experiment(harness.ExperimentSpec(
        name="fig5", L=7, K=24, M=120, T_c=500, r_own=12, iota=0.2, boost=2.0,
        pilot="orthogonal", model="fourier", sweep_axis="M", sweep_values=(120,),
        snr_db=10.0, bounds=("alt_dl",), trials=256, seed=seed, covariance_draws=1,
    )))
    harness.write_results(table, path)


CROSSCHECK_COLUMNS = ("draw", "l", "k", "mc_sinr", "de_sinr",
                      "coherent_sum_total", "coherent_stderr")


def crosscheck_haar(seed: int, path: str):
    """Criterion 2's shape under the Haar model: MC coherent SINR against
    the MMSE deterministic equivalent, for every user of every draw."""
    cfg = covmodel.ScenarioConfig(
        L=4, K=10, M=200, T_c=500, snr_db=20.0, iota=0.2, pilot_boost=2.0, r_own=10,
        model=covmodel.CorrelationModel.PARTIAL_UNITARY,
    )
    lines = []
    for d in range(HAAR_DRAWS):
        sc = covmodel.build_network(cfg, covmodel.stream(seed, 100, d))
        tseed = int(np.random.SeedSequence([seed, 200, d]).generate_state(1)[0])
        rep = bounds.run_bounds(sc, "ul", ("coherent",), HAAR_TRIALS, tseed)["coherent"]
        for l, k in sc.users():
            de = detequiv.sinr_mmse_detequiv(sc, (l, k))
            lines.append((d, l, k, rep.mean_sinr[(l, k)], de, rep.sum_total, rep.stderr))
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(CROSSCHECK_COLUMNS)
        out.writerows((d, l, k, repr(mc), repr(de), repr(tot), repr(se))
                      for d, l, k, mc, de, tot, se in lines)


WORKLOADS = {
    "dl-fig2-fig5": dl_fig2_fig5,
    "crosscheck-haar": crosscheck_haar,
}


def warm_up():
    """Pay lazy BLAS/LAPACK/einsum start-up before anything is timed."""
    cfg = covmodel.ScenarioConfig(L=1, K=2, M=8, T_c=50, r_own=2)
    sc = covmodel.build_network(cfg, covmodel.stream(0))
    for direction in ("ul", "dl"):
        bounds.run_bounds(sc, direction, bounds.UL_BOUNDS, 2, 0)
    detequiv.sinr_mmse_detequiv(sc, (0, 0))


# ---------------------------------------------------------------------------
# Reading results back and checking them
# ---------------------------------------------------------------------------

def read_outcome(name: str, path: str) -> Outcome:
    out = Outcome()
    if name == "crosscheck-haar":
        per_draw = {}
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                d = int(row["draw"])
                out.rates[f"draw={d}|CoherentUL|ul"] = (
                    float(row["coherent_sum_total"]), float(row["coherent_stderr"]))
                out.exact[f"draw={d}|user={row['l']},{row['k']}|de_sinr"] = float(row["de_sinr"])
                per_draw.setdefault(d, []).append((float(row["mc_sinr"]), float(row["de_sinr"])))
        out.crosscheck = {d: tuple(float(np.mean(col)) for col in zip(*pairs))
                          for d, pairs in per_draw.items()}
        return out
    for row in harness.parse_csv(path).rows:
        key = f"{row.experiment}|{row.sweep_value:g}|{row.bound_id}|{row.direction}"
        if row.trials:
            out.rates[key] = (row.sum_total, row.stderr)
        else:  # closed-form rows carry no Monte Carlo error
            out.exact[key] = row.sum_total
    return out


def load_reference() -> dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def _finite(*xs) -> bool:
    return all(isinstance(x, float) and math.isfinite(x) for x in xs)


def check(name: str, seed: int, outcome: Outcome | None, reference: dict) -> list:
    """Every output check of one run as (passed, label).

    The checks are enumerated from the reference's keys, not from the
    outcome, so a run that raised (outcome None) or lost rows fails the
    same number of checks it would otherwise have made.
    """
    ref = reference["workloads"][name]
    got = outcome or Outcome()
    results = []
    for key in ref["rates"]:
        v = got.rates.get(key, (None, None))
        results.append((_finite(*v), f"finite {key}"))
    for key in ref["exact"]:
        results.append((_finite(got.exact.get(key)), f"finite {key}"))

    # bound ordering, as criterion 8 checks it
    for key in ref["rates"]:
        point, bid, dname = key.rsplit("|", 2)
        if bid != "MaxMinUB":
            continue
        for lower in ("NonCoherent", "AltNonCoherent"):
            lkey = f"{point}|{lower}|{dname}"
            if lkey not in ref["rates"]:
                continue
            (lo, lo_se), (ub, ub_se) = (got.rates.get(lkey, (math.nan,) * 2),
                                        got.rates.get(key, (math.nan,) * 2))
            results.append((lo <= ub + 2.0 * (lo_se + ub_se), f"{lkey} <= MaxMinUB"))

    if name == "crosscheck-haar":
        for d in range(HAAR_DRAWS):
            mc, de = got.crosscheck.get(d, (math.nan, math.nan))
            results.append((abs(mc - de) < CROSSCHECK_TOL * abs(de),
                            f"draw={d} MC vs det.-equiv. SINR within {CROSSCHECK_TOL}"))

    if seed == reference["seed"]:
        for key, (r, r_se) in ref["rates"].items():
            v, se = got.rates.get(key, (math.nan, math.nan))
            band = STDERR_BAND * math.hypot(se, r_se)
            results.append((abs(v - r) <= band, f"{key} within {STDERR_BAND:g} stderr of reference"))
        for key, r in ref["exact"].items():
            v = got.exact.get(key, math.nan)
            results.append((abs(v - r) <= EXACT_RTOL * abs(r), f"{key} matches reference"))
    return results


def record(directory: str):
    """Run every workload at the default seed and store its outcome."""
    reference = {"seed": DEFAULT_SEED, "workloads": {}}
    for name, run in WORKLOADS.items():
        path = str(Path(directory) / f"{name}.csv")
        run(DEFAULT_SEED, path)
        got = read_outcome(name, path)
        reference["workloads"][name] = {"rates": got.rates, "exact": got.exact}
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["record"]:
        sys.exit("usage: PYTHONPATH=src python3 perfbench/workloads.py record")
    out_dir = Path(__file__).resolve().parent.parent / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    record(str(out_dir))
