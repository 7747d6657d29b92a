"""mimo-lab benchmark launcher.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Runs one workload (or, with `all`, each in turn) in PROCESSES fresh
processes, one after the other, which share the `--seconds` of the run and
repeat the workload inside it.  With --trace 0 it reports the end-to-end
metrics as medians, with the times of one-thread work rescaled to the
reference machine speed of calibration.py; with --trace 1 the processes alternate traced and untraced
and it reports the per-layer metrics.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, where attempted and failed
count output checks.  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import REF_S
from metrics import EXACT, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

# pool threads per workload (MIMO_LAB_THREADS); BLAS is pinned to one thread
POOL_THREADS = {
    "dl-fig2-fig5": 2,
    "crosscheck-haar": 1,
}
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROCESSES = 3    # fresh processes per run: setup_s and peak_rss_mb are their medians
GRACE_S = 90     # workers still running this long after the run's end are stopped;
                 # a run must end within 180 s

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    pass


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _pool_threads(name: str) -> int:
    """Pool threads times BLAS threads (1) never exceed the usable cores."""
    return max(1, min(POOL_THREADS[name], _nproc()))


def _env(name: str) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_VARS})
    env["MIMO_LAB_THREADS"] = str(_pool_threads(name))
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _process(name: str, seed: int, traced: bool, deadline: float, kill_at: float) -> dict:
    """Repetitions in one fresh process; its setup_s runs from spawn to ready."""
    cmd = [sys.executable, str(HERE / "worker.py"), name, str(seed),
           "1" if traced else "0", str(OUT_DIR), repr(deadline)]
    spawned = time.time()
    try:
        proc = subprocess.run(cmd, env=_env(name), capture_output=True, text=True,
                              timeout=max(1.0, kill_at - spawned))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name}: a worker ran {GRACE_S} s past the end of the run") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{name}: worker exited with {proc.returncode}\n{proc.stderr}")
    rep = json.loads(lines[-1])
    if rep["error"]:
        sys.stderr.write(rep["error"])
    rep["setup_s"] = rep["ready"] - spawned
    rep["traced"] = traced
    return rep


def run_processes(name: str, seed: int, seconds: float, trace: bool) -> list:
    """PROCESSES fresh processes in turn, each given an equal share of the
    run; in a traced run they alternate traced and untraced, traced first."""
    start = time.time()
    return [_process(name, seed, trace and i % 2 == 0, start + seconds * (i + 1) / PROCESSES,
                     start + seconds + GRACE_S)
            for i in range(PROCESSES)]


def _walls(procs: list) -> list:
    return [w for p in procs for w in p["walls"]]


def end_to_end(name: str, procs: list) -> dict:
    """Medians over the run.  Work on one thread is rescaled to the reference
    speed: each process's set-up by the median of its kernel times, and, on
    a one-thread workload, each repetition by the mean of the kernel times
    just before and just after it.  A pool-thread workload's wall time is
    reported as measured: it does not follow a one-thread kernel."""
    one_thread = _pool_threads(name) == 1
    raw = {"wall_s": _walls(procs), "setup_s": [p["setup_s"] for p in procs]}
    values = {"wall_s": [2 * w * REF_S / (c0 + c1) if one_thread else w for p in procs
                         for w, c0, c1 in zip(p["walls"], p["calibs"], p["calibs"][1:])],
              "setup_s": [p["setup_s"] * REF_S / statistics.median(p["calibs"]) for p in procs],
              "peak_rss_mb": [p["peak_rss_mb"] for p in procs]}
    for metric, unit in END_TO_END:
        vals = values[metric]
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
        note = ""
        if metric == "setup_s" or (metric == "wall_s" and one_thread):
            note = (f"; at reference speed, as measured "
                    f"{statistics.median(raw[metric]):.4f} {unit}")
        print(f"{metric} = {statistics.median(vals):.4f} {unit} "
              f"(median; q1 {q[0]:.4f}, q3 {q[2]:.4f}, n={len(vals)}{note})")
    calibs = [c for p in procs for c in p["calibs"]]
    print(f"calibration kernel = {statistics.median(calibs):.4f} s "
          f"(median, n={len(calibs)}; {REF_S:g} s at reference speed)")
    return {metric: {"value": statistics.median(values[metric]), "unit": unit}
            for metric, unit in END_TO_END}


def per_layer(procs: list) -> tuple:
    """Per-layer metrics: times are medians over the traced processes, counts
    must repeat exactly across them, and the process.* figures set the
    untraced repetitions against the traced ones.

    Returns (metrics, labels of counts that did not repeat)."""
    traced = [p for p in procs if p["traced"]]
    plain = [p for p in procs if not p["traced"]]
    layers = [p["layers"] for p in traced]
    values = {metric: layers[0][metric] if metric in EXACT
              else statistics.median(lay[metric] for lay in layers)
              for metric, _ in PER_LAYER if metric in layers[0]}
    cpus = [c for p in plain for c in p["cpus"]]
    values.update({
        "process.calib_s": statistics.median(c for p in procs for c in p["calibs"]),
        "process.cpu_s": statistics.median(cpus),
        "process.cpu_util": statistics.median(
            c / w for c, w in zip(cpus, _walls(plain))),
        "process.trace_overhead_s": (statistics.median(_walls(traced))
                                     - statistics.median(_walls(plain))),
    })
    for metric, unit in PER_LAYER:
        print(f"{metric} = {values[metric]:.6g} {unit}")
    unstable = [m for m in EXACT if len({lay[m] for lay in layers}) > 1]
    return ({metric: {"value": values[metric], "unit": unit} for metric, unit in PER_LAYER},
            [f"{m} differs between traced repetitions" for m in unstable])


def summarize(name: str, seed: int, procs: list, trace: bool) -> dict:
    print(f"== {name}: {len(procs)} processes, {len(_walls(procs))} repetitions, "
          f"seed {seed}, pool threads {_pool_threads(name)}")
    labels = [label for p in procs for label in p["failed"]]
    attempted = sum(p["attempted"] for p in procs)
    if trace:
        metrics, unstable = per_layer(procs)
        attempted += len(EXACT)
        labels += unstable
    else:
        metrics = end_to_end(name, procs)
    for label in labels:
        print(f"check failed: {label}")
    print(f"failed_frac = {len(labels) / attempted:.4f} ratio "
          f"({len(labels)}/{attempted} checks)")
    return {"correct": not labels, "attempted": attempted, "failed": len(labels),
            "metrics": metrics}


def environment(seed: int, versions: dict) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or sha
    return {"nproc": _nproc(), "blas_threads": {var: "1" for var in BLAS_VARS},
            "pool_threads": {n: _pool_threads(n) for n in POOL_THREADS},
            "git_sha": sha, "seed": seed, **versions}


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("the seed must be a non-negative integer")
    return seed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*POOL_THREADS, "all"])
    parser.add_argument("--seed", type=_seed, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mimo_lab").is_dir():
        print(f"no mimo-lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    names = list(POOL_THREADS) if args.workload == "all" else [args.workload]
    try:
        results = {}
        for name in names:
            procs = run_processes(name, args.seed, args.seconds, bool(args.trace))
            if name == names[0]:
                print("env " + json.dumps(environment(args.seed, procs[0]["versions"])))
            results[name] = summarize(name, args.seed, procs, bool(args.trace))
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
