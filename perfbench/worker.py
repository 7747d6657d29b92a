"""Repetitions of one workload in one fresh process.

    PYTHONPATH=src python3 perfbench/worker.py <workload> <seed> <trace 0|1> <out_dir> <deadline>

Imports mimo-lab and warms it up, then stamps the moment the workload can
begin (`ready`, wall clock, from which the launcher takes setup_s).  Then it
times the calibration kernel, runs the workload and checks the CSV it wrote,
again and again while another repetition, as long as the median one so far,
fits before `deadline` (wall clock); it always runs once.  It times the
kernel once more at the end, so that every repetition lies between two
kernel times.  With trace 1 it runs once, traced.  It prints one JSON line.
Thread counts come from the environment the launcher sets.  It exits
non-zero only when set-up fails.
"""

import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv) -> int:
    name, seed, traced, out_dir = argv[1], int(argv[2]), argv[3] == "1", Path(argv[4])
    deadline = float(argv[5])

    import calibration
    import workloads

    if name not in workloads.WORKLOADS:
        print(f"unknown workload {name!r}", file=sys.stderr)
        return 2
    reference = workloads.load_reference()
    workloads.warm_up()
    ready = time.time()

    kernel = calibration.Kernel()
    run = workloads.WORKLOADS[name]
    csv_path = out_dir / f"{name}.csv"
    calibs, walls, cpus, checks, error, layers = [], [], [], [], None, None
    while not walls or (not traced and error is None and time.time() + calibs[-1]
                        + statistics.median(walls) < deadline):
        calibs.append(kernel())
        if traced:
            import tracing
            tracer = tracing.install()
        csv_path.unlink(missing_ok=True)
        cpu0, t0 = _cpu_s(), time.perf_counter()
        try:
            run(seed, str(csv_path))
        except Exception:  # a failing workload fails its checks; the run still reports
            error = traceback.format_exc()
        walls.append(time.perf_counter() - t0)
        cpus.append(_cpu_s() - cpu0)
        if traced:
            tracer.uninstall()
            layers = tracing.layer_metrics(tracer, walls[-1])
            (out_dir / f"{name}.spans.json").write_text(json.dumps(tracing.spans_json(tracer)))
        outcome = None
        if error is None:
            try:
                outcome = workloads.read_outcome(name, str(csv_path))
            except Exception:  # an unreadable CSV fails every check
                error = traceback.format_exc()
        checks += workloads.check(name, seed, outcome, reference)
    calibs.append(kernel())

    print(json.dumps({
        "ready": ready,
        "calibs": calibs,
        "walls": walls,
        "cpus": cpus,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": len(checks),
        "failed": [label for ok, label in checks if not ok],
        "error": error,
        "layers": layers,
        "versions": _versions(),
    }))
    return 0


def _versions() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}"}


if __name__ == "__main__":
    sys.exit(main(sys.argv))
