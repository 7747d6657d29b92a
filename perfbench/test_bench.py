"""The benchmark's own tests (about a minute on two cores):

    python3 -m pytest -q perfbench/test_bench.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from metrics import EXACT, PER_LAYER  # noqa: E402
from mimo_lab import harness  # noqa: E402


def test_benchmark_json_names_what_the_benchmark_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.POOL_THREADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)


def test_a_perturbed_rate_fails_a_check(tmp_path):
    reference = workloads.load_reference()
    seed = reference["seed"]
    path = tmp_path / "dl.csv"
    workloads.dl_fig2_fig5(seed, str(path))
    got = workloads.read_outcome("dl-fig2-fig5", str(path))
    assert all(ok for ok, _ in workloads.check("dl-fig2-fig5", seed, got, reference))

    table = harness.parse_csv(str(path))
    table.rows[0].sum_total *= 1.5
    harness.write_results(table, str(path))
    perturbed = workloads.read_outcome("dl-fig2-fig5", str(path))
    assert not all(ok for ok, _ in workloads.check("dl-fig2-fig5", seed, perturbed, reference))

    # away from the default seed only the seed-free checks apply; they catch a NaN
    key = next(iter(got.rates))
    got.rates[key] = (math.nan, got.rates[key][1])
    assert not all(ok for ok, _ in workloads.check("dl-fig2-fig5", seed + 1, got, reference))
    # a run that raised fails every check it would have made
    failed = workloads.check("dl-fig2-fig5", seed + 1, None, reference)
    assert failed and not any(ok for ok, _ in failed)


def _traced_counts(name: str, out_dir: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), name, "1", "1", str(out_dir), "0"],
        env=run._env(name), capture_output=True, text=True, timeout=120, check=True)
    layers = json.loads(proc.stdout.strip().splitlines()[-1])["layers"]
    return {m: layers[m] for m in EXACT}


@pytest.mark.parametrize("name", list(run.POOL_THREADS))
def test_counts_repeat_exactly(name, tmp_path):
    assert _traced_counts(name, tmp_path) == _traced_counts(name, tmp_path)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dl-fig2-fig5", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
