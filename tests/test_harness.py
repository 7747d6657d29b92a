import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from mimo_lab import harness
from mimo_lab.bounds import DrawEngine
from mimo_lab.cli import main as cli_main
from mimo_lab.harness import (
    ConfigError,
    ResultTable,
    load_config,
    parse_csv,
    reproduce_figure,
    run_experiment,
    write_results,
)


MINIMAL = """
name = mini
L = 2
K = 2
M = 32
T_c = 200
r_own = 4
pilot = orthogonal
model = fourier
snr_db = 0, 10
bounds = coherent_ul
trials = 40
seed = 3
covariance_draws = 2
"""


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_cfg(tmp_path, text, name="exp.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestLoadConfig:
    def test_minimal_defaults(self, tmp_path):
        spec = load_config(write_cfg(tmp_path, "name = tiny\nbounds = cutset\n"))
        assert spec.trials == 500
        assert spec.iota == 0.2
        assert spec.boost == 2.0
        assert spec.covariance_draws == 3
        assert spec.sweep_values == (10.0,)

    def test_pilot_budget_validation(self, tmp_path):
        cfg = write_cfg(tmp_path, "K = 50\nT_c = 20\npilot = orthogonal\n")
        with pytest.raises(ConfigError, match="T_c"):
            load_config(cfg)

    def test_two_sweep_axes_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, "snr_db = 0, 10\nM = 32, 64\n")
        with pytest.raises(ConfigError, match="sweep"):
            load_config(cfg)

    def test_unknown_key_reports_line(self, tmp_path):
        cfg = write_cfg(tmp_path, "name = x\nwhatever = 3\n")
        with pytest.raises(ConfigError, match=":2"):
            load_config(cfg)

    def test_unknown_bound_rejected(self, tmp_path):
        cfg = write_cfg(tmp_path, "bounds = nope\n")
        with pytest.raises(ConfigError, match="nope"):
            load_config(cfg)

    def test_parse_error_reports_line(self, tmp_path):
        cfg = write_cfg(tmp_path, "name = x\njust some words\n")
        with pytest.raises(ConfigError, match=":2"):
            load_config(cfg)

    @pytest.mark.parametrize("line, key", [
        ("M = 40.7", "M"), ("M = 40, 60.5", "M"), ("r = 4.5", "r"), ("r = 4, 6.5", "r"),
        ("T_c = 200.5", "T_c"), ("T_c = 100, 200.5", "T_c"),
        ("L = 0", "L"), ("K = 0", "K"), ("M = 0", "M"), ("M = 32, 0", "M"), ("T_c = 0", "T_c"),
        ("r_cross = -1", "r_cross"),
    ])
    def test_cli_rejects_bad_integers_and_sizes(self, tmp_path, capsys, line, key):
        # a non-integer M, r or T_c is not truncated, and no size below 1
        # reaches the engine: both exit 2 and name the key
        cfg = write_cfg(tmp_path, "name = bad\nL = 2\nK = 2\nM = 32\nr_own = 4\nT_c = 200\n"
                                  f"bounds = coherent_ul\ntrials = 4\n{line}\n")
        assert cli_main(["run", cfg]) == 2
        assert f"{key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--M", "0"), ("--M", "-10"), ("--K", "0"), ("--L", "0"), ("--T-c", "0"),
        ("--r", "0"), ("--r", "-3"), ("--r", "500"),
    ])
    def test_scaling_rejects_sizes_below_one(self, capsys, flag, value):
        # no size below 1, and no rank above M, reaches the closed forms:
        # exit 2, naming the flag
        sizes = {"--M": "10", "--K": "2", "--L": "2", "--T-c": "50", "--r": "4"} | {flag: value}
        argv = ["scaling", "verystrong"] + [x for kv in sizes.items() for x in kv]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert (f"{flag} must satisfy 1 <= r <= --M = 10" if flag == "--r"
                else f"{flag} must be >= 1") in err

    def test_spec_rejects_non_integer_sweep_values(self):
        with pytest.raises(ConfigError, match="M must be an integer"):
            harness.ExperimentSpec(sweep_axis="M", sweep_values=(40.0, 60.5)).validate()

    @pytest.mark.parametrize("line, message", [
        ("L =", "exp.txt:2: empty value for 'L'"),
        ("L = two", "exp.txt:2: bad value for 'L'"),
        ("pilot = mixed", "pilot must be orthogonal|nonorthogonal, got 'mixed'"),
        ("model = gaussian", "model must be fourier|unitary, got 'gaussian'"),
        ("regime = weak", "regime must be strong|verystrong, got 'weak'"),
        ("r_own = 40", "r_own=40 exceeds M=32"),
    ], ids=["empty", "not a number", "pilot", "model", "regime", "r_own above M"])
    def test_rejects_bad_values(self, tmp_path, line, message):
        cfg = write_cfg(tmp_path, f"M = 32\n{line}\n")
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_config(cfg)

    def test_keys_are_the_spec_fields(self, tmp_path):
        # every ExperimentSpec field but the sweep's two is a key, read as
        # its annotation's type (a tuple is a comma list)
        values = dict(name="every", L=3, K=4, M=48, T_c=300, snr_db=5.5, iota=0.3, boost=1.5,
                      pilot="nonorthogonal", model="unitary", regime="verystrong", r_own=6,
                      r_cross=2, combiner="mf", bounds=("coherent_ul", "cutset"), trials=7,
                      seed=9, covariance_draws=1)
        types = {f.name: f.type for f in fields(harness.ExperimentSpec)}
        assert set(values) == set(types) - {"sweep_axis", "sweep_values"}
        text = "".join(f"{key} = {', '.join(v) if isinstance(v, tuple) else v}\n"
                       for key, v in values.items())
        spec = load_config(write_cfg(tmp_path, text))
        for key, value in values.items():
            assert getattr(spec, key) == value
            assert type(getattr(spec, key)).__name__ == types[key]
        for key in ("sweep_axis", "sweep_values"):
            with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
                load_config(write_cfg(tmp_path, f"{key} = snr_db\n"))


class TestRunExperiment:
    def test_reruns_are_identical(self, tmp_path):
        spec = load_config(write_cfg(tmp_path, MINIMAL))
        t1 = run_experiment(spec)
        t2 = run_experiment(spec)
        assert [r.__dict__ for r in t1.rows] == [r.__dict__ for r in t2.rows]

    def test_single_point_single_row_per_bound(self, tmp_path):
        spec = load_config(write_cfg(
            tmp_path, "name = p\nK = 2\nL = 2\nM = 32\nr_own = 4\n"
                      "bounds = coherent_ul, cutset\ntrials = 20\n"
                      "covariance_draws = 1\n"))
        table = run_experiment(spec)
        assert len(table.rows) == 2
        assert {r.bound_id for r in table.rows} == {"CoherentUL", "CutsetPerUser"}

    def test_alt_emits_maxmin_companion(self, tmp_path):
        spec = load_config(write_cfg(
            tmp_path, "name = p\nK = 2\nL = 2\nM = 32\nr_own = 4\n"
                      "bounds = alt_ul\ntrials = 20\ncovariance_draws = 1\n"))
        table = run_experiment(spec)
        assert {r.bound_id for r in table.rows} == {"AltNonCoherent", "MaxMinUB"}

    def test_closed_form_rows(self, tmp_path):
        spec = load_config(write_cfg(
            tmp_path, "name = p\nK = 5\nL = 4\nM = 100\nT_c = 500\nr_own = 8\n"
                      "snr_db = 10\nbounds = legacy_global_orth, asymptotic_lb_orth\n"
                      "trials = 1\ncovariance_draws = 1\n"))
        table = run_experiment(spec)
        vals = {r.bound_id: r.sum_total for r in table.rows}
        assert abs(vals["LegacyGlobalOrth"] - 146.8) < 0.1
        assert abs(vals["AsymptoticLB_Orth"] - 151.4) < 0.1


class TestPersistence:
    def test_csv_roundtrip_12_digits(self, tmp_path):
        spec = load_config(write_cfg(tmp_path, MINIMAL))
        table = run_experiment(spec)
        path = str(tmp_path / "out.csv")
        write_results(table, path, "csv")
        back = parse_csv(path)
        assert len(back.rows) == len(table.rows)
        for a, b in zip(table.rows, back.rows):
            for col in ("sum_total", "stderr", "per_user_rate"):
                x, y = getattr(a, col), getattr(b, col)
                assert x == pytest.approx(y, rel=1e-11, abs=1e-300)

    def test_empty_table_header_only(self, tmp_path):
        path = str(tmp_path / "empty.csv")
        write_results(ResultTable(), path, "csv")
        lines = Path(path).read_text().strip().splitlines()
        assert lines == ["experiment,sweep_value,M,K,r,T_c,bound_id,direction,"
                         "per_user_rate,sum_per_cell,sum_total,stderr,trials,seed"]

    def test_plotdata_block_count(self, tmp_path):
        spec = load_config(write_cfg(tmp_path, MINIMAL.replace(
            "bounds = coherent_ul", "bounds = coherent_ul, alt_ul")))
        table = run_experiment(spec)
        path = str(tmp_path / "out.dat")
        write_results(table, path, "plotdata")
        text = Path(path).read_text()
        curves = {(r.experiment, r.bound_id, r.direction) for r in table.rows}
        assert text.count("# curve:") == len(curves)

    def test_unwritable_path_raises(self, tmp_path):
        with pytest.raises(OSError):
            write_results(ResultTable(), str(tmp_path / "no" / "dir" / "x.csv"), "csv")


# large enough that the engine's table GEMMs (72 x 96 x 72 per cell) run on
# several BLAS threads
THREADED = """
name = threaded
L = 3
K = 6
M = 96
T_c = 200
r_own = 12
pilot = orthogonal
model = fourier
snr_db = 10
bounds = coherent_ul, alt_ul, alt_dl
trials = 70
seed = 3
covariance_draws = 1
"""


def csv_bytes_across_threads(tmp_path, text):
    """The CSV of one config under 1 and 3 pool threads, and under 1 and 2
    BLAS threads."""
    cfg = write_cfg(tmp_path, text)
    outputs = []
    for threads, blas in (("1", "1"), ("3", "1"), ("1", "2")):
        env = dict(os.environ, MIMO_LAB_THREADS=threads,
                   OPENBLAS_NUM_THREADS=blas, OMP_NUM_THREADS=blas)
        out = str(tmp_path / f"out{threads}-{blas}.csv")
        res = subprocess.run(
            [sys.executable, "-m", "mimo_lab.cli", "run", cfg, "--out", out],
            env=env, capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        outputs.append(Path(out).read_bytes())
    return outputs


class TestDeterminismAcrossThreads:
    def test_thread_count_does_not_change_bytes(self, tmp_path):
        outputs = csv_bytes_across_threads(tmp_path, MINIMAL)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_blas_thread_count_does_not_change_bytes(self, tmp_path):
        # the dense engine's tables and per-trial contractions are GEMMs (the
        # unitary twin); the Fourier config runs the angular engine
        for text in (THREADED, THREADED.replace("model = fourier", "model = unitary")):
            outputs = csv_bytes_across_threads(tmp_path, text)
            assert outputs[0] == outputs[1] == outputs[2]


class TestCli:
    def test_bad_config_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, "bounds = nope\n")
        assert cli_main(["run", cfg]) == 2

    def test_missing_file_exit_code(self):
        assert cli_main(["run", "/nonexistent/config.txt"]) == 2

    def test_numerical_failure_exit_code(self, tmp_path):
        prob = tmp_path / "bad.txt"
        prob.write_text("N = 2\nz = 1.0\ntheta = identity x 2\n")
        assert cli_main(["detequiv", str(prob)]) == 3

    def test_non_finite_rate_exits_3_without_output(self, tmp_path, monkeypatch):
        # one chunk of three returns a NaN signal for one user: its max-min
        # and alt rates are NaN
        ul_chunk = DrawEngine.ul_chunk

        def poisoned(self, base_seed, t0, t1, cells, want):
            out = ul_chunk(self, base_seed, t0, t1, cells, want)
            if t0 == 64:
                out["_nc"][cells[0]]["sig"][0, 0] = np.nan
            return out

        monkeypatch.setattr(DrawEngine, "ul_chunk", poisoned)
        cfg = write_cfg(tmp_path, MINIMAL.replace("coherent_ul", "alt_ul")
                        .replace("trials = 40", "trials = 130"))
        out = tmp_path / "rates.csv"
        assert cli_main(["run", cfg, "--out", str(out)]) == 3
        assert not out.exists()

    @pytest.mark.parametrize("line,message", [
        ("theta = 1,-0.5,1", "Theta_1 is not Hermitian positive semi-definite"),
        ("A = 0.2,-0.1,0.2", "A is not Hermitian positive semi-definite"),
    ])
    def test_detequiv_rejects_indefinite_problem(self, tmp_path, capsys, line, message):
        prob = tmp_path / "bad.txt"
        prob.write_text(f"N = 3\nz = -1.0\ntheta = identity x 3\n{line}\n")
        assert cli_main(["detequiv", str(prob)]) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("text,message", [
        ("N = 3\nz = -1.0\ntheta = identity x 3\ntheta = identity x -2\n",
         "p.txt:4: theta count must be an integer >= 0, got '-2'"),
        ("N = 3\nz = -1.0\ntheta = identity x 1.5\n",
         "p.txt:3: theta count must be an integer >= 0, got '1.5'"),
        ("z = -1.0\nN = 0\ntheta = identity x 3\n", "p.txt:2: N must be an integer >= 1, got '0'"),
        ("N = -2\nz = -1.0\n", "p.txt:1: N must be an integer >= 1, got '-2'"),
        ("N = three\nz = -1.0\n", "p.txt:1: N must be an integer >= 1, got 'three'"),
        ("N = 3\nz = abc\n", "p.txt:2: z must be a number, got 'abc'"),
        ("N = 3\nz = -1.0\ntheta = 1,a,1\n", "p.txt:3: theta entry must be a number, got 'a'"),
        ("N = 3\nz = -1.0\ntheta = 1,2\n", "p.txt:3: theta diagonal has 2 entries, expected N=3"),
        ("N = 3\nz = -1.0\ntheta = identity x 3\nQ = 1,1,1,1\n",
         "p.txt:4: Q diagonal has 4 entries, expected N=3"),
        ("N = 3\nz = -1.0\ntheta identity\n",
         "p.txt:3: expected 'key = value', got 'theta identity'"),
        ("N = 3\nz = -1.0\nA =\n", "p.txt:3: empty value for 'A'"),
        ("z = -1.0\ntheta = identity x 3\n", "p.txt: both N and z are required"),
        ("N = 3\ntheta = identity x 3\n", "p.txt: both N and z are required"),
        ("N = 3\nz = -1.0\nB = zero\n", "p.txt:3: unknown key 'B'"),
    ], ids=["count -2", "count 1.5", "N 0", "N -2", "N three", "z abc", "theta entry a",
            "theta length", "Q length", "no =", "empty value", "no N", "no z", "unknown key"])
    def test_detequiv_problem_bad_numbers_exit_2(self, tmp_path, monkeypatch, capsys, text,
                                                 message):
        # a bad dimension, count, number or diagonal length, a line that is
        # not `key = value`, a missing N or z and an unknown key are input
        # errors, named with their line where there is one
        def no_solve(*args, **kwargs):
            raise AssertionError("the fixed point started on a bad problem")

        monkeypatch.setattr("mimo_lab.cli.solve_fixed_point", no_solve)
        prob = tmp_path / "p.txt"
        prob.write_text(text)
        assert cli_main(["detequiv", str(prob)]) == 2
        assert message in capsys.readouterr().err

    def test_shipped_examples_run(self, tmp_path, capsys):
        out = tmp_path / "example.csv"
        argv = ["run", str(CONFIGS / "example.txt"), "--trials", "4", "--out", str(out)]
        assert cli_main(argv) == 0
        bound_ids = {}
        for row in parse_csv(str(out)).rows:
            bound_ids.setdefault(row.sweep_value, set()).add(row.bound_id)
        assert sorted(bound_ids) == [-10.0, 0.0, 10.0, 20.0, 30.0]
        assert all(ids == {"CoherentUL", "NonCoherent", "AltNonCoherent", "MaxMinUB",
                           "CutsetPerUser", "AsymptoticLB_Orth"} for ids in bound_ids.values())
        capsys.readouterr()
        # e solves e^2 + e - 1 = 0
        assert cli_main(["detequiv", str(CONFIGS / "detequiv_example.txt")]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "e: 0.618033988754"

    def test_detequiv_accepts_a_zero_count(self, tmp_path, capsys):
        prob = tmp_path / "p.txt"
        prob.write_text("N = 3\nz = -1.0\ntheta = identity x 0\ntheta = identity x 3\n")
        assert cli_main(["detequiv", str(prob)]) == 0
        assert "iterations:" in capsys.readouterr().out

    def test_detequiv_rejects_nan_z(self, tmp_path, capsys):
        prob = tmp_path / "nan.txt"
        prob.write_text("N = 3\nz = nan\ntheta = identity x 3\n")
        assert cli_main(["detequiv", str(prob)]) == 3
        assert "z must be a finite negative real" in capsys.readouterr().err

    # a NaN in Q is rejected with the problem; a finite Q whose m overflows
    # is caught after the solve, before anything is printed
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("lines,message", [
        ("z = -1.0\nQ = nan,1,1", "Q must be finite"),
        ("z = -1e-4\nQ = 1e306,1e306,1e306", "non-finite m"),
    ])
    def test_detequiv_exits_3_on_a_non_finite_m(self, tmp_path, capsys, lines, message):
        prob = tmp_path / "q.txt"
        prob.write_text(f"N = 3\ntheta = identity x 3\n{lines}\n")
        assert cli_main(["detequiv", str(prob)]) == 3
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    @pytest.mark.parametrize("option,value", [
        ("--max-iter", "0"), ("--max-iter", "-3"),
        ("--tol", "0"), ("--tol", "-1"), ("--tol", "nan"), ("--tol", "inf"),
    ])
    def test_detequiv_rejects_bad_solver_options(self, tmp_path, monkeypatch, capsys,
                                                 option, value):
        def no_solve(*args, **kwargs):
            raise AssertionError("the fixed point started before its options were checked")

        monkeypatch.setattr("mimo_lab.cli.solve_fixed_point", no_solve)
        prob = tmp_path / "p.txt"
        prob.write_text("N = 3\nz = -1.0\ntheta = identity x 3\n")
        assert cli_main(["detequiv", str(prob), option, value]) == 2
        assert option in capsys.readouterr().err

    def test_detequiv_solves_scalar_problem(self, tmp_path, capsys):
        prob = tmp_path / "p.txt"
        prob.write_text("N = 3\nz = -1.0\ntheta = identity x 3\nA = zero\nQ = identity\n")
        assert cli_main(["detequiv", str(prob)]) == 0
        out = capsys.readouterr().out
        e = float(out.splitlines()[0].split()[1])
        assert abs(e - (np.sqrt(5) - 1) / 2) < 1e-9

    def test_run_stdout_is_the_csv_file(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, MINIMAL)
        out = tmp_path / "out.csv"
        assert cli_main(["run", cfg]) == 0
        printed = capsys.readouterr().out
        assert cli_main(["run", cfg, "--out", str(out)]) == 0
        assert printed.encode() == out.read_bytes()

    @pytest.mark.parametrize("cmd", ["run", "reproduce"])
    def test_stdout_follows_the_format(self, tmp_path, capsys, monkeypatch, cmd):
        # without --out, run and reproduce print the text --out would write,
        # in either format
        from mimo_lab import cli

        cfg = write_cfg(tmp_path, MINIMAL)
        if cmd == "reproduce":
            table = run_experiment(load_config(cfg))
            monkeypatch.setattr(cli, "reproduce_figure", lambda *args, **kwargs: table)
        argv = ["run", cfg] if cmd == "run" else ["reproduce", "fig5"]
        for fmt in ("csv", "plotdata"):
            out = tmp_path / f"out.{fmt}"
            assert cli_main(argv + ["--format", fmt]) == 0
            printed = capsys.readouterr().out
            assert cli_main(argv + ["--format", fmt, "--out", str(out)]) == 0
            capsys.readouterr()
            assert printed.encode() == out.read_bytes()
        assert printed.count("# curve:") == 1 and "experiment," not in printed

    @pytest.mark.parametrize("kind, token, regime", [
        ("contaminated", "legacy_contaminated", "strong"),
        ("global-orth", "legacy_global_orth", "strong"),
        ("coherent-orth", "asymptotic_lb_orth", "strong"),
        ("strong", "asymptotic_scaling", "strong"),
        ("verystrong", "asymptotic_scaling", "verystrong"),
    ])
    def test_scaling_kind_equals_closed_form_row(self, capsys, kind, token, regime):
        assert cli_main(["scaling", kind, "--M", "100", "--K", "10", "--L", "4",
                         "--T-c", "500", "--snr-db", "15", "--iota", "0.3", "--r", "8"]) == 0
        spec = harness.ExperimentSpec(name="s", L=4, K=10, M=100, T_c=500, snr_db=15.0,
                                      iota=0.3, r_own=8, regime=regime, bounds=(token,),
                                      sweep_values=(15.0,), trials=1, covariance_draws=1)
        (row,) = run_experiment(spec).rows
        assert capsys.readouterr().out == f"{row.sum_total:.12g}\n"

    def test_scaling_subcommand(self, capsys):
        assert cli_main(["scaling", "contaminated", "--M", "100", "--K", "10",
                         "--L", "4", "--T-c", "500", "--iota", "0.2"]) == 0
        val = float(capsys.readouterr().out.strip())
        assert abs(val - 55.5) < 0.1

    def test_lemma_check_subcommand(self, capsys):
        assert cli_main(["lemma-check", "TraceLemma", "32,64", "--trials", "100"]) == 0
        assert "slope" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, message", [
        (["TraceLemma", "--trials", "0"], "trials must be >= 2"),
        (["TraceLemma", "--trials", "1"], "trials must be >= 2"),
        (["TraceLemma", "64"], "two dims"),
        (["TraceLemma", "0,64"], "TraceLemma dims must be >= 1, got [0, 64]"),
        (["UnboundedNorm", "--", "-4,64"], "UnboundedNorm dims must be >= 1, got [-4, 64]"),
        (["HaarProduct", "4,64"], "HaarProduct dims must be >= 8, got [4, 64]"),
        (["FourierProduct", "7,64"], "FourierProduct dims must be >= 8, got [7, 64]"),
    ], ids=["no trials", "one trial", "one dim", "zero dim", "negative dim",
            "below the Haar product's rank", "below the Fourier product's rank"])
    def test_lemma_check_rejects_what_fits_no_slope(self, capsys, argv, message):
        assert cli_main(["lemma-check"] + argv) == 2
        captured = capsys.readouterr()
        assert message in captured.err and "slope" not in captured.out

    @pytest.mark.parametrize("argv,file_seed,bad", [
        (["reproduce", "fig2", "--seed", "-1"], "3", "-1"),
        (["run", "CONFIG", "--seed", "-3"], "3", "-3"),
        (["run", "CONFIG"], "-5", "-5"),
    ], ids=["reproduce --seed", "run --seed", "config seed"])
    def test_negative_seed_exits_2(self, tmp_path, monkeypatch, capsys, argv, file_seed, bad):
        def no_work(*args, **kwargs):
            raise AssertionError("a run started before its seed was checked")

        monkeypatch.setattr(harness, "build_network", no_work)
        cfg = write_cfg(tmp_path, MINIMAL.replace("seed = 3", f"seed = {file_seed}"))
        assert cli_main([cfg if a == "CONFIG" else a for a in argv]) == 2
        assert f"seed must be >= 0, got {bad}" in capsys.readouterr().err

    def test_spec_rejects_a_negative_seed(self):
        with pytest.raises(ConfigError, match="seed must be >= 0, got -1"):
            harness.ExperimentSpec(seed=-1).validate()
        with pytest.raises(ConfigError, match="seed must be >= 0, got -2"):
            reproduce_figure("fig5", seed=-2)

    def test_desk_caps_trials(self):
        table = ResultTable()
        spec = harness._desk(harness.ExperimentSpec(trials=600), "desk", table)
        assert spec.trials == harness.DESK_TRIALS_CAP == 500
        assert table.audit == ["scale=desk caps: trials->500"]

    @pytest.mark.parametrize("fig,trials", [("fig2", "-1"), ("fig5", "0")])
    def test_reproduce_rejects_nonpositive_trials(self, fig, trials, monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("a figure started before its trial count was checked")

        monkeypatch.setattr(harness, "build_network", no_work)
        assert cli_main(["reproduce", fig, "--trials", trials]) == 2
        assert "trials must be >= 1" in capsys.readouterr().err


@pytest.mark.slow
class TestFigures:
    def test_fig6_table_shape(self):
        table = reproduce_figure("fig6", scale="desk", seed=2, trials=60)
        exps = {r.experiment for r in table.rows}
        assert exps == {"fig6:orthogonal", "fig6:nonorthogonal"}
        rvals = {r.sweep_value for r in table.rows}
        assert rvals == {2.0, 4.0, 8.0, 16.0}
        assert any("desk" in a for a in table.audit)

    def test_fig2_series(self):
        table = reproduce_figure("fig2", scale="desk", seed=2, trials=40)
        exps = {r.experiment for r in table.rows}
        assert exps == {"fig2:fulldim", "fig2:d=8", "fig2:d=6", "fig2:d=4"}
        snrs = sorted({r.sweep_value for r in table.rows})
        assert snrs == [-10.0, 0.0, 10.0, 20.0, 30.0]

    def test_fig3_families(self):
        table = reproduce_figure("fig3", scale="desk", seed=2, trials=20)
        exps = {r.experiment for r in table.rows}
        assert exps == {"fig3:r=10", "fig3:r=30", "fig3:r=100"}
        bids = {r.bound_id for r in table.rows}
        assert bids == {"CoherentUL", "NonCoherent", "AltNonCoherent",
                        "MaxMinUB", "AsymptoticLB_Orth"}

    def test_fig5_near_doubling(self):
        table = reproduce_figure("fig5", scale="desk", seed=2, trials=80)
        alt = {r.sweep_value: r.sum_total for r in table.rows
               if r.bound_id == "AltNonCoherent"}
        assert set(alt) == {40.0, 80.0, 160.0}
        assert 1.6 <= alt[160.0] / alt[80.0] <= 2.3
        assert 1.6 <= alt[80.0] / alt[40.0] <= 2.3

    def test_fig7_schemes_and_blocks(self):
        table = reproduce_figure("fig7", scale="desk", seed=2, trials=30)
        exps = {r.experiment for r in table.rows}
        assert exps == {f"fig7:{p}:r={r}" for p in ("orthogonal", "nonorthogonal")
                        for r in (4, 8)}
        assert {r.sweep_value for r in table.rows} == {25.0, 50.0, 100.0, 200.0, 400.0}
        # one caps line for the figure, not one per spec
        assert table.audit.count("scale=desk caps: none applied") == 1
        assert len(table.audit) == 1 + len(exps)

    def test_unknown_figure(self):
        with pytest.raises(ConfigError):
            reproduce_figure("fig9")


class TestCombinerConfig:
    def test_mf_combiner_through_config(self, tmp_path):
        base = ("name = mf\nL = 2\nK = 2\nM = 32\nr_own = 4\n"
                "bounds = coherent_ul\ntrials = 60\ncovariance_draws = 1\n")
        t_mmse = run_experiment(load_config(write_cfg(tmp_path, base + "combiner = mmse\n")))
        t_mf = run_experiment(load_config(write_cfg(tmp_path, base + "combiner = mf\n", "b.txt")))
        assert t_mmse.rows[0].sum_total >= t_mf.rows[0].sum_total - 1e-9

    def test_bad_combiner_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="combiner"):
            load_config(write_cfg(tmp_path, "combiner = zf\n"))


class TestDownlinkThroughConfig:
    def test_dl_bounds_rows(self, tmp_path):
        cfg = write_cfg(tmp_path, (
            "name = dl\nL = 2\nK = 2\nM = 32\nr_own = 4\n"
            "bounds = noncoherent_dl, alt_dl\ntrials = 40\ncovariance_draws = 1\n"))
        table = run_experiment(load_config(cfg))
        got = {(r.bound_id, r.direction) for r in table.rows}
        assert got == {("NonCoherent", "dl"), ("AltNonCoherent", "dl"),
                       ("MaxMinUB", "dl")}
