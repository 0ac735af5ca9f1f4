"""CLI dispatch, config handling and output files."""

import contextlib
import csv
import io
import json
import shlex
import tempfile
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from onelambda import experiments as xp
from onelambda import oracle
from onelambda.cli import build_parser, main
from onelambda.ea import LAMBDA_MAX
from onelambda.oracle import elitist_evaluations_bound
from test_experiments import no_pool  # noqa: F401  (a fixture)


def read_data_lines(path):
    return [l for l in path.read_text().splitlines() if not l.startswith("#")]


def read_csv_rows(path):
    return list(csv.DictReader(read_data_lines(path)))


def assert_overflow_is_config_error(argv, tmp_path, capsys):
    """F^(2/s) or a value built from F^(1/s) overflows: a configuration
    error naming F and s, with no output written."""
    if argv[0] == "batch":
        argv = argv + ["--out-dir", str(tmp_path)]
    elif argv[0] != "bound":  # bound prints its value and writes no file
        argv = argv + ["--out", str(tmp_path / "out.csv")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "F=" in err and "s=" in err, err
    assert not any(tmp_path.iterdir())


class TestRunCommand:
    def test_basic_run(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        rc = main([
            "run", "--algo", "comma", "--fn", "onemax", "--n", "50",
            "--s", "1", "--F", "1.5", "--seed", "7", "--trace", "full",
            "--out", str(out), "--no-timestamp",
        ])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["stop_cause"] == "optimum"
        lines = read_data_lines(out)
        assert lines[0] == "run_id,generation,fitness,lambda_real,lambda_int,evaluations,best_so_far"
        assert len(lines) == summary["generations"] + 2  # header + rows 0..T

    def test_missing_n_is_config_error(self, capsys):
        rc = main(["run", "--algo", "comma", "--s", "1"])
        assert rc == 2
        assert "n" in capsys.readouterr().err

    def test_adaptive_needs_s(self, capsys):
        rc = main(["run", "--algo", "comma", "--n", "20"])
        assert rc == 2
        assert "s" in capsys.readouterr().err

    def test_unknown_config_key_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 20, "s": 1, "bogus_key": 5}))
        rc = main(["run", "--config", str(cfg)])
        assert rc == 2
        assert "bogus_key" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 30, "s": 1.0, "seed": 5, "algo": "comma"}))
        out = tmp_path / "t.csv"
        rc = main(["run", "--config", str(cfg), "--seed", "6", "--out", str(out)])
        assert rc == 0
        meta = json.loads(capsys.readouterr().out)
        assert meta["stop_cause"] == "optimum"

    def test_static_without_s(self, tmp_path):
        out = tmp_path / "t.csv"
        rc = main(["run", "--algo", "static", "--n", "30", "--seed", "2", "--out", str(out)])
        assert rc == 0

    def test_creates_output_directory(self, tmp_path):
        out = tmp_path / "fresh" / "dir" / "t.csv"
        rc = main(["run", "--algo", "static", "--n", "20", "--seed", "2", "--out", str(out)])
        assert rc == 0 and out.exists()

    def test_bad_trace_level_in_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 20, "s": 1, "trace": "bogus"}))
        rc = main(["run", "--config", str(cfg), "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        assert "trace" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--s", "1e-9"], ["--F", "1e200", "--s", "0.5"]])
    def test_overflowing_growth_factor_is_config_error(self, flags, tmp_path, capsys):
        assert_overflow_is_config_error(["run", "--n", "20", *flags], tmp_path, capsys)

    @pytest.mark.parametrize("argv", [
        "run --n 10 --s 1 --F 1e308 --eval-cap 100",
        "batch --n 10 --s 1 --F 1e308 --runs 2 --workers 1",
        "sweep --n 10 --s 1 --F 1e200 --runs 2 --workers 1",
    ])
    def test_overflowing_guard_is_config_error(self, argv, tmp_path, capsys):
        # F^(1/s) is finite, but the default lambda guard squares it
        assert_overflow_is_config_error(argv.split(), tmp_path, capsys)

    @pytest.mark.parametrize("argv, setting", [
        ("run --n 20 --s 1 --lambda0 inf", "lambda0"),
        ("run --n 20 --s 1 --lambda0 nan", "lambda0"),
        ("run --n 20 --s 1 --gen-cap-mult inf --eval-cap 100", "gen_cap_multiplier"),
        ("run --n 20 --s 1 --gen-cap-mult nan", "gen_cap_multiplier"),
        ("run --n 20 --s 1 --eval-cap -5", "eval_cap"),
        # lambda past LAMBDA_MAX, where the window law stops being exact
        ("run --n 20 --s 1 --lambda0 1e300 --algo plus --eval-cap 10", "lambda0"),
        ("run --n 400 --s 1 --algo static --static-lambda 1" + "0" * 60
         + " --trace full --eval-cap 10", "static_lambda"),
        ("run --n 20 --s 1 --fn ridge --lambda0 1e19 --eval-cap 10", "lambda0"),
        ("batch --n 20 --runs 2 --workers 1 --gen-cap-mult inf", "gen_cap_multiplier"),
        ("batch --n 20 --runs 2 --workers 1 --gen-cap-mult 1e308", "gen_cap_multiplier"),
        # a static lambda only a static run reads
        ("run --n 10 --s 1 --algo plus --static-lambda 5", "static_lambda"),
        ("run --n 10 --s 1 --algo comma --static-lambda 5", "static_lambda"),
        ("batch --n 10 --runs 2 --workers 1 --algo plus --static-lambda 5", "static_lambda"),
        # a negative multiplier is no generation cap in disguise
        ("run --n 10 --s 1 --gen-cap-mult -3", "gen_cap_multiplier"),
        ("run --n 0 --s 1", "n must be >= 1"),
        ("batch --n 10 --runs 0 --workers 1", "runs"),
        ("batch --n , --runs 2 --workers 1", "n_values"),
        # an n past N_MAX, refused before any command computes with it
        ("run --n 1" + "0" * 40 + " --s 1", "--n"),
        ("batch --n 1" + "0" * 40 + " --runs 2 --workers 1", "--n"),
        ("sweep --n 1" + "0" * 40 + " --runs 2 --workers 1", "--n"),
        ("fixed-target --n 1" + "0" * 40 + " --runs 2 --workers 1", "--n"),
        ("bounds-check --n 1" + "0" * 40, "--n"),
        ("drift-check --n 1" + "0" * 400, "--n"),
        ("bounds-check --n 1000001", "--n must be at most 1000000"),
        # g1's grid reaches lambda e*n*F^(1/s), past LAMBDA_MAX and past int64
        ("drift-check --n 10 --F 1e10 --s 0.5", "lam <="),
    ])
    def test_invalid_setting_is_config_error(self, argv, setting, tmp_path, capsys):
        out = ["--out-dir", str(tmp_path)] if argv.startswith("batch") else [
            "--out", str(tmp_path / "out.csv")]
        assert main([*argv.split(), *out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and setting in err, err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, place, setting", [
        ("run --n 10 --s 1", "--out dir", "--out"),
        ("run --n 10 --s 1", "--out file/x.csv", "--out"),
        ("batch --n 10 --runs 2 --workers 1", "--out-dir file", "--out-dir"),
        ("run --n 10 --s 1", "ONELAMBDA_OUTDIR=file", "ONELAMBDA_OUTDIR"),
        ("figure fig2 --workers 1", "--out-dir file/sub", "--out-dir"),
    ])
    def test_unwritable_output_location_is_config_error(self, argv, place, setting, tmp_path,
                                                         capsys, monkeypatch):
        # refused before any command computes: the figure never runs its batch
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("")

        def no_batch(*args, **kwargs):
            raise AssertionError("run_batch was called")

        monkeypatch.setattr(xp, "run_batch", no_batch)
        name, sep, value = place.partition("=")
        if sep:
            monkeypatch.setenv(name, str(tmp_path / value))
            place = []
        else:
            flag, path = place.split()
            place = [flag, str(tmp_path / path)]
        assert main([*argv.split(), *place]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and setting in err, err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["dir", "file"]
        assert (tmp_path / "file").read_text() == ""

    @pytest.mark.parametrize("command", ["run --n 10", "batch --n 10 --runs 2 --workers 1"])
    def test_static_lambda_below_one_names_the_flag(self, command, tmp_path, capsys):
        out = ["--out", str(tmp_path / "out.csv")] if command.startswith("run") else [
            "--out-dir", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            main([*command.split(), "--algo", "static", "--static-lambda", "0", *out])
        assert exc.value.code == 2
        assert "argument --static-lambda: must be >= 1" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        # the step that aborts on lambda leaves lambda_int = 10^30
        "run --n 10 --s 1 --F 1e30 --eval-cap 100",
        # 18 generations of LAMBDA_MAX children: 1.64e19 evaluations
        f"run --n 400 --s 1 --algo static --static-lambda {LAMBDA_MAX}",
    ])
    def test_full_trace_past_int64_ends_on_the_summary_values(self, argv, tmp_path, capsys):
        runs = {}
        for trace in ("summary", "full"):
            out = tmp_path / f"{trace}.csv"
            assert main([*argv.split(), "--trace", trace, "--out", str(out)]) == 0
            printed = json.loads(capsys.readouterr().out)
            runs[trace] = printed, read_csv_rows(out)[-1]
        (summary, last), (full, row) = runs["summary"], runs["full"]
        assert {**summary, "output": None} == {**full, "output": None}
        assert row.pop("lambda_int") and last.pop("lambda_int") == ""
        assert row == last
        assert int(row["evaluations"]) == full["evaluations"]

    def test_static_ridge_run_at_the_lambda_ceiling_exits_0(self, tmp_path, capsys):
        # one ridge generation of LAMBDA_MAX children costs what one of 16 does
        argv = f"run --fn ridge --n 100 --algo static --static-lambda {LAMBDA_MAX} --eval-cap 10"
        assert main([*argv.split(), "--out", str(tmp_path / "out.csv")]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["evaluations"] == LAMBDA_MAX and printed["stop_cause"] == "evaluation_cap"

    def test_golden_output_reproducible(self, tmp_path):
        out = tmp_path / "a.csv"
        args = ["run", "--algo", "comma", "--n", "40", "--s", "1", "--seed", "9",
                "--trace", "full", "--no-timestamp", "--out", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first


class TestBoundCommand:
    def test_prints_bound(self, capsys):
        rc = main(["bound", "--n", "1000", "--a", "0", "--b", "1000",
                   "--F", "1.5", "--s", "1", "--lambda0", "1"])
        assert rc == 0
        printed = float(capsys.readouterr().out.strip())
        assert printed == pytest.approx(elitist_evaluations_bound(1000, 0, 1000, 1.5, 1.0, 1.0))

    def test_b_defaults_to_n(self, capsys):
        rc = main(["bound", "--n", "100"])
        assert rc == 0
        printed = float(capsys.readouterr().out.strip())
        assert printed == pytest.approx(elitist_evaluations_bound(100, 0, 100, 1.5, 1.0, 1.0))

    def test_overflowing_growth_factor_is_config_error(self, tmp_path, capsys):
        argv = ["bound", "--n", "10", "--a", "0", "--b", "10", "--s", "1e-9"]
        assert_overflow_is_config_error(argv, tmp_path, capsys)

    @pytest.mark.parametrize("flags, message", [
        (["--n", "0", "--b", "0"], "n must be >= 1"),
        (["--n=-2", "--b", "0"], "n must be >= 1"),
        (["--n", "10", "--lambda0", "inf"], "lambda0 must be finite"),
        (["--n", "10", "--lambda0", "nan"], "lambda0 must be finite"),
        ([], "missing required key: n"),
        (["--n", "1" + "0" * 40], "--n must be at most"),
        (["--n", "10", "--F", "1e308", "--s", "1000"], "F^((s+1)/s) overflows"),
    ])
    def test_bad_n_or_lambda0_is_config_error(self, flags, message, capsys):
        assert main(["bound", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("configuration error:") and message in captured.err


class TestAnalysisCommands:
    def test_drift_check_g2_band(self, tmp_path, capsys):
        out = tmp_path / "g2.csv"
        rc = main(["drift-check", "--potential", "g2", "--n", "600",
                   "--F", "1.5", "--s", "18", "--out", str(out), "--no-timestamp"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert not summary["band_empty"]
        assert summary["violations"] == 0
        assert out.exists()

    def test_drift_check_g1_small(self, tmp_path, capsys):
        out = tmp_path / "g1.csv"
        rc = main(["drift-check", "--potential", "g1", "--n", "60",
                   "--F", "1.5", "--s", "0.5", "--out", str(out), "--no-timestamp"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["states"] > 0 and out.exists()

    def test_drift_check_cap_gain_flag(self, tmp_path, capsys):
        args = ["drift-check", "--potential", "g1", "--n", "40", "--F", "1.5",
                "--s", "0.5", "--no-timestamp"]
        out_plain = tmp_path / "plain.csv"
        assert main(args + ["--out", str(out_plain)]) == 0
        plain = json.loads(capsys.readouterr().out)
        out_cap = tmp_path / "cap.csv"
        assert main(args + ["--cap-gain", "--out", str(out_cap)]) == 0
        capped = json.loads(capsys.readouterr().out)
        # capping gains can only lower the minimum drift
        assert capped["extreme_drift"] <= plain["extreme_drift"] + 1e-12

    def test_bounds_check(self, tmp_path, capsys):
        out = tmp_path / "bounds.csv"
        rc = main(["bounds-check", "--n", "40", "--lambdas", "1,2,5",
                   "--out", str(out), "--no-timestamp"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["violations"] == 0
        header = read_data_lines(out)[0]
        assert header.startswith("n,i,lambda,quantity,bound,side,exact,bound_value,margin")

    @pytest.mark.parametrize("argv", [
        ["drift-check", "--potential", "g1", "--n", "30", "--s", "0.5"],
        ["drift-check", "--potential", "g2", "--n", "600", "--s", "18"],
        ["bounds-check", "--n", "30", "--lambdas", "1,2,5"],
    ])
    def test_check_outputs_hold_plain_numbers(self, argv, tmp_path, capsys):
        # a numpy scalar would print as np.float64(...) in the CSV or the JSON
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out), "--no-timestamp"]) == 0
        assert "np." not in capsys.readouterr().out
        assert "np." not in out.read_text()

    @pytest.mark.parametrize("lambdas", ["0,1", "-2"])
    def test_bounds_check_rejects_lambda_below_one(self, lambdas, tmp_path, capsys):
        rc = main(["bounds-check", "--n", "10", f"--lambdas={lambdas}",
                   "--out", str(tmp_path / "b.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "lam" in err
        assert not any(tmp_path.iterdir())  # checked before the rows stream out

    def test_bounds_check_rejects_lambda_past_the_window_bound(self, tmp_path, capsys):
        rc = main(["bounds-check", "--n", "10", f"--lambdas=1,{LAMBDA_MAX + 1}",
                   "--out", str(tmp_path / "b.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and str(LAMBDA_MAX) in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, code", [
        ("bounds-check --n 40 --lambdas 1,2,5", 0),
        ("drift-check --n 60 --s 0.5 --threshold 0.5", 1),  # 56 violations
        ("drift-check --potential g2 --n 1000 --s 18 --threshold -0.3", 1),
        ("drift-check --potential g2 --n 100", 1),  # an empty band
    ])
    def test_printed_summary_is_the_written_csv(self, argv, code, tmp_path, capsys):
        # the tallies pass with the streamed rows; recount them from the file
        out = tmp_path / "out.csv"
        assert main([*argv.split(), "--out", str(out)]) == code
        summary = json.loads(capsys.readouterr().out)
        rows = read_csv_rows(out)
        assert summary["violations"] == sum(row["pass"] == "False" for row in rows)
        if argv.startswith("bounds-check"):
            assert summary["checks"] == len(rows)
            assert summary["states"] == len({(row["i"], row["lambda"]) for row in rows})
            return
        assert summary["states"] == len(rows)
        if not rows:
            assert summary["extreme_drift"] is summary["extreme_state"] is None
            return
        drift = np.array([float(row["drift"]) for row in rows])
        k = int(np.argmin(drift) if "g2" not in argv else np.argmax(drift))
        assert summary["extreme_drift"] == drift[k]
        assert summary["extreme_state"] == [int(rows[k]["i"]), float(rows[k]["lambda_real"])]

    @pytest.mark.usefixtures("no_pool")
    @pytest.mark.parametrize("argv, code, passes", [
        ("drift-check --n 100 --s 0.5", 0, 4),  # 6700 states
        ("drift-check --n 100 --s 0.5 --threshold 0.5", 1, 4),  # 91 fail, in 2 passes
        ("drift-check --potential g2 --n 1000 --s 18", 0, 1),
        ("bounds-check --n 48 --lambdas 1,2,5", 0, 3),
    ])
    def test_pooled_check_writes_the_in_process_bytes(self, argv, code, passes, monkeypatch,
                                                        tmp_path, capsys):
        # one usable CPU runs every pass here; with two, each pass of a check
        # of several is one pool task, and the worker tallies its verdicts
        def refuse_pool(workers):
            raise AssertionError("a pool started on one usable CPU")

        real_pool, submitted = xp._pool, []

        def counted_pool(workers):
            pool = real_pool(workers)

            def submit(*task):
                submitted.append(task)
                return pool.submit(*task)

            return SimpleNamespace(submit=submit)

        outputs = []
        for cpus in (1, 2):
            with monkeypatch.context() as m:
                m.setattr(xp, "usable_cpus", lambda: cpus)
                m.setattr(xp, "_pool", refuse_pool if cpus == 1 else counted_pool)
                out = tmp_path / f"{cpus}.csv"
                assert main([*argv.split(), "--out", str(out), "--no-timestamp"]) == code
            summary = json.loads(capsys.readouterr().out)
            assert summary.pop("output") == str(out)
            outputs.append((out.read_bytes(), summary))
        assert len(submitted) == (passes if passes > 1 else 0)
        assert outputs[0] == outputs[1]
        if code:
            assert 0 < outputs[0][1]["violations"] < outputs[0][1]["states"]

    @pytest.mark.parametrize("argv", [
        ["bounds-check", "--lambdas", ",".join(map(str, range(1, 25)))],
        ["drift-check", "--potential", "g1", "--s", "0.5"],
    ], ids=["bounds-check", "drift-check"])
    def test_check_memory_does_not_grow_with_n(self, argv, monkeypatch, tmp_path, capsys):
        # the rows stream into the CSV a block of states at a time; held
        # whole until the write, they took the peak from 6.2 to 20.3 MB
        # (bounds) and from 2.7 to 10.8 MB (drift) between these sizes.
        # One usable CPU runs every pass here, where tracemalloc sees it
        monkeypatch.setattr(xp, "usable_cpus", lambda: 1)
        memos = [f for f in vars(oracle).values() if callable(getattr(f, "cache_clear", None))]

        def peak(n):
            for memo in memos:  # cold, as in a fresh process
                memo.cache_clear()
            tracemalloc.start()
            try:
                assert main([*argv, "--n", str(n), "--out", str(tmp_path / "out.csv")]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                capsys.readouterr()

        peak(20)  # lazy imports and first-call set-up, outside the measure
        small, large = peak(100), peak(400)
        assert large <= 2 * small, (small, large)

    @pytest.mark.parametrize("argv, code", [
        (["bounds-check", "--n", "0"], 2),
        (["drift-check", "--potential", "g2", "--n", "100"], 1),
        (["drift-check", "--potential", "g2", "--n", "0"], 2),
    ], ids=["argv0", "argv1", "argv2"])
    def test_empty_grid_exits_1(self, argv, code, tmp_path, capsys):
        # an empty grid is not a pass; n = 0 never builds one (--n must be >= 1)
        argv = argv + ["--out", str(tmp_path / "out.csv")]
        if code == 2:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2 and "--n" in capsys.readouterr().err
        else:
            assert main(argv) == 1
            assert json.loads(capsys.readouterr().out)["states"] == 0

    @pytest.mark.parametrize("argv", [
        ["drift-check", "--potential", "g1", "--n", "0"],
        ["drift-check", "--potential", "g1", "--n=-3"],
        ["bounds-check", "--n=-1"],
    ])
    def test_n_below_one_names_n(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "out.csv")])
        assert exc.value.code == 2
        assert "argument --n: must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("flags", [
        ["--potential", "g2", "--n", "600", "--s", "1e-9"],
        ["--potential", "g1", "--n", "20", "--F", "1e154", "--s", "1"],  # lambda*F^(1/s) = inf
        ["--potential", "g2", "--n", "600", "--F", "1e308", "--s", "1"],  # F^(2/s) = inf
    ])
    def test_drift_check_overflow_is_config_error(self, flags, tmp_path, capsys):
        assert_overflow_is_config_error(["drift-check", *flags], tmp_path, capsys)

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    def test_drift_check_non_finite_threshold_is_config_error(self, threshold, tmp_path,
                                                              capsys):
        out = tmp_path / "g1.csv"
        rc = main(["drift-check", "--potential", "g1", "--n", "5",
                   f"--threshold={threshold}", "--out", str(out)])
        assert rc == 2
        assert "threshold must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_drift_check_violation_exits_1(self, tmp_path, capsys):
        rc = main(["drift-check", "--potential", "g1", "--n", "20", "--threshold", "10",
                   "--out", str(tmp_path / "g1.csv")])
        assert rc == 1
        summary = json.loads(capsys.readouterr().out)
        assert summary["violations"] == summary["states"] > 0

    def test_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = main(["sweep", "--n", "20", "--s", "1,20", "--runs", "4",
                   "--seed", "3", "--workers", "1", "--out", str(out), "--no-timestamp"])
        assert rc == 0
        assert len(read_data_lines(out)) == 3  # header + 2 cells

    def test_fixed_target(self, tmp_path, capsys):
        out = tmp_path / "ft.csv"
        rc = main(["fixed-target", "--n", "25", "--s", "1", "--runs", "3",
                   "--seed", "3", "--workers", "1", "--targets", "0,10,25",
                   "--out", str(out), "--no-timestamp"])
        assert rc == 0
        assert len(read_data_lines(out)) == 4

    @pytest.mark.parametrize("command", [["sweep"], ["fixed-target", "--targets", "0,20"]])
    def test_batch_commands_report_progress(self, command, tmp_path, capsys):
        rc = main([*command, "--n", "20", "--s", "1", "--runs", "20", "--seed", "3",
                   "--workers", "1", "--out", str(tmp_path / "out.csv")])
        assert rc == 0
        assert "  20/20 runs" in capsys.readouterr().err.splitlines()

    def test_fixed_target_checks_targets_before_any_run(self, tmp_path, capsys, monkeypatch):
        def no_batch(*args, **kwargs):
            raise AssertionError("run_batch called")

        monkeypatch.setattr(xp, "run_batch", no_batch)
        out = tmp_path / "ft.csv"
        for targets, message in [("5,9999", "target 9999 is outside the level table [0, 1001)"),
                                 ("", "no targets")]:
            rc = main(["fixed-target", "--n", "1000", f"--targets={targets}", "--out", str(out)])
            assert rc == 2
            err = capsys.readouterr().err
            assert err.startswith("configuration error:") and message in err, err
            assert not out.exists()

    @pytest.mark.parametrize("targets", ["-1,20", "5,99"])
    def test_fixed_target_outside_level_table_is_config_error(self, targets, tmp_path, capsys):
        out = tmp_path / "ft.csv"
        rc = main(["fixed-target", "--n", "20", "--s", "1", "--runs", "3", "--workers", "1",
                   f"--targets={targets}", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "outside the level table" in err
        assert not out.exists()

    def test_batch_explicit(self, tmp_path, capsys):
        rc = main(["batch", "--algo", "comma", "--fn", "onemax", "--n", "20,25",
                   "--s", "1", "--runs", "2", "--seed", "3", "--workers", "1",
                   "--out-dir", str(tmp_path), "--no-timestamp"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["cells"] == 2 and summary["runs"] == 4
        assert (tmp_path / "batch_runs.csv").exists()

    def test_static_lambda_above_the_default_guard_runs_on(self, tmp_path, capsys):
        # the default guard at n = 10 is about 6116: it never stops a static lambda
        rc = main(["batch", "--algo", "static", "--static-lambda", "10000", "--n", "10",
                   "--fn", "jump:4", "--runs", "2", "--seed", "1", "--workers", "1",
                   "--out-dir", str(tmp_path), "--no-timestamp"])
        assert rc == 0
        capsys.readouterr()
        header, *rows = (line.split(",") for line in read_data_lines(tmp_path / "batch_runs.csv"))
        col = header.index("stop_cause")
        assert [row[col] for row in rows] == ["optimum", "optimum"]

    def test_invalid_potential_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["drift-check", "--potential", "g9"])
        assert exc.value.code == 2


class TestSettingsRecord:
    """The CSV's config header records the settings that shape the rows:
    never where the file was written or how many workers ran the batch."""

    @pytest.mark.parametrize("argv, pooled", [
        (["batch", "--n", "20,25", "--s", "1", "--runs", "2", "--seed", "3"], True),
        (["sweep", "--n", "20", "--s", "1,20", "--runs", "4", "--seed", "3"], True),
        (["fixed-target", "--n", "25", "--s", "1", "--runs", "3", "--seed", "3",
          "--targets", "0,10,25"], True),
        (["drift-check", "--potential", "g1", "--n", "30", "--s", "0.5"], False),
        (["bounds-check", "--n", "30", "--lambdas", "1,2,5"], False),
    ], ids=["batch", "sweep", "fixed-target", "drift-check", "bounds-check"])
    def test_same_settings_write_the_same_bytes(self, argv, pooled, tmp_path, capsys):
        written = []
        for where, workers in ((tmp_path / "a", "1"), (tmp_path / "b" / "c", "2")):
            place = (["--out-dir", str(where)] if argv[0] == "batch"
                     else ["--out", str(where / "out.csv")])
            assert main(argv + place + ["--workers", workers] * pooled + ["--no-timestamp"]) == 0
            (path,) = where.iterdir()
            written.append(path.read_bytes())
        assert written[0] == written[1]


PRESET_CSV = {
    "fig2": "fig2_boxstats.csv",
    "fig3": "fig3_sweep.csv",
    "fig4": "fig4_fixed_target.csv",
    "fig5": "fig5_lambda_levels.csv",
    "fig6": "fig6_eval_histogram.csv",
    "ratchet": "ratchet_report.csv",
}


class TestPresets:
    @pytest.fixture
    def tiny_figures(self, monkeypatch):
        assert set(xp.FIGURES) == set(PRESET_CSV)
        for name, fig in list(xp.FIGURES.items()):
            tiny = replace(fig, n_values=(12,), s_values=(1.0,), runs=20,
                           eval_cap=fig.eval_cap and 5_000)
            monkeypatch.setitem(xp.FIGURES, name, tiny)

    @pytest.mark.parametrize("name", sorted(PRESET_CSV))
    def test_preset_writes_the_figure_rows(self, name, tiny_figures, tmp_path, capsys):
        rc = main(["figure", name, "--seed", "5", "--workers", "1",
                   "--out-dir", str(tmp_path), "--no-timestamp"])
        assert rc == 0
        captured = capsys.readouterr()
        out = tmp_path / PRESET_CSV[name]
        assert json.loads(captured.out) == {"preset": name, "output": str(out)}
        assert "  20/20 runs" in captured.err.splitlines()
        rows, meta = xp.run_figure(name, 5, workers=1)
        ref = tmp_path / "ref.csv"
        xp.write_csv(ref, list(rows[0].keys()), rows, meta=meta, timestamp=False)
        assert read_data_lines(out) == read_data_lines(ref)

    def test_unknown_preset_is_config_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["figure", "fig9", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert "fig9" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["figure", "fig3", "--n", "30"],
        ["figure", "fig3", "--runs", "50"],
        ["figure", "fig3", "--s", "20"],
        ["batch", "--full-scale"],
        ["batch", "--preset", "fig3"],
    ])
    def test_grid_flags_and_figure_flags_do_not_mix(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def write_config(tmp_path, data):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    return str(cfg)


class TestConfigFile:
    @pytest.mark.parametrize("argv, data, key", [
        (["run"], {"n": "x", "s": 1}, "n"),
        (["run"], {"n": 20, "s": 1, "seed": None}, "seed"),
        (["run"], {"n": 20, "s": 1, "stop_on_optimum": "false"}, "stop_on_optimum"),
        (["run"], {"trace": "bogus"}, "trace"),
        (["batch"], {"s": [1, "x"]}, "s"),
        (["batch"], {"preset": "fig3"}, "preset"),
        (["drift-check"], {"cap_gain": "false"}, "cap_gain"),
        (["drift-check"], {"no_timestamp": True}, "no_timestamp"),
        (["figure", "fig3"], {"full_scale": 1}, "full_scale"),
        (["figure", "fig3"], {"name": "fig4"}, "name"),
        (["run"], {"trace": "levels"}, "trace"),  # run traces summary or full
        (["batch"], {"trace": "summary"}, "trace"),  # batch takes no trace
    ])
    def test_bad_value_returns_2_and_names_the_key(self, argv, data, key, tmp_path, capsys):
        rc = main(argv + ["--config", write_config(tmp_path, data)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and repr(key) in err

    @pytest.mark.parametrize("argv, data, flags", [
        (["batch", "--runs", "2", "--workers", "1"], {"n": [20, 25], "s": [1, 2.5]},
         ["--n", "20,25", "--s", "1,2.5"]),
        (["batch", "--runs", "2", "--workers", "1"], {"n": "20,25", "eval_cap": None}, ["--n", "20,25"]),
        (["drift-check", "--n", "30", "--s", "0.5"], {"cap_gain": True}, ["--cap-gain"]),
        (["drift-check", "--n", "30", "--s", "0.5"], {"cap_gain": False}, []),
        (["bounds-check", "--n", "20"], {"lambdas": [1, 3]}, ["--lambdas", "1,3"]),
    ])
    def test_config_values_equal_their_flags(self, argv, data, flags, tmp_path, monkeypatch):
        out = tmp_path / "out"
        monkeypatch.setenv("ONELAMBDA_OUTDIR", str(out))
        assert main(argv + flags + ["--no-timestamp"]) == 0
        by_flags = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(argv + ["--config", write_config(tmp_path, data), "--no-timestamp"]) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == by_flags

    def test_flag_overrides_config_value(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        flags = ["--n", "30", "--s", "1", "--trace", "full", "--out", str(out), "--no-timestamp"]
        assert main(["run", "--seed", "6"] + flags) == 0
        by_flags = out.read_bytes()
        cfg = write_config(tmp_path, {"seed": 5, "trace": "summary"})
        assert main(["run", "--config", cfg, "--seed", "6"] + flags) == 0
        assert out.read_bytes() == by_flags
        assert main(["run", "--config", cfg] + flags) == 0
        assert out.read_bytes() != by_flags

    @pytest.mark.parametrize("argv, data", [
        (["sweep", "--n", "20", "--s", "1", "--runs", "2"], {"out": "sweep.csv", "workers": 1}),
        (["batch", "--n", "20", "--runs", "2"], {"out_dir": ".", "workers": 1}),
        (["bounds-check", "--n", "20"], {"out": "bounds.csv"}),
    ])
    def test_output_and_worker_keys_are_accepted(self, argv, data, tmp_path, capsys):
        # valid config keys, though the CSV's config header leaves them out
        data = {k: str(tmp_path / v) if k.startswith("out") else v for k, v in data.items()}
        assert main(argv + ["--config", write_config(tmp_path, data)]) == 0
        out = Path(json.loads(capsys.readouterr().out)["output"])
        assert out.parent == tmp_path
        config = json.loads(out.read_text().splitlines()[0].removeprefix("# config: "))
        assert not {"out", "out_dir", "workers"} & set(config)

    @pytest.mark.parametrize("text, message", [
        (None, "cannot read config file"),  # no such file
        ('{"n": 20,', "cannot read config file"),
        ('[20, 1]', "flat JSON object"),
    ])
    def test_unreadable_config_is_config_error(self, text, message, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        if text is not None:
            cfg.write_text(text)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "t.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and message in err, err
        assert not (tmp_path / "t.csv").exists()

    def test_stop_on_optimum_is_config_only(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"n": 20, "s": 1, "gen_cap_multiplier": 20,
                                      "stop_on_optimum": False})
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "t.csv")]) == 0
        # at the optimum every generation fails, so lambda grows until it aborts
        assert json.loads(capsys.readouterr().out)["stop_cause"] == "lambda_abort"
        with pytest.raises(SystemExit):
            main(["run", "--stop-on-optimum"])


def readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```")[1]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("onelambda ")]


class TestReadme:
    def test_every_cli_example_parses(self):
        commands = readme_commands()
        assert {argv[0] for argv in commands} == {"run", "batch", "figure", "sweep", "fixed-target",
                                                  "drift-check", "bounds-check", "bound"}
        parser = build_parser()
        for argv in commands:
            parser.parse_args(argv)


class TestParserBehaviour:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--frobnicate", "1"])
        assert exc.value.code == 2

    def test_env_var_output_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("ONELAMBDA_OUTDIR", str(tmp_path))
        rc = main(["run", "--algo", "static", "--n", "15", "--seed", "1"])
        assert rc == 0
        assert (tmp_path / "run_trace.csv").exists()


class TestWorkers:
    """--workers is bounded before any pool starts: the pool is replaced by
    one that records its worker count and raises, so no process starts."""

    @pytest.fixture
    def pool_counts(self, monkeypatch):
        counts = []

        def no_pool(workers):
            counts.append(workers)
            raise RuntimeError("no pool in this test")

        monkeypatch.setattr(xp, "_pool", no_pool)
        monkeypatch.setattr(xp.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        return counts

    BATCH = ["batch", "--n", "12", "--runs", "4"]

    @pytest.mark.parametrize("argv", [
        [*BATCH, "--workers=-1"],
        ["figure", "fig2", "--workers=-3"],
        ["sweep", "--n", "12", "--s", "1", "--runs", "4", "--workers=-1"],
    ])
    def test_negative_count_exits_2(self, argv, pool_counts, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out-dir" if argv[0] != "sweep" else "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "argument --workers: must be >= 0" in capsys.readouterr().err
        assert pool_counts == [] and not (tmp_path / "o").exists()

    def test_negative_count_in_config_is_config_error(self, pool_counts, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"workers": -1}))
        assert main([*self.BATCH, "--config", str(config), "--out-dir", str(tmp_path)]) == 2
        assert "config key 'workers'" in capsys.readouterr().err
        assert pool_counts == []

    def test_one_worker_writes_a_csv_of_many_blocks_without_a_pool(self, pool_counts,
                                                                     monkeypatch, tmp_path):
        monkeypatch.setattr(xp, "_BLOCK_ROWS", 2)  # the 4 runs' rows fill 2 blocks
        assert main([*self.BATCH, "--workers", "1", "--out-dir", str(tmp_path)]) == 0
        assert pool_counts == []
        assert len(read_csv_rows(tmp_path / "batch_runs.csv")) == 4

    @pytest.mark.parametrize("workers, expected", [("1000000", 3), ("0", 3), ("2", 2)])
    def test_count_is_clamped_to_the_cpus(self, workers, expected, pool_counts, tmp_path,
                                          capsys):
        assert main([*self.BATCH, "--workers", workers, "--out-dir", str(tmp_path)]) == 3
        assert "no pool in this test" in capsys.readouterr().err
        assert pool_counts == [expected]


def _refuse_constant(name):
    raise ValueError(f"non-finite JSON constant {name}")


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which strict JSON has not."""
    return json.loads(text, parse_constant=_refuse_constant)


# values for the options of ``run`` and ``batch``: the edges (0, -1,
# 1e-300, 1e308, inf, nan, ints past int64 and past LAMBDA_MAX) beside
# ordinary ones; n, runs and the evaluation cap stay tiny, so every
# configuration that runs ends within a few milliseconds
_FLOATS = ["0", "-1", "1e-300", "1e308", "inf", "-inf", "nan", "1", "1.5", "2.5", "100"]
_INTS = ["0", "-1", "1", "3", str(2**70), str(LAMBDA_MAX), str(LAMBDA_MAX + 1)]
_OPTIONS = {
    "--algo": ["comma", "plus", "static"],
    "--fn": ["onemax", "zeromax", "twomax", "ridge", "jump:2", "cliff:3", "jump:0", "jump:x", "nope"],
    "--F": _FLOATS,
    "--seed": _INTS,
    "--gen-cap-mult": _FLOATS,
    "--static-lambda": _INTS,
}
_RUN_OPTIONS = {**_OPTIONS, "--n": ["-1", "0", "1", "2", "12"], "--s": _FLOATS,
                "--lambda0": _FLOATS + [str(float(LAMBDA_MAX))], "--trace": ["summary", "full"],
                "--eval-cap": ["-1", "1", "10", "200"]}
_BATCH_OPTIONS = {**_OPTIONS, "--n": ["-1", "0", "1", "5", "5,12"],
                  "--s": _FLOATS + ["1,2", "0.5,nan"], "--runs": ["-1", "0", "1", "2"],
                  "--eval-cap": ["-1", "1", "10", "200"]}


@st.composite
def cli_argvs(draw, command, options, required):
    """``command`` with a subset of its options, each at a drawn value;
    the options in ``required`` are always set, so a run stays bounded."""
    argv = [command]
    for flag, values in options.items():
        if flag in required or draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(values))]
    return argv


class TestEveryArgv:
    """ROADMAP item 6 for the commands that reach the engines: any argv
    exits 0, 1 or 2 with strict JSON, and exit 2 writes no file.  The
    draws are derandomized, so every run of the suite tries the same
    argvs."""

    def check(self, argv, out_flag, out_name):
        with tempfile.TemporaryDirectory() as tmp:
            where = Path(tmp) / "out"
            argv = argv + [out_flag, str(where / out_name if out_name else where), "--no-timestamp"]
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse refuses a value
                    code = exc.code
            files = [p for p in Path(tmp).rglob("*") if p.is_file()]
            assert code in (0, 1, 2), (argv, code)
            if code == 2:
                assert files == [], (argv, files)
                return
            strict_json(stdout.getvalue())
            for path in files:
                for line in path.read_text().splitlines():
                    if line.startswith("# config: "):
                        strict_json(line[len("# config: "):])

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(cli_argvs("run", _RUN_OPTIONS, {"--n", "--eval-cap"}))
    # each wrote Infinity into the config line and exited 0
    @example(["run", "--n", "1", "--s", "inf", "--eval-cap", "1"])
    @example(["run", "--algo", "static", "--n", "1", "--lambda0", "inf", "--eval-cap", "1"])
    def test_run(self, argv):
        self.check(argv, "--out", "run.csv")

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(cli_argvs("batch", _BATCH_OPTIONS, {"--n", "--runs", "--eval-cap"}))
    @example(["batch", "--n", "5", "--runs", "1", "--s", "inf", "--eval-cap", "1"])
    def test_batch(self, argv):
        self.check(argv + ["--workers", "1"], "--out-dir", None)
