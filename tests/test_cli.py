"""CLI dispatch, config handling and output files."""

import json
import shlex
from dataclasses import replace
from pathlib import Path

import pytest

from onelambda import experiments as xp
from onelambda.cli import build_parser, main
from onelambda.oracle import elitist_evaluations_bound


def read_data_lines(path):
    return [l for l in path.read_text().splitlines() if not l.startswith("#")]


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

    @pytest.mark.parametrize("lambdas", ["0,1", "-2"])
    def test_bounds_check_rejects_lambda_below_one(self, lambdas, tmp_path, capsys):
        rc = main(["bounds-check", "--n", "10", f"--lambdas={lambdas}",
                   "--out", str(tmp_path / "b.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "lam" in err

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

    def test_fixed_target_checks_targets_before_any_run(self, tmp_path, capsys, monkeypatch):
        def no_batch(*args, **kwargs):
            raise AssertionError("run_batch called")

        monkeypatch.setattr(xp, "run_batch", no_batch)
        out = tmp_path / "ft.csv"
        rc = main(["fixed-target", "--n", "1000", "--targets", "5,9999", "--out", str(out)])
        assert rc == 2
        assert "target 9999 is outside the level table [0, 1001)" in capsys.readouterr().err
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

    def test_invalid_potential_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["drift-check", "--potential", "g9"])
        assert exc.value.code == 2


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
        (["batch"], {"trace": "bogus"}, "trace"),
        (["batch"], {"s": [1, "x"]}, "s"),
        (["batch"], {"preset": "fig3"}, "preset"),
        (["drift-check"], {"cap_gain": "false"}, "cap_gain"),
        (["drift-check"], {"no_timestamp": True}, "no_timestamp"),
        (["figure", "fig3"], {"full_scale": 1}, "full_scale"),
        (["figure", "fig3"], {"name": "fig4"}, "name"),
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
