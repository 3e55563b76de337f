"""Command-line workflows and exit-code contract."""

import contextlib
import copy
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adaspider import cli, harness
from adaspider.cli import gradient_check_report, main
from adaspider.harness import load_records
from adaspider.problems import MLPClassificationProblem, RegularizedERM
from adaspider.verify import LemmaReport

VERIFY_CHECK_NAMES = (
    "sweep_sqrt_lemma",
    "sweep_log_lemma",
    "sweep_variance_recursion",
    "check_cumulative_variance",
    "check_weighted_variance",
    "sweep_trajectory_bound",
    "check_rate_scaling",
)


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRun:
    def test_valid_config_writes_records(self, tmp_path, capsys):
        config = {
            "problem": {"n": 12, "d": 4},
            "algorithms": [{"name": "adaspider"}],
            "steps": 24,
            "repeats": 2,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out_path = tmp_path / "records.csv"
        code, out, err = run_main(
            capsys, "run", "--config", str(cfg_path), "--out", str(out_path)
        )
        assert code == 0
        assert out_path.exists()
        assert out == ""  # stdout carries only data; run writes a file
        records = load_records(str(out_path), "csv")
        assert len(records) == 2

    def test_missing_config_exits_2_and_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        code, _out, err = run_main(capsys, "run", "--config", str(missing))
        assert code == 2
        assert str(missing) in err

    def test_config_not_utf8_exits_2_and_names_path(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_bytes(b'{"steps": "\xff"}')
        code, out, err = run_main(capsys, "run", "--config", str(cfg_path))
        assert code == 2
        assert err.startswith(f"error: config file {cfg_path} is not valid JSON: ")
        assert out == ""

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("name", ["nope.svm", "."])
    def test_unreadable_data_file_exits_2_and_names_field(self, tmp_path, capsys, command, name):
        missing = tmp_path / name
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"problem": {"path": str(missing)}, "algorithms": [{"name": "sgd"}]})
        )
        argv = [command, "--config", str(cfg_path), "--steps", "5"]
        if command == "sweep":
            argv += ["--algo", "sgd", "--grid", "0.1"]
        code, out, err = run_main(capsys, *argv)
        assert code == 2
        assert "problem.path" in err and str(missing) in err
        assert out == ""

    def test_flag_overrides_on_bundled_default(self, tmp_path, capsys):
        out_path = tmp_path / "records.csv"
        code, _out, _err = run_main(
            capsys,
            "run",
            "--algo",
            "adaspider",
            "--steps",
            "100",
            "--repeats",
            "1",
            "--out",
            str(out_path),
        )
        assert code == 0
        records = load_records(str(out_path), "csv")
        assert len(records) == 1
        # bundled default problem has n=64; 100 steps charge 64 * 2 + 2 * 98
        # calls, which crosses the full-pass boundary five times
        rows = records[0].rows
        assert [r.epoch for r in rows] == [0, 1, 2, 3, 4, 5]
        assert rows[-1].oracle_calls <= 64 * 2 + 2 * 98

    def test_negative_seed_exits_2_and_names_field(self, tmp_path, capsys):
        out_path = tmp_path / "records.csv"
        code, _out, err = run_main(
            capsys, "run", "--seed", "-1", "--out", str(out_path)
        )
        assert code == 2
        assert "master_seed" in err
        assert not out_path.exists()

    def test_config_document_not_an_object_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("[]")
        code, out, err = run_main(capsys, "run", "--config", str(cfg_path))
        assert (code, out, err) == (2, "", "error: config document must be a JSON object\n")

    def test_non_integer_inner_batch_exits_2_and_names_field(self, tmp_path, capsys):
        config = {
            "problem": {"n": 12, "d": 4},
            "algorithms": [{"name": "adaspider", "inner_batch": 1.7}],
            "steps": 24,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code, _out, err = run_main(capsys, "run", "--config", str(cfg_path))
        assert code == 2
        assert "inner_batch" in err

    @pytest.mark.parametrize(
        "field,doc_update",
        [
            ("repeats", {"repeats": 2.7}),
            ("layer_dims", {"problem": {"loss": "mlp", "n": 8, "layer_dims": [4, 3.7, 2]}}),
            ("steps", {"steps": 5.5}),
            ("epochs", {"epochs": 1.5}),
            ("problem.n", {"problem": {"n": 50.5, "d": 2}}),
            ("problem.d", {"problem": {"n": 8, "d": 3.5}}),
            ("problem.data_seed", {"problem": {"n": 8, "d": 2, "data_seed": 1.5}}),
            # not an integer field: an entry the sweep does not run is still
            # checked, as `run` checks it
            ("unknown algorithm 'nope'", {"algorithms": [{"name": "nope", "wat": 1}]}),
        ],
    )
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_non_integer_field_exits_2_and_names_it(
        self, tmp_path, capsys, field, doc_update, command
    ):
        config = {"problem": {"n": 8, "d": 2}, "algorithms": [{"name": "sgd"}]}
        config.update(doc_update)
        if "epochs" not in config:
            config["steps"] = config.get("steps", 5)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out_path = tmp_path / "records.csv"
        argv = [command, "--config", str(cfg_path), "--out", str(out_path)]
        if command == "sweep":
            argv += ["--algo", "sgd", "--grid", "0.1"]
        code, out, err = run_main(capsys, *argv)
        assert code == 2
        assert field in err
        assert out == ""
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "field,problem",
        [
            ("problem.layer_dims", {"loss": "mlp", "n": 5, "layer_dims": [4, 0, 2]}),
            ("problem.layer_dims", {"loss": "mlp", "n": 5, "layer_dims": [4, -3, 2]}),
            ("problem.layer_dims", {"loss": "mlp", "n": 5, "layer_dims": []}),
            ("problem.data_seed", {"n": 8, "d": 2, "data_seed": -1}),
            ("problem.path", {"path": 5}),
            ("problem.n", {"n": 0, "d": 2}),
            ("problem.d", {"n": 8, "d": 0}),
            ("problem.n", {"loss": "mlp", "n": -1}),
            ("problem.lam", {"n": 8, "d": 2, "lam": "x"}),
            ("problem.lam", {"n": 8, "d": 2, "lam": math.inf}),
            ("problem.lam", {"n": 8, "d": 2, "lam": -1}),
            ("problem.c_init", {"loss": "mlp", "n": 5, "c_init": math.inf}),
            ("problem.c_init", {"loss": "mlp", "n": 5, "c_init": -1}),
            ("problem.scale", {"n": 8, "d": 2, "scale": "no"}),
            ("problem.synthetic", {"n": 8, "d": 2, "synthetic": "nope"}),
            ("problem.synthetic", {"n": 8, "d": 2, "synthetic": "quadratic"}),
            ("problem.synthetic", {"n": 8, "d": 2, "synthetic": "two-cluster-classification"}),
        ],
    )
    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_bad_value_exits_2_and_names_field(
        self, tmp_path, capsys, field, problem, command
    ):
        config = {"problem": problem, "algorithms": [{"name": "sgd"}], "epochs": 1}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out_path = tmp_path / "records.csv"
        argv = [command, "--config", str(cfg_path), "--out", str(out_path)]
        if command == "sweep":
            argv += ["--algo", "sgd", "--grid", "0.1"]
        code, out, err = run_main(capsys, *argv)
        assert code == 2
        assert field in err
        assert out == ""
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "field,doc_update",
        [
            ("problem", {"problem": [8, 2]}),
            ("params", {"algorithms": [{"name": "sgd", "params": [0.1]}]}),
            ("algorithms", {"algorithms": "sgd"}),
            ("algorithms entry", {"algorithms": ["sgd"]}),
            ("out", {"out": 5}),
        ],
    )
    def test_wrong_structure_exits_2_and_names_field(
        self, tmp_path, capsys, field, doc_update
    ):
        config = {"problem": {"n": 8, "d": 2}, "algorithms": [{"name": "sgd"}], "steps": 5}
        config.update(doc_update)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code, out, err = run_main(capsys, "run", "--config", str(cfg_path))
        assert code == 2
        assert field in err
        assert out == ""
        assert list(tmp_path.iterdir()) == [cfg_path]

    def test_parameter_the_algorithm_ignores_exits_2(self, tmp_path, capsys):
        config = {
            "problem": {"n": 8, "d": 2},
            "algorithms": [{"name": "sgd", "beta0": 5, "period": 3}],
            "steps": 5,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out_path = tmp_path / "records.csv"
        code, _out, err = run_main(
            capsys, "run", "--config", str(cfg_path), "--out", str(out_path)
        )
        assert code == 2
        assert "unknown parameter 'beta0' for sgd" in err
        assert not out_path.exists()

    def test_flags_reach_only_algorithms_that_read_them(self, tmp_path, capsys):
        config = {
            "problem": {"n": 8, "d": 2},
            "algorithms": [{"name": "adaspider"}, {"name": "sgd"}, {"name": "spider"}],
            "steps": 5,
            "repeats": 1,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        out_path = tmp_path / "records.csv"
        code, _out, _err = run_main(
            capsys, "run", "--config", str(cfg_path), "--out", str(out_path),
            "--eta", "0.05", "--beta0", "2", "--eps", "0.1", "--smoothness", "3",
        )
        assert code == 0
        assert len(load_records(str(out_path), "csv")) == 3

    @pytest.mark.parametrize("algorithms, argv, message", [
        ([], ["--algo", "adaspider", "--eta", "0.5"], "--eta is not a parameter of adaspider"),
        (["sgd", "svrg"], ["--beta0", "2"], "--beta0 is not a parameter of sgd, svrg"),
        (["adaspider"], ["--algo", "sgd", "--g0", "2"], "--g0 is not a parameter of sgd"),
    ])
    def test_flag_no_run_algorithm_reads_exits_2(self, tmp_path, capsys, algorithms, argv, message):
        cfg_path = tmp_path / "cfg.json"
        config = {"algorithms": [{"name": name} for name in algorithms], "steps": 5}
        cfg_path.write_text(json.dumps(config))
        out_path = tmp_path / "records.csv"
        argv = ["run", "--out", str(out_path), *argv]
        if algorithms:
            argv += ["--config", str(cfg_path)]
        code, out, err = run_main(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("argv", [["run", "--steps", "5"], ["sweep"]])
    def test_unknown_algorithm_is_named_before_its_flags(self, capsys, argv):
        code, out, err = run_main(capsys, *argv, "--algo", "nope", "--eta", "1")
        assert (code, out, err) == (2, "", "error: unknown algorithm 'nope'\n")

    def test_unknown_flag_is_an_error(self, capsys):
        code, _out, _err = run_main(capsys, "run", "--wat", "3")
        assert code == 2

    def test_determinism_byte_identical(self, tmp_path, capsys):
        paths = []
        for name in ("a.csv", "b.csv"):
            out_path = tmp_path / name
            code, _o, _e = run_main(
                capsys,
                "run",
                "--algo",
                "sgd",
                "--eta",
                "0.05",
                "--steps",
                "50",
                "--seed",
                "3",
                "--out",
                str(out_path),
            )
            assert code == 0
            paths.append(out_path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_output_dir_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("ADASPIDER_OUT_DIR", str(tmp_path))
        code, _o, _e = run_main(
            capsys, "run", "--algo", "adaspider", "--steps", "10", "--repeats", "1"
        )
        assert code == 0
        assert (tmp_path / "records.csv").exists()

    @pytest.mark.parametrize("where", ["flag", "config"])
    @pytest.mark.parametrize("target", ["missing-folder", "directory"])
    def test_unwritable_output_exits_2_before_any_run(
        self, tmp_path, capsys, monkeypatch, where, target
    ):
        out = tmp_path / "no" / "such" / "dir" / "x.csv" if target == "missing-folder" else tmp_path
        monkeypatch.setattr(cli, "run_experiment", lambda config: pytest.fail("a run started"))
        cfg_path = tmp_path / "cfg.json"
        config = {"algorithms": [{"name": "adaspider"}], "steps": 5}
        if where == "config":
            config["out"] = str(out)
        cfg_path.write_text(json.dumps(config))
        argv = ["run", "--config", str(cfg_path)]
        if where == "flag":
            argv += ["--out", str(out)]
        code, _out, err = run_main(capsys, *argv)
        assert code == 2
        assert err.startswith(f"error: out {str(out)!r} is ")


    @pytest.mark.parametrize(
        "line, loss, code, message",
        [
            # the squared margin overflows: a runtime fault, found mid-run;
            # the overflow's own warning is the fault under test
            pytest.param(
                "1e200 1:1e200", "squared", 3, "non-finite gradient from component 1",
                marks=pytest.mark.filterwarnings(
                    "ignore:overflow encountered in multiply:RuntimeWarning"
                ),
            ),
            ("2 1:1", "logistic", 2, "label 2.0 not usable for logistic loss"),
            # a network label is a class, so a fractional one is refused
            ("1.7 20:1", "mlp", 2, "labels must be integers in 0..3"),
            ("-0.5 20:1", "mlp", 2, "labels must be integers in 0..3"),
        ],
    )
    def test_bad_data_exit_code_and_message(
        self, tmp_path, capsys, line, loss, code, message
    ):
        data_path = tmp_path / "data.svm"
        data_path.write_text(line + "\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "problem": {"path": str(data_path), "loss": loss},
                    "algorithms": [{"name": "adaspider"}],
                    "epochs": 1,
                }
            )
        )
        got, _out, err = run_main(
            capsys, "run", "--config", str(cfg_path), "--out", str(tmp_path / "r.csv")
        )
        assert got == code
        assert f"error: {message}" in err

    # Python's number syntax parses, but a non-finite feature value, or a
    # label squared loss reads, is refused when the problem is built
    @pytest.mark.parametrize("algo", ["sgd", "adaspider", "spiderboost"])
    @pytest.mark.parametrize(
        "text, loss, message",
        [
            ("1 1:inf 2:1", "squared", "row 1: feature values must be finite"),
            ("1 1:nan 2:1", "squared", "row 1: feature values must be finite"),
            ("1 1:1\n-1 1:1 2:-inf", "logistic", "row 2: feature values must be finite"),
            ("1 20:1\n2 3:nan", "mlp", "row 2: feature values must be finite"),
            ("1e400 1:1 2:1", "squared", "row 1: label must be finite"),
            ("1 1:1\nnan 2:1", "squared", "row 2: label must be finite"),
        ],
    )
    def test_non_finite_data_exits_2_before_any_run(
        self, tmp_path, capsys, monkeypatch, algo, text, loss, message
    ):
        monkeypatch.setattr(harness, "run_algorithm", lambda *args, **kw: pytest.fail("a run"))
        data_path = tmp_path / "data.svm"
        data_path.write_text(text + "\n")
        cfg_path = tmp_path / "cfg.json"
        config = {"problem": {"path": str(data_path), "loss": loss},
                  "algorithms": [{"name": algo}], "epochs": 2}
        cfg_path.write_text(json.dumps(config))
        out_path = tmp_path / "r.csv"
        code, out, err = run_main(capsys, "run", "--config", str(cfg_path), "--out", str(out_path))
        assert (code, out, err) == (2, "", f"error: {message}\n")
        assert not out_path.exists()


class TestFaultAfterFirstRun:
    """Once the first run has started, every error exits 3, a plain
    ValueError included; exit 2 is for errors raised before that."""

    # one sgd run alone calls component_gradient, a lockstep group of two
    # calls the unchecked batched oracle _gradients once per step for both
    # members
    @pytest.mark.parametrize(
        "repeats, oracle", [("1", "component_gradient"), ("2", "_gradients")]
    )
    def test_value_error_mid_run_exits_3(self, tmp_path, capsys, monkeypatch, repeats, oracle):
        exact = getattr(RegularizedERM, oracle)
        calls = []

        def faulty(self, *args):
            calls.append(args)
            if len(calls) == 21:
                raise ValueError("boom")
            return exact(self, *args)

        monkeypatch.setattr(RegularizedERM, oracle, faulty)
        out_path = tmp_path / "records.csv"
        code, out, err = run_main(
            capsys, "run", "--algo", "sgd", "--steps", "50", "--repeats", repeats,
            "--out", str(out_path),
        )
        assert (code, out, err) == (3, "", "error: boom\n")
        assert len(calls) == 21
        assert not out_path.exists()

    def test_value_error_in_a_verify_check_exits_3(self, capsys, monkeypatch):
        def faulty(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(cli, "check_rate_scaling", faulty)
        assert run_main(capsys, "verify", "--suite", "rate") == (3, "", "error: boom\n")


class TestSweep:
    def test_sweep_reports_best(self, tmp_path, capsys):
        config = {
            "problem": {"n": 10, "d": 3, "loss": "squared", "lam": 0.0},
            "algorithms": [{"name": "sgd"}],
            "steps": 200,
            "repeats": 2,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code, out, _err = run_main(
            capsys,
            "sweep",
            "--config",
            str(cfg_path),
            "--algo",
            "sgd",
            "--grid",
            "100.0,0.01",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["best"] == 0.01

    def test_flags_set_the_swept_algorithm_without_a_config_entry(self, tmp_path, capsys):
        # the bundled config has only an adaspider entry
        argv = ["sweep", "--algo", "spider", "--grid", "0.01,0.1", "--steps", "30",
                "--repeats", "1"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"algorithms": [{"name": "spider", "smoothness": 3}]}))
        outputs = [
            run_main(capsys, *argv),
            run_main(capsys, *argv, "--smoothness", "3"),
            run_main(capsys, *argv, "--config", str(cfg_path)),
        ]
        assert [code for code, _, _ in outputs] == [0, 0, 0]
        plain, flagged, configured = (out for _, out, _ in outputs)
        assert flagged == configured != plain

    @pytest.mark.parametrize("flag", ["--smoothness", "--beta0"])
    def test_flag_the_swept_algorithm_does_not_read_exits_2(self, tmp_path, capsys, flag):
        # the configured spider and adaspider entries read it, but are not run
        cfg_path = tmp_path / "cfg.json"
        config = {"algorithms": [{"name": "spider"}, {"name": "adaspider"}], "steps": 5}
        cfg_path.write_text(json.dumps(config))
        code, out, err = run_main(
            capsys, "sweep", "--algo", "sgd", "--grid", "0.1", "--config", str(cfg_path),
            flag, "3",
        )
        assert (code, out, err) == (2, "", f"error: {flag} is not a parameter of sgd\n")

    @pytest.mark.parametrize("algo,flag,swept", [
        ("sgd", "--eta", "eta"),
        ("svrg", "--eta", "eta"),
        ("adagrad_norm", "--eta", "eta"),
        ("spiderboost", "--eta", "eta"),
        ("spider", "--eps", "eps"),
        # the swept eta is the step that 1/smoothness would be
        ("spiderboost", "--smoothness", "eta"),
    ])
    def test_flag_the_sweep_sets_on_every_run_exits_2(self, capsys, algo, flag, swept):
        code, out, err = run_main(
            capsys, "sweep", "--algo", algo, "--grid", "0.01,0.1", "--steps", "20",
            "--repeats", "1", flag, "5",
        )
        message = f"{flag} is not read by a sweep of {algo}, which sets {swept} on every run"
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_configured_key_the_sweep_sets_on_every_run_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"algorithms": [{"name": "sgd", "eta": 5}]}))
        code, out, err = run_main(
            capsys, "sweep", "--algo", "sgd", "--grid", "0.01,0.1", "--steps", "20",
            "--repeats", "1", "--config", str(cfg_path),
        )
        message = "sgd: parameter 'eta' is not read by a sweep of sgd, which sets eta on every run"
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_empty_grid_exits_2(self, capsys):
        code, out, err = run_main(capsys, "sweep", "--algo", "sgd", "--grid", "")
        assert code == 2
        assert err == "error: sweep grid is empty\n"
        assert out == ""

    @pytest.mark.parametrize("target", ["missing-folder", "directory"])
    def test_unwritable_output_exits_2_before_any_run(self, tmp_path, capsys, monkeypatch, target):
        out = tmp_path / "no" / "x.csv" if target == "missing-folder" else tmp_path
        monkeypatch.setattr(cli, "sweep_step_size", lambda *args: pytest.fail("a run started"))
        code, stdout, err = run_main(
            capsys, "sweep", "--algo", "sgd", "--grid", "0.1", "--out", str(out)
        )
        assert code == 2
        assert err.startswith(f"error: out {str(out)!r} is ")
        assert stdout == ""  # no summary

    def test_config_out_writes_what_the_flag_writes(self, tmp_path, capsys):
        argv = ["sweep", "--algo", "sgd", "--grid", "0.01,0.1", "--steps", "20",
                "--repeats", "2"]
        by_flag, by_config = tmp_path / "flag.csv", tmp_path / "config.csv"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"out": str(by_config)}))
        flagged = run_main(capsys, *argv, "--out", str(by_flag))
        configured = run_main(capsys, *argv, "--config", str(cfg_path))
        assert flagged[0] == configured[0] == 0
        assert flagged[1] == configured[1]  # the same summary
        assert by_config.read_bytes() == by_flag.read_bytes()

    def test_non_string_config_out_exits_2_before_any_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "sweep_step_size", lambda *args: pytest.fail("a run started"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"steps": 5, "out": 5}))
        code, out, err = run_main(
            capsys, "sweep", "--algo", "sgd", "--grid", "0.1", "--config", str(cfg_path)
        )
        assert (code, out, err) == (2, "", "error: out must be a string, got 5\n")


class TestVerify:
    def test_sqrt_suite_passes(self, capsys):
        code, out, _err = run_main(capsys, "verify", "--suite", "sqrt", "--seed", "7")
        assert code == 0
        report = json.loads(out.strip())
        assert report["lemma"] == "sqrt_sum"
        assert report["pass"] is True
        assert report["trials"] == 1000

    def test_log_suite_passes(self, capsys):
        code, out, _err = run_main(capsys, "verify", "--suite", "log")
        assert code == 0
        assert json.loads(out.strip())["pass"] is True

    def test_mutated_bound_exits_1(self, capsys):
        code, out, _err = run_main(
            capsys, "verify", "--suite", "sqrt", "--rhs-factor", "-1.0"
        )
        assert code == 1
        assert json.loads(out.strip())["pass"] is False

    @pytest.mark.parametrize("suite", ["sqrt", "log", "variance", "trajectory"])
    def test_nan_rhs_factor_fails_every_check(self, capsys, suite):
        code, out, _err = run_main(capsys, "verify", "--suite", suite, "--rhs-factor", "nan")
        assert code == 1
        assert all(json.loads(line)["pass"] is False for line in out.strip().splitlines())

    def test_trajectory_suite_passes(self, capsys):
        code, out, _err = run_main(capsys, "verify", "--suite", "trajectory")
        assert code == 0
        report = json.loads(out.strip())
        assert report["trials"] == 50

    def test_unknown_suite_exits_2(self, capsys):
        code, _out, _err = run_main(capsys, "verify", "--suite", "bogus")
        assert code == 2

    def test_reports_are_line_json_on_stdout(self, capsys):
        code, out, err = run_main(capsys, "verify", "--suite", "sqrt")
        assert code == 0
        for line in out.strip().splitlines():
            json.loads(line)


    # SHA-256 of ``adaspider verify --suite all`` standard output, computed
    # with one fresh run per budget and seed and one true-gradient call per
    # iterate in the rate check, and one run per seed and one full-gradient
    # call per iterate in the variance checks; the seeds' runs now step as
    # one lockstep block in each check. Remade when ``sigmoid`` moved to
    # numpy's exp. The test ids are the seeds alone, so a remade digest
    # keeps the test's name.
    @pytest.mark.parametrize(
        "seed, digest",
        [
            ("0", "99c5bbedc681974f960e645d8dfc98cefb50b4f44d9f689964422a1a538f1072"),
            ("1729", "fbc38f2682bef32cc906868242e00d762c5e47b2471beeec0b3dc527bffc3ed7"),
        ],
        ids=["0", "1729"],
    )
    def test_full_suite_golden_digest(self, capsys, seed, digest):
        code, out, _err = run_main(capsys, "verify", "--suite", "all", "--seed", seed)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_checks_called_through_cli_namespace(self, capsys, monkeypatch):
        # an outside profiler times each check, and marks the end of
        # set-up, by replacing these names on the cli module
        calls = {name: 0 for name in (*VERIFY_CHECK_NAMES, "gradient_check_report")}

        def stub(name):
            def fake(*args, **kwargs):
                calls[name] += 1
                if name == "gradient_check_report":
                    return {"pass": True}
                return LemmaReport(name, 1, 0, 0.0, True)

            return fake

        for name in calls:
            monkeypatch.setattr(cli, name, stub(name))
        assert run_main(capsys, "verify", "--suite", "all")[0] == 0
        assert run_main(capsys, "gradcheck", "--points", "1")[0] == 0
        assert calls == dict.fromkeys(calls, 1)


class TestGradcheck:
    def test_default_invocation_passes(self, capsys):
        code, out, _err = run_main(capsys, "gradcheck")
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True
        assert report["max_rel_error"] <= 1e-5
        assert set(report["families"]) == {"regularizer", "logistic", "squared", "mlp"}

    def test_single_point_deterministic(self, capsys):
        code1, out1, _ = run_main(capsys, "gradcheck", "--points", "1", "--seed", "3")
        code2, out2, _ = run_main(capsys, "gradcheck", "--points", "1", "--seed", "3")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_corrupted_gradient_exits_1(self, capsys):
        code, out, _err = run_main(capsys, "gradcheck", "--corrupt", "--points", "3")
        assert code == 1
        assert json.loads(out)["pass"] is False

    def test_report_function_directly(self):
        report = gradient_check_report(points=5, seed=1)
        assert report["pass"]

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_no_points_exits_2(self, capsys, points):
        # with no point checked there is nothing to pass
        code, out, err = run_main(capsys, "gradcheck", "--points", points)
        assert code == 2
        assert out == ""
        assert err == f"error: gradient check needs at least one point, got {points}\n"

    # SHA-256 of ``adaspider gradcheck`` standard output by (seed, points),
    # computed with the network family checked through the per-sample
    # loss and gradient.
    GOLDEN = {
        ("0", "20"): "439159c5ff666e1c3a075ed8088b62f4ad93cf9b604b01873b18b91607976d32",
        ("1729", "20"): "2c5ad603ac3b315d22b6037880b517cfaf5f51feb2c3a3f078dd8521a4f56258",
        ("0", "5"): "423e8b3be446757b1a90f98ebcd0bc229d524abc9cf9e94849bc5ee42a824b9d",
        ("1729", "5"): "6650549aa9c077705200b11e9d9f35d5aef29df339584253cfa99cc3ba365b50",
    }

    @pytest.mark.parametrize("seed, points", sorted(GOLDEN))
    def test_golden_digest(self, capsys, seed, points):
        code, out, _ = run_main(capsys, "gradcheck", "--points", points, "--seed", seed)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN[seed, points]

    def test_checks_the_network_problem_oracle(self, monkeypatch):
        # gradcheck must test the component_gradient that runs call
        exact = MLPClassificationProblem.component_gradient
        monkeypatch.setattr(
            MLPClassificationProblem,
            "component_gradient",
            lambda self, i, x: exact(self, i, x) + 1e-3,
        )
        report = gradient_check_report(points=3, seed=0)
        assert report["families"]["mlp"] > report["tolerance"]
        assert report["pass"] is False
        others = {k: v for k, v in report["families"].items() if k != "mlp"}
        assert max(others.values()) <= report["tolerance"]


@pytest.mark.parametrize("command", ["verify", "gradcheck"])
def test_negative_seed_exits_2_and_names_flag(capsys, command):
    code, out, err = run_main(capsys, command, "--seed", "-1")
    assert code == 2
    assert err == "error: --seed must be non-negative, got -1\n"
    assert out == ""


class TestConsoleScript:
    def test_cli_as_subprocess(self, tmp_path):
        env = dict(os.environ, ADASPIDER_OUT_DIR=str(tmp_path))
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "from adaspider.cli import entrypoint; entrypoint()",
                "--",
            ],
            input="",
            capture_output=True,
            env=env,
            text=True,
        )
        # no subcommand is a usage error
        assert proc.returncode == 2
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "from adaspider.cli import main; raise SystemExit("
                "main(['gradcheck', '--points', '2']))",
            ],
            capture_output=True,
            env=env,
            text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["pass"] is True

    def test_python_dash_m(self, tmp_path):
        env = dict(os.environ, ADASPIDER_OUT_DIR=str(tmp_path))
        proc = subprocess.run(
            [sys.executable, "-m", "adaspider"], capture_output=True, env=env, text=True
        )
        assert proc.returncode == 2  # no subcommand is a usage error
        proc = subprocess.run(
            [sys.executable, "-m", "adaspider", "run", "--steps", "20"]
            + ["--repeats", "1"],
            capture_output=True,
            env=env,
            text=True,
        )
        assert proc.returncode == 0
        assert (tmp_path / "records.csv").exists()


# JSON values that replace fields of a small `run` or `sweep` document. No
# value is a huge integer: nothing bounds `steps`, `repeats` or the problem
# sizes from above, so huge sizes run (or allocate) without end and are out
# of this test's scope. No value here exceeds 3.
FIELD_VALUES = [
    -1, 0, 1, 2, 3, 0.5, 2.5, 1e-3, math.inf, math.nan, None, True, False,
    "", "x", "sgd", "mlp", "json", [], [2, 2], {}, {"eta": 0.1},
]
# Where a value may go: every field with a rule, the algorithms list, an
# unknown field, and the algorithm entry's name, a parameter and its params
# object.
FIELD_PATHS = [tuple(name.split(".")) for name in harness.CONFIG_FIELDS] + [
    ("algorithms",), ("extra",), ("algorithms", 0, "name"), ("algorithms", 0, "eta"),
    ("algorithms", 0, "params"), ("problem", "lambda"),
]


def _with_values(doc: dict, replacements) -> tuple[dict, list]:
    """``doc`` with each (path, value) set in turn, and the replacements
    applied; a path that an earlier value took away is left out."""
    doc = copy.deepcopy(doc)
    applied = []
    for (*where, key), value in replacements:
        container = doc
        try:
            for step in where:
                container = container[step]
        except (KeyError, IndexError, TypeError):
            continue
        if isinstance(container, dict):
            container[key] = copy.deepcopy(value)
            applied.append((key, value))
    return doc, applied


def _names_a_replacement(message: str, applied) -> bool:
    """Whether ``message`` names the key of one applied replacement, as a
    whole word; a replaced algorithm name may be named by its value, and a
    replaced object by one of its keys."""
    return any(
        re.search(rf"\b{key}\b", message)
        or (key == "name" and str(value) in message)
        or (isinstance(value, dict) and any(re.search(rf"\b{k}\b", message) for k in value))
        for key, value in applied
    )


class TestGeneratedDocuments:
    @settings(max_examples=300, deadline=None)
    @given(
        command=st.sampled_from(["run", "sweep"]),
        replacements=st.lists(
            st.tuples(st.sampled_from(FIELD_PATHS), st.sampled_from(FIELD_VALUES)),
            min_size=1, max_size=2,
        ),
    )
    @example("run", [(("out",), "")])
    @example("run", [(("problem", "path"), "")])
    # the entry's eta set again in its params object
    @example("run", [(("algorithms", 0, "params"), {"eta": 0.1})])
    @example("run", [(("problem", "synthetic"), "mlp"), (("problem", "loss"), "mlp")])
    @example("sweep", [(("problem", "synthetic"), "x")])
    @example("run", [(("algorithms",), [])])
    def test_exits_0_or_2_with_one_error_line(self, command, replacements):
        # a sweep of sgd sets eta on every run, so its entry sets none
        entry = {"name": "sgd", "eta": 0.1} if command == "run" else {"name": "sgd"}
        base = {"problem": {"n": 5, "d": 3}, "algorithms": [entry], "steps": 3, "repeats": 2}
        doc, applied = _with_values(base, replacements)
        with tempfile.TemporaryDirectory() as folder, contextlib.chdir(folder):
            with open("cfg.json", "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            argv = [command, "--config", "cfg.json"]
            if command == "sweep":
                argv += ["--algo", "sgd", "--grid", "0.1"]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 2), (doc, err.getvalue())
        if code == 2:
            assert out.getvalue() == ""
            assert len(err.getvalue().splitlines()) == 1
            assert err.getvalue().startswith("error: ")
            assert _names_a_replacement(err.getvalue(), applied), (doc, err.getvalue())

    # The flags of `run` and `sweep` and the names an error about each may
    # use: the flag, or the field it sets (`master_seed`, the algorithm, the
    # swept `eta` of sgd).
    FLAG_NAMES = {
        "--steps": ("steps",),
        "--repeats": ("repeats",),
        "--seed": ("seed", "master_seed"),
        "--grid": ("grid", "eta"),
        "--algo": ("algo", "algorithm"),
        "--out": ("out",),
        "--format": ("format",),
    }
    # Values that replace one flag's value. No value is an integer above 2,
    # so every run stays small; huge step counts are out of scope, as above.
    FLAG_VALUES = [
        "0", "-1", "1", "2", "", ",", "nan", "inf", "-inf", "0.5", "x", "sgd", "json",
        "1,2", "records.json",
    ]

    @settings(max_examples=250, deadline=None)
    @given(
        command=st.sampled_from(["run", "sweep"]),
        flag=st.sampled_from(sorted(FLAG_NAMES)),
        value=st.sampled_from(FLAG_VALUES),
    )
    @example("run", "--seed", "-1")
    @example("sweep", "--grid", "nan")
    @example("sweep", "--algo", "")
    @example("run", "--out", "")
    def test_one_flag_value_exits_0_or_2_naming_the_flag(self, command, flag, value):
        flags = {"--steps": "3", "--repeats": "2", "--seed": "0", "--algo": "sgd",
                 "--out": "records.csv", "--format": "csv"}
        if command == "sweep":
            flags["--grid"] = "0.1"
        elif flag == "--grid":
            return  # `run` has no --grid
        flags[flag] = value
        # a sweep of sgd sets eta on every run, so its entry sets none
        entry = {"name": "sgd", "eta": 0.1} if command == "run" else {"name": "sgd"}
        doc = {"problem": {"n": 5, "d": 3}, "algorithms": [entry]}
        with tempfile.TemporaryDirectory() as folder, contextlib.chdir(folder):
            with open("cfg.json", "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            argv = [command, "--config", "cfg.json", *(s for item in flags.items() for s in item)]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        assert code in (0, 2), (argv, err.getvalue())
        if code == 2:
            assert out.getvalue() == ""
            # a usage error prints the usage first; every other error is one line
            last = err.getvalue().splitlines()[-1]
            assert last.startswith(("error: ", f"adaspider {command}: error: argument {flag}:"))
            if last.startswith("error: "):
                assert len(err.getvalue().splitlines()) == 1
            assert any(re.search(rf"\b{name}\b", last) for name in self.FLAG_NAMES[flag]), last
