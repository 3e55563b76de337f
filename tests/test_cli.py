"""Command-line workflows and exit-code contract."""

import json
import os
import subprocess
import sys

import pytest

from adaspider.cli import gradient_check_report, main
from adaspider.harness import load_records


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

    def test_unwritable_output_exits_3(self, tmp_path, capsys):
        code, _out, err = run_main(
            capsys,
            "run",
            "--algo",
            "adaspider",
            "--steps",
            "5",
            "--repeats",
            "1",
            "--out",
            str(tmp_path / "no" / "such" / "dir" / "x.csv"),
        )
        assert code == 3
        assert err != ""


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
