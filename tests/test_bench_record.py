"""scripts/bench_record.py turns perfbench result files of a parent and a
change into one BENCH file."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "bench_record.py"


def result(workload, seed, commit, wall, digest="d0"):
    """A perfbench result file's fields that the script reads; the other
    three end-to-end metrics are fixed multiples of the wall times."""
    return {
        "workload": workload,
        "seed": seed,
        "trace": 0,
        "attempted": 10,
        "failed": 0,
        "e2e_all": {
            "wall_s": wall,
            "setup_s": [w / 10 for w in wall],
            "oracle_calls_per_s": [1000 / w for w in wall],
            "peak_rss_mb": [40.0] * len(wall),
        },
        "digests": {"records.csv": digest},
        "environment": {"commit": commit, "dirty": False, "nproc": 2},
    }


def write(folder: Path, name: str, doc: dict) -> str:
    folder.mkdir(exist_ok=True)
    path = folder / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(*argv):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *argv], capture_output=True, text=True, cwd=ROOT
    )


def test_medians_quartiles_and_digests(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    # two runs of one seed on the parent side are pooled
    write(parent, "a.json", result("verify-all", 0, "p" * 40, [2.0, 2.4]))
    write(parent, "b.json", result("verify-all", 0, "p" * 40, [2.2]))
    write(parent, "result-verify-all-seed1729.json", result("verify-all", 1729, "p" * 40, [2.6]))
    write(change, "result-verify-all-seed0.json", result("verify-all", 0, "c" * 40, [1.8, 1.9]))
    write(change, "result-verify-all-seed1729.json",
          result("verify-all", 1729, "c" * 40, [2.0], digest="other"))
    out = tmp_path / "BENCH.json"
    proc = run("--parent", str(parent / "a.json"), str(parent / "b.json"),
               str(parent / "result-verify-all-seed1729.json"),
               "--change", str(change), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "digests DIFFER" in proc.stdout
    doc = json.loads(out.read_text())
    assert doc["parent"]["commit"] == "p" * 40 and doc["change"]["commit"] == "c" * 40
    workload = doc["workloads"]["verify-all"]
    assert workload["seeds"] == [0, 1729]
    wall = workload["metrics"]["wall_s"]
    # the headline median is the median of the per-seed medians (2.2 and
    # 2.6; 1.85 and 2.0), the quartiles and count those of every execution
    assert wall["parent"] == pytest.approx({"median": 2.4, "q1": 2.15, "q3": 2.45, "n": 4})
    assert wall["change"] == pytest.approx({"median": 1.925, "q1": 1.85, "q3": 1.95, "n": 3})
    assert wall["change_over_parent"] == pytest.approx(1.925 / 2.4)
    assert wall["by_seed"]["0"] == pytest.approx(
        {"parent": 2.2, "change": 1.85, "change_over_parent": 1.85 / 2.2}
    )
    assert wall["by_seed"]["1729"] == pytest.approx(
        {"parent": 2.6, "change": 2.0, "change_over_parent": 2.0 / 2.6}
    )
    assert (wall["unit"], wall["better"], wall["bound"]) == ("s", "lower", 0.25)
    assert set(workload["metrics"]) == {"wall_s", "setup_s", "oracle_calls_per_s", "peak_rss_mb"}
    assert workload["executions"]["parent"]["0"]["wall_s"] == [2.0, 2.4, 2.2]
    assert workload["operations"]["change"] == {"attempted": 20, "failed": 0}
    assert workload["digests"]["0"]["equal"] is True
    assert workload["digests"]["1729"] == {
        "equal": False, "parent": {"records.csv": "d0"}, "change": {"records.csv": "other"}
    }


def test_unequal_executions_per_seed_do_not_tilt_the_headline(tmp_path):
    # each seed's medians are close across the sides, but the parent ran
    # seed 0 five times and the change ran seed 1729 five times: pooled
    # medians would read 81.39 against 76.80, a 0.94 ratio
    parent, change = tmp_path / "parent", tmp_path / "change"
    write(parent, "result-libsvm-large-seed0.json",
          result("libsvm-large", 0, "p" * 40, [81.39] * 5))
    write(parent, "result-libsvm-large-seed1729.json",
          result("libsvm-large", 1729, "p" * 40, [76.27]))
    write(change, "result-libsvm-large-seed0.json",
          result("libsvm-large", 0, "c" * 40, [80.96]))
    write(change, "result-libsvm-large-seed1729.json",
          result("libsvm-large", 1729, "c" * 40, [76.80] * 5))
    out = tmp_path / "BENCH.json"
    proc = run("--parent", str(parent), "--change", str(change), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    wall = json.loads(out.read_text())["workloads"]["libsvm-large"]["metrics"]["wall_s"]
    assert wall["parent"]["median"] == pytest.approx((81.39 + 76.27) / 2)
    assert wall["change"]["median"] == pytest.approx((80.96 + 76.80) / 2)
    assert wall["change_over_parent"] == pytest.approx((80.96 + 76.80) / (81.39 + 76.27))
    assert (wall["parent"]["n"], wall["change"]["n"]) == (6, 6)
    assert wall["by_seed"]["0"]["change_over_parent"] == pytest.approx(80.96 / 81.39)
    assert wall["by_seed"]["1729"]["change_over_parent"] == pytest.approx(76.80 / 76.27)


def test_one_side_of_two_commits_is_refused(tmp_path):
    parent = write(tmp_path, "p.json", result("mlp-train", 0, "p" * 40, [1.0]))
    mixed = [
        write(tmp_path, "c1.json", result("mlp-train", 0, "c" * 40, [1.0])),
        write(tmp_path, "c2.json", result("mlp-train", 0, "x" * 40, [1.0])),
    ]
    out = tmp_path / "BENCH.json"
    proc = run("--parent", parent, "--change", *mixed, "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "commit" in proc.stderr
    assert not out.exists()
