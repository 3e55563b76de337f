"""Self-tests of the benchmark: its checks fail when they should, and the
metric names it prints are the ones BENCHMARK.json declares.

Run from the root of the repository:

    python3 -m pytest perfbench/tests -q

Each test starts real benchmark runs (a few seconds to about 15 s each).
"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import spans  # noqa: E402
import speed  # noqa: E402


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )
    return proc


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_names_match_benchmark_json(trace, key):
    declared = load(os.path.join(ROOT, "BENCHMARK.json"))[key]
    proc = bench("--workload", "mlp-train", "--seed", "0", "--seconds", "1", "--trace", str(trace))
    line = result_line(proc)
    assert line["correct"] and line["failed"] == 0
    assert list(line["metrics"]) == [m["name"] for m in declared]
    assert {k: v["unit"] for k, v in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for metric in declared:
        assert f"  {metric['name']} " in proc.stdout
    assert "  fail_frac 0 ratio" in proc.stdout


def test_catalogue_matches_benchmark_json():
    declared = load(os.path.join(ROOT, "BENCHMARK.json"))
    catalogue = load(os.path.join(BENCH, "metrics.json"))
    for key in ("end_to_end", "per_layer"):
        assert [(m["name"], m["unit"], m["better"]) for m in declared[key]] == [
            (m["name"], m["unit"], m["better"]) for m in catalogue[key]
        ]
    assert [w["name"] for w in declared["workloads"]] == [
        w["name"] for w in catalogue["workloads"]
    ]


def test_corrupted_gradcheck_raises_fail_frac():
    line = result_line(
        bench("--workload", "verify-all", "--seconds", "1", "--fault", "corrupt-gradcheck")
    )
    assert not line["correct"]
    assert line["failed"] > 0


def test_altered_record_digit_raises_fail_frac():
    line = result_line(bench("--workload", "mlp-train", "--seconds", "1", "--fault", "alter-record"))
    assert not line["correct"]
    assert line["failed"] > 0


def test_without_program_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "mlp-train", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_self_time_excludes_wrapped_children(monkeypatch):
    # parent enter, start; child enter, start, end, exit; parent end
    clock = iter([0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 10.0])
    module = types.SimpleNamespace()
    module.child = lambda: None
    module.parent = lambda: module.child()
    tracer = spans.Tracer()
    tracer.wrap(module, "child", "child")
    tracer.wrap(module, "parent", "parent")
    monkeypatch.setattr(spans.time, "perf_counter", lambda: next(clock))
    module.parent()
    assert tracer.stats["parent"] == [1, 9.0, 5.0]
    assert tracer.stats["child"] == [1, 1.0, 1.0]
    (child_span,) = [s for s in tracer.spans if s[1] == "child"]
    (parent_span,) = [s for s in tracer.spans if s[1] == "parent"]
    assert child_span[4] == parent_span[0]
    assert tracer.missing == []


def test_reference_seconds_scales_by_sampled_speed():
    ref = speed.KERNEL_REFERENCE_S
    # Kernel at reference speed: wall time less the kernel's own time.
    assert speed.reference_seconds(0.0, 1.0, [(0.5, ref)]) == pytest.approx(1.0 - ref)
    # Twice as slow, and a descheduled sample left out of the mean.
    samples = [(0.2, 2 * ref), (0.4, 2 * ref), (0.6, 2 * ref), (0.8, 50 * ref)]
    expected = (2.0 - 56 * ref) / 2
    assert speed.reference_seconds(0.0, 2.0, samples) == pytest.approx(expected)
    # An interval without samples of its own uses the execution's mean.
    assert speed.reference_seconds(1.0, 1.2, samples) == pytest.approx(0.1)
    assert speed.reference_seconds(0.0, 3.0, []) == 3.0
