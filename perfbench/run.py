#!/usr/bin/env python3
"""Benchmark of the adaspider package: end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload erm-protocol --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

One benchmark run repeats whole executions of one workload, each in a
fresh process (``perfbench/workload.py``), until the next one would end
after ``--seconds``, and reports medians over the executions. With
``--trace 0`` every execution is untraced and the end-to-end metrics are
reported; with ``--trace 1`` traced and untraced executions alternate,
the per-layer metrics come from the traced ones, and ``trace.
overhead_s`` is the difference of the two wall-time medians.

The end-to-end times are reference seconds: wall time scaled by the
machine speed that each execution samples as it runs (``speed.py``), so
that neighbours on a shared host do not move them. The raw wall times
are kept in the results file.

The program is loaded from ``src/`` of the checkout and nothing is
built. Outputs (records, spans, one results file per run with the
environment and the record digests) go to ``perfbench/out/``. The last
line on standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. Without ``src/adaspider`` the
run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import speed

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("erm-protocol", "mlp-train", "libsvm-large", "verify-all")

# Per-layer metrics that count work: equal in every execution of a seed.
EXACT = (
    "harness.runs",
    "harness.diverged_runs",
    "harness.emit_bytes",
    "optimizers.steps",
    "core.charged_calls",
    "core.full_gradient_calls",
    "problems.component_gradient_calls.charged",
    "problems.component_gradient_calls.uncharged",
    "verify.trials",
    "verify.violations",
)

# One execution may not run longer than this; the run must end within
# 180 s.
EXECUTION_TIMEOUT_S = 150


class BenchmarkError(Exception):
    """The benchmark cannot run here (no program, or a broken checkout)."""


def load_catalogue() -> dict:
    with open(os.path.join(BENCH, "metrics.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    # One BLAS thread: the workloads are small and the machine has two
    # cores, so extra threads add noise, not speed.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


PROBE = """
import json, platform, adaspider.cli, numpy, scipy
print(json.dumps({"adaspider": adaspider.__file__, "python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__}))
"""


def probe_program() -> dict:
    """Import the package once: checks it loads from src/ and warms caches."""
    if not os.path.isfile(os.path.join(SRC, "adaspider", "__init__.py")):
        raise BenchmarkError(f"no program: {SRC}/adaspider is missing")
    proc = subprocess.run(
        [sys.executable, "-c", PROBE],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=EXECUTION_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchmarkError(f"cannot import adaspider from {SRC}:\n{proc.stderr}")
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    if not os.path.abspath(info["adaspider"]).startswith(SRC + os.sep):
        raise BenchmarkError(f"adaspider loads from {info['adaspider']}, not {SRC}")
    return info


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_state() -> dict:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"commit": None, "dirty": None}
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return {"commit": None, "dirty": None}
    return {"commit": commit or None, "dirty": bool(status.strip())}


def environment(program: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": program["python"],
        "numpy": program["numpy"],
        "scipy": program["scipy"],
        "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
        **git_state(),
    }


def execute(workload: str, seed: int, traced: bool, fault: str | None) -> dict:
    """One execution in a fresh process; returns its result with the
    parent's spawn time folded into wall and set-up seconds."""
    work = os.path.join(OUT, f"work-{workload}")
    os.makedirs(work, exist_ok=True)
    result_path = os.path.join(OUT, f"execution-{workload}.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [
        sys.executable,
        os.path.join(BENCH, "workload.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--trace", str(int(traced)),
        "--result", result_path,
    ]
    if traced:
        cmd += ["--spans", os.path.join(OUT, f"spans-{workload}.json")]
    if fault:
        cmd += ["--fault", fault]
    spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=work, env=child_env(), capture_output=True, text=True,
            timeout=EXECUTION_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"traced": traced, "crashed": f"timed out after {EXECUTION_TIMEOUT_S} s"}
    elapsed = time.monotonic() - spawn
    if proc.returncode != 0 or not os.path.exists(result_path):
        return {"traced": traced, "crashed": proc.stderr[-2000:], "elapsed_s": elapsed}
    with open(result_path, "r", encoding="utf-8") as fh:
        result = json.load(fh)
    result["traced"] = traced
    result["elapsed_s"] = elapsed
    end = result["end"]
    if end is not None:
        # No work marker fired (its hook target is gone): all of it is set-up.
        setup_end = result["setup_end"] if result["setup_end"] is not None else end
        samples = result["speed_samples"]
        result["raw_wall_s"] = end - spawn
        result["raw_setup_s"] = setup_end - spawn
        result["wall_s"] = speed.reference_seconds(spawn, end, samples)
        result["setup_s"] = speed.reference_seconds(spawn, setup_end, samples)
        # Above 1: the machine ran slower than the reference speed.
        result["slowdown"] = result["raw_wall_s"] / result["wall_s"]
        work_s = speed.reference_seconds(setup_end, end, samples)
        result["oracle_calls_per_s"] = result["charged_calls"] / work_s if work_s > 0 else 0.0
        result["peak_rss_mb"] = result["peak_rss_kb"] / 1024.0
    return result


def run_workload(workload: str, seed: int, seconds: int, trace: bool, fault: str | None):
    """Execute until the next execution would end after ``seconds``.

    A traced run alternates traced and untraced executions, starting
    traced, and always holds at least one of each.
    """
    start = time.monotonic()
    executions = []
    longest = 0.0
    while True:
        traced = trace and len(executions) % 2 == 0
        executions.append(execute(workload, seed, traced, fault))
        longest = max(longest, executions[-1].get("elapsed_s", 0.0))
        kinds = {e["traced"] for e in executions}
        if trace and kinds != {True, False}:
            continue
        if time.monotonic() + longest > start + seconds:
            return executions


def median(values):
    return statistics.median(values) if values else 0.0


def summarize(workload: str, seed: int, trace: bool, executions, catalogue) -> dict:
    ops = []  # [name, ok, detail]
    timed = []
    for e in executions:
        if "crashed" in e:
            ops.append(["execution", False, e["crashed"]])
            continue
        ops.extend(e["ops"])
        if "wall_s" in e:
            timed.append(e)
    untraced = [e for e in timed if not e["traced"]]
    traced = [e for e in timed if e["traced"]]
    if not untraced or (trace and not traced):
        raise BenchmarkError(f"{workload}: no execution finished; see {OUT}")

    # Everything that counts work must repeat exactly between executions.
    def distinct(key):
        return {json.dumps(key(e), sort_keys=True) for e in timed}

    repeat_detail = []
    for label, key in (
        ("record digests", lambda e: e["digests"]),
        ("charged calls", lambda e: e["charged_calls"]),
        ("facts", lambda e: e["facts"]),
    ):
        if len(distinct(key)) > 1:
            repeat_detail.append(label)
    for name in EXACT:
        if len({e["layers"][name] for e in traced}) > 1:
            repeat_detail.append(name)
    ops.append(["repeatability", not repeat_detail, ", ".join(repeat_detail)])

    if trace:
        layers = {
            name: traced[0]["layers"][name]
            if name in EXACT
            else median([e["layers"][name] for e in traced])
            for name in traced[0]["layers"]
        }
        layers["trace.overhead_s"] = median([e["wall_s"] for e in traced]) - median(
            [e["wall_s"] for e in untraced]
        )
        names = [m["name"] for m in catalogue["per_layer"]]
    else:
        layers = {}
        names = [m["name"] for m in catalogue["end_to_end"]]
    e2e = {
        name: median([e[name] for e in untraced])
        for name in ("wall_s", "setup_s", "oracle_calls_per_s", "peak_rss_mb")
    }
    values = {**e2e, **layers}
    units = {m["name"]: m["unit"] for m in catalogue["end_to_end"] + catalogue["per_layer"]}
    failed = sum(1 for op in ops if not op[1])
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "executions": len(executions),
        "traced_executions": len(traced),
        "attempted": len(ops),
        "failed": failed,
        "fail_frac": failed / len(ops),
        "failed_ops": [op for op in ops if not op[1]],
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
        "e2e_all": {
            name: [e[name] for e in untraced]
            for name in (*e2e, "raw_wall_s", "raw_setup_s", "slowdown")
        },
        "digests": timed[0]["digests"] if timed else {},
        "facts": timed[0]["facts"] if timed else {},
        "missing_hooks": timed[0]["missing_hooks"] if timed else [],
    }


def report(summary: dict) -> None:
    print(
        f"{summary['workload']} seed {summary['seed']}: {summary['executions']} executions"
        f" ({summary['traced_executions']} traced)"
    )
    for name, metric in summary["metrics"].items():
        print(f"  {name} {metric['value']:.6g} {metric['unit']}")
    print(
        f"  fail_frac {summary['fail_frac']:.6g} ratio"
        f" ({summary['failed']} of {summary['attempted']} operations failed)"
    )
    for name, _ok, detail in summary["failed_ops"]:
        print(f"  FAILED {name}: {detail[:300]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=None, help="default: the catalogue's")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--fault",
        choices=("corrupt-gradcheck", "alter-record"),
        help="inject a known fault (self-test of the output checks)",
    )
    args = parser.parse_args(argv)
    # Stopped from outside: raise, so that subprocess.run kills and waits
    # for the running execution before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    catalogue = load_catalogue()
    seed = catalogue["seeds"]["default"] if args.seed is None else args.seed
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)

    try:
        program = probe_program()
        env = environment(program)
        summaries = []
        for workload in workloads:
            executions = run_workload(workload, seed, args.seconds, bool(args.trace), args.fault)
            summary = summarize(workload, seed, bool(args.trace), executions, catalogue)
            summary["environment"] = env
            path = os.path.join(OUT, f"result-{workload}-seed{seed}-trace{args.trace}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({**summary, "raw": executions}, fh, indent=1)
            report(summary)
            summaries.append(summary)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {
            f"{s['workload']}.{name}": metric
            for s in summaries
            for name, metric in s["metrics"].items()
        }
    attempted = sum(s["attempted"] for s in summaries)
    failed = sum(s["failed"] for s in summaries)
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
