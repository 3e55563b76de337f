"""One execution of one benchmark workload, in its own fresh process.

Usage (normally started by ``perfbench/run.py``):

    python3 perfbench/workload.py --workload NAME --seed N --trace 0|1 \
        --result RESULT.json [--fault corrupt-gradcheck|alter-record]

The program is reached only through its public entry points
(``adaspider.cli.main``, ``harness.run_experiment``, ``harness.
sweep_step_size`` and the ``data`` functions). Output files go to the
current directory. The result file holds monotonic timestamps (import
start and end, end of set-up, end of the last output file), the
machine-speed samples taken until then (``speed.py``), peak RSS, the
charged oracle calls, one entry per checked operation, the SHA-256 of
every record file and, when traced, the per-layer metrics.

Everything after the last output file is closed (checks, digests,
writing spans) is outside the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import sys
import time

import spans
import speed

FAULTS = ("corrupt-gradcheck", "alter-record")

# Sizes follow scripts/compare_optimizers.py, scripts/train_small_net.py
# and the ROADMAP baseline rows, cut so that a 30 s benchmark run holds
# several executions of every workload (two or three of verify-all, whose
# suite has no size option); the cuts and their reasons are listed in
# perfbench/metrics.json under "deviations".
ERM = dict(n=500, d=20, lam=0.1, epochs=12, repeats=1)
MLP = dict(n=200, layer_dims=(20, 16, 16, 4), c_init=0.01, epochs=30, repeats=1, sgd_eta=0.01)
LIBSVM = dict(n=5000, d=100, lam=0.1, epochs=15, repeats=1)
VERIFY_POINTS = 5


class Execution:
    """Operations checked, facts that must repeat, and record files of one run."""

    def __init__(self, fault: str | None, sampler: speed.Sampler):
        self.fault = fault
        self.sampler = sampler
        self.ops: list = []  # [name, ok, detail]
        self.facts: dict = {}
        self.record_files: list = []
        self.end: float | None = None
        self.peak_rss_kb = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.ops.append([name, bool(ok), detail])

    def finish_outputs(self) -> None:
        """The last output file is closed: stop the clock and the speed
        samples, read peak RSS."""
        self.end = time.monotonic()
        self.sampler.stop()
        self.peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if self.fault == "alter-record" and self.record_files:
            alter_first_digit(self.record_files[0])


def alter_first_digit(path: str) -> None:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    k = next(i for i, ch in enumerate(text) if ch.isdigit())
    text = text[:k] + str((int(text[k]) + 1) % 10) + text[k + 1 :]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def same_records(left, right) -> bool:
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        if (a.algo, a.seed, len(a.rows)) != (b.algo, b.seed, len(b.rows)):
            return False
        for ra, rb in zip(a.rows, b.rows):
            if (ra.epoch, ra.oracle_calls) != (rb.epoch, rb.oracle_calls):
                return False
            if not all(
                same_float(x, y)
                for x, y in (
                    (ra.loss, rb.loss),
                    (ra.grad_norm, rb.grad_norm),
                    (ra.step_size, rb.step_size),
                )
            ):
                return False
    return True


def check_round_trip(ex: Execution, harness, emitted) -> None:
    for records, fmt, path in emitted:
        ok = same_records(harness.load_records(path, fmt), records)
        ex.check(f"records-round-trip:{path}", ok)


def check_run(ex: Execution, name: str, record) -> None:
    """Rows exist and count calls monotonically; a diverged run is a
    recorded outcome, not a failure."""
    calls = [row.oracle_calls for row in record.rows]
    ok = bool(calls) and calls == sorted(calls)
    ex.check(f"run:{name}:{record.algo}:{record.seed}", ok)


def erm_protocol(pkg, seed: int, ex: Execution, markers) -> None:
    """Criterion-10 protocol: sgd and svrg sweeps, then all six algorithms."""
    harness = pkg.harness
    spec = harness.ProblemSpec(n=ERM["n"], d=ERM["d"], lam=ERM["lam"], data_seed=seed)

    def config(algorithms):
        return harness.ExperimentConfig(
            problem=spec,
            algorithms=algorithms,
            epochs=ERM["epochs"],
            repeats=ERM["repeats"],
            master_seed=seed,
        )

    etas = {}
    for name in ("sgd", "svrg"):
        best, results = harness.sweep_step_size(config([harness.AlgorithmSpec(name)]), name)
        etas[name] = best
        for records in results.values():
            for record in records:
                check_run(ex, f"sweep-{name}", record)
    records = harness.run_experiment(
        config(
            [
                harness.AlgorithmSpec("adaspider"),
                harness.AlgorithmSpec("spiderboost"),
                harness.AlgorithmSpec("svrg", params={"eta": etas["svrg"]}),
                harness.AlgorithmSpec("sgd", params={"eta": etas["sgd"]}),
                harness.AlgorithmSpec("adagrad_norm", params={"eta": 0.01, "b0": 1e-4}),
                harness.AlgorithmSpec("spider", params={"eps": 0.01}),
            ]
        )
    )
    harness.emit_records(records, "csv", "comparison.csv")
    ex.record_files.append("comparison.csv")
    ex.finish_outputs()

    for record in records:
        check_run(ex, "compare", record)
    medians = {}
    for name in sorted({r.algo for r in records}):
        finals = sorted(r.final_grad_norm for r in records if r.algo == name)
        mid = len(finals) // 2
        medians[name] = (
            finals[mid] if len(finals) % 2 else 0.5 * (finals[mid - 1] + finals[mid])
        )
    # SpiderBoost below tuned SGD holds at 5 repeats (criterion 10) but not
    # on every seed at 1 repeat, so it is recorded in the detail only.
    ordered = all(medians[a] < medians["sgd"] for a in ("adaspider", "svrg"))
    ordered = ordered and medians["spider"] > medians["adaspider"]
    ex.check("criterion-10-ordering", ordered, json.dumps(medians))
    ex.facts["best_eta"] = etas
    check_round_trip(ex, harness, markers.emitted)


def mlp_train(pkg, seed: int, ex: Execution, markers) -> None:
    """scripts/train_small_net.py: adaspider and sgd on the ELU network."""
    harness = pkg.harness
    config = harness.ExperimentConfig(
        problem=harness.ProblemSpec(
            loss="mlp",
            n=MLP["n"],
            layer_dims=MLP["layer_dims"],
            c_init=MLP["c_init"],
            data_seed=seed,
        ),
        algorithms=[
            harness.AlgorithmSpec("adaspider"),
            harness.AlgorithmSpec("sgd", params={"eta": MLP["sgd_eta"]}),
        ],
        epochs=MLP["epochs"],
        repeats=MLP["repeats"],
        master_seed=seed,
    )
    records = harness.run_experiment(config)
    harness.emit_records(records, "csv", "network.csv")
    ex.record_files.append("network.csv")
    ex.finish_outputs()

    for record in records:
        if record.algo == "adaspider":
            rows = record.rows
            finite = all(math.isfinite(r.loss) and math.isfinite(r.grad_norm) for r in rows)
            ok = len(rows) >= 2 and finite and rows[-1].loss < rows[0].loss
            ex.check(f"run:adaspider-descends:{record.seed}", ok)
        else:
            check_run(ex, "train", record)
    check_round_trip(ex, harness, markers.emitted)


def libsvm_large(pkg, seed: int, ex: Execution, markers) -> None:
    """Export a quadratic dataset as LibSVM, then ``adaspider run`` on it."""
    data = pkg.data
    dataset = data.generate_synthetic("quadratic", LIBSVM["n"], LIBSVM["d"], seed)
    with open("data.libsvm", "w", encoding="utf-8") as fh:
        fh.write(data.format_libsvm(dataset))
    config = {
        "problem": {"path": "data.libsvm", "loss": "squared", "lambda": LIBSVM["lam"]},
        "algorithms": [{"name": "spiderboost"}, {"name": "adaspider"}],
        "epochs": LIBSVM["epochs"],
        "repeats": LIBSVM["repeats"],
        "master_seed": seed,
        "format": "json",
        "out": "records.json",
    }
    with open("config.json", "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    code = pkg.cli.main(["run", "--config", "config.json"])
    ex.record_files.append("records.json")
    ex.finish_outputs()

    ex.check("cli-exit-code", code == 0, str(code))
    ex.check("export-parse-round-trip", data.load_libsvm("data.libsvm") == dataset)
    budget = LIBSVM["epochs"] * LIBSVM["n"]
    for records, _fmt, _path in markers.emitted:
        for record in records:
            ok = bool(record.rows) and record.rows[-1].oracle_calls <= budget
            ex.check(f"run:within-budget:{record.algo}:{record.seed}", ok)
    check_round_trip(ex, pkg.harness, markers.emitted)


def verify_all(pkg, seed: int, ex: Execution, markers) -> None:
    """``adaspider verify --suite all`` and ``adaspider gradcheck``."""
    cli = pkg.cli
    outputs = {}
    for path, argv in (
        ("verify.jsonl", ["verify", "--suite", "all", "--seed", str(seed)]),
        (
            "gradcheck.json",
            ["gradcheck", "--points", str(VERIFY_POINTS), "--seed", str(seed)]
            + (["--corrupt"] if ex.fault == "corrupt-gradcheck" else []),
        ),
    ):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = cli.main(argv)
        outputs[path] = (code, buffer.getvalue())
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(buffer.getvalue())
        ex.record_files.append(path)
    ex.finish_outputs()

    code, text = outputs["verify.jsonl"]
    reports = [json.loads(line) for line in text.splitlines() if line]
    for report in reports:
        ok = report["pass"] and report["violations"] == 0
        ex.check(f"verify:{report['lemma']}", ok, report["detail"])
    ex.check("verify-exit-code", code == (0 if all(r["pass"] for r in reports) else 1))
    code, text = outputs["gradcheck.json"]
    gradcheck = json.loads(text)
    for family, error in gradcheck["families"].items():
        ex.check(f"gradcheck:{family}", error <= cli.GRADCHECK_TOLERANCE, repr(error))
    ex.check("gradcheck-exit-code", code == (0 if gradcheck["pass"] else 1))
    for path, (_code, text) in outputs.items():
        with open(path, "r", encoding="utf-8") as fh:
            ex.check(f"records-round-trip:{path}", fh.read() == text)


WORKLOADS = {
    "erm-protocol": erm_protocol,
    "mlp-train": mlp_train,
    "libsvm-large": libsvm_large,
    "verify-all": verify_all,
}


def sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", help="where a traced execution writes its spans")
    parser.add_argument("--fault", choices=FAULTS)
    args = parser.parse_args()

    sampler = speed.Sampler()
    sampler.start()
    import_start = time.monotonic()
    import adaspider.cli  # noqa: F401  (pulls in every module of the package)

    import_end = time.monotonic()
    pkg = sys.modules["adaspider"]

    markers = spans.Markers()
    markers.install(pkg)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install(pkg)

    ex = Execution(args.fault, sampler)
    try:
        WORKLOADS[args.workload](pkg, args.seed, ex, markers)
    except Exception as exc:  # the workload failed as a whole
        ex.check("execution", False, f"{type(exc).__name__}: {exc}")
    sampler.stop()

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "adaspider_file": pkg.__file__,
        "import_start": import_start,
        "import_end": import_end,
        "setup_end": markers.setup_end,
        "end": ex.end,
        "speed_samples": sampler.samples,
        "peak_rss_kb": ex.peak_rss_kb,
        "charged_calls": markers.charged_calls(),
        "ops": ex.ops,
        "facts": ex.facts,
        "digests": {p: sha256(p) for p in ex.record_files if os.path.exists(p)},
        "missing_hooks": markers.missing + (tracer.missing if tracer else []),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(import_end - import_start)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
