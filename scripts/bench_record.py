"""Turn perfbench results of a parent and a change into one BENCH_<n>.json.

Usage, from the repository root:

    python3 scripts/bench_record.py --parent P1.json P2.json ... \\
        --change C1.json C2.json ... --out BENCH_<n>.json

Each input is a ``perfbench/out/result-<workload>-seed<s>-trace<t>.json``
file (or a directory holding such files) written by ``perfbench/run.py``
in a git checkout of one side; a file that names no commit is refused.
A side may give several files of one workload and seed, from repeated
runs: their executions are pooled within that seed. The output holds,
per workload and for each of the four end-to-end metrics of
``BENCHMARK.json``:

- each side's median at each seed, and the ratio of the change's to the
  parent's;
- each side's headline median, the median of its per-seed medians, so a
  seed with more executions on one side does not tilt it; the quartiles
  and count of all its untraced executions; and the ratio of the
  change's headline median to the parent's;

- the runs, each one input file, whose value is the median of its
  executions as perfbench reports it: each side's headline median and
  quartiles over its runs, and the pairs, the k-th run of each side at a
  seed in the order the runs started, with the count the change won;

and per workload:

- each side's runs in the order they started: seed, file, start (the
  monotonic clock of the machine, so only runs made in one boot compare)
  and each metric's run value;
- each side's per-execution numbers, by seed;
- each side's failed and attempted operations;
- the record digests by seed, and whether the two sides' are equal;

and, once, each side's commit and environment. Standard library only.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

# The benchmark declaration, which names the end-to-end metrics.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CATALOGUE = os.path.join(ROOT, "BENCHMARK.json")


class RecordError(Exception):
    """Inputs that cannot make one record."""


def result_files(paths: list) -> list:
    """The result files named by ``paths``: files as given, directories
    expanded to their ``result-*.json``, in name order."""
    files = []
    for path in paths:
        if os.path.isdir(path):
            files.extend(sorted(glob.glob(os.path.join(path, "result-*.json"))))
        else:
            files.append(path)
    if not files:
        raise RecordError(f"no result files in {paths}")
    return files


def spread(by_seed: dict) -> dict:
    """The median of the per-seed medians of ``by_seed`` (seed -> values),
    and the quartiles and count of all its values; the quartiles of one
    value are that value."""
    values = sorted(v for seed_values in by_seed.values() for v in seed_values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = q3 = values[0]
    median = statistics.median(statistics.median(v) for v in by_seed.values())
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def load_side(paths: list, metrics: list) -> dict:
    """One side's results: its environment, and per workload its
    executions' end-to-end numbers by seed, operations and digests."""
    side = {"environment": None, "workloads": {}}
    for path in result_files(paths):
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        env = result["environment"]
        if not env.get("commit"):
            raise RecordError(f"{path}: names no commit; run perfbench in a git checkout")
        if side["environment"] is None:
            side["environment"] = env
        elif env.get("commit") != side["environment"].get("commit"):
            raise RecordError(
                f"{path}: commit {env.get('commit')} differs from "
                f"{side['environment'].get('commit')} of the same side"
            )
        workload = side["workloads"].setdefault(
            result["workload"],
            {"by_seed": {}, "runs": [], "attempted": 0, "failed": 0, "digests": {}},
        )
        seed = str(result["seed"])
        numbers = workload["by_seed"].setdefault(seed, {name: [] for name in metrics})
        for name in metrics:
            numbers[name].extend(result["e2e_all"][name])
        starts = [e["import_start"] for e in result["raw"] if "import_start" in e]
        if not starts:
            raise RecordError(f"{path}: no execution started")
        workload["runs"].append({
            "seed": seed,
            "file": os.path.basename(path),
            "start": min(starts),
            **{name: statistics.median(result["e2e_all"][name]) for name in metrics},
        })
        workload["attempted"] += result["attempted"]
        workload["failed"] += result["failed"]
        digests = workload["digests"].setdefault(seed, result["digests"])
        if digests != result["digests"]:
            raise RecordError(f"{path}: record digests differ between runs of one side")
    return side


def paired_runs(runs: dict, seeds: list, metric: dict) -> dict:
    """Each side's headline over its runs' values of ``metric``, and the
    count of pairs of runs, the k-th of each side at a seed, and of those
    the change won."""
    key = metric["name"]
    by_seed = {
        label: {s: [run[key] for run in side if run["seed"] == s] for s in seeds}
        for label, side in runs.items()
    }
    pairs = [
        pair
        for s in seeds
        for pair in zip(by_seed["parent"][s], by_seed["change"][s])
    ]
    lower = metric["better"] == "lower"
    won = sum((c < p) if lower else (c > p) for p, c in pairs)
    return {
        **{label: spread(values) for label, values in by_seed.items()},
        "pairs": len(pairs),
        "change_won": won,
    }


def record(parent: dict, change: dict, catalogue: dict) -> dict:
    """The BENCH document of two loaded sides."""
    metrics = catalogue["end_to_end"]
    if set(parent["workloads"]) != set(change["workloads"]):
        raise RecordError("the two sides ran different workloads")
    workloads = {}
    for name in sorted(change["workloads"]):
        sides = {"parent": parent["workloads"][name], "change": change["workloads"][name]}
        if set(sides["parent"]["by_seed"]) != set(sides["change"]["by_seed"]):
            raise RecordError(f"{name}: the two sides ran different seeds")
        seeds = sorted(sides["change"]["by_seed"], key=int)
        runs = {
            label: sorted(side["runs"], key=lambda run: run["start"])
            for label, side in sides.items()
        }
        summary = {}
        for metric in metrics:
            key = metric["name"]
            values = {
                label: {s: side["by_seed"][s][key] for s in seeds}
                for label, side in sides.items()
            }
            per_seed = {}
            for s in seeds:
                medians = {label: statistics.median(v[s]) for label, v in values.items()}
                per_seed[s] = {
                    **medians,
                    "change_over_parent": medians["change"] / medians["parent"],
                }
            heads = {label: spread(v) for label, v in values.items()}
            summary[key] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                **heads,
                "change_over_parent": heads["change"]["median"] / heads["parent"]["median"],
                "by_seed": per_seed,
                "runs": paired_runs(runs, seeds, metric),
            }
        workloads[name] = {
            "seeds": [int(s) for s in seeds],
            "metrics": summary,
            "operations": {
                label: {"attempted": side["attempted"], "failed": side["failed"]}
                for label, side in sides.items()
            },
            "digests": {
                s: {
                    "equal": sides["parent"]["digests"][s] == sides["change"]["digests"][s],
                    "parent": sides["parent"]["digests"][s],
                    "change": sides["change"]["digests"][s],
                }
                for s in seeds
            },
            "runs": runs,
            "executions": {label: side["by_seed"] for label, side in sides.items()},
        }
    return {
        "parent": parent["environment"],
        "change": change["environment"],
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True, help="result files or folders")
    parser.add_argument("--change", nargs="+", required=True, help="result files or folders")
    parser.add_argument("--out", required=True, help="the BENCH file to write")
    args = parser.parse_args(argv)
    try:
        with open(CATALOGUE, encoding="utf-8") as fh:
            catalogue = json.load(fh)
        names = [m["name"] for m in catalogue["end_to_end"]]
        doc = record(load_side(args.parent, names), load_side(args.change, names), catalogue)
    except (RecordError, OSError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for name, workload in doc["workloads"].items():
        cells = ", ".join(
            f"{key} {m['parent']['median']:.4g} -> {m['change']['median']:.4g}"
            f" ({m['runs']['change_won']} of {m['runs']['pairs']} pairs won)"
            for key, m in workload["metrics"].items()
        )
        same = all(d["equal"] for d in workload["digests"].values())
        print(f"{name}: {cells}; digests {'equal' if same else 'DIFFER'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
