"""Command-line entry point: run, sweep, verify, and gradcheck workflows.

Exit codes: 0 success, 1 check failure, 2 a usage error or any error
raised before the first run starts (a ConfigError, naming the bad
field), 3 any fault after that, a non-finite gradient included. Standard
output carries only data (records, JSON reports); diagnostics go to
standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .core import finite_difference_gradient
from .data import generate_synthetic
from .harness import (
    ALGORITHMS,
    CONFIG_FIELDS,
    AlgorithmSpec,
    ConfigError,
    DEFAULT_SWEEP_GRID,
    ExperimentConfig,
    ProblemSpec,
    check_settings,
    config_from_dict,
    emit_records,
    run_experiment,
    sweep_overrides,
    sweep_step_size,
)
from .problems import (
    MLPClassificationProblem,
    RegularizedERM,
    kaiming_uniform_scaled_init,
    nonconvex_regularizer,
    nonconvex_regularizer_grad,
)
from .optimizers import AdaSpiderConfig
from .verify import (
    check_cumulative_variance,
    check_rate_scaling,
    check_weighted_variance,
    default_rate_problem,
    default_variance_problem,
    sweep_log_lemma,
    sweep_sqrt_lemma,
    sweep_trajectory_bound,
    sweep_variance_recursion,
)

GRADCHECK_TOLERANCE = 1e-5
_FD_STEP = 1e-6

VERIFY_SUITES = ("all", "sqrt", "log", "variance", "trajectory", "rate")

# The algorithm parameters that `run` and `sweep` take as --<name> flags.
PARAM_FLAGS = {key: row.params[key][0] for row in ALGORITHMS.values() for key in row.flags}


def _default_out(fmt: str, out: str | None) -> str:
    if out is None:
        out = f"records.{fmt}"
    base = os.environ.get("ADASPIDER_OUT_DIR")
    if base and not os.path.isabs(out) and os.path.dirname(out) == "":
        return os.path.join(base, out)
    return out


def _checked_out(fmt: str, out: str | None) -> str:
    """The records' path, checked before any run starts and after
    ``check_settings`` refused an empty one: a directory, or a file in a
    directory that does not exist, is a configuration error."""
    path = _default_out(fmt, out)
    if os.path.isdir(path):
        raise ConfigError(f"out {path!r} is a directory")
    folder = os.path.dirname(path)
    if folder and not os.path.isdir(folder):
        raise ConfigError(f"out {path!r} is in a directory that does not exist")
    return path


def _load_config(path: str | None) -> ExperimentConfig:
    if path is None:
        # bundled synthetic default so every subcommand runs with no files
        return ExperimentConfig(
            problem=ProblemSpec(),
            algorithms=[AlgorithmSpec(name="adaspider")],
            epochs=5,
        )
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    return config_from_dict(doc)


def _apply_overrides(config: ExperimentConfig, args, swept: str | None = None) -> ExperimentConfig:
    """``config`` with the flags of ``args``. Each --<param> flag sets the
    parameter on the algorithms the command runs that read it: the
    configured ones, or the ``swept`` one's configured entry, added if there
    is none; a flag that none of them reads is a ConfigError. So is a flag
    that no run of the sweep reads, one of ``harness.sweep_overrides``. An
    unknown algorithm among them is refused by name before any flag."""
    if args.algo is not None:
        config.algorithms = [AlgorithmSpec(name=args.algo)]
    targets, unread = config.algorithms, ()
    if swept is not None:
        entry = next((a for a in config.algorithms if a.name == swept), None)
        if entry is None:
            entry = AlgorithmSpec(name=swept)
            config.algorithms = [*config.algorithms, entry]
        targets, unread = [entry], sweep_overrides(swept)
    if args.seed is not None:
        config.master_seed = args.seed
    if args.repeats is not None:
        config.repeats = args.repeats
    if args.steps is not None:
        config.steps = args.steps
        config.epochs = None
    for key in PARAM_FLAGS:
        value = getattr(args, key)
        if value is None:
            continue
        unknown = next((a.name for a in targets if a.name not in ALGORITHMS), None)
        if unknown is not None:
            raise ConfigError(f"unknown algorithm {unknown!r}")
        if key in unread:
            raise ConfigError(
                f"--{key} is not read by a sweep of {swept}, which sets {unread[0]} on every run"
            )
        readers = [a for a in targets if key in ALGORITHMS[a.name].params]
        if not readers:
            names = ", ".join(a.name for a in targets)
            raise ConfigError(f"--{key} is not a parameter of {names or 'any algorithm'}")
        for spec in readers:
            spec.params[key] = value
    if args.out is not None:
        config.out = args.out
    if args.format is not None:
        config.format = args.format
    return config


def _cmd_run(args) -> int:
    config = _apply_overrides(_load_config(args.config), args)
    check_settings(config)  # out is a string, or None, before it is checked
    out = _checked_out(config.format, config.out)
    records = run_experiment(config)
    emit_records(records, config.format, out)
    print(f"wrote {len(records)} records to {out}", file=sys.stderr)
    return 0


def _cmd_sweep(args) -> int:
    # keep the config's own algorithm entries so the swept algorithm
    # retains any parameters set there
    algo_name = args.algo
    args.algo = None
    config = _apply_overrides(_load_config(args.config), args, swept=algo_name)
    if args.grid is None:
        grid = list(DEFAULT_SWEEP_GRID)
    else:
        try:
            # an empty --grid is an empty grid, which sweep_step_size refuses
            grid = [float(v) for v in args.grid.split(",")] if args.grid else []
        except ValueError:
            raise ConfigError(f"--grid must list numbers, got {args.grid!r}") from None
    check_settings(config)  # out is a string, or None, before it is checked
    out = None if config.out is None else _checked_out(config.format, config.out)
    best, results = sweep_step_size(config, algo_name, grid)
    summary = {
        "algo": algo_name,
        "best": best,
        "grid": grid,
        "final_grad_norms": {
            repr(value): [r.final_grad_norm for r in records]
            for value, records in results.items()
        },
    }
    print(json.dumps(summary, indent=1))
    if out is not None:
        emit_records(results[best], config.format, out)
    return 0


def _verify_reports(suite: str, seed: int, rhs_factor: float) -> list:
    rng = np.random.default_rng(seed)
    reports = []
    if suite in ("all", "sqrt"):
        reports.append(sweep_sqrt_lemma(1000, rng, rhs_factor=rhs_factor))
    if suite in ("all", "log"):
        reports.append(sweep_log_lemma(1000, rng, rhs_factor=rhs_factor))
    if suite in ("all", "variance"):
        reports.append(sweep_variance_recursion(100, rng, rhs_factor=rhs_factor))
        problem = default_variance_problem(seed)
        config = AdaSpiderConfig(steps=40)
        seeds = range(seed + 1, seed + 201)
        reports.append(
            check_cumulative_variance(problem, config, seeds, rhs_factor=rhs_factor)
        )
        reports.append(
            check_weighted_variance(problem, config, seeds, rhs_factor=rhs_factor)
        )
    if suite in ("all", "trajectory"):
        reports.append(sweep_trajectory_bound(50, rng, rhs_factor=rhs_factor))
    if suite in ("all", "rate"):
        problem = default_rate_problem()
        threshold = -0.35 * rhs_factor
        reports.append(
            check_rate_scaling(
                problem,
                (100, 1000, 10000),
                seeds=range(seed, seed + 5),
                slope_threshold=threshold,
            )
        )
    return reports


def _cmd_verify(args) -> int:
    CONFIG_FIELDS["master_seed"].metadata["rule"].check("--seed", args.seed)
    reports = _verify_reports(args.suite, args.seed, args.rhs_factor)
    for report in reports:
        print(report.to_json())
    return 0 if all(r.passed for r in reports) else 1


def gradient_check_report(points: int = 20, seed: int = 0, corrupt: bool = False) -> dict:
    """Compare every analytic gradient against central differences.

    Returns per-family and overall max relative errors over ``points``
    random evaluation points each. The loss families check each problem's
    own ``component_gradient`` against differences of its
    ``component_values``, which the network evaluates in one forward pass
    per block of perturbed points. ``corrupt`` deliberately offsets the
    regularizer gradient, for self-testing the check.
    """
    if points < 1:
        raise ConfigError(f"gradient check needs at least one point, got {points}")
    rng = np.random.default_rng(seed)
    families: dict[str, float] = {}

    def rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
        scale = max(
            float(np.linalg.norm(analytic)), float(np.linalg.norm(numeric)), 1e-10
        )
        return float(np.linalg.norm(analytic - numeric)) / scale

    worst = 0.0
    for _ in range(points):
        x = rng.standard_normal(6)
        analytic = nonconvex_regularizer_grad(x)
        if corrupt:
            analytic = analytic + 1e-3
        numeric = finite_difference_gradient(
            lambda points: np.array([nonconvex_regularizer(p) for p in points]), x, _FD_STEP
        )
        worst = max(worst, rel_error(analytic, numeric))
    families["regularizer"] = worst

    def erm(kind: str, loss_kind: str):
        problem = RegularizedERM(
            generate_synthetic(kind, n=8, d=5, seed=seed), loss_kind=loss_kind, lam=0.1
        )
        return problem, lambda: rng.standard_normal(problem.d)

    dims = (20, 16, 16, 4)
    clusters = generate_synthetic(
        "two-cluster-classification", n=8, d=dims[0], seed=seed, n_classes=dims[-1]
    )
    cases = {
        "logistic": erm("separable-logistic", "logistic"),
        "squared": erm("quadratic", "squared"),
        "mlp": (
            MLPClassificationProblem(clusters, dims),
            lambda: kaiming_uniform_scaled_init(dims, 0.1, rng),
        ),
    }
    for family, (problem, draw_point) in cases.items():
        worst = 0.0
        for _ in range(points):
            x = draw_point()
            i = int(rng.integers(problem.n)) + 1
            analytic = problem.component_gradient(i, x)
            numeric = finite_difference_gradient(
                lambda points: problem.component_values(i, points), x, _FD_STEP
            )
            worst = max(worst, rel_error(analytic, numeric))
        families[family] = worst

    max_error = max(families.values())
    return {
        "families": families,
        "max_rel_error": max_error,
        "tolerance": GRADCHECK_TOLERANCE,
        "pass": max_error <= GRADCHECK_TOLERANCE,
    }


def _cmd_gradcheck(args) -> int:
    CONFIG_FIELDS["master_seed"].metadata["rule"].check("--seed", args.seed)
    report = gradient_check_report(
        points=args.points, seed=args.seed, corrupt=args.corrupt
    )
    print(json.dumps(report, indent=1))
    return 0 if report["pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adaspider",
        description="Finite-sum optimization benchmark and verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute an experiment and emit records")
    run.add_argument("--algo", help="run a single named algorithm instead")
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="step-size sweep for one algorithm")
    sweep.add_argument("--algo", required=True)
    sweep.add_argument("--grid", help="comma-separated positive values")
    sweep.set_defaults(func=_cmd_sweep)

    for command in (run, sweep):
        command.add_argument("--config", help="JSON experiment configuration")
        command.add_argument("--seed", type=int, help="master seed override")
        command.add_argument("--repeats", type=int)
        command.add_argument("--steps", type=int, help="step budget override")
        for key, kind in PARAM_FLAGS.items():
            command.add_argument(f"--{key}", type=kind)
        command.add_argument("--out")
        command.add_argument("--format", choices=("csv", "json"))

    verify = sub.add_parser("verify", help="run numerical verification suites")
    verify.add_argument("--suite", choices=VERIFY_SUITES, default="all")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument(
        "--rhs-factor",
        type=float,
        default=1.0,
        dest="rhs_factor",
        help="scale the checked right-hand sides (harness self-test only)",
    )
    verify.set_defaults(func=_cmd_verify)

    gradcheck = sub.add_parser(
        "gradcheck", help="compare analytic gradients against central differences"
    )
    gradcheck.add_argument("--points", type=int, default=20)
    gradcheck.add_argument("--seed", type=int, default=0)
    gradcheck.add_argument(
        "--corrupt",
        action="store_true",
        help="deliberately offset one gradient (self-test only)",
    )
    gradcheck.set_defaults(func=_cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ConfigError as exc:  # raised before the first run starts
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # any fault after that
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
