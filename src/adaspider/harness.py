"""Experiment configuration, multi-seed execution, and trace serialization.

A run is fully determined by (config, master seed): per repeat, every
algorithm starts from the identical initial point, and each (algorithm,
repeat) pair gets its own rng stream derived from the master seed, a
stable hash of the algorithm name, and the repeat index.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from .core import FiniteSumProblem
from .data import generate_synthetic, load_libsvm, scale_features
from .optimizers import (
    AdaSpiderConfig,
    EpochRow,
    RunTrace,
    adagrad_norm_run,
    adaspider_run,
    sgd_run,
    spider_run,
    spiderboost_run,
    svrg_run,
)
from .problems import (
    MLPClassificationProblem,
    RegularizedERM,
    kaiming_uniform_scaled_init,
)

# The parameter keys each algorithm reads. The algorithm names, the check
# of configured keys and the CLI's per-flag targets all follow from it.
ALGORITHM_PARAMS = {
    "adaspider": ("beta0", "g0", "period", "inner_batch"),
    "spider": ("eps", "smoothness", "period", "inner_batch"),
    "spiderboost": ("eta", "smoothness", "period", "batch_size"),
    "svrg": ("eta", "epoch_length", "inner_batch"),
    "sgd": ("eta",),
    "adagrad_norm": ("eta", "b0"),
}
ALGORITHM_NAMES = tuple(ALGORITHM_PARAMS)

# Initial-step grid of the standard parameter sweep.
DEFAULT_SWEEP_GRID = (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3)

# Which parameter a step-size sweep tunes, per algorithm. The adaptive
# method is parameter-free and deliberately absent.
SWEEPABLE_PARAM = {
    "sgd": "eta",
    "adagrad_norm": "eta",
    "svrg": "eta",
    "spiderboost": "eta",
    "spider": "eps",
}

CSV_HEADER = "algo,seed,epoch,oracle_calls,loss,grad_norm,step_size"

# Algorithm parameters that count steps or samples.
INTEGER_PARAMS = ("period", "epoch_length", "inner_batch", "batch_size")


class ConfigError(ValueError):
    """Invalid experiment configuration; raised before any run starts."""


@dataclass
class AlgorithmSpec:
    name: str
    params: dict = field(default_factory=dict)


@dataclass
class ProblemSpec:
    """Either a LibSVM file or a synthetic dataset, plus the objective.

    ``loss`` is "logistic" or "squared" for the regularized ERM setups,
    or "mlp" for the small classification network (then ``layer_dims``
    and ``c_init`` apply, and the synthetic kind should be the cluster
    generator).
    """

    path: str | None = None
    synthetic: str = "separable-logistic"
    n: int = 64
    d: int = 10
    data_seed: int = 0
    loss: str = "logistic"
    lam: float = 0.1
    scale: bool = False
    layer_dims: tuple = (20, 16, 16, 4)
    c_init: float = 0.01


@dataclass
class ExperimentConfig:
    problem: ProblemSpec
    algorithms: list
    steps: int | None = None
    epochs: int | None = None
    repeats: int = 5
    master_seed: int = 0
    out: str | None = None
    format: str = "csv"


@dataclass
class RunRecord:
    """Per-epoch convergence rows of one (algorithm, repeat) run."""

    algo: str
    seed: int
    rows: list

    @property
    def diverged(self) -> bool:
        return bool(self.rows) and not math.isfinite(self.rows[-1].loss)

    @property
    def final_grad_norm(self) -> float:
        if not self.rows:
            return float("inf")
        return self.rows[-1].grad_norm


def build_problem(spec: ProblemSpec) -> FiniteSumProblem:
    if spec.loss == "mlp":
        dataset = (
            load_libsvm(spec.path)
            if spec.path
            else generate_synthetic(
                "two-cluster-classification",
                spec.n,
                spec.layer_dims[0],
                spec.data_seed,
                n_classes=spec.layer_dims[-1],
            )
        )
        if spec.scale:
            dataset = scale_features(dataset)
        return MLPClassificationProblem(dataset, spec.layer_dims)
    if spec.loss not in ("logistic", "squared"):
        raise ConfigError(f"unknown loss kind {spec.loss!r}")
    if spec.path:
        dataset = load_libsvm(spec.path)
    else:
        kind = spec.synthetic if spec.loss == "logistic" else "quadratic"
        dataset = generate_synthetic(kind, spec.n, spec.d, spec.data_seed)
    if spec.scale:
        dataset = scale_features(dataset)
    return RegularizedERM(dataset, loss_kind=spec.loss, lam=spec.lam)


def initial_point(
    spec: ProblemSpec, problem: FiniteSumProblem, master_seed: int, repeat: int
) -> np.ndarray:
    """Zero vector for ERM, seeded scaled-uniform init for the network.

    Depends on (master seed, repeat) only, so all algorithms of a repeat
    start from the bit-identical point.
    """
    if spec.loss == "mlp":
        rng = np.random.default_rng([master_seed, repeat])
        return kaiming_uniform_scaled_init(spec.layer_dims, spec.c_init, rng).params
    return np.zeros(problem.d)


def _algorithm_smoothness(spec: AlgorithmSpec, problem: FiniteSumProblem) -> float:
    value = spec.params.get("smoothness", problem.known_smoothness)
    if value is None:
        raise ConfigError(
            f"{spec.name} needs a smoothness constant: pass 'smoothness' or use "
            "a problem that provides one"
        )
    return float(value)


def _is_integer(value) -> bool:
    if isinstance(value, bool):
        return False
    if isinstance(value, float):
        return value.is_integer()
    return isinstance(value, (int, np.integer))


def _as_int(value):
    """``value`` as an int when integral; otherwise unchanged, for
    check_settings to name."""
    return int(value) if _is_integer(value) else value


def _require_integer(field_name: str, value) -> None:
    if not _is_integer(value):
        raise ConfigError(f"{field_name} must be an integer, got {value!r}")


def _int_param(spec: AlgorithmSpec, key: str, default):
    """Integer parameter ``key`` of ``spec``, or ``default`` when unset."""
    if key not in spec.params:
        return default
    value = spec.params[key]
    _require_integer(f"{spec.name}: parameter {key!r}", value)
    return int(value)


def check_settings(config: ExperimentConfig) -> None:
    """Every check that needs no problem instance, run before it is built."""
    if not _is_integer(config.master_seed) or config.master_seed < 0:
        raise ConfigError(
            f"master_seed must be a non-negative integer, got {config.master_seed!r}"
        )
    _require_integer("repeats", config.repeats)
    if config.repeats < 1:
        raise ConfigError("repeats must be at least 1")
    if (config.steps is None) == (config.epochs is None):
        raise ConfigError("exactly one of 'steps' and 'epochs' must be set")
    for name in ("steps", "epochs"):
        if getattr(config, name) is not None:
            _require_integer(name, getattr(config, name))
    for name in ("n", "d", "data_seed"):
        _require_integer(f"problem.{name}", getattr(config.problem, name))
    if config.problem.data_seed < 0:
        raise ConfigError(
            f"problem.data_seed must be non-negative, got {config.problem.data_seed!r}"
        )
    dims = config.problem.layer_dims
    for dim in dims:
        _require_integer("problem.layer_dims entry", dim)
    if len(dims) < 2:
        raise ConfigError(
            f"problem.layer_dims must list at least input and output sizes, got {list(dims)}"
        )
    if min(dims) < 1:
        raise ConfigError(f"problem.layer_dims entries must be positive, got {list(dims)}")
    if config.steps is not None and config.steps < 1:
        raise ConfigError("steps must be at least 1")
    if config.epochs is not None and config.epochs < 1:
        raise ConfigError("epochs must be at least 1")
    if config.format not in ("csv", "json"):
        raise ConfigError(f"unknown output format {config.format!r}")
    if not config.algorithms:
        raise ConfigError("algorithm list is empty")
    for spec in config.algorithms:
        if spec.name not in ALGORITHM_NAMES:
            raise ConfigError(f"unknown algorithm {spec.name!r}")
        if spec.name == "spider" and float(spec.params.get("eps", 0.01)) <= 0:
            raise ConfigError("spider needs a positive target accuracy 'eps'")
        for key, value in spec.params.items():
            if key not in ALGORITHM_PARAMS[spec.name]:
                raise ConfigError(f"unknown parameter {key!r} for {spec.name}")
            if key in INTEGER_PARAMS:
                _int_param(spec, key, None)
            if key != "period" and float(value) <= 0:
                raise ConfigError(f"{spec.name}: parameter {key!r} must be positive")


def steps_for_budget(
    spec: AlgorithmSpec, problem: FiniteSumProblem, budget_calls: int
) -> int:
    """Largest step count whose charged calls stay within the budget."""
    n = problem.n
    name = spec.name
    if name in ("sgd", "adagrad_norm"):
        return max(1, budget_calls)
    if name == "svrg":
        period = _int_param(spec, "epoch_length", n)
        inner_cost = 2 * _int_param(spec, "inner_batch", 1)
    elif name == "spiderboost":
        root = math.isqrt(n) if math.isqrt(n) ** 2 == n else math.isqrt(n) + 1
        period = _int_param(spec, "period", root)
        inner_cost = 2 * _int_param(spec, "batch_size", root)
    else:  # adaspider, spider
        period = _int_param(spec, "period", n)
        inner_cost = 2 * _int_param(spec, "inner_batch", 1)
    cycle_cost = n + inner_cost * (period - 1)
    cycles = budget_calls // cycle_cost
    remainder = budget_calls - cycles * cycle_cost
    extra = 0
    if remainder >= n:
        extra = 1 + min(period - 1, (remainder - n) // inner_cost)
    return max(1, cycles * period + extra)


def run_algorithm(
    spec: AlgorithmSpec,
    problem: FiniteSumProblem,
    x0: np.ndarray,
    steps: int,
    rng: np.random.Generator,
    **run_kwargs,
) -> RunTrace:
    p = spec.params
    if spec.name == "adaspider":
        config = AdaSpiderConfig(
            steps=steps,
            beta0=float(p.get("beta0", 1.0)),
            g0=float(p.get("g0", 1.0)),
            period=_int_param(spec, "period", None),
            inner_batch=_int_param(spec, "inner_batch", 1),
        )
        return adaspider_run(problem, x0, config, rng, **run_kwargs)
    if spec.name == "spider":
        return spider_run(
            problem,
            x0,
            epsilon=float(p.get("eps", 0.01)),
            smoothness=_algorithm_smoothness(spec, problem),
            steps=steps,
            rng=rng,
            period=_int_param(spec, "period", None),
            inner_batch=_int_param(spec, "inner_batch", 1),
            **run_kwargs,
        )
    if spec.name == "spiderboost":
        smoothness = (
            1.0 / float(p["eta"]) if "eta" in p else _algorithm_smoothness(spec, problem)
        )
        return spiderboost_run(
            problem,
            x0,
            smoothness=smoothness,
            steps=steps,
            rng=rng,
            period=_int_param(spec, "period", None),
            batch_size=_int_param(spec, "batch_size", None),
            **run_kwargs,
        )
    if spec.name == "svrg":
        return svrg_run(
            problem,
            x0,
            eta=float(p.get("eta", 0.01)),
            epoch_length=_int_param(spec, "epoch_length", None),
            steps=steps,
            rng=rng,
            inner_batch=_int_param(spec, "inner_batch", 1),
            **run_kwargs,
        )
    if spec.name == "sgd":
        return sgd_run(
            problem, x0, eta=float(p.get("eta", 0.01)), steps=steps, rng=rng, **run_kwargs
        )
    if spec.name == "adagrad_norm":
        return adagrad_norm_run(
            problem,
            x0,
            eta=float(p.get("eta", 0.01)),
            b0=float(p.get("b0", 1e-4)),
            steps=steps,
            rng=rng,
            **run_kwargs,
        )
    raise ConfigError(f"unknown algorithm {spec.name!r}")


def _run_rng(master_seed: int, algo_name: str, repeat: int) -> np.random.Generator:
    # crc32 gives a stable per-name stream independent of list order
    return np.random.default_rng([master_seed, zlib.crc32(algo_name.encode()), repeat])


def run_experiment(config: ExperimentConfig) -> list:
    """Execute every (algorithm, repeat) pair; |records| = algorithms x repeats."""
    check_settings(config)
    return _run_on_problem(config, build_problem(config.problem))


def _run_on_problem(config: ExperimentConfig, problem: FiniteSumProblem) -> list:
    """:func:`run_experiment` on ``problem``, already built from
    ``config.problem`` after ``check_settings(config)`` passed."""
    for spec in config.algorithms:
        if spec.name in ("spider", "spiderboost"):
            _algorithm_smoothness(spec, problem)  # the one check that needs it
    records = []
    for spec in config.algorithms:
        if config.steps is not None:
            steps = config.steps
        else:
            steps = steps_for_budget(spec, problem, config.epochs * problem.n)
        for repeat in range(config.repeats):
            x0 = initial_point(config.problem, problem, config.master_seed, repeat)
            rng = _run_rng(config.master_seed, spec.name, repeat)
            trace = run_algorithm(spec, problem, x0, steps, rng)
            records.append(
                RunRecord(algo=spec.name, seed=repeat, rows=list(trace.epoch_rows))
            )
    return records


def sweep_step_size(config: ExperimentConfig, algo_name: str, grid=None):
    """Run a scale sweep for one algorithm and pick the best grid value.

    The score of a grid value is the mean final true gradient norm over
    repeats; any diverged repeat ranks the value strictly after every
    fully converged one. Every grid value is checked before the problem
    is built, once, for the whole sweep. Returns (best value, {value:
    records}).
    """
    if algo_name not in SWEEPABLE_PARAM:
        raise ConfigError(
            f"{algo_name} does not expose a tunable step-size scale"
        )
    grid = list(DEFAULT_SWEEP_GRID if grid is None else grid)
    if not grid:
        raise ConfigError("sweep grid is empty")
    if any(v <= 0 for v in grid):
        raise ConfigError("sweep grid values must be positive")
    param = SWEEPABLE_PARAM[algo_name]
    base = next((a for a in config.algorithms if a.name == algo_name), None)
    base_params = dict(base.params) if base is not None else {}
    trials = []
    for value in grid:
        params = dict(base_params)
        params[param] = value
        trial_config = replace(
            config, algorithms=[AlgorithmSpec(name=algo_name, params=params)]
        )
        check_settings(trial_config)
        trials.append((value, trial_config))
    problem = build_problem(config.problem)
    results: dict = {}
    scores = []
    for value, trial_config in trials:
        records = _run_on_problem(trial_config, problem)
        results[value] = records
        if any(r.diverged for r in records):
            scores.append(float("inf"))
        else:
            scores.append(float(np.mean([r.final_grad_norm for r in records])))
    best = grid[int(np.argmin(scores))]
    return best, results


def _format_float(value: float) -> str:
    return repr(float(value))


def records_to_row_dicts(records) -> list:
    rows = []
    for record in records:
        for row in record.rows:
            rows.append(
                {
                    "algo": record.algo,
                    "seed": record.seed,
                    "epoch": row.epoch,
                    "oracle_calls": row.oracle_calls,
                    "loss": row.loss,
                    "grad_norm": row.grad_norm,
                    "step_size": row.step_size,
                }
            )
    return rows


def emit_records(records, fmt: str, path: str) -> None:
    """Write records as CSV (fixed column set) or JSON (array of row objects).

    Float formatting uses the shortest round-trip representation, so
    reading the file back reproduces every value exactly.
    """
    if not records:
        raise ValueError("no records to emit")
    if fmt == "csv":
        lines = [CSV_HEADER]
        for row in records_to_row_dicts(records):
            lines.append(
                ",".join(
                    [
                        row["algo"],
                        str(row["seed"]),
                        str(row["epoch"]),
                        str(row["oracle_calls"]),
                        _format_float(row["loss"]),
                        _format_float(row["grad_norm"]),
                        _format_float(row["step_size"]),
                    ]
                )
            )
        text = "\n".join(lines) + "\n"
    elif fmt == "json":
        text = json.dumps(records_to_row_dicts(records), indent=1) + "\n"
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _rows_to_records(row_dicts) -> list:
    records: list = []
    for row in row_dicts:
        key = (row["algo"], int(row["seed"]))
        if not records or (records[-1].algo, records[-1].seed) != key:
            records.append(RunRecord(algo=row["algo"], seed=int(row["seed"]), rows=[]))
        records[-1].rows.append(
            EpochRow(
                epoch=int(row["epoch"]),
                oracle_calls=int(row["oracle_calls"]),
                loss=float(row["loss"]),
                grad_norm=float(row["grad_norm"]),
                step_size=float(row["step_size"]),
            )
        )
    return records


def load_records(path: str, fmt: str) -> list:
    """Read back records written by :func:`emit_records`."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "csv":
        lines = [ln for ln in text.splitlines() if ln]
        if not lines or lines[0] != CSV_HEADER:
            raise ValueError(f"{path} does not start with the expected CSV header")
        row_dicts = []
        for line in lines[1:]:
            algo, seed, epoch, calls, loss, norm, step = line.split(",")
            row_dicts.append(
                {
                    "algo": algo,
                    "seed": seed,
                    "epoch": epoch,
                    "oracle_calls": calls,
                    "loss": loss,
                    "grad_norm": norm,
                    "step_size": step,
                }
            )
    elif fmt == "json":
        row_dicts = json.loads(text)
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    return _rows_to_records(row_dicts)


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build a validated config from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    known = {
        "problem",
        "algorithms",
        "steps",
        "epochs",
        "repeats",
        "master_seed",
        "out",
        "format",
    }
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    prob_doc = dict(doc.get("problem", {}))
    if "lambda" in prob_doc:
        prob_doc["lam"] = prob_doc.pop("lambda")
    if "layer_dims" in prob_doc:
        dims = prob_doc["layer_dims"]
        if not isinstance(dims, (list, tuple)):
            raise ConfigError(f"problem.layer_dims must be a list, got {dims!r}")
        prob_doc["layer_dims"] = tuple(_as_int(v) for v in dims)
    for name in ("n", "d", "data_seed"):
        if name in prob_doc:
            prob_doc[name] = _as_int(prob_doc[name])
    prob_fields = {
        "path",
        "synthetic",
        "n",
        "d",
        "data_seed",
        "loss",
        "lam",
        "scale",
        "layer_dims",
        "c_init",
    }
    unknown = set(prob_doc) - prob_fields
    if unknown:
        raise ConfigError(f"unknown problem fields: {sorted(unknown)}")
    problem = ProblemSpec(**prob_doc)
    algorithms = []
    for entry in doc.get("algorithms", []):
        entry = dict(entry)
        name = entry.pop("name", None)
        if name is None:
            raise ConfigError("every algorithm entry needs a 'name'")
        params = entry.pop("params", {})
        params.update(entry)
        algorithms.append(AlgorithmSpec(name=name, params=params))
    # integer fields are converted only when integral; any other value stays
    # as given, for check_settings to name
    return ExperimentConfig(
        problem=problem,
        algorithms=algorithms,
        steps=_as_int(doc.get("steps")),
        epochs=_as_int(doc.get("epochs")),
        repeats=_as_int(doc.get("repeats", 5)),
        master_seed=_as_int(doc.get("master_seed", 0)),
        out=doc.get("out"),
        format=doc.get("format", "csv"),
    )
