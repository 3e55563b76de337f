"""Experiment configuration, multi-seed execution, and trace serialization.

A run is fully determined by (config, master seed): per repeat, every
algorithm starts from the identical initial point, and each (algorithm,
repeat) pair gets its own rng stream derived from the master seed, a
stable hash of the algorithm name, and the repeat index.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import zlib
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Iterator

import numpy as np

from .core import FiniteSumProblem
from .data import SYNTHETIC_KINDS, generate_synthetic, load_libsvm, scale_features
# run_algorithm calls the *_run names through this module's namespace, so
# that a wrapper installed on harness.<name>_run is the one that runs.
from .optimizers import (  # noqa: F401
    AdaSpiderConfig,
    EpochRow,
    RunTrace,
    _adagrad_norm_method,
    _adaspider_method,
    _Method,
    _sgd_method,
    _spider_method,
    _spiderboost_method,
    _svrg_method,
    adagrad_norm_run,
    adaspider_run,
    ceil_sqrt,
    lockstep_run,
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

# Initial-step grid of the standard parameter sweep.
DEFAULT_SWEEP_GRID = (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3)

CSV_HEADER = "algo,seed,epoch,oracle_calls,loss,grad_norm,step_size"


class ConfigError(ValueError):
    """Invalid experiment configuration; raised before any run starts."""


# Parameter defaults taken from the problem; "L" is its smoothness constant,
# which a problem may not know (None).
_PROBLEM_DEFAULTS = {
    "n": lambda problem: problem.n,
    "ceil(sqrt(n))": lambda problem: ceil_sqrt(problem.n),
    "L": lambda problem: problem.known_smoothness,
}


@dataclass(frozen=True)
class Algorithm:
    """One registry row: a method's builder and its parameters.

    ``params`` maps each key the algorithm reads to (type, default). Every
    value must be positive and finite; a default named in _PROBLEM_DEFAULTS
    comes from the problem, and None leaves the key unset.

    - ``build(problem, **args(p, steps))``: the checked ``optimizers._Method``;
    - ``flags``: the keys that `run` and `sweep` also take as --<key>;
    - ``sweep``: the key a step-size sweep tunes;
    - ``args(p, steps)``: the keyword arguments of ``<name>_run``.
    """

    build: Callable
    params: dict
    flags: tuple = ()
    sweep: str | None = None
    args: Callable = lambda p, steps: dict(p, steps=steps)


def _spiderboost_args(p: dict, steps: int) -> dict:
    # SpiderBoost steps by 1/smoothness; eta, when set, is that step itself
    eta = p.pop("eta")
    if eta is not None:
        p["smoothness"] = 1.0 / eta
    return dict(p, steps=steps)


# The algorithm registry. Names, methods, parameter checks, dispatch, step
# budgets, oracle-call counts and the CLI's parameter flags all follow from
# it. The comment on each row names its step rule.
ALGORITHMS = {
    # the AdaSpider step: parameter-free, so not sweepable
    "adaspider": Algorithm(
        _adaspider_method,
        {"beta0": (float, 1.0), "g0": (float, 1.0), "period": (int, "n"),
         "inner_batch": (int, 1)},
        flags=("beta0", "g0"),
        args=lambda p, steps: {"config": AdaSpiderConfig(steps=steps, **p)},
    ),
    # the eps-tied step
    "spider": Algorithm(
        _spider_method,
        {"eps": (float, 0.01), "smoothness": (float, "L"), "period": (int, "n"),
         "inner_batch": (int, 1)},
        flags=("eps", "smoothness"), sweep="eps",
        args=lambda p, steps: {"epsilon": p.pop("eps"), **p, "steps": steps},
    ),
    # a constant step: 1/smoothness, or eta when set
    "spiderboost": Algorithm(
        _spiderboost_method,
        {"eta": (float, None), "smoothness": (float, "L"),
         "period": (int, "ceil(sqrt(n))"), "batch_size": (int, "ceil(sqrt(n))")},
        flags=("eta", "smoothness"), sweep="eta",
        args=_spiderboost_args,
    ),
    # a constant step eta
    "svrg": Algorithm(
        _svrg_method,
        {"eta": (float, 0.01), "epoch_length": (int, "n"), "inner_batch": (int, 1)},
        flags=("eta",), sweep="eta",
    ),
    # a constant step eta
    "sgd": Algorithm(_sgd_method, {"eta": (float, 0.01)}, flags=("eta",), sweep="eta"),
    # the AdaGrad-Norm step
    "adagrad_norm": Algorithm(
        _adagrad_norm_method,
        {"eta": (float, 0.01), "b0": (float, 1e-4)}, flags=("eta",), sweep="eta"
    ),
}
ALGORITHM_NAMES = tuple(ALGORITHMS)


@dataclass
class AlgorithmSpec:
    name: str
    params: dict = field(default_factory=dict)


# The kinds of config field, and how an error names each.
_KIND_WORDS = {int: "an integer", numbers.Real: "a number", bool: "true or false",
               str: "a string", list: "a list", dict: "a JSON object"}


@dataclass(frozen=True)
class Rule:
    """A config field's rule, held in the field's ``metadata["rule"]``:
    its ``kind``, a key of _KIND_WORDS or a tuple of the allowed values;
    the ``bound`` a value of that kind must pass, as a test and the words
    of its error; and, for a field only synthetic data reads, the losses
    that read it. An unread field is checked for its kind alone, or not
    at all if it has allowed values."""

    kind: object
    bound: tuple = (lambda value: True, "")
    reads: tuple | None = None

    def check(self, name: str, value, problem: ProblemSpec | None) -> None:
        """Raise a ConfigError naming ``name`` unless ``value`` keeps the rule."""
        read = self.reads is None or (not problem.path and problem.loss in self.reads)
        if isinstance(self.kind, tuple):
            test, words = self.kind.__contains__, f"be one of {list(self.kind)}"
        else:
            _require(name, value, self.kind)
            test, words = self.bound
        if read and not test(value):
            shown = list(value) if isinstance(value, tuple) else value
            raise ConfigError(f"{name} must {words}, got {shown!r}")


def _ruled(default, kind, bound=Rule.bound, reads=None):
    """A config dataclass field with its Rule."""
    return field(default=default, metadata={"rule": Rule(kind, bound, reads)})


def _ints_as_ints(spec) -> None:
    """Each integer field of ``spec`` through _as_int, on construction: an
    integral float runs as its integer, from a document or from Python."""
    for f in fields(spec):
        if "rule" in f.metadata and f.metadata["rule"].kind is int:
            setattr(spec, f.name, _as_int(getattr(spec, f.name)))


_LOSSES = ("logistic", "squared", "mlp")
_AT_LEAST_1 = (lambda value: value >= 1, "be at least 1")
_NON_NEGATIVE = (lambda value: value >= 0, "be non-negative")
_POSITIVE_FINITE = (lambda value: 0 < value < math.inf, "be positive and finite")
_A_FILE = (lambda value: value != "", "name a file")


@dataclass
class ProblemSpec:
    """Either a LibSVM file or a synthetic dataset, plus the objective.

    ``loss`` is "logistic" or "squared" for the regularized ERM setups,
    or "mlp" for the small classification network (then ``layer_dims``
    and ``c_init`` apply, and the synthetic kind should be the cluster
    generator). Synthetic data reads ``n``, and ``d`` unless the
    network's ``layer_dims`` set it; only logistic loss reads the kind.
    """

    path: str | None = _ruled(None, str, _A_FILE)
    synthetic: str = _ruled("separable-logistic", SYNTHETIC_KINDS, reads=("logistic",))
    n: int = _ruled(64, int, _AT_LEAST_1, reads=_LOSSES)
    d: int = _ruled(10, int, _AT_LEAST_1, reads=("logistic", "squared"))
    data_seed: int = _ruled(0, int, _NON_NEGATIVE)
    loss: str = _ruled("logistic", _LOSSES)
    lam: float = _ruled(
        0.1, numbers.Real, (lambda value: 0 <= value < math.inf, "be non-negative and finite")
    )
    scale: bool = _ruled(False, bool)
    layer_dims: tuple = _ruled((20, 16, 16, 4), list, (
        lambda dims: len(dims) >= 2 and all(_is_integer(k) and k >= 1 for k in dims),
        "list at least input and output sizes, each a positive integer",
    ))
    c_init: float = _ruled(0.01, numbers.Real, _POSITIVE_FINITE)

    def __post_init__(self):
        _ints_as_ints(self)
        _require("problem.layer_dims", self.layer_dims, list)
        self.layer_dims = tuple(map(_as_int, self.layer_dims))


@dataclass
class ExperimentConfig:
    problem: ProblemSpec
    algorithms: list
    steps: int | None = _ruled(None, int, _AT_LEAST_1)
    epochs: int | None = _ruled(None, int, _AT_LEAST_1)
    repeats: int = _ruled(5, int, _AT_LEAST_1)
    master_seed: int = _ruled(0, int, _NON_NEGATIVE)
    out: str | None = _ruled(None, str, _A_FILE)
    format: str = _ruled("csv", ("csv", "json"))

    __post_init__ = _ints_as_ints


# Every config field with a rule, by the name its errors give it.
CONFIG_FIELDS = {
    prefix + f.name: f
    for prefix, spec in (("", ExperimentConfig), ("problem.", ProblemSpec))
    for f in fields(spec) if "rule" in f.metadata
}


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
    if spec.loss not in _LOSSES:
        raise ConfigError(f"unknown loss kind {spec.loss!r}")
    if spec.path:
        try:
            dataset = load_libsvm(spec.path)
        except OSError as exc:
            raise ConfigError(f"problem.path cannot be read: {exc}") from None
    elif spec.loss == "mlp":
        dataset = generate_synthetic(
            "two-cluster-classification",
            spec.n,
            spec.layer_dims[0],
            spec.data_seed,
            n_classes=spec.layer_dims[-1],
        )
    else:
        kind = spec.synthetic if spec.loss == "logistic" else "quadratic"
        dataset = generate_synthetic(kind, spec.n, spec.d, spec.data_seed)
    if spec.scale:
        dataset = scale_features(dataset)
    if spec.loss == "mlp":
        return MLPClassificationProblem(dataset, spec.layer_dims)
    try:
        return RegularizedERM(dataset, loss_kind=spec.loss, lam=spec.lam)
    except ValueError as exc:
        if spec.path or spec.loss != "logistic":
            raise
        # the only error left for synthetic data: labels logistic loss cannot use
        raise ConfigError(
            f"problem.synthetic {spec.synthetic!r} does not fit logistic loss: {exc}"
        ) from None


def initial_point(
    spec: ProblemSpec, problem: FiniteSumProblem, master_seed: int, repeat: int
) -> np.ndarray:
    """Zero vector for ERM, seeded scaled-uniform init for the network.

    Depends on (master seed, repeat) only, so all algorithms of a repeat
    start from the bit-identical point.
    """
    if spec.loss == "mlp":
        rng = np.random.default_rng([master_seed, repeat])
        return kaiming_uniform_scaled_init(spec.layer_dims, spec.c_init, rng)
    return np.zeros(problem.d)


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


def _require(field_name: str, value, kind):
    """``value``, once it is of ``kind``, a key of _KIND_WORDS: an int is any
    integral number, a list may be a tuple, and only bool takes a bool."""
    if kind is int:
        ok = _is_integer(value)
    else:
        ok = isinstance(value, (list, tuple) if kind is list else kind)
    if not ok or (isinstance(value, bool) and kind is not bool):
        raise ConfigError(f"{field_name} must be {_KIND_WORDS[kind]}, got {value!r}")
    return value


def _check_params(spec: AlgorithmSpec) -> Algorithm:
    """``spec``'s registry row, once every configured parameter, in order,
    is one the algorithm reads, of its type, positive and finite."""
    row = ALGORITHMS.get(spec.name)
    if row is None:
        raise ConfigError(f"unknown algorithm {spec.name!r}")
    for key, value in spec.params.items():
        if key not in row.params:
            raise ConfigError(f"unknown parameter {key!r} for {spec.name}")
        kind = int if row.params[key][0] is int else numbers.Real
        Rule(kind, _POSITIVE_FINITE).check(f"{spec.name}: parameter {key!r}", value, None)
    return row


def _resolve(spec: AlgorithmSpec, problem: FiniteSumProblem) -> tuple[Algorithm, dict]:
    """``spec``'s row and all its parameters, typed, with defaults filled in."""
    row = _check_params(spec)
    params = {}
    for key, (kind, default) in row.params.items():
        value = spec.params.get(key, default)
        if isinstance(value, str):
            value = _PROBLEM_DEFAULTS[value](problem)
        params[key] = None if value is None else kind(value)
    # a step rule that reads a smoothness needs one, unless eta sets the step
    if "smoothness" in params and params["smoothness"] is None and params.get("eta") is None:
        raise ConfigError(
            f"{spec.name} needs a smoothness constant: pass 'smoothness' or use "
            "a problem that provides one"
        )
    return row, params


def check_settings(config: ExperimentConfig) -> None:
    """Every check that needs no problem instance, run before it is built:
    each rule in CONFIG_FIELDS, where None passes as a field's default, then
    the rules that span fields, then each algorithm's parameters."""
    for name, f in CONFIG_FIELDS.items():
        value = getattr(config.problem if name.startswith("problem.") else config, f.name)
        if value is not None or f.default is not None:
            f.metadata["rule"].check(name, value, config.problem)
    if (config.steps is None) == (config.epochs is None):
        raise ConfigError("exactly one of 'steps' and 'epochs' must be set")
    if not config.algorithms:
        raise ConfigError("algorithms must list at least one algorithm")
    for spec in config.algorithms:
        _check_params(spec)


def _method(spec: AlgorithmSpec, problem: FiniteSumProblem, steps: int) -> _Method:
    """The checked description of ``steps`` steps of ``spec``."""
    row, p = _resolve(spec, problem)
    return row.build(problem, **row.args(p, steps))


def _costs(spec: AlgorithmSpec, problem: FiniteSumProblem) -> tuple[int, int, int]:
    """(period, calls per reset, calls per inner step) of ``spec``."""
    return _method(spec, problem, 1).costs(problem.n)


def closed_form_oracle_calls(
    spec: AlgorithmSpec, problem: FiniteSumProblem, steps: int
) -> int:
    """Charged calls of ``steps`` steps: one reset at every t < steps with
    t % period == 0, one inner step at every other t."""
    period, reset, inner = _costs(spec, problem)
    resets = -(-steps // period)
    return reset * resets + inner * (steps - resets)


def steps_for_budget(
    spec: AlgorithmSpec, problem: FiniteSumProblem, budget_calls: int
) -> int:
    """Largest step count whose charged calls stay within the budget.

    At least one step runs, even when the budget is below one reset's cost.
    """
    period, reset, inner = _costs(spec, problem)
    cycle_cost = reset + inner * (period - 1)
    cycles, remainder = divmod(budget_calls, cycle_cost)
    extra = 0
    if remainder >= reset:  # so period > 1 and inner > 0
        extra = 1 + min(period - 1, (remainder - reset) // inner)
    return max(1, cycles * period + extra)


def run_algorithm(
    spec: AlgorithmSpec,
    problem: FiniteSumProblem,
    x0: np.ndarray,
    steps: int,
    rng: np.random.Generator,
    *,
    group: Iterator | None = None,
) -> RunTrace:
    """Run ``spec`` through ``<name>_run``, looked up in this module when
    called; or, when the run is in a lockstep ``group``, take the group's
    next outcome, raising it if it is an error."""
    if group is not None:
        outcome = next(group)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome
    row, p = _resolve(spec, problem)
    run = globals()[f"{spec.name}_run"]
    return run(problem, x0, rng=rng, **row.args(p, steps))


def _run_rng(master_seed: int, algo_name: str, repeat: int) -> np.random.Generator:
    # crc32 gives a stable per-name stream independent of list order
    return np.random.default_rng([master_seed, zlib.crc32(algo_name.encode()), repeat])


def run_experiment(config: ExperimentConfig) -> list:
    """Execute every (algorithm, repeat) pair; |records| = algorithms x repeats.

    Everything raised before the first run starts is a ConfigError: a
    ValueError from the settings, the data, the problem build or a
    method's own checks is raised again as one, with the same text.
    """
    try:
        check_settings(config)
        problem = build_problem(config.problem)
        plan = _plan(config, problem)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return _execute(problem, plan)


def _plan(config: ExperimentConfig, problem: FiniteSumProblem) -> list:
    """The runs of ``config`` on ``problem``, already built from
    ``config.problem`` after ``check_settings(config)`` passed: one
    (spec, repeat, x0, method, rng) per (algorithm, repeat) pair, in order,
    where ``method`` is the spec's checked description, built once. The
    specs' checks that need the problem run here, in spec order."""
    plan = []
    for spec in config.algorithms:
        if config.steps is not None:
            steps = config.steps
        else:
            steps = steps_for_budget(spec, problem, config.epochs * problem.n)
        method = _method(spec, problem, steps)
        for repeat in range(config.repeats):
            x0 = initial_point(config.problem, problem, config.master_seed, repeat)
            rng = _run_rng(config.master_seed, spec.name, repeat)
            plan.append((spec, repeat, x0, method, rng))
    return plan


def _execute(problem: FiniteSumProblem, plan: list) -> list:
    """One record per planned run, in order.

    Consecutive runs of one algorithm whose methods share a
    ``lockstep_key`` (step count, period and inner batch) step together as
    one :func:`lockstep_run` group. Every run still makes one
    :func:`run_algorithm` call, in plan order, and a group steps nothing
    before its first one.
    """
    records = []
    for _key, runs in itertools.groupby(plan, key=lambda run: (run[0].name, run[3].lockstep_key)):
        runs = list(runs)
        members = [(method, x0, rng) for _, _, x0, method, rng in runs]
        group = lockstep_run(problem, runs[0][0].name, members) if len(runs) > 1 else None
        for spec, repeat, x0, method, rng in runs:
            trace = run_algorithm(spec, problem, x0, method.steps, rng, group=group)
            records.append(RunRecord(algo=spec.name, seed=repeat, rows=list(trace.epoch_rows)))
    return records


def sweep_overrides(algo_name: str) -> tuple:
    """The keys no run of a sweep of ``algo_name`` reads from its entry: the
    swept key, set on every run, then SpiderBoost's smoothness, whose
    1/smoothness step the swept eta replaces. Empty if no sweep tunes it."""
    swept = getattr(ALGORITHMS.get(algo_name), "sweep", None)
    if swept is None:
        return ()
    return (swept, "smoothness") if algo_name == "spiderboost" else (swept,)


def sweep_step_size(config: ExperimentConfig, algo_name: str, grid=None):
    """Run a scale sweep for one algorithm and pick the best grid value.

    The sweep is one experiment: ``config`` with its algorithms replaced by
    one ``algo_name`` entry per grid value, each keeping the parameters of
    the configured ``algo_name`` entry, if any. Every configured entry is
    checked first, as a run of ``config`` checks it, and the swept entry
    may set none of :func:`sweep_overrides`. The score of a grid value is
    the mean final true gradient norm over repeats; any diverged repeat
    ranks the value strictly after every fully converged one.
    Returns (best value, {value: records}).
    """
    param = _check_params(AlgorithmSpec(name=algo_name)).sweep
    if param is None:
        raise ConfigError(f"{algo_name} does not expose a tunable step-size scale")
    grid = list(DEFAULT_SWEEP_GRID if grid is None else grid)
    if not grid:
        raise ConfigError("sweep grid is empty")
    for spec in config.algorithms:
        _check_params(spec)
    base = next((a.params for a in config.algorithms if a.name == algo_name), {})
    unread = [key for key in sweep_overrides(algo_name) if key in base]
    if unread:
        raise ConfigError(
            f"{algo_name}: parameter {unread[0]!r} is not read by a sweep of {algo_name}, "
            f"which sets {param} on every run"
        )
    specs = [AlgorithmSpec(name=algo_name, params={**base, param: value}) for value in grid]
    records = run_experiment(replace(config, algorithms=specs))
    repeats = len(records) // len(grid)
    trials = [records[k * repeats : (k + 1) * repeats] for k in range(len(grid))]
    scores = [
        math.inf if any(r.diverged for r in trial)
        else float(np.mean([r.final_grad_norm for r in trial]))
        for trial in trials
    ]
    return grid[int(np.argmin(scores))], dict(zip(grid, trials))


def _format_float(value: float) -> str:
    return repr(float(value))


def records_to_row_dicts(records) -> list:
    """One dict per epoch row, keyed by the CSV columns in their order."""
    return [
        {"algo": record.algo, "seed": record.seed, **vars(row)}
        for record in records
        for row in record.rows
    ]


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
            # algo, seed, epoch and oracle_calls as they are, then the floats
            cells = list(row.values())
            lines.append(",".join([*map(str, cells[:4]), *map(_format_float, cells[4:])]))
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
        columns = CSV_HEADER.split(",")
        row_dicts = [dict(zip(columns, line.split(","), strict=True)) for line in lines[1:]]
    elif fmt == "json":
        row_dicts = json.loads(text)
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    return _rows_to_records(row_dicts)


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build a config from a parsed JSON document; check_settings checks
    its values, and ``lambda`` is checked here, under its own name."""
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    unknown = set(doc) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    prob_doc = dict(_require("problem", doc.get("problem", {}), dict))
    if "lambda" in prob_doc:
        if "lam" in prob_doc:
            raise ConfigError("problem.lam is set both as 'lam' and as 'lambda'")
        rule = CONFIG_FIELDS["problem.lam"].metadata["rule"]
        rule.check("problem.lambda", prob_doc["lambda"], None)
        prob_doc["lam"] = prob_doc.pop("lambda")
    unknown = set(prob_doc) - {f.name for f in fields(ProblemSpec)}
    if unknown:
        raise ConfigError(f"unknown problem fields: {sorted(unknown)}")
    algorithms = []
    for entry in _require("algorithms", doc.get("algorithms", []), list):
        entry = dict(_require("algorithms entry", entry, dict))
        name = entry.pop("name", None)
        if name is None:
            raise ConfigError("every algorithm entry needs a 'name'")
        _require("algorithm name", name, str)
        params = _require(f"{name}: params", entry.pop("params", {}), dict)
        twice = [key for key in params if key in entry]
        if twice:
            raise ConfigError(f"{name}: parameter {twice[0]!r} is set both in and beside 'params'")
        algorithms.append(AlgorithmSpec(name=name, params={**params, **entry}))
    return ExperimentConfig(**dict(doc, problem=ProblemSpec(**prob_doc), algorithms=algorithms))
