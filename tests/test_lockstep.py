"""Lockstep groups: the runs of one method stepped together as one iterate
block give the traces, oracle counts, errors and records of the same runs
stepped one at a time."""

import hashlib
import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import adaspider.harness as harness
import adaspider.optimizers as optimizers
from adaspider.cli import main
from adaspider.core import FiniteSumProblem, NonFiniteGradientError
from adaspider.data import generate_synthetic
from adaspider.harness import ALGORITHM_NAMES, AlgorithmSpec, closed_form_oracle_calls
from adaspider.optimizers import (
    AdaSpiderConfig,
    RunTrace,
    lockstep_run,
    svrg_run,
)
from adaspider.problems import (
    MLPClassificationProblem,
    QuadraticProblem,
    RegularizedERM,
    kaiming_uniform_scaled_init,
)

FAMILIES = ("logistic", "squared", "quadratic", "mlp")
MLP_DIMS = (3, 4, 2)
# A member's step scale: eta of sgd, AdaGrad-Norm and SVRG, eps and
# 1/smoothness of SPIDER, 1/smoothness of SpiderBoost, 1/beta0 of AdaSpider.
SCALES = (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3)


def make_problem(family: str, n: int, d: int, seed: int) -> FiniteSumProblem:
    """A small instance of ``family``; the network's dimension is set by
    MLP_DIMS."""
    rng = np.random.default_rng(seed)
    if family == "quadratic":
        return QuadraticProblem.random(n, d, rng)
    if family == "mlp":
        clusters = generate_synthetic(
            "two-cluster-classification", n, MLP_DIMS[0], seed, n_classes=MLP_DIMS[-1]
        )
        return MLPClassificationProblem(clusters, MLP_DIMS)
    kind = "separable-logistic" if family == "logistic" else "quadratic"
    return RegularizedERM(generate_synthetic(kind, n, d, seed), loss_kind=family)


def start_point(family: str, problem, seed: int, scale: float) -> np.ndarray:
    rng = np.random.default_rng([seed, 7])
    if family == "mlp":
        return kaiming_uniform_scaled_init(MLP_DIMS, 0.1, rng).params
    return scale * rng.standard_normal(problem.d)


def method_args(algo, k, scale, steps, period, batch) -> dict:
    """The arguments of member k's ``<algo>_run`` call besides x0 and rng."""
    if algo == "sgd":
        return {"eta": scale, "steps": steps}
    if algo == "adagrad_norm":
        return {"eta": scale, "b0": 0.5 + k, "steps": steps}
    if algo == "svrg":
        return {"eta": scale, "epoch_length": period, "inner_batch": batch, "steps": steps}
    if algo == "adaspider":
        config = AdaSpiderConfig(
            steps=steps, beta0=1.0 / scale, g0=0.5 + k, period=period, inner_batch=batch
        )
        return {"config": config}
    if algo == "spider":
        return {
            "epsilon": scale, "smoothness": 1.0 / scale, "steps": steps,
            "period": period, "inner_batch": batch,
        }
    return {"smoothness": 1.0 / scale, "steps": steps, "period": period, "batch_size": batch}


def group_runs(algo, scales, x0s, seed, steps, period, batch):
    """The keyword arguments of one ``<algo>_run`` call per member."""
    return [
        dict(method_args(algo, k, scale, steps, period, batch), x0=x0,
             rng=np.random.default_rng([seed, k]))
        for k, (scale, x0) in enumerate(zip(scales, x0s))
    ]


def registry_spec(algo, kw) -> AlgorithmSpec:
    """The registry spec of a ``<algo>_run`` call's arguments."""
    params = {key: v for key, v in kw.items() if key not in ("x0", "rng", "steps")}
    if algo == "adaspider":
        params = {key: getattr(params["config"], key)
                  for key in ("beta0", "g0", "period", "inner_batch")}
    elif algo == "spider":
        params["eps"] = params.pop("epsilon")
    return AlgorithmSpec(algo, params={key: v for key, v in params.items() if v is not None})


def bits(value):
    """A value down to the bytes of its floats, for exact comparison."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return ("float", np.float64(value).tobytes())
    if isinstance(value, list):
        return [bits(v) for v in value]
    if hasattr(value, "__dataclass_fields__"):
        return [(f.name, bits(getattr(value, f.name))) for f in fields(value)]
    return (type(value).__name__, value)


def assert_same_trace(got: RunTrace, want: RunTrace) -> None:
    for f in fields(RunTrace):
        assert bits(getattr(got, f.name)) == bits(getattr(want, f.name)), f.name


class RecordingCounter(optimizers.OracleCounter):
    made: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        RecordingCounter.made.append(self)


def counted(fn):
    """``fn()`` and the counters the runs it made created, in order."""
    RecordingCounter.made = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizers, "OracleCounter", RecordingCounter)
        result = fn()
    return result, list(RecordingCounter.made)


def fresh_rng(kw) -> np.random.Generator:
    return np.random.default_rng(kw["rng"].bit_generator.seed_seq)


def one_at_a_time(problem, algo, runs, keep_path=False) -> list:
    run = getattr(optimizers, f"{algo}_run")
    outcomes = []
    for kw in runs:
        kw = dict(kw, rng=fresh_rng(kw))
        try:
            outcomes.append(run(problem, **kw, keep_path=keep_path))
        except NonFiniteGradientError as exc:
            outcomes.append(exc)
    return outcomes


def check_group(problem, algo, runs, keep_path=False):
    """Lockstep outcomes equal the sequential ones, and every counter
    holds the closed-form count of its run's steps; returns the traces.
    With ``keep_path`` "iterates" the sequential runs keep their whole
    path and the group's traces lack only the estimates."""
    sequential, seq_counters = counted(
        lambda: one_at_a_time(problem, algo, runs, bool(keep_path))
    )
    grouped, counters = counted(lambda: lockstep_run(problem, algo, runs, keep_path=keep_path))
    assert len(grouped) == len(sequential) == len(counters) == len(seq_counters)
    for got, want, counter, seq_counter, kw in zip(
        grouped, sequential, counters, seq_counters, runs
    ):
        assert counter.component_calls == seq_counter.component_calls
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want)
            continue
        if keep_path == "iterates":
            want = replace(want, estimates=None)
        assert_same_trace(got, want)
        assert (got.iterates is not None) == bool(keep_path)
        spec = registry_spec(algo, kw)
        assert counter.component_calls == closed_form_oracle_calls(spec, problem, got.num_steps)
    return grouped


class TestGroupEqualsRuns:
    @settings(max_examples=150, deadline=None)
    @given(
        family=st.sampled_from(FAMILIES),
        algo=st.sampled_from(ALGORITHM_NAMES),
        n=st.integers(min_value=1, max_value=12),
        d=st.integers(min_value=1, max_value=4),
        scales=st.lists(st.sampled_from(SCALES), min_size=2, max_size=9),
        steps=st.integers(min_value=1, max_value=60),
        period=st.one_of(st.none(), st.integers(min_value=1, max_value=15)),
        batch=st.integers(min_value=1, max_value=4),
        scale=st.sampled_from([0.0, 1.0]),
        seed=st.integers(min_value=0, max_value=10_000),
        # index draws and step records are taken in chunks of this size
        chunk=st.sampled_from([1, 2, 5, 1024]),
        keep_path=st.sampled_from([False, True, "iterates"]),
    )
    @example("squared", "sgd", 8, 1, list(SCALES), 40, None, 1, 1.0, 0, 1024, False)
    @example("quadratic", "svrg", 6, 1, [0.1, 10.0, 1e3], 30, 4, 3, 1.0, 1, 2, True)
    @example("mlp", "adagrad_norm", 5, 1, [0.1, 1.0], 20, None, 1, 0.0, 2, 5, False)
    @example("logistic", "svrg", 9, 3, list(SCALES) + [0.5, 5.0], 50, 7, 2, 0.0, 3, 1, False)
    # a SPIDER batch of n or more takes the exact full-gradient difference
    @example("quadratic", "adaspider", 1, 2, [1.0, 10.0], 30, 5, 1, 1.0, 0, 5, True)
    @example("logistic", "spiderboost", 4, 3, list(SCALES), 40, 3, 4, 1.0, 1, 2, False)
    @example("mlp", "spider", 6, 1, [0.1, 1.0, 10.0], 25, 5, 2, 0.0, 2, 1, True)
    @example("squared", "adaspider", 10, 2, list(SCALES), 60, None, 3, 1.0, 4, 5, "iterates")
    def test_every_trace_field_bitwise(
        self, family, algo, n, d, scales, steps, period, batch, scale, seed, chunk, keep_path
    ):
        problem = make_problem(family, n, d, seed)
        x0s = [start_point(family, problem, seed + k, scale) for k in range(len(scales))]
        runs = group_runs(algo, scales, x0s, seed, steps, period, batch)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimizers, "_DRAW_CHUNK", chunk)
            mp.setattr(optimizers, "_RECORD_CHUNK", chunk)
            check_group(problem, algo, runs, keep_path)

    # AdaGrad-Norm's own step shrinks as it grows, so only its first steps
    # can diverge; a SPIDER step is at most scale^2 / sqrt(n) long.
    @pytest.mark.parametrize(
        "algo,scales,stop_steps",
        [
            ("sgd", [0.01, 0.3, 0.6, 1.0, 3.0, 10.0, 100.0, 1e4, 1e8], 3),
            ("svrg", [0.01, 0.3, 0.6, 1.0, 3.0, 10.0, 100.0, 1e4, 1e8], 3),
            ("adagrad_norm", list(np.geomspace(1e10, 1e13, 16)), 2),
            ("spider", list(np.geomspace(1e2, 1e8, 16)), 3),
            ("spiderboost", [0.01, 0.3, 0.6, 1.0, 3.0, 10.0, 100.0, 1e4, 1e8], 3),
        ],
    )
    def test_members_diverge_at_different_steps(self, algo, scales, stop_steps):
        problem = make_problem("squared", 10, 3, 1)
        runs = group_runs(algo, scales, [np.ones(3)] * len(scales), 5, 300, 5, 2)
        traces = check_group(problem, algo, runs, keep_path=True)
        assert len({t.diverged_at for t in traces if t.diverged}) >= stop_steps
        assert any(not t.diverged for t in traces)

    @pytest.mark.parametrize("batch", [6, 9])
    def test_spider_batch_of_n_or_more_draws_nothing(self, batch):
        # the exact full-gradient difference of spider_estimator_update
        problem = make_problem("logistic", 6, 3, 2)
        x0s = [start_point("logistic", problem, k, 1.0) for k in range(3)]
        runs = group_runs("spiderboost", [0.1, 1.0, 10.0], x0s, 2, 40, 4, batch)
        check_group(problem, "spiderboost", runs)
        for kw in runs:
            assert kw["rng"].bit_generator.state == fresh_rng(kw).bit_generator.state

    def test_spider_step_is_the_cap_where_its_denominator_underflows(self):
        # L sqrt(n) ||g|| = 1e-200 * sqrt(2) * 1e-150 is below the smallest
        # subnormal, so eps / (L sqrt(n) ||g||) would be +inf
        problem = QuadraticProblem(np.array([[[1.0]], [[1.0]]]), np.zeros((2, 1)))
        runs = group_runs("spider", [1.0, 1.0], [np.array([1e-150])] * 2, 0, 3, None, 1)
        for kw in runs:
            kw["smoothness"] = 1e-200
        traces = check_group(problem, "spider", runs)
        cap = 1.0 / (2.0 * math.sqrt(2) * 1e-200)
        assert all(t.step_sizes[0] == cap for t in traces)

    @pytest.mark.parametrize("algo", ALGORITHM_NAMES)
    @pytest.mark.parametrize("batch", [1, 3])
    def test_network_of_the_training_script(self, algo, batch):
        # the (20, 16, 16, 4) network, whose blocks are one pass at one
        # parameter vector per row
        dims = (20, 16, 16, 4)
        clusters = generate_synthetic("two-cluster-classification", 24, 20, 4, n_classes=4)
        problem = MLPClassificationProblem(clusters, dims)
        x0s = [kaiming_uniform_scaled_init(dims, 0.01, np.random.default_rng([4, k])).params
               for k in range(3)]
        runs = group_runs(algo, [0.1, 1.0, 10.0], x0s, 4, 40, 6, batch)
        check_group(problem, algo, runs, keep_path=True)

    def test_runs_must_share_steps_and_period(self):
        problem = make_problem("logistic", 6, 2, 0)
        runs = group_runs("svrg", [0.1, 0.2], [np.zeros(2)] * 2, 0, 10, 3, 1)
        runs[1]["epoch_length"] = 4
        with pytest.raises(ValueError, match="share"):
            lockstep_run(problem, "svrg", runs)
        runs = group_runs("adaspider", [0.1, 0.2], [np.zeros(2)] * 2, 0, 10, 3, 1)
        runs[1]["config"].inner_batch = 2
        with pytest.raises(ValueError, match="share"):
            lockstep_run(problem, "adaspider", runs)
        with pytest.raises(ValueError, match="lockstep"):
            lockstep_run(problem, "newton", runs)
        runs = group_runs("sgd", [0.1, 0.2], [np.zeros(2)] * 2, 0, 10, None, 1)
        runs[0]["keep_path"] = True
        with pytest.raises(TypeError, match="keep_path"):
            lockstep_run(problem, "sgd", runs)


# One bad argument of each run function: (algo, key, value, message). The
# AdaSpider keys are set on its config, which the run checks.
BAD_ARGUMENTS = [
    ("sgd", "eta", 0.0, "step size must be positive"),
    ("adagrad_norm", "eta", -1.0, "step size must be positive"),
    ("adagrad_norm", "b0", 0.0, "norm offset b0 must be positive"),
    ("svrg", "eta", 0.0, "step size must be positive"),
    ("svrg", "epoch_length", 0, "epoch length must be at least 1"),
    ("svrg", "inner_batch", 0, "inner batch size must be at least 1"),
    ("spider", "epsilon", 0.0, "target accuracy must be positive"),
    ("spider", "smoothness", -1.0, "smoothness constant must be positive"),
    ("spider", "period", 0, "full-gradient period must be at least 1"),
    ("spider", "inner_batch", 0, "inner batch size must be at least 1"),
    ("spiderboost", "smoothness", 0.0, "smoothness constant must be positive"),
    ("spiderboost", "period", 0, "full-gradient period must be at least 1"),
    ("spiderboost", "batch_size", 0, "inner batch size must be at least 1"),
    ("adaspider", "beta0", 0.0, "beta0 and G0 must be positive"),
    ("adaspider", "g0", -1.0, "beta0 and G0 must be positive"),
    ("adaspider", "period", 0, "full-gradient period must be at least 1"),
    ("adaspider", "inner_batch", 0, "inner batch size must be at least 1"),
    *[(algo, "steps", 0, "step budget must be at least 1") for algo in ALGORITHM_NAMES],
    ("spider", "x0", [math.nan, 0.0], "parameter vector contains non-finite entries"),
    ("sgd", "x0", [0.0], "expected dimension 2, got 1"),
]


@pytest.mark.parametrize("algo,key,value,message", BAD_ARGUMENTS)
def test_group_refuses_a_bad_argument_as_its_run_function(algo, key, value, message):
    problem = make_problem("logistic", 6, 2, 0)
    runs = group_runs(algo, [0.1, 0.2, 0.3], [np.zeros(2)] * 3, 0, 10, 3, 2)
    bad = runs[1]
    if algo == "adaspider" and key != "x0":
        setattr(bad["config"], key, value)
    else:
        bad[key] = value
    with pytest.raises(ValueError) as alone:
        getattr(optimizers, f"{algo}_run")(problem, **bad)
    with pytest.raises(ValueError) as grouped:
        lockstep_run(problem, algo, runs)
    assert type(grouped.value) is type(alone.value)
    assert str(grouped.value) == str(alone.value) == message


@pytest.mark.parametrize("cap,sizes", [(1 << 22, [6]), (40, [2, 2, 2]), (30, [1] * 6)])
def test_groups_split_to_bound_memory(monkeypatch, cap, sizes):
    # 3 grid values x 2 repeats of 20 steps: at most cap // 20 runs a group
    config = harness.ExperimentConfig(
        problem=harness.ProblemSpec(n=10, d=2),
        algorithms=[AlgorithmSpec("sgd")],
        steps=20,
        repeats=2,
    )
    want = harness.sweep_step_size(config, "sgd", [0.1, 1.0, 10.0])
    groups = []

    def counting(problem, algo, runs):
        groups.append(len(runs))
        return lockstep_run(problem, algo, runs)

    monkeypatch.setattr(harness, "_GROUP_RUN_STEPS", cap)
    monkeypatch.setattr(harness, "lockstep_run", counting)
    got = harness.sweep_step_size(config, "sgd", [0.1, 1.0, 10.0])
    assert groups == [size for size in sizes if size > 1]
    assert got[0] == want[0]
    assert bits(list(got[1].values())) == bits(list(want[1].values()))


def test_spider_family_repeats_step_as_groups(monkeypatch):
    # SpiderBoost's batch of n takes the exact full-gradient difference
    config = harness.ExperimentConfig(
        problem=harness.ProblemSpec(n=9, d=3),
        algorithms=[
            AlgorithmSpec("adaspider", params={"inner_batch": 2}),
            AlgorithmSpec("spider"),
            AlgorithmSpec("spiderboost", params={"batch_size": 9}),
        ],
        epochs=4,
        repeats=3,
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_GROUP_RUN_STEPS", 1)  # every run alone
        alone = harness.run_experiment(config)
    groups = []

    def counting(problem, algo, runs):
        groups.append((algo, len(runs)))
        return lockstep_run(problem, algo, runs)

    monkeypatch.setattr(harness, "lockstep_run", counting)
    grouped = harness.run_experiment(config)
    assert groups == [("adaspider", 3), ("spider", 3), ("spiderboost", 3)]
    assert bits(grouped) == bits(alone)


@settings(max_examples=40, deadline=None)
@given(
    n=st.sampled_from([1, 7, 500, 2**31 + 5]),
    chunks=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_chunked_draws_equal_scalar_draws(n, chunks, seed):
    chunked_rng, scalar_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    chunked = np.concatenate([chunked_rng.integers(n, size=k) for k in chunks])
    scalar = [int(scalar_rng.integers(n)) for _ in range(sum(chunks))]
    assert chunked.tolist() == scalar
    assert chunked_rng.bit_generator.state == scalar_rng.bit_generator.state


class Ramp(FiniteSumProblem):
    """n components of gradient -1 in one coordinate: every estimate is -1,
    so the iterate climbs by its step size each step. From its
    ``fault_at``-th evaluation at a positive point on, the full gradient
    there is infinite."""

    def __init__(self, n: int, fault_at: int | None = None):
        super().__init__(n=n, d=1)
        self.fault_at, self.positive_resets = fault_at, 0

    def component_value(self, i, x):
        return -float(x[0])

    def component_gradient(self, i, x):
        self._check_index(i)
        return np.array([-1.0])

    def mean_gradient(self, x):
        if x[0] > 0:
            self.positive_resets += 1
            if self.fault_at is not None and self.positive_resets >= self.fault_at:
                return np.array([math.inf])
        return np.array([-1.0])

    def metric_gradients(self, points):
        return -np.ones((len(points), 1))


def scalar_draws(algo, steps_taken: int, period: int, batch: int) -> int:
    """The values a run's first ``steps_taken`` steps draw one at a time:
    one a step for sgd and AdaGrad-Norm, ``batch`` an inner step otherwise."""
    if algo in ("sgd", "adagrad_norm"):
        return steps_taken
    return (steps_taken - -(-steps_taken // period)) * batch


def assert_left_after_scalar_draws(kw, n: int, count: int) -> None:
    fresh = fresh_rng(kw)
    for _ in range(count):
        fresh.integers(n)
    assert kw["rng"].bit_generator.state == fresh.bit_generator.state


def runs_or_group(problem, algo, runs, grouped: bool) -> list:
    """The outcomes of ``runs`` as one group, or made one at a time with
    their own generators."""
    if grouped:
        return lockstep_run(problem, algo, runs)
    outcomes = []
    for kw in runs:
        try:
            outcomes.append(getattr(optimizers, f"{algo}_run")(problem, **kw))
        except NonFiniteGradientError as exc:
            outcomes.append(exc)
    return outcomes


METHOD_BATCHES = [
    (algo, batch)
    for algo in ALGORITHM_NAMES
    for batch in ((1,) if algo in ("sgd", "adagrad_norm") else (1, 3))
]


class TestGeneratorLeftAsScalarDraws:
    """Index draws come in chunks, but a run leaves its generator where the
    scalar draws it consumed would, alone or in a group, whether it
    completed, diverged or met a non-finite reset gradient."""

    @pytest.mark.parametrize("grouped", [False, True])
    @pytest.mark.parametrize("algo,batch", METHOD_BATCHES)
    def test_diverged_and_completed_runs(self, algo, batch, grouped):
        # the first member climbs past the divergence limit within 40 steps
        problem = Ramp(10)
        x0s = [np.array([optimizers.DIVERGENCE_LIMIT - 5.0]), np.zeros(1)]
        runs = group_runs(algo, [1.0, 1.0], x0s, 3, 300, 10, batch)
        outcomes = runs_or_group(problem, algo, runs, grouped)
        assert outcomes[0].diverged and 2 < outcomes[0].num_steps < 40
        assert not outcomes[1].diverged and outcomes[1].num_steps == 300
        for trace, kw in zip(outcomes, runs):
            assert_left_after_scalar_draws(kw, 10, scalar_draws(algo, trace.num_steps, 10, batch))

    @pytest.mark.parametrize("grouped", [False, True])
    @pytest.mark.parametrize(
        "algo,batch", [(a, b) for a, b in METHOD_BATCHES if a not in ("sgd", "adagrad_norm")]
    )
    def test_non_finite_reset(self, algo, batch, grouped):
        # the first member's fourth reset, at step 30, is not finite
        problem = Ramp(10, fault_at=4)
        runs = group_runs(algo, [1e-3, 1e-3], [np.ones(1), np.array([-1e6])], 4, 300, 10, batch)
        outcomes = runs_or_group(problem, algo, runs, grouped)
        assert isinstance(outcomes[0], NonFiniteGradientError)
        assert outcomes[1].num_steps == 300
        assert_left_after_scalar_draws(runs[0], 10, scalar_draws(algo, 30, 10, batch))
        assert_left_after_scalar_draws(runs[1], 10, scalar_draws(algo, 300, 10, batch))

    def test_diverged_member_draws_on_as_its_run_alone(self):
        problem = RegularizedERM(generate_synthetic("quadratic", 50, 5, 0), "squared", 0.1)
        alone, member = np.random.default_rng(0), np.random.default_rng(0)
        trace = optimizers.sgd_run(problem, np.ones(5), 1e3, 300, alone)
        [grouped] = lockstep_run(
            problem, "sgd", [dict(x0=np.ones(5), eta=1e3, steps=300, rng=member)]
        )
        assert trace.diverged_at == grouped.diverged_at == 3
        assert member.integers(1000) == alone.integers(1000)


class SteepWall(FiniteSumProblem):
    """n components of slope 1 in one coordinate. Component i's gradient is
    infinite wherever x <= i - n - 1, so the first non-finite component of
    a full gradient depends on how far x has gone below -1."""

    def __init__(self, n: int):
        super().__init__(n=n, d=1)

    def component_value(self, i, x):
        return float(x[0])

    def component_gradient(self, i, x):
        self._check_index(i)
        return np.array([math.inf if x[0] <= i - self.n - 1 else 1.0])


class TestFaultOrder:
    # Resets every step. An SVRG member k reaches x = -eta_k * t at step t;
    # an AdaSpider member's first step is scale_k / (10^(1/4) sqrt(sqrt(10)
    # g0^2 + 1)) long, with g0 = 0.5 + k. The first member stays clear of
    # the wall, the second meets it at step 1 at component 9, the third at
    # step 1 at component 10.
    ETAS = [0.01, 2.5, 1.5]

    @pytest.mark.parametrize("algo,scales", [("svrg", ETAS), ("adaspider", [0.01, 12.7, 12.2])])
    def test_faulting_members_stop_and_others_finish(self, algo, scales):
        runs = group_runs(algo, scales, [np.zeros(1)] * 3, 0, 6, 1, 1)
        outcomes = check_group(SteepWall(10), algo, runs)
        assert isinstance(outcomes[0], RunTrace) and outcomes[0].num_steps == 6
        assert [str(e) for e in outcomes[1:]] == [
            "non-finite gradient from component 9",
            "non-finite gradient from component 10",
        ]

    def test_first_member_in_sequence_order_raises(self, monkeypatch, tmp_path, capsys):
        problem = SteepWall(10)
        monkeypatch.setattr(harness, "build_problem", lambda spec: problem)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"algorithms": [{"name": "svrg", "epoch_length": 1}]}))
        # what the runs, made one at a time in sweep order, raise first
        expected = None
        for eta in self.ETAS:
            for repeat in range(2):
                try:
                    svrg_run(problem, np.zeros(1), eta, 1, 6, harness._run_rng(0, "svrg", repeat))
                except NonFiniteGradientError as exc:
                    expected = expected or str(exc)
        assert expected == "non-finite gradient from component 9"
        grid = ",".join(map(str, self.ETAS))
        argv = ["sweep", "--algo", "svrg", "--config", str(config), "--grid", grid]
        code = main([*argv, "--steps", "6", "--repeats", "2"])
        assert code == 3
        assert capsys.readouterr().err == f"error: {expected}\n"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# The SVRG sweep on squared loss diverges at the four largest grid values.
SQUARED_SVRG = {
    "problem": {"loss": "squared", "n": 48, "d": 6},
    "algorithms": [{"name": "svrg", "epoch_length": 20, "inner_batch": 3}],
    "epochs": 6,
    "repeats": 3,
}
RUN_CONFIG = {
    "problem": {"n": 64, "d": 10},
    "algorithms": [
        {"name": name}
        for name in ("adaspider", "spider", "spiderboost", "svrg", "sgd", "adagrad_norm")
    ],
    "epochs": 5,
    "repeats": 3,
}

# SHA-256 of (sweep summary on stdout, best-value CSV) of ``adaspider sweep``
# on the bundled default problem (logistic, n=64, d=10, 5 epochs, 5 repeats,
# seven grid values) and on SQUARED_SVRG, and of the CSV of ``adaspider run``
# on RUN_CONFIG; computed when every run was stepped on its own.
SWEEP_GOLDEN = {
    ("sgd", None, 0): (
        "af04cd97c95b66d6cf8299645bedb6f0947cad721aa71c535658873d1071feb3",
        "50925233e49bb0f961ea45e63c0b5e3b0c3afc676ed62afcf17df8cae60eb538",
    ),
    ("svrg", None, 0): (
        "c40b24dbb6d3852fa71fe337caf6f555c0940467a5daeba59d8b42c33d663d43",
        "8acdf7bdf7b07e68c7ce464d561f2d8b86e17ca9238e82636a9780984ebe8d65",
    ),
    ("adagrad_norm", None, 0): (
        "ead31f135ff39370a0907b8149f5672ba30012d5a0beda3a9623c61f95740ae7",
        "d07631a3cd65b21f6310b6b14d0b35ac5f4ec70f0cae867d9d4c1719286fb1cc",
    ),
    ("svrg", "squared", 0): (
        "a5e6719caa8329063493344e5e1411776cf147258e19150dfe87edc5cb45bb01",
        "aaf137715574a5960640617090f8fc7fadae00ba53d2711b9d5405d1cba7182a",
    ),
    ("sgd", None, 1729): (
        "c6882cc3e1266bd06fdf1643bbcf5e784e46713af7d76be4e6650bc5bc8f32de",
        "8dc8b8dfd04e697b702245d944f8255beb53143278318c645a27e3261d164dd8",
    ),
    ("svrg", None, 1729): (
        "9cd74b9aafe6acd10b55c66cc12b7823c5b66614d9fb5fc06335bfe0356bd6d2",
        "ee43443718126b3e67d436c38593358ccaf440753312b9231e0fc42cf704fe84",
    ),
    ("adagrad_norm", None, 1729): (
        "14a0dc4fde41059e01279da4a8a7bdc5b7987cee52ec9ccf11918332d8de9edf",
        "69dbcbd0011d486c13da2079f1959dc21d409899c8cfc14058389f966f3c2de4",
    ),
    ("svrg", "squared", 1729): (
        "8226591a92bc1a8444fb418b10812fb93a06e7b549e0da1d232e7208a4de42f4",
        "35a1c6cf346d7c18b533d21faf3d5e9cc36c61db6948bc1b6ea32647c1117fd3",
    ),
}
RUN_GOLDEN = {
    0: "e5ec7b2215c3011bce1113c74d6997bf5093ce4463303618c08ae75ba59fc7da",
    1729: "e77a1f6327b2fa94401a61c0222d30e3ae3b221c7e3abe326cab21f89c8f3086",
}


@pytest.mark.parametrize("algo,config,seed", sorted(SWEEP_GOLDEN, key=str))
def test_golden_sweep(algo, config, seed, tmp_path, capsys):
    argv = ["sweep", "--algo", algo, "--seed", str(seed), "--out", str(tmp_path / "best.csv")]
    if config == "squared":
        (tmp_path / "config.json").write_text(json.dumps(SQUARED_SVRG))
        argv += ["--config", str(tmp_path / "config.json")]
    assert main(argv) == 0
    summary = capsys.readouterr().out
    assert (sha256(summary.encode()), sha256((tmp_path / "best.csv").read_bytes())) == (
        SWEEP_GOLDEN[algo, config, seed]
    )


@pytest.mark.parametrize("seed", sorted(RUN_GOLDEN))
def test_golden_run_with_repeats(seed, tmp_path, capsys):
    (tmp_path / "config.json").write_text(json.dumps(RUN_CONFIG))
    out = tmp_path / "records.csv"
    argv = ["run", "--config", str(tmp_path / "config.json"), "--seed", str(seed)]
    assert main([*argv, "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == RUN_GOLDEN[seed]
