"""Lockstep groups: sgd, AdaGrad-Norm and SVRG runs stepped together as one
iterate block give the traces, oracle counts, errors and records of the
same runs stepped one at a time."""

import hashlib
import json
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import adaspider.harness as harness
import adaspider.optimizers as optimizers
from adaspider.cli import main
from adaspider.core import FiniteSumProblem, NonFiniteGradientError
from adaspider.data import generate_synthetic
from adaspider.harness import AlgorithmSpec, closed_form_oracle_calls
from adaspider.optimizers import LOCKSTEP_ALGORITHMS, RunTrace, lockstep_run, svrg_run
from adaspider.problems import (
    MLPClassificationProblem,
    QuadraticProblem,
    RegularizedERM,
    kaiming_uniform_scaled_init,
)

FAMILIES = ("logistic", "squared", "quadratic", "mlp")
MLP_DIMS = (3, 4, 2)
ETAS = (1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0, 1e3)


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


def group_runs(algo, etas, x0s, seed, steps, epoch_length, inner_batch):
    """The keyword arguments of one ``<algo>_run`` call per member."""
    runs = []
    for k, (eta, x0) in enumerate(zip(etas, x0s)):
        run = {"x0": x0, "rng": np.random.default_rng([seed, k]), "eta": eta, "steps": steps}
        if algo == "adagrad_norm":
            run["b0"] = 0.5 + k
        elif algo == "svrg":
            run.update(epoch_length=epoch_length, inner_batch=inner_batch)
        runs.append(run)
    return runs


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


def one_at_a_time(problem, algo, runs) -> list:
    run = getattr(optimizers, f"{algo}_run")
    outcomes = []
    for kw in runs:
        kw = dict(kw, rng=np.random.default_rng(kw["rng"].bit_generator.seed_seq))
        try:
            outcomes.append(run(problem, **kw))
        except NonFiniteGradientError as exc:
            outcomes.append(exc)
    return outcomes


def check_group(problem, algo, runs):
    """Lockstep outcomes equal the sequential ones, and every counter
    holds the closed-form count of its run's steps; returns the traces."""
    sequential, seq_counters = counted(lambda: one_at_a_time(problem, algo, runs))
    grouped, counters = counted(lambda: lockstep_run(problem, algo, runs))
    assert len(grouped) == len(sequential) == len(counters) == len(seq_counters)
    for got, want, counter, seq_counter, kw in zip(
        grouped, sequential, counters, seq_counters, runs
    ):
        assert counter.component_calls == seq_counter.component_calls
        if isinstance(want, Exception):
            assert type(got) is type(want) and str(got) == str(want)
            continue
        assert_same_trace(got, want)
        params = {k: v for k, v in kw.items() if k not in ("x0", "rng", "steps")}
        spec = AlgorithmSpec(algo, params={k: v for k, v in params.items() if v is not None})
        assert counter.component_calls == closed_form_oracle_calls(spec, problem, got.num_steps)
    return grouped


class TestGroupEqualsRuns:
    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(FAMILIES),
        algo=st.sampled_from(LOCKSTEP_ALGORITHMS),
        n=st.integers(min_value=1, max_value=12),
        d=st.integers(min_value=1, max_value=4),
        etas=st.lists(st.sampled_from(ETAS), min_size=2, max_size=9),
        steps=st.integers(min_value=1, max_value=60),
        epoch_length=st.one_of(st.none(), st.integers(min_value=1, max_value=15)),
        inner_batch=st.integers(min_value=1, max_value=4),
        scale=st.sampled_from([0.0, 1.0]),
        seed=st.integers(min_value=0, max_value=10_000),
        # index draws and step records are taken in chunks of this size
        chunk=st.sampled_from([1, 2, 5, 1024]),
    )
    @example("squared", "sgd", 8, 1, list(ETAS), 40, None, 1, 1.0, 0, 1024)
    @example("quadratic", "svrg", 6, 1, [0.1, 10.0, 1e3], 30, 4, 3, 1.0, 1, 2)
    @example("mlp", "adagrad_norm", 5, 1, [0.1, 1.0], 20, None, 1, 0.0, 2, 5)
    @example("logistic", "svrg", 9, 3, list(ETAS) + [0.5, 5.0], 50, 7, 2, 0.0, 3, 1)
    def test_every_trace_field_bitwise(
        self, family, algo, n, d, etas, steps, epoch_length, inner_batch, scale, seed, chunk
    ):
        problem = make_problem(family, n, d, seed)
        x0s = [start_point(family, problem, seed + k, scale) for k in range(len(etas))]
        runs = group_runs(algo, etas, x0s, seed, steps, epoch_length, inner_batch)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimizers, "_DRAW_CHUNK", chunk)
            mp.setattr(optimizers, "_RECORD_CHUNK", chunk)
            check_group(problem, algo, runs)

    # AdaGrad-Norm's own step shrinks as it grows, so only its first steps
    # can diverge.
    @pytest.mark.parametrize(
        "algo,etas,stop_steps",
        [
            ("sgd", [0.01, 0.3, 0.6, 1.0, 3.0, 10.0, 100.0, 1e4, 1e8], 3),
            ("svrg", [0.01, 0.3, 0.6, 1.0, 3.0, 10.0, 100.0, 1e4, 1e8], 3),
            ("adagrad_norm", list(np.geomspace(1e10, 1e13, 16)), 2),
        ],
    )
    def test_members_diverge_at_different_steps(self, algo, etas, stop_steps):
        problem = make_problem("squared", 10, 3, 1)
        runs = group_runs(algo, etas, [np.ones(3)] * len(etas), 5, 300, 5, 2)
        traces = check_group(problem, algo, runs)
        assert len({t.diverged_at for t in traces if t.diverged}) >= stop_steps
        assert any(not t.diverged for t in traces)

    def test_runs_must_share_steps_and_period(self):
        problem = make_problem("logistic", 6, 2, 0)
        runs = group_runs("svrg", [0.1, 0.2], [np.zeros(2)] * 2, 0, 10, 3, 1)
        runs[1]["epoch_length"] = 4
        with pytest.raises(ValueError, match="share"):
            lockstep_run(problem, "svrg", runs)
        with pytest.raises(ValueError, match="lockstep"):
            lockstep_run(problem, "adaspider", runs)
        runs = group_runs("sgd", [0.1, 0.2], [np.zeros(2)] * 2, 0, 10, None, 1)
        runs[0]["keep_path"] = True
        with pytest.raises(TypeError, match="keep_path"):
            lockstep_run(problem, "sgd", runs)


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
    # Snapshots every step: member k reaches x = -eta_k * t at step t. The
    # first member stays clear of the wall, the second meets it at step 1
    # at component 9, the third at step 1 at component 10.
    ETAS = [0.01, 2.5, 1.5]

    def test_faulting_members_stop_and_others_finish(self):
        runs = group_runs("svrg", self.ETAS, [np.zeros(1)] * 3, 0, 6, 1, 1)
        outcomes = check_group(SteepWall(10), "svrg", runs)
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
