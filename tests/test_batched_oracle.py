"""Batched component oracle: bitwise agreement with single-component calls,
derived full gradients and mini-batch corrections, true gradients batched
over many points, the sigmoid, and golden record digests."""

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mlp_reference import reference_rows

from adaspider.cli import main
from adaspider.core import (
    FiniteSumProblem,
    NonFiniteGradientError,
    OracleCounter,
    full_gradient,
)
from adaspider.data import generate_synthetic
from adaspider.optimizers import (
    SpiderEstimatorState,
    spider_estimator_update,
    svrg_run,
)
from adaspider.problems import (
    MLPClassificationProblem,
    QuadraticProblem,
    RegularizedERM,
    kaiming_uniform_scaled_init,
    sigmoid,
)

FAMILIES = ("logistic", "squared", "quadratic", "mlp")
MLP_DIMS = (6, 5, 4, 3)


def make_problem(family: str, n: int, seed: int, d: int | None = None):
    """A small instance of ``family`` and a sampler of points for it; ``d``
    sets the dimension where the family allows it (the network's is fixed
    by ``MLP_DIMS``)."""
    rng = np.random.default_rng(seed)
    if family == "quadratic":
        problem = QuadraticProblem.random(n, d or 3, rng)
        return problem, lambda r, scale: scale * r.standard_normal(problem.d)
    if family == "mlp":
        dataset = generate_synthetic(
            "two-cluster-classification", n, MLP_DIMS[0], seed, n_classes=MLP_DIMS[-1]
        )
        problem = MLPClassificationProblem(dataset, MLP_DIMS)
        return problem, lambda r, scale: kaiming_uniform_scaled_init(
            MLP_DIMS, scale, r
        ).params
    kind = "separable-logistic" if family == "logistic" else "quadratic"
    problem = RegularizedERM(generate_synthetic(kind, n, d or 4, seed), loss_kind=family)
    return problem, lambda r, scale: scale * r.standard_normal(problem.d)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def stacked_mean(problem, x):
    """The per-component loop the batched oracle replaces."""
    return np.stack(
        [problem.component_gradient(i, x) for i in range(1, problem.n + 1)]
    ).mean(axis=0)


class TestRowsMatchSingleCalls:
    @pytest.mark.parametrize("family", FAMILIES)
    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=30),
        seed=st.integers(min_value=0, max_value=10_000),
        scale=st.sampled_from([0.01, 1.0, 30.0]),
        picks=st.lists(st.integers(min_value=0, max_value=10**6), max_size=25),
    )
    def test_rows_bitwise_equal(self, family, n, seed, scale, picks):
        problem, point = make_problem(family, n, seed)
        x = point(np.random.default_rng(seed + 1), scale)
        indices = [1 + p % n for p in picks]  # a multiset: repeats allowed
        rows = problem.component_gradients(indices, x)
        assert rows.shape == (len(indices), problem.d)
        for row, i in zip(rows, indices):
            assert same_bits(row, problem.component_gradient(i, x))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_out_of_range_index_rejected(self, family):
        problem, point = make_problem(family, 5, 0)
        x = point(np.random.default_rng(0), 1.0)
        for bad in ([0], [1, 6], [-2]):
            with pytest.raises(IndexError, match="out of range"):
                problem.component_gradients(bad, x)

    def test_mlp_signed_zeros_at_zero_parameters(self):
        # zero activations times a negative error give -0.0 products, which
        # the per-sample reference's accumulation into zeros turns into +0.0
        problem, _ = make_problem("mlp", 6, 0)
        x = np.zeros(problem.d)
        rows = problem.component_gradients(np.arange(1, 7), x)
        expected = reference_rows(problem, range(1, 7), x)
        for row, (_logits, _loss, grad) in zip(rows, expected):
            assert same_bits(row, grad)

    def test_default_stacks_single_calls(self):
        class Linear(FiniteSumProblem):
            def component_gradient(self, i, x):
                self._check_index(i)
                return np.full(self.d, float(i))

        problem = Linear(n=3, d=2)
        rows = problem.component_gradients([3, 1, 3], np.zeros(2))
        assert same_bits(rows, [[3.0, 3.0], [1.0, 1.0], [3.0, 3.0]])
        assert problem.component_gradients([], np.zeros(2)).shape == (0, 2)


class TestDerivedFullGradients:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_mean_gradient_equals_stack_and_mean(self, family):
        problem, point = make_problem(family, 40, 3)
        rng = np.random.default_rng(4)
        for scale in (0.01, 1.0, 30.0):
            x = point(rng, scale)
            assert same_bits(problem.mean_gradient(x), stacked_mean(problem, x))
            assert same_bits(
                full_gradient(problem, x, OracleCounter()), stacked_mean(problem, x)
            )

    def test_mlp_metric_gradient_equals_stack_and_mean(self):
        problem, point = make_problem("mlp", 60, 5)
        rng = np.random.default_rng(6)
        for scale in (0.01, 1.0, 30.0):
            x = point(rng, scale)
            assert same_bits(problem.metric_gradient(x), stacked_mean(problem, x))

    def test_nonfinite_scan_names_first_bad_component(self):
        rng = np.random.default_rng(0)
        mats = np.stack([np.eye(2)] * 5)
        offsets = rng.standard_normal((5, 2))
        offsets[2, 1] = np.inf
        offsets[4, 0] = np.nan
        problem = QuadraticProblem(mats, offsets)
        with pytest.raises(ValueError, match="component 3"):
            full_gradient(problem, np.zeros(2), OracleCounter())

    def test_nonfinite_gradient_is_its_own_error(self):
        # a ValueError subclass, so the command line can tell it from bad input
        problem = QuadraticProblem(np.stack([np.eye(1)] * 2), [[1.0], [np.inf]])
        with pytest.raises(NonFiniteGradientError, match="component 2"):
            full_gradient(problem, np.zeros(1), OracleCounter())


class TestBatchedPointGradients:
    """metric_gradients and mean_gradients: one row per point, each bitwise
    equal to the single-point call."""

    @pytest.mark.parametrize("family", FAMILIES)
    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=30),
        d=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
        scale=st.sampled_from([0.01, 1.0, 30.0]),
        # lengths around the 256-row blocks of the rate check
        count=st.sampled_from([1, 2, 7, 255, 256, 257]),
    )
    def test_metric_gradient_rows_bitwise(self, family, n, d, seed, scale, count):
        problem, _ = make_problem(family, n, seed, d)
        points = scale * np.random.default_rng(seed + 1).standard_normal(
            (count, problem.d)
        )
        rows = problem.metric_gradients(points)
        assert rows.shape == (count, problem.d)
        for row, x in zip(rows, points):
            assert same_bits(row, problem.metric_gradient(x))

    def test_one_dimensional_metric_gradients(self):
        for family in ("logistic", "squared", "quadratic"):
            problem, _ = make_problem(family, 12, 3, d=1)
            points = np.linspace(-40.0, 40.0, 257)[:, None]
            rows = problem.metric_gradients(points)
            for row, x in zip(rows, points):
                assert same_bits(row, problem.metric_gradient(x))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=20),
        d=st.integers(min_value=1, max_value=5),
        count=st.integers(min_value=1, max_value=50),
        seed=st.integers(min_value=0, max_value=10_000),
        definite=st.booleans(),
    )
    def test_quadratic_mean_gradient_rows_bitwise(self, n, d, count, seed, definite):
        rng = np.random.default_rng(seed)
        problem = QuadraticProblem.random(n, d, rng, definite=definite)
        points = rng.standard_normal((count, d))
        rows = problem.mean_gradients(points)
        assert rows.shape == (count, d)
        for row, x in zip(rows, points):
            assert same_bits(row, problem.mean_gradient(x))
            assert same_bits(row, stacked_mean(problem, x))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_mean_gradients_rows_bitwise_every_family(self, family):
        problem, point = make_problem(family, 9, 2)
        rng = np.random.default_rng(3)
        points = np.stack([point(rng, 1.0) for _ in range(4)])
        for row, x in zip(problem.mean_gradients(points), points):
            assert same_bits(row, problem.mean_gradient(x))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_empty_and_misshaped_blocks(self, family):
        problem, _ = make_problem(family, 5, 0)
        for method in (problem.metric_gradients, problem.mean_gradients):
            assert method(np.empty((0, problem.d))).shape == (0, problem.d)
            with pytest.raises(ValueError, match="expected"):
                method(np.zeros(problem.d))
            with pytest.raises(ValueError, match="expected"):
                method(np.zeros((2, problem.d + 1)))


class TestMiniBatchCorrections:
    """The batched corrections reproduce the sequential sampling loop."""

    @staticmethod
    def loop_difference(problem, indices, x, anchor):
        diff = np.zeros(problem.d)
        for i in indices:
            diff += problem.component_gradient(int(i) + 1, x)
            diff -= problem.component_gradient(int(i) + 1, anchor)
        return diff

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("batch", [2, 7, 19])
    def test_spider_correction_bitwise(self, family, batch):
        problem, point = make_problem(family, 25, 8)
        rng = np.random.default_rng(9)
        x, anchor = point(rng, 1.0), point(rng, 1.0)
        state = SpiderEstimatorState(
            period=10, estimate=point(rng, 1.0), anchor_point=anchor, step_index=1
        )
        previous = state.estimate
        counter = OracleCounter()
        got = spider_estimator_update(
            state, problem, x, np.random.default_rng(10), counter, batch_size=batch
        )
        indices = np.random.default_rng(10).integers(problem.n, size=batch)
        expected = self.loop_difference(problem, indices, x, anchor) / batch + previous
        assert same_bits(got, expected)
        assert counter.component_calls == 2 * batch

    def test_one_dimensional_correction_bitwise(self):
        # with d == 1 a plain axis-0 sum would switch to pairwise summation
        x, anchor = np.array([0.7]), np.array([-1.3])
        for seed in range(10):
            problem = QuadraticProblem.random(25, 1, np.random.default_rng(seed))
            state = SpiderEstimatorState(
                period=10, estimate=np.array([0.2]), anchor_point=anchor, step_index=1
            )
            rng = np.random.default_rng(seed)
            got = spider_estimator_update(
                state, problem, x, rng, OracleCounter(), batch_size=19
            )
            indices = np.random.default_rng(seed).integers(problem.n, size=19)
            expected = self.loop_difference(problem, indices, x, anchor) / 19 + 0.2
            assert same_bits(got, expected)

    def test_svrg_inner_batch_matches_loop(self):
        problem, _ = make_problem("logistic", 10, 11)
        x0 = np.zeros(problem.d)
        trace = svrg_run(
            problem, x0, 0.1, 5, 5, np.random.default_rng(12),
            inner_batch=3, keep_path=True,
        )
        rng = np.random.default_rng(12)
        snapshot = trace.iterates[0]
        mu = stacked_mean(problem, snapshot)
        for t in range(1, 5):
            indices = rng.integers(problem.n, size=3)
            diff = self.loop_difference(problem, indices, trace.iterates[t], snapshot)
            assert same_bits(trace.estimates[t], diff / 3 + mu)


class TestSigmoid:
    @staticmethod
    def reference(z: float) -> float:
        try:
            return 1.0 / (1.0 + math.exp(-z))
        except OverflowError:
            return 0.0

    def test_overflow_edges(self):
        edges = [
            0.0, -0.0, 1e-300, -1e-300, 36.0, 37.0, -36.0, -37.0,
            709.0, -709.0, 709.78, -709.78, 709.79, -709.79, 710.0, -710.0,
            745.0, -745.0, 746.0, -746.0, 1e308, -1e308, math.inf, -math.inf,
        ]
        got = sigmoid(np.array(edges))
        for z, value in zip(edges, got):
            assert same_bits(value, self.reference(z))
        assert got[-1] == 0.0 and got[-2] == 1.0

    def test_random_inputs_match_formula(self):
        # no overflow here, so the whole array takes the fast path
        z = np.random.default_rng(0).normal(0.0, 100.0, size=2000)
        expected = [self.reference(v) for v in z.tolist()]
        assert same_bits(sigmoid(z), expected)

    def test_keeps_shape(self):
        assert sigmoid(np.zeros((2, 3))).shape == (2, 3)
        assert sigmoid(np.zeros((2, 3)))[1, 2] == 0.5


# SHA-256 of the CSV written by ``adaspider run`` for each config, computed
# with the per-component loops these paths replaced. Every algorithm runs,
# with mini-batched corrections and a batch of more than n components.
GOLDEN = {
    "logistic": (
        {
            "problem": {"synthetic": "separable-logistic", "n": 40, "d": 5,
                        "data_seed": 3, "loss": "logistic", "lambda": 0.1},
            "algorithms": [
                {"name": "adaspider", "inner_batch": 3},
                {"name": "spider", "eps": 0.01},
                {"name": "spiderboost"},
                {"name": "svrg", "eta": 0.1, "inner_batch": 2},
                {"name": "sgd", "eta": 0.05},
                {"name": "adagrad_norm", "eta": 0.1},
            ],
            "epochs": 4, "repeats": 2, "master_seed": 5,
        },
        "9e3cf037e2110f92f681311765438476dd4dffc5daf0ce35fb0a95e295240f1f",
    ),
    "squared": (
        {
            "problem": {"n": 40, "d": 5, "data_seed": 4, "loss": "squared",
                        "lambda": 0.1},
            "algorithms": [
                {"name": "adaspider"},
                {"name": "spider", "eps": 0.01, "inner_batch": 4},
                {"name": "spiderboost", "batch_size": 50, "period": 3},
                {"name": "svrg", "eta": 0.05, "inner_batch": 3, "epoch_length": 10},
                {"name": "sgd", "eta": 0.02},
            ],
            "epochs": 4, "repeats": 2, "master_seed": 6,
        },
        "cf6d95d9f6750ac98b019bc347a2246de1c181229136e6c22b8da8818dc76b9a",
    ),
    "mlp": (
        {
            "problem": {"loss": "mlp", "n": 30, "layer_dims": [6, 5, 3],
                        "data_seed": 2},
            "algorithms": [
                {"name": "adaspider", "inner_batch": 2},
                {"name": "spiderboost", "smoothness": 2.0},
                {"name": "svrg", "eta": 0.1, "inner_batch": 3},
                {"name": "sgd", "eta": 0.05},
            ],
            "epochs": 4, "repeats": 2, "master_seed": 7,
        },
        "3c7ae603b2afbd9fcd96db8cc4087312297f799c561284fb9328044c893d0bc3",
    ),
}


@pytest.mark.parametrize("family", sorted(GOLDEN))
def test_golden_record_digest(family, tmp_path, capsys):
    config, digest = GOLDEN[family]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out_path = tmp_path / "records.csv"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest
