"""Batched component oracle: bitwise agreement with single-component calls,
derived full gradients and mini-batch corrections, true gradients batched
over many points, the sigmoid, and golden record digests."""

import hashlib
import json
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mlp_reference import reference_rows

from adaspider import optimizers, problems
from adaspider.cli import main
from adaspider.core import (
    FiniteSumProblem,
    NonFiniteGradientError,
    OracleCounter,
    _row_norms,
    full_gradient,
    full_gradients,
)
from adaspider.data import generate_synthetic
from adaspider.harness import ALGORITHM_NAMES
from adaspider.optimizers import spider_estimator_update, svrg_run
from adaspider.problems import (
    MLPClassificationProblem,
    QuadraticProblem,
    RegularizedERM,
    kaiming_uniform_scaled_init,
    sigmoid,
)

from test_lockstep import group_runs

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
        return problem, lambda r, scale: kaiming_uniform_scaled_init(MLP_DIMS, scale, r)
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


class ChargeLog(OracleCounter):
    """An oracle counter that also keeps each amount charged."""

    def __init__(self):
        super().__init__()
        self.charges = []

    def charge(self, amount: int) -> None:
        self.charges.append(amount)
        super().charge(amount)


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
        # the first index out of range is the one named
        for bad, named in (([0], 0), ([1, 6], 6), ([-2], -2), ([1, 6, 0], 6), ([2, 0, 7], 0)):
            message = rf"^component index {named} out of range 1\.\.5$"
            with pytest.raises(IndexError, match=message):
                problem.component_gradients(bad, x)
        assert problem.component_gradients([], x).shape == (0, problem.d)

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


class SingleOnly(FiniteSumProblem):
    """A family with only ``component_gradient``: its ``_gradients`` is the
    base class's stack of single calls."""

    def component_gradient(self, i, x):
        self._check_index(i)
        return np.tanh(i * x) - x / i


def entry_problem(family: str):
    """A 7-component instance of ``family`` ("single": a SingleOnly) and
    its sampler of points."""
    if family == "single":
        return SingleOnly(n=7, d=3), lambda r, scale: scale * r.standard_normal(3)
    return make_problem(family, 7, 0)


class ArrayOnly(FiniteSumProblem):
    """A quadratic family with ``component_gradient`` and a batched
    ``_gradients`` that takes only an array of rows, as the class contract
    allows: its one-sample entries are the base class's defaults."""

    def __init__(self, quadratic: QuadraticProblem):
        self.matrices, self.offsets = quadratic.matrices, quadratic.offsets
        super().__init__(quadratic.n, quadratic.d, quadratic.known_smoothness)

    def component_value(self, i, x):
        return QuadraticProblem.component_value(self, i, x)

    def component_gradient(self, i, x):
        self._check_index(i)
        return self.matrices[i - 1] @ self._check_point(x) + self.offsets[i - 1]

    def _gradients(self, rows, x):
        return np.matmul(self.matrices[rows], x[..., None])[:, :, 0] + self.offsets[rows]


class TestCheckedOnce:
    """``component_gradients`` checks the indices and the points, then
    calls ``_gradients`` with 0-based rows, which checks nothing; the step
    loops call ``_gradients``, ``_gradient`` and ``_gradient_difference``
    with the rows they drew."""

    @pytest.mark.parametrize("family", (*FAMILIES, "single"))
    @pytest.mark.parametrize("scale", [0.01, 1.0, 30.0])
    def test_unchecked_rows_equal_the_public_call(self, family, scale):
        problem, point = entry_problem(family)
        rng = np.random.default_rng(5)
        indices = np.array([3, 1, 7, 3, 5])
        x = point(rng, scale)
        block = np.stack([point(rng, scale) for _ in indices])
        for at, points in ((x, [x] * len(indices)), (block, block)):
            rows = problem._gradients(indices - 1, at)
            assert same_bits(rows, problem.component_gradients(indices, at))
            for row, i, p in zip(rows, indices, points):
                assert same_bits(row, problem.component_gradient(int(i), p))

    @pytest.mark.parametrize("family", (*FAMILIES, "single"))
    def test_public_call_refuses_what_it_refused(self, family):
        problem, point = entry_problem(family)
        d = problem.d
        x = point(np.random.default_rng(0), 1.0)
        for at in (x, np.stack([x, x, x])):
            for bad, named in (([0, 1, 2], 0), ([2, 8, 1], 8), ([1, 8, 0], 8)):
                message = rf"^component index {named} out of range 1\.\.7$"
                with pytest.raises(IndexError, match=message):
                    problem.component_gradients(bad, at)
        for shape in ((3, d), (1, d), (2, d + 1), (0, d)):
            with pytest.raises(ValueError) as wrong:
                problem.component_gradients([1, 2], np.zeros(shape))
            assert str(wrong.value) == f"points have shape {shape}, expected (2, {d})"
        # neither one point nor one point per index
        for shape in ((d + 1,), (), (1, 2, d)):
            with pytest.raises(ValueError) as wrong:
                problem.component_gradients([1, 2], np.zeros(shape))
            assert str(wrong.value) == f"point has shape {shape}, expected ({d},)"
        assert problem.component_gradients([], np.zeros((0, d))).shape == (0, d)
        # the one-sample entries refuse an index out of range and a point of
        # another shape, with the same words
        scalar_entries = [
            lambda i, bad: problem.component_gradient_difference(i, bad, x),
            lambda i, bad: problem.component_gradient_difference(i, x, bad),
        ]
        if family != "single":  # a SingleOnly's gradient checks no point, and it has no value
            scalar_entries += [problem.component_gradient, problem.component_value]
        for entry in scalar_entries:
            for bad in (0, 8, -1):
                message = rf"^component index {bad} out of range 1\.\.7$"
                with pytest.raises(IndexError, match=message):
                    entry(bad, x)
            for shape in ((d + 1,), (), (1, d), (d, 1)):
                with pytest.raises(ValueError) as wrong:
                    entry(1, np.zeros(shape))
                assert str(wrong.value) == f"point has shape {shape}, expected ({d},)"

    @pytest.mark.parametrize("family", (*FAMILIES, "single"))
    @settings(max_examples=15, deadline=None)
    @given(
        row=st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
        scale=st.sampled_from([0.01, 1.0, 30.0]),
    )
    def test_one_sample_entries_equal_the_public_calls(self, family, row, seed, scale):
        problem, point = entry_problem(family)
        rng = np.random.default_rng(seed)
        x, anchor = point(rng, scale), point(rng, scale)
        for r in (row, np.int64(row)):
            one = problem._gradient(r, x)
            assert same_bits(one, problem.component_gradient(row + 1, x))
            assert same_bits(one, problem._gradients(np.array([row]), x)[0])
            assert same_bits(
                problem._gradient_difference(r, x, anchor),
                problem.component_gradient_difference(row + 1, x, anchor),
            )


def spy(monkeypatch, owner, names) -> dict:
    """Count the calls of each attribute of ``owner`` in ``names``, which
    go on to the original."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(owner, name, counted)
    return calls


class TestRunAloneUnchecked:
    """A run alone steps through the unchecked one-sample entries with the
    rows it drew: no step checks an index or a point. The point checks
    left are the charged resets', through the public ``full_gradient``."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("algo", ALGORITHM_NAMES)
    @pytest.mark.parametrize("batch", [1, 3])
    def test_steps_make_no_checked_call(self, monkeypatch, family, algo, batch):
        problem, point = make_problem(family, 7, 0)
        x0 = point(np.random.default_rng(1), 0.1)
        [kw] = group_runs(algo, [0.01], [x0], 0, 20, 4, batch)
        checked = spy(monkeypatch, type(problem), (
            "component_gradient", "component_gradient_difference", "_check_index", "_check_point"
        ))
        resets = spy(monkeypatch, optimizers, ("full_gradient",))
        # what one charged reset checks: its point, once a full gradient
        optimizers.full_gradient(problem, x0, OracleCounter())
        per_reset = dict(checked)
        assert per_reset["_check_point"] >= 1
        assert per_reset["component_gradient"] == per_reset["_check_index"] == 0
        # with a kept path no epoch row is evaluated, so only steps are counted
        trace = getattr(optimizers, f"{algo}_run")(problem, **kw, keep_path=True)
        assert trace.num_steps == 20 and not trace.diverged
        # a period of 4: resets at steps 0, 4, 8, 12 and 16
        runs_resets = resets["full_gradient"] - 1
        assert runs_resets == (0 if algo in ("sgd", "adagrad_norm") else 5)
        assert checked == {name: (1 + runs_resets) * k for name, k in per_reset.items()}


    @pytest.mark.parametrize("algo", ALGORITHM_NAMES)
    @pytest.mark.parametrize("batch", [1, 3])
    def test_a_batched_only_family_steps_alone(self, algo, batch):
        # a family whose _gradients takes arrays only steps a run alone
        # through the default one-sample entries, bitwise as the package's
        quadratic, point = make_problem("quadratic", 7, 0)
        x0 = point(np.random.default_rng(1), 0.1)
        run = getattr(optimizers, f"{algo}_run")
        traces = [
            run(problem, **group_runs(algo, [0.01], [x0], 0, 20, 4, batch)[0], keep_path=True)
            for problem in (ArrayOnly(quadratic), quadratic)
        ]
        assert traces[0].num_steps == 20 and not traces[0].diverged
        assert same_bits(traces[0].iterates, traces[1].iterates)


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

    @pytest.mark.parametrize("family", FAMILIES)
    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=10_000),
        scale=st.sampled_from([0.01, 1.0, 30.0]),
    )
    def test_one_row_full_gradient(self, family, n, seed, scale):
        # full_gradient is the one-row case of full_gradients: bitwise
        # mean_gradient, n charged once, and its own errors
        problem, point = make_problem(family, n, seed)
        x = point(np.random.default_rng(seed), scale)
        counter = ChargeLog()
        assert same_bits(full_gradient(problem, x, counter), problem.mean_gradient(x))
        assert counter.charges == [problem.n]
        bad = np.array(x, copy=True)
        bad[0] = math.nan
        counter = ChargeLog()
        with pytest.raises(NonFiniteGradientError) as fault:
            full_gradient(problem, bad, counter)
        assert str(fault.value) == "non-finite gradient from component 1"
        assert counter.charges == [problem.n]
        for wrong in (np.append(x, 0.0), x[None]):
            counter = ChargeLog()
            with pytest.raises(ValueError) as shape:
                full_gradient(problem, wrong, counter)
            assert str(shape.value) == f"point has shape {wrong.shape}, expected ({problem.d},)"
            assert counter.charges == []

    def test_overflowing_mean_is_a_full_gradient_fault(self):
        # every component gradient is finite, but their mean overflows
        problem = QuadraticProblem(np.zeros((2, 1, 1)), [[1.7e308], [1.7e308]])
        with np.errstate(over="ignore"), pytest.raises(NonFiniteGradientError) as fault:
            full_gradient(problem, np.zeros(1), OracleCounter())
        assert str(fault.value) == "non-finite full gradient"

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

    @pytest.mark.parametrize("family", FAMILIES)
    def test_block_rows_are_full_gradients(self, family):
        problem, point = make_problem(family, 12, 1)
        rng = np.random.default_rng(2)
        points = np.stack([point(rng, scale) for scale in (0.01, 1.0, 30.0)])
        counters = [OracleCounter(5), OracleCounter(), OracleCounter()]
        rows, faults = full_gradients(problem, points, counters)
        assert faults == {}
        assert [c.component_calls for c in counters] == [17, 12, 12]
        for row, x in zip(rows, points):
            assert same_bits(row, full_gradient(problem, x, OracleCounter()))

    def test_block_faults_are_full_gradient_errors(self):
        # component 2 is infinite, component 4 NaN wherever x[0] > 0
        class Wall(FiniteSumProblem):
            def component_gradient(self, i, x):
                self._check_index(i)
                if x[0] > 0 and i in (2, 4):
                    return np.array([math.inf if i == 2 else math.nan, 0.0])
                return np.array(x, copy=True)

        problem = Wall(n=5, d=2)
        points = np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 5.0]])
        counters = [OracleCounter() for _ in points]
        _, faults = full_gradients(problem, points, counters)
        assert [c.component_calls for c in counters] == [5, 5, 5]
        assert sorted(faults) == [0, 2]
        for k, exc in faults.items():
            with pytest.raises(NonFiniteGradientError) as alone:
                full_gradient(problem, points[k], OracleCounter())
            assert type(exc) is NonFiniteGradientError
            assert str(exc) == str(alone.value) == "non-finite gradient from component 2"

    def test_block_shape_checked_before_any_charge(self):
        problem, _ = make_problem("logistic", 5, 0)
        counters = [OracleCounter(), OracleCounter()]
        for bad in (np.zeros((3, problem.d)), np.zeros((2, problem.d + 1)), np.zeros(problem.d)):
            with pytest.raises(ValueError, match="expected"):
                full_gradients(problem, bad, counters)
        assert [c.component_calls for c in counters] == [0, 0]
        rows, faults = full_gradients(problem, np.empty((0, problem.d)), [])
        assert rows.shape == (0, problem.d) and faults == {}

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
        # lengths around 256 rows, the metric_gradients chunk of the rate problem
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

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("count", [0, 1, 257, 600])
    def test_metric_gradient_norms_bitwise(self, family, count):
        # 64 components: the ERM families take 256 rows a chunk
        problem, _ = make_problem(family, 64, 0, d=10)
        points = np.random.default_rng(1).standard_normal((count, problem.d))
        norms = problem.metric_gradient_norms(points)
        assert same_bits(norms, _row_norms(problem.metric_gradients(points)))

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


# RegularizedERM's chunked batched gradients: (batched method, one-point
# method, the constant that bounds a chunk, a row's entries under it).
ERM_CHUNKED = {
    "mean": ("mean_gradients", "mean_gradient", "_MEAN_BLOCK", lambda n, d: n * d),
    "metric": ("metric_gradients", "metric_gradient", "_METRIC_BLOCK", lambda n, d: n),
}


class TestErmMeanGradients:
    """RegularizedERM's batched mean_gradients and metric_gradients, in
    chunks of at most problems._MEAN_BLOCK and problems._METRIC_BLOCK
    entries: every row bitwise the one-point call."""

    @pytest.mark.parametrize("method", sorted(ERM_CHUNKED))
    @settings(max_examples=80, deadline=None)
    @given(
        loss=st.sampled_from(["logistic", "squared"]),
        lam=st.sampled_from([0.0, 0.1]),
        n=st.integers(min_value=1, max_value=40),
        d=st.integers(min_value=1, max_value=6),
        count=st.integers(min_value=0, max_value=8),
        # rows a chunk holds; None keeps the default cap
        chunk=st.sampled_from([None, 1, 2, 3]),
        # at 1e3 and 1e4, margins run past the sigmoid's overflow at 709.78
        scale=st.sampled_from([0.01, 1.0, 30.0, 1e3, 1e4]),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @example(loss="logistic", lam=0.1, n=20, d=1, count=8, chunk=3, scale=1e4, seed=0)
    @example(loss="squared", lam=0.0, n=7, d=5, count=7, chunk=2, scale=1.0, seed=1)
    def test_rows_bitwise_one_point_call(
        self, method, loss, lam, n, d, count, chunk, scale, seed
    ):
        batched, single, block, entries = ERM_CHUNKED[method]
        kind = "separable-logistic" if loss == "logistic" else "quadratic"
        problem = RegularizedERM(generate_synthetic(kind, n, d, seed), loss_kind=loss, lam=lam)
        points = scale * np.random.default_rng(seed + 1).standard_normal((count, d))
        cap = getattr(problems, block) if chunk is None else chunk * entries(n, d)
        with mock.patch.object(problems, block, cap):
            rows = getattr(problem, batched)(points)
        assert rows.shape == (count, d)
        for row, x in zip(rows, points):
            assert same_bits(row, getattr(problem, single)(x))

    def test_metric_chunks_hold_256_rows_of_the_rate_problem(self):
        # the rate check's paths: a chunk holds 16,384 margins
        problem = RegularizedERM(generate_synthetic("separable-logistic", 64, 10, 0))
        chunks = []
        with mock.patch.object(problem, "_metric_chunk", lambda x: chunks.append(len(x)) or x):
            problem.metric_gradients(np.zeros((600, 10)))
        assert chunks == [256, 256, 88]

    @pytest.mark.parametrize("d", [1, 4])
    def test_margins_past_the_exp_overflow(self, d):
        problem = RegularizedERM(generate_synthetic("separable-logistic", 30, d, 2))
        points = 1e4 * np.random.default_rng(3).standard_normal((6, d))
        margins = problem._labels * (problem._features @ points.T).T
        # e^{-z} overflows at both signs of the labelled margin z
        assert margins.max() > problems._EXP_LIMIT and margins.min() < -problems._EXP_LIMIT
        for row, x in zip(problem.mean_gradients(points), points):
            assert same_bits(row, problem.mean_gradient(x))
        for row, x in zip(problem.metric_gradients(points), points):
            assert same_bits(row, problem.metric_gradient(x))


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
        x, anchor, previous = point(rng, 1.0), point(rng, 1.0), point(rng, 1.0)
        indices = np.random.default_rng(10).integers(problem.n, size=batch)
        counter = OracleCounter()
        got = spider_estimator_update(
            problem, x, anchor, previous, False, False, indices + 1, counter
        )
        expected = self.loop_difference(problem, indices, x, anchor) / batch + previous
        assert same_bits(got, expected)
        assert counter.component_calls == 0  # the run charges its inner steps

    def test_one_dimensional_correction_bitwise(self):
        # with d == 1 a plain axis-0 sum would switch to pairwise summation
        x, anchor = np.array([0.7]), np.array([-1.3])
        for seed in range(10):
            problem = QuadraticProblem.random(25, 1, np.random.default_rng(seed))
            indices = np.random.default_rng(seed).integers(problem.n, size=19)
            got = spider_estimator_update(
                problem, x, anchor, np.array([0.2]), False, False, indices + 1, OracleCounter()
            )
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


    @pytest.mark.parametrize("family", FAMILIES)
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=12),
        d=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=10_000),
        # 0.0 and -0.0 give zero points of both signs
        scale=st.sampled_from([0.0, -0.0, 0.01, 1.0, 30.0]),
        pick=st.integers(min_value=0, max_value=10**6),
    )
    def test_single_sample_difference_bitwise(self, family, n, d, seed, scale, pick):
        # the one-sample correction of SPIDER and SVRG, which the network
        # takes as one two-row pass
        problem, point = make_problem(family, n, seed, d)
        rng = np.random.default_rng(seed + 1)
        x, anchor = point(rng, 1.0), scale * point(rng, 1.0)
        i = 1 + pick % n
        expected = problem.component_gradient(i, x) - problem.component_gradient(i, anchor)
        assert same_bits(problem.component_gradient_difference(i, x, anchor), expected)
        assert same_bits(problem.component_gradient_difference(i, x, x), np.zeros(problem.d))


# The exp's overflow threshold and its neighbours, and the non-finite inputs.
EXP_EDGES = [
    problems._EXP_LIMIT,
    np.nextafter(problems._EXP_LIMIT, math.inf),
    -problems._EXP_LIMIT,
    np.nextafter(-problems._EXP_LIMIT, -math.inf),
    np.nextafter(problems._EXP_LIMIT, 0.0),
    math.inf,
    -math.inf,
    math.nan,
]


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

    def test_exp_threshold_and_non_finite_inputs_in_mixed_arrays(self):
        # 709.782712893384 is the largest double whose math.exp is finite
        limit = 709.782712893384
        assert math.isfinite(math.exp(limit))
        with pytest.raises(OverflowError):
            math.exp(np.nextafter(limit, math.inf))
        around = [np.nextafter(limit, 0.0), limit, np.nextafter(limit, math.inf)]
        special = [math.inf, -math.inf, math.nan, -math.nan]
        ordinary = [0.5, -3.0, 40.0, -800.0]
        for values in (
            around + special + ordinary,
            ordinary[::-1] + [-v for v in around] + special[::-1],
            [-v for v in around] + ordinary + [math.nan] + around,
        ):
            z = np.array(values)
            expected = [self.reference(v) for v in values]
            assert same_bits(sigmoid(z), expected)
            assert same_bits(sigmoid(z.reshape(-1, 1)), np.reshape(expected, (-1, 1)))
        # at the threshold the value is still a positive subnormal; past it, 0
        below, at, past = sigmoid(-np.array(around))
        assert 0.0 < below and 0.0 < at < 2.0**-1022 and same_bits(past, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        scale=st.sampled_from([0.01, 1.0, 30.0, 100.0, 1e3, 1e4]),
        shape=st.sampled_from([(), (1,), (9,), (3, 4)]),
        edges=st.lists(st.sampled_from(EXP_EDGES), max_size=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @example(scale=100.0, shape=(2000,), edges=[], seed=0)
    @example(scale=1.0, shape=(3, 4), edges=EXP_EDGES[:4], seed=0)
    @example(scale=1.0, shape=(3, 4), edges=EXP_EDGES[4:], seed=0)
    @example(scale=1e4, shape=(), edges=[math.nan], seed=0)
    def test_random_inputs_match_formula(self, scale, shape, edges, seed):
        # element by element against the scalar form, bitwise: a run alone
        # takes the scalar form, a lockstep member the array one
        z = np.array(scale * np.random.default_rng(seed).standard_normal(shape))
        flat = z.reshape(-1)  # a view of z
        flat[: len(edges)] = edges[: flat.size]
        got = sigmoid(z)
        assert np.shape(got) == shape
        for v, value in zip(flat.tolist(), np.reshape(got, -1)):
            assert same_bits(problems._sigmoid_scalar(np.float64(v)), value)

    @pytest.mark.parametrize("scale", [1.0, 10.0, 100.0])
    def test_near_the_c_library_formula(self, scale):
        # numpy's exp is within one ulp of math.exp on these inputs; with
        # the sum and the quotient rounded on both sides, the sigmoids are
        # within 3 eps of each other, relative
        z = np.random.default_rng(2).normal(0.0, scale, size=20_000)
        c_exp = np.array([math.exp(-v) for v in z.tolist()])
        assert np.abs(np.exp(-z).view(np.int64) - c_exp.view(np.int64)).max() <= 1
        expected = [self.reference(v) for v in z.tolist()]
        np.testing.assert_allclose(sigmoid(z), expected, rtol=3 * np.finfo(float).eps, atol=0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_component_gradient_past_the_overflow_warns_nothing(self, sign):
        # CI turns warnings into errors; the loss slope takes e^{b_1 a_1.x},
        # which overflows at sign 1 and underflows at sign -1
        problem = RegularizedERM(generate_synthetic("separable-logistic", 4, 3, 0))
        a, b = problem._features[0], problem._labels[0]
        x = sign * 1e4 * b * a
        assert sign * b * np.dot(a, x) > problems._EXP_LIMIT
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grad = problem.component_gradient(1, x)
        assert same_bits(grad, problem.component_gradients([1], x)[0])

    def test_keeps_shape(self):
        assert sigmoid(np.zeros((2, 3))).shape == (2, 3)
        assert sigmoid(np.zeros((2, 3)))[1, 2] == 0.5


# SHA-256 of the CSV written by ``adaspider run`` for each config, computed
# with the per-component loops these paths replaced; the logistic one was
# remade when ``sigmoid`` moved to numpy's exp. Every algorithm runs, with
# mini-batched corrections and a batch of more than n components.
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
        "7b083c63c53579ebd3ba3e234d41dd6bafbdbe9465b31041bdfc0d05904007af",
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
