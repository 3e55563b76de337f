"""Oracle abstraction: full gradients, accounting, finite differences."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaspider.core import (
    FiniteSumProblem,
    OracleCounter,
    as_param_vector,
    finite_difference_gradient,
    full_gradient,
)
from adaspider.data import generate_synthetic
from adaspider.optimizers import adaspider_step_size
from adaspider.problems import QuadraticProblem, RegularizedERM, kaiming_uniform_scaled_init


class ScaledSquare(FiniteSumProblem):
    """1-d components f_i(x) = c_i x^2 with gradients 2 c_i x."""

    def __init__(self, coefficients):
        self.coefficients = list(coefficients)
        super().__init__(n=len(self.coefficients), d=1)

    def component_value(self, i, x):
        self._check_index(i)
        return float(self.coefficients[i - 1] * x[0] ** 2)

    def component_gradient(self, i, x):
        self._check_index(i)
        return np.array([2.0 * self.coefficients[i - 1] * x[0]])


class TestFullGradient:
    def test_two_component_scalar_mean(self):
        problem = ScaledSquare([1.0, 2.0])
        counter = OracleCounter()
        grad = full_gradient(problem, np.array([1.0]), counter)
        assert grad == pytest.approx([3.0])
        assert counter.component_calls == 2

    def test_zero_components_give_zero_vector(self):
        problem = ScaledSquare([0.0, 0.0, 0.0])
        counter = OracleCounter()
        grad = full_gradient(problem, np.array([4.2]), counter)
        assert np.array_equal(grad, np.zeros(1))

    def test_matches_component_enumeration(self):
        # oracle: accumulate the five component gradients one by one
        rng = np.random.default_rng(7)
        problem = QuadraticProblem.random(5, 3, rng)
        x = rng.standard_normal(3)
        stacked = np.stack(
            [problem.component_gradient(i, x) for i in range(1, 6)]
        )
        expected = stacked.mean(axis=0)
        got = full_gradient(problem, x, OracleCounter())
        assert np.array_equal(got, expected)

    def test_dimension_mismatch_rejected(self):
        problem = ScaledSquare([1.0])
        with pytest.raises(ValueError, match="shape"):
            full_gradient(problem, np.zeros(2), OracleCounter())

    def test_nonfinite_component_named(self):
        class Broken(ScaledSquare):
            def component_gradient(self, i, x):
                if i == 2:
                    return np.array([np.nan])
                return super().component_gradient(i, x)

        with pytest.raises(ValueError, match="component 2"):
            full_gradient(Broken([1.0, 1.0, 1.0]), np.array([1.0]), OracleCounter())

    def test_out_of_range_component_index(self):
        problem = ScaledSquare([1.0, 2.0])
        with pytest.raises(IndexError):
            problem.component_gradient(0, np.array([1.0]))
        with pytest.raises(IndexError):
            problem.component_gradient(3, np.array([1.0]))

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=50),
        d=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_mean_property_random_instances(self, n, d, seed):
        rng = np.random.default_rng(seed)
        problem = QuadraticProblem.random(n, d, rng)
        x = rng.standard_normal(d)
        enumerated = np.stack(
            [problem.component_gradient(i, x) for i in range(1, n + 1)]
        ).mean(axis=0)
        got = full_gradient(problem, x, OracleCounter())
        assert np.allclose(got, enumerated, rtol=1e-15, atol=1e-15)


class TestOracleCounter:
    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            OracleCounter().charge(-1)

    def test_accumulates(self):
        counter = OracleCounter()
        counter.charge(5)
        counter.charge(2)
        assert counter.component_calls == 7


class TestFiniteDifferences:
    def test_square_derivative(self):
        grad = finite_difference_gradient(lambda ps: ps[:, 0] ** 2, np.array([1.0]), 1e-5)
        assert grad[0] == pytest.approx(2.0, abs=1e-8)

    def test_constant_exactly_zero(self):
        grad = finite_difference_gradient(lambda ps: np.full(len(ps), 3.5), np.ones(4), 1e-4)
        assert np.array_equal(grad, np.zeros(4))

    def test_nonpositive_step_rejected(self):
        for h in (0.0, -1e-5):
            with pytest.raises(ValueError):
                finite_difference_gradient(lambda ps: np.zeros(len(ps)), np.ones(2), h)

    @pytest.mark.parametrize("d", [1, 127, 128, 129, 300])
    def test_blocks_equal_one_coordinate_at_a_time(self, d):
        # at most 256 points a call, each difference bitwise the one of
        # two single evaluations
        rng = np.random.default_rng(d)
        x, weights = rng.standard_normal(d), rng.standard_normal(d)
        x[0] = -0.0  # x - 0.0 keeps the sign, x + 0.0 does not

        def value(p):
            return float(np.sum(np.sin(p) * weights)) + float(np.copysign(1.0, p[0]))

        sizes = []

        def values(points):
            sizes.append(len(points))
            return [value(p) for p in points]

        grad = finite_difference_gradient(values, x, 1e-6)
        assert max(sizes) <= 256 and sum(sizes) == 2 * d
        for j in range(d):
            step = np.zeros(d)
            step[j] = 1e-6
            expected = (value(x + step) - value(x - step)) / 2e-6
            assert np.float64(grad[j]).tobytes() == np.float64(expected).tobytes()

    def test_values_of_the_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            finite_difference_gradient(lambda ps: np.zeros(3), np.ones(2), 1e-6)

    def test_logistic_component_matches_analytic(self):
        dataset = generate_synthetic("separable-logistic", n=6, d=4, seed=3)
        problem = RegularizedERM(dataset, loss_kind="logistic", lam=0.1)
        rng = np.random.default_rng(11)
        for _ in range(5):
            x = rng.standard_normal(4)
            i = int(rng.integers(6)) + 1
            analytic = problem.component_gradient(i, x)
            numeric = finite_difference_gradient(
                lambda ps: problem.component_values(i, ps), x, 1e-6
            )
            assert np.linalg.norm(analytic - numeric) <= 1e-5 * max(
                1.0, np.linalg.norm(analytic)
            )


class TestParamVector:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            as_param_vector([1.0, np.nan])

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError):
            as_param_vector([1.0, 2.0], d=3)

    def test_passes_through_clean_input(self):
        x = as_param_vector([1, 2, 3])
        assert x.dtype == np.float64
        assert x.tolist() == [1.0, 2.0, 3.0]


def _logistic(lam):
    return RegularizedERM(generate_synthetic("separable-logistic", 4, 2, 0), lam=lam)


# Public float arguments whose range check would let a NaN through: each
# is refused with a ValueError that names the argument.
@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: adaspider_step_size(4, 1.0, 1.0, math.nan), "accumulator"),
        (lambda: FiniteSumProblem(3, 2, known_smoothness=math.nan), "smoothness"),
        (lambda: _logistic(math.nan), "regularizer weight"),
        (lambda: _logistic(math.inf), "regularizer weight"),
        (lambda: finite_difference_gradient(np.sum, np.zeros(2), math.nan), "step"),
        (
            lambda: kaiming_uniform_scaled_init((3, 2), math.nan, np.random.default_rng(0)),
            "c_init",
        ),
    ],
    ids=["accumulator", "known_smoothness", "lam_nan", "lam_inf", "h", "c_init"],
)
def test_nan_arguments_refused(call, message):
    with pytest.raises(ValueError, match=message):
        call()
