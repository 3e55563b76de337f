"""Per-step bookkeeping: the estimator norm, the divergence test and the
hoisted AdaSpider step size are bitwise equal to the forms they replace;
a golden digest of diverging runs. The sweep goldens are in
``tests/test_lockstep.py``."""

import hashlib
import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import adaspider.optimizers as optimizers
from adaspider.cli import main
from adaspider.core import _row_norms
from adaspider.data import generate_synthetic
from adaspider.harness import ALGORITHM_NAMES
from adaspider.optimizers import (
    DIVERGENCE_LIMIT,
    AdaSpiderConfig,
    _diverged,
    adaspider_run,
    adaspider_step_size,
)
from adaspider.problems import RegularizedERM

from test_lockstep import FAMILIES, group_runs, make_problem, start_point

LIMIT = DIVERGENCE_LIMIT
ABOVE_LIMIT = float(np.nextafter(LIMIT, np.inf))


def same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def reference_norm(v: np.ndarray) -> float:
    return float(np.linalg.norm(v))


def reference_diverged(x: np.ndarray) -> bool:
    return bool(not np.all(np.isfinite(x)) or np.max(np.abs(x)) > LIMIT)


# Magnitudes from subnormal to the overflow range, so v.dot(v) both
# underflows and overflows.
block_shapes = st.tuples(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=40))
scaled_blocks = st.tuples(
    arrays(np.float64, block_shapes, elements=st.floats(-1.0, 1.0, allow_nan=False)),
    st.sampled_from([1e-320, 1e-160, 1.0, 1e160, 1e300]),
).map(lambda pair: pair[0] * pair[1])
any_blocks = arrays(
    np.float64, block_shapes, elements=st.floats(allow_nan=True, allow_infinity=True)
)
# Coordinates about the divergence test's limit and its squared-norm bound,
# whose square root is about 7.07e11, and those that under- or overflow.
EDGE_ELEMENTS = st.one_of(
    st.sampled_from([
        np.nan, np.inf, -np.inf, LIMIT, -LIMIT, ABOVE_LIMIT, -ABOVE_LIMIT, 7e11, -7e11,
        7.0710678118654757e11, 1e200, -1e200, -0.0, 5e-324, -5e-324, 1e-310,
    ]),
    st.floats(min_value=-1.1e12, max_value=1.1e12),
    st.floats(min_value=1e-320, max_value=1e-300),
)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestNorm:
    @pytest.mark.parametrize("algo", ALGORITHM_NAMES)
    @pytest.mark.parametrize("family", FAMILIES)
    def test_run_alone_records_linalg_norms(self, family, algo):
        problem = make_problem(family, 7, 3, 0)
        x0 = start_point(family, problem, 0, 1.0)
        [kw] = group_runs(algo, [0.1], [x0], 0, 30, 4, 2)
        trace = getattr(optimizers, f"{algo}_run")(problem, **kw, keep_path=True)
        assert trace.num_steps == 30
        for norm, estimate in zip(trace.estimator_norms, trace.estimates):
            assert same_bits(norm, reference_norm(estimate))

    @given(st.one_of(scaled_blocks, any_blocks))
    @settings(max_examples=300, deadline=None)
    def test_row_norms_equal_vector_norm_per_row(self, block):
        norms = _row_norms(block)
        assert norms.shape == (block.shape[0],)
        for row, norm in zip(block, norms):
            assert same_bits(norm, reference_norm(row))


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
class TestDivergenceFlag:
    @pytest.mark.parametrize(
        "value",
        [0.0, -0.0, 1.0, LIMIT, -LIMIT, ABOVE_LIMIT, -ABOVE_LIMIT,
         np.inf, -np.inf, np.nan, -np.nan],
    )
    @pytest.mark.parametrize("position", [0, 2])
    def test_edge_values(self, value, position):
        x = np.array([0.5, -0.0, 1.0])
        x[position] = value
        assert _diverged(x) == reference_diverged(x)
        assert _diverged(x[position : position + 1]) == reference_diverged(
            x[position : position + 1]
        )

    def test_limit_itself_is_not_divergence(self):
        assert not _diverged(np.array([LIMIT, -LIMIT]))
        assert _diverged(np.array([ABOVE_LIMIT]))
        assert _diverged(np.array([-ABOVE_LIMIT]))

    @given(
        arrays(
            np.float64,
            st.integers(min_value=1, max_value=20),
            elements=st.one_of(
                st.floats(allow_nan=True, allow_infinity=True),
                st.sampled_from([LIMIT, -LIMIT, ABOVE_LIMIT, -ABOVE_LIMIT, -0.0]),
            ),
        )
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_two_reduction_form(self, x):
        assert _diverged(x) == reference_diverged(x)

    @given(st.one_of(
        arrays(np.float64, st.integers(min_value=1, max_value=60), elements=EDGE_ELEMENTS),
        arrays(np.float64, block_shapes, elements=EDGE_ELEMENTS),
    ))
    @example(np.full(60, 7e11))  # squares past the bound, every coordinate below the limit
    @example(np.full((9, 40), -7.0710678118654757e11))
    @example(np.array([1e200, 0.0]))  # the square overflows
    @example(np.array([[np.nan, 1.0], [np.inf, -np.inf]]))
    @example(np.array([-0.0, 5e-324, -2.2250738585072014e-308]))
    @example(np.array([ABOVE_LIMIT, 1e-300]))
    @settings(max_examples=400, deadline=None)
    def test_norm_first_decides_as_the_max_form(self, x):
        # the squared-norm shortcut changes no decision, on vectors and blocks
        assert _diverged(x) == (not (np.max(np.abs(x)) <= LIMIT))

    def test_an_overflowing_square_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _diverged(np.array([1e200, 0.0]))
            assert _diverged(np.full((2, 3), -1e300))


class TestHoistedStepSize:
    @pytest.mark.parametrize(
        "n,beta0,g0,inner_batch", [(37, 0.7, 1.3, 1), (50, 1.0, 1.0, 3), (1, 2.0, 0.1, 1)]
    )
    def test_each_gamma_equals_step_size_function(self, n, beta0, g0, inner_batch):
        dataset = generate_synthetic("separable-logistic", n=n, d=4, seed=n)
        problem = RegularizedERM(dataset, lam=0.1)
        config = AdaSpiderConfig(
            steps=3 * n + 5, beta0=beta0, g0=g0, period=7, inner_batch=inner_batch
        )
        trace = adaspider_run(
            problem, np.zeros(problem.d), config, np.random.default_rng(n), keep_path=True
        )
        accum = 0.0
        for t, estimate in enumerate(trace.estimates):
            accum += float(estimate @ estimate)  # the estimator's own accumulation
            expected = adaspider_step_size(n, beta0, g0, accum)
            assert same_bits(trace.step_sizes[t], expected), t

    def test_run_validates_inputs_once_up_front(self):
        problem = RegularizedERM(generate_synthetic("separable-logistic", 5, 2, 0))
        config = AdaSpiderConfig(steps=3, beta0=-1.0)  # the run checks its config
        with pytest.raises(ValueError, match="beta0"):
            adaspider_run(problem, np.zeros(2), config, np.random.default_rng(0))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# Five of these twelve runs (sgd, svrg, spiderboost) diverge, so the CSV
# pins the step at which each is flagged and its terminal row; computed
# with the two-reduction divergence test.
DIVERGING_CONFIG = {
    "problem": {"n": 10, "d": 3, "loss": "squared", "lambda": 0.0, "data_seed": 1},
    "algorithms": [
        {"name": "sgd", "eta": 1000.0},
        {"name": "svrg", "eta": 5.0},
        {"name": "adagrad_norm", "eta": 1e6},
        {"name": "spiderboost", "eta": 3.0},
        {"name": "spider", "eps": 1e9, "smoothness": 0.01},
        {"name": "adaspider", "beta0": 1e-9},
    ],
    "epochs": 30,
    "repeats": 2,
    "master_seed": 3,
}
DIVERGING_DIGEST = "eddf3aa1ca42ec3145ecdf15a01009077bb65d2af80e068f2c5297970037b20e"


def test_golden_diverging_runs_digest(tmp_path, capsys):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(DIVERGING_CONFIG))
    out_path = tmp_path / "records.csv"
    assert main(["run", "--config", str(cfg_path), "--out", str(out_path)]) == 0
    capsys.readouterr()
    text = out_path.read_bytes()
    assert text.count(b",inf,inf,") == 5
    assert sha256(text) == DIVERGING_DIGEST
