"""The algorithm registry: step budgets and oracle-call counts derived from
each row, the typed parameter checks, the names that outside tools wrap,
and the README's table of rows."""

import functools
import json
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import adaspider.harness as harness
import adaspider.optimizers as optimizers
from adaspider.cli import PARAM_FLAGS, main
from adaspider.harness import (
    ALGORITHM_NAMES,
    ALGORITHMS,
    AlgorithmSpec,
    ConfigError,
    ExperimentConfig,
    ProblemSpec,
    build_problem,
    closed_form_oracle_calls,
    run_algorithm,
    run_experiment,
    steps_for_budget,
    sweep_step_size,
)
from adaspider.optimizers import RunTrace

README = Path(__file__).resolve().parent.parent / "README.md"

# Per algorithm, the parameter keys of its estimator's reset period and inner
# batch; the stochastic methods have neither.
PERIOD_AND_BATCH_KEYS = {
    "adaspider": ("period", "inner_batch"),
    "spider": ("period", "inner_batch"),
    "spiderboost": ("period", "batch_size"),
    "svrg": ("epoch_length", "inner_batch"),
    "sgd": (None, None),
    "adagrad_norm": (None, None),
}

# The README's label of each `_Method.estimator`.
ESTIMATOR_LABELS = {"spider": "SPIDER", "svrg": "SVRG snapshot", "stochastic": "stochastic"}


def spec_with(name, period=None, batch=None):
    params = {}
    for key, value in zip(PERIOD_AND_BATCH_KEYS[name], (period, batch)):
        if key is not None and value is not None:
            params[key] = value
    return AlgorithmSpec(name=name, params=params)


class TestBudgetProperties:
    @settings(max_examples=150, deadline=None)
    @given(
        name=st.sampled_from(ALGORITHM_NAMES),
        n=st.integers(1, 12),
        period=st.integers(1, 30),
        batch=st.integers(1, 30),
        budget=st.integers(0, 120),
    )
    def test_budget_steps_are_maximal_and_match_the_run(self, name, n, period, batch, budget):
        problem = build_problem(ProblemSpec(n=n, d=2, data_seed=n))
        spec = spec_with(name, period, batch)
        steps = steps_for_budget(spec, problem, budget)
        charged = closed_form_oracle_calls(spec, problem, steps)
        if closed_form_oracle_calls(spec, problem, 1) <= budget:
            assert charged <= budget
            assert closed_form_oracle_calls(spec, problem, steps + 1) > budget
        else:
            # the stated exception: below one reset's cost one step still
            # runs, and overshoots the budget
            assert steps == 1 and charged > budget
        trace = run_algorithm(spec, problem, np.zeros(problem.d), steps, np.random.default_rng(0))
        assert trace.num_steps == steps
        for k, calls in enumerate(trace.oracle_calls, start=1):
            assert calls == closed_form_oracle_calls(spec, problem, k)

    @pytest.mark.parametrize(
        "name,params,budget,steps",
        [
            # a SPIDER batch above n is charged 2n: 16 + 2 * 32 = 80
            ("adaspider", {"inner_batch": 32}, 80, 3),
            ("spiderboost", {"batch_size": 40, "smoothness": 10.0}, 80, 3),
            # SVRG samples every component of its batch: 16 + 64 = 80
            ("svrg", {"inner_batch": 32}, 80, 2),
        ],
    )
    def test_batches_above_n(self, name, params, budget, steps):
        problem = build_problem(ProblemSpec(n=16, d=2))
        spec = AlgorithmSpec(name=name, params=params)
        assert steps_for_budget(spec, problem, budget) == steps
        assert closed_form_oracle_calls(spec, problem, steps) == budget


class TestTypedParameters:
    @pytest.mark.parametrize(
        "name,key,value",
        [
            ("adaspider", "beta0", None),
            ("adaspider", "beta0", "abc"),
            ("adaspider", "beta0", True),
            ("adaspider", "beta0", float("nan")),
            ("adaspider", "g0", float("inf")),
            ("spider", "eps", float("nan")),
            ("sgd", "eta", float("inf")),
            ("sgd", "eta", -0.1),
            ("adaspider", "period", 0),
            ("spiderboost", "period", -1),
            ("svrg", "epoch_length", 0),
            ("svrg", "inner_batch", float("nan")),
        ],
    )
    def test_bad_value_rejected_before_problem_is_built(self, monkeypatch, name, key, value):
        def fail_build(spec):
            raise AssertionError("problem built before the parameters were checked")

        monkeypatch.setattr(harness, "build_problem", fail_build)
        config = ExperimentConfig(
            problem=ProblemSpec(n=2, d=2),
            algorithms=[AlgorithmSpec("sgd"), AlgorithmSpec(name, {key: value})],
            epochs=3,
            repeats=1,
        )
        with pytest.raises(ConfigError, match=f"{name}: parameter '{key}'"):
            run_experiment(config)

    @pytest.mark.parametrize(
        "value", ["null", '"abc"', "true", "NaN", "Infinity", "-1"]
    )
    def test_cli_exits_2_and_names_the_parameter(self, tmp_path, capsys, value):
        # NaN and Infinity are written as Python's json module reads them
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"problem": {"n": 16, "d": 2}, "epochs": 3, "repeats": 1, "algorithms":'
            ' [{"name": "sgd"}, {"name": "adaspider", "beta0": %s}]}' % value
        )
        out = tmp_path / "records.csv"
        code = main(["run", "--config", str(cfg), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert "adaspider: parameter 'beta0'" in err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-1"])
    def test_sweep_rejects_non_finite_grid(self, capsys, bad):
        code = main(["sweep", "--algo", "sgd", "--steps", "5", f"--grid={bad},0.1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "sgd: parameter 'eta'" in captured.err
        assert f"got {float(bad)!r}" in captured.err

    def test_sweep_grid_of_non_numbers_names_the_flag(self, capsys):
        code = main(["sweep", "--algo", "sgd", "--steps", "5", "--grid", "0.1,abc"])
        assert code == 2
        assert "--grid must list numbers, got '0.1,abc'" in capsys.readouterr().err

    def test_sweep_grid_checked_before_problem_is_built(self, monkeypatch):
        def fail_build(spec):
            raise AssertionError("problem built before the grid was checked")

        monkeypatch.setattr(harness, "build_problem", fail_build)
        config = ExperimentConfig(
            problem=ProblemSpec(n=8, d=2), algorithms=[], steps=5, repeats=1
        )
        with pytest.raises(ConfigError, match="got nan"):
            sweep_step_size(config, "spider", [0.1, float("nan")])


class TestSmoothnessSource:
    """The network problem knows no smoothness constant: SpiderBoost then
    steps by ``eta``, and only a step rule left without either is refused."""

    MLP = {"loss": "mlp", "n": 8, "layer_dims": [3, 3, 2]}

    def write_config(self, tmp_path, algorithm):
        cfg = tmp_path / "cfg.json"
        doc = {"problem": self.MLP, "steps": 6, "repeats": 1, "algorithms": [algorithm]}
        cfg.write_text(json.dumps(doc))
        return str(cfg)

    def test_spiderboost_eta_runs_without_smoothness(self):
        problem = build_problem(ProblemSpec(**self.MLP))
        assert problem.known_smoothness is None
        x0 = np.zeros(problem.d)
        spec = AlgorithmSpec("spiderboost", {"eta": 0.05})
        trace = run_algorithm(spec, problem, x0, 6, np.random.default_rng(0))
        assert np.all(trace.step_sizes == 1.0 / (1.0 / 0.05))
        assert steps_for_budget(spec, problem, 3 * problem.n) >= 1

    def test_cli_run_and_sweep_spiderboost_eta(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, {"name": "spiderboost", "eta": 0.05})
        out = tmp_path / "records.csv"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert out.exists()
        code = main(["sweep", "--algo", "spiderboost", "--config", cfg, "--grid", "0.01,0.1"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["grid"] == [0.01, 0.1]

    @pytest.mark.parametrize(
        "algorithm", [{"name": "spiderboost"}, {"name": "spider", "eps": 0.01}]
    )
    def test_no_smoothness_and_no_eta_exits_2(self, tmp_path, capsys, algorithm):
        out = tmp_path / "records.csv"
        code = main(["run", "--config", self.write_config(tmp_path, algorithm), "--out", str(out)])
        assert code == 2
        assert f"{algorithm['name']} needs a smoothness constant" in capsys.readouterr().err
        assert not out.exists()


class TestWrappedNames:
    """Outside tools replace these module attributes with wrappers; the
    wrappers only see the calls that look the names up when made."""

    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_run_algorithm_calls_harness_run_name(self, monkeypatch, name):
        calls = []
        original = getattr(harness, f"{name}_run")

        def recording(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, f"{name}_run", recording)
        problem = build_problem(ProblemSpec(n=8, d=2))
        trace = run_algorithm(AlgorithmSpec(name), problem, np.zeros(2), 10, np.random.default_rng(0))
        assert calls == [name]
        assert trace.num_steps == 10

    @pytest.mark.parametrize("name", ALGORITHM_NAMES)
    def test_estimator_and_full_gradient_looked_up_per_call(self, monkeypatch, name):
        counts = {"spider_estimator_update": 0, "full_gradient": 0}
        for attr in counts:
            original = getattr(optimizers, attr)

            def recording(*args, _attr=attr, _original=original, **kwargs):
                counts[_attr] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(optimizers, attr, recording)
        problem = build_problem(ProblemSpec(n=8, d=2))
        run_algorithm(AlgorithmSpec(name), problem, np.zeros(2), 10, np.random.default_rng(0))
        method = harness._method(AlgorithmSpec(name), problem, 10)
        if method.estimator == "spider":
            assert counts["spider_estimator_update"] == 10
            assert counts["full_gradient"] == -(-10 // method.period)  # one per reset
        elif method.estimator == "svrg":
            assert counts == {"spider_estimator_update": 0, "full_gradient": 2}
        else:
            assert counts == {"spider_estimator_update": 0, "full_gradient": 0}

    # A sweep is one lockstep group of grid x repeats runs; a repeats run
    # groups the repeats of each algorithm.
    @pytest.mark.parametrize("case", ["sweep", "repeats"])
    def test_run_algorithm_once_per_run_in_order(self, monkeypatch, case):
        grid = [0.01, 0.1, 1.0]
        names = ["sgd", "adaspider", "svrg"]
        config = ExperimentConfig(
            problem=ProblemSpec(n=12, d=3),
            algorithms=[AlgorithmSpec(name) for name in names],
            epochs=3,
            repeats=3,
            master_seed=4,
        )
        calls, results, charged_before = [], [], []
        counters = []

        # the markers of an outside benchmark: a wrapper on the harness name
        # noting the first call, and a registry of every counter made
        def wrap(fn):
            def wrapper(spec, problem, x0, steps, rng, **kwargs):
                if not calls:
                    charged_before.append(sum(c.component_calls for c in counters))
                seeds = rng.bit_generator.seed_seq.entropy
                calls.append((spec.name, spec.params.get("eta"), seeds))
                results.append(fn(spec, problem, x0, steps, rng, **kwargs))
                return results[-1]

            return functools.update_wrapper(wrapper, fn)

        original_init = optimizers.OracleCounter.__init__

        def register(counter, *args, **kwargs):
            original_init(counter, *args, **kwargs)
            counters.append(counter)

        snapshots = []
        full_gradient = optimizers.full_gradient

        def count_snapshots(*args, **kwargs):
            snapshots.append(args[1])
            return full_gradient(*args, **kwargs)

        monkeypatch.setattr(harness, "run_algorithm", wrap(harness.run_algorithm))
        monkeypatch.setattr(optimizers.OracleCounter, "__init__", register)
        monkeypatch.setattr(optimizers, "full_gradient", count_snapshots)
        if case == "sweep":
            sweep_step_size(config, "sgd", grid)
            expected = [("sgd", eta, r) for eta in grid for r in range(3)]
        else:
            run_experiment(config)
            expected = [(name, None, r) for name in names for r in range(3)]
        assert calls == [
            (name, eta, [4, zlib.crc32(name.encode()), r]) for name, eta, r in expected
        ]
        assert all(isinstance(trace, RunTrace) for trace in results)
        assert charged_before == [0]
        assert sum(c.component_calls for c in counters) == sum(
            t.oracle_calls[-1] for t in results
        )
        # one full gradient per SVRG snapshot (every n = 12 steps) of every
        # run, and one per SPIDER reset
        svrg_and_spider = [t for t in results if t.algo in ("svrg", "adaspider")]
        assert len(snapshots) == sum(-(-t.num_steps // 12) for t in svrg_and_spider)


def readme_table_rows() -> dict:
    """The cells of the README's algorithm table, by algorithm name."""
    rows = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        if line.startswith("| `"):
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            rows[cells[0].strip("`")] = cells[1:]
    return rows


def test_readme_table_matches_registry():
    rows = readme_table_rows()
    assert list(rows) == list(ALGORITHMS)
    assert tuple(optimizers._METHODS) == ALGORITHM_NAMES == tuple(PERIOD_AND_BATCH_KEYS)
    problems = {n: build_problem(ProblemSpec(n=n, d=2, data_seed=n)) for n in (1, 2, 5, 16)}
    for name, row in ALGORITHMS.items():
        # the step-rule cell is prose; each row's comment in harness.py names it
        estimator, _step_rule, params, sweep, *costs = rows[name]
        period_key, batch_key = PERIOD_AND_BATCH_KEYS[name]
        built = harness._method(spec_with(name, 3, 5), problems[16], 1)
        assert estimator == ESTIMATOR_LABELS[built.estimator]
        assert (built.period, built.batch) == ((3, 5) if period_key else (1, 1))
        assert params == ", ".join(
            f"`{key}: {kind.__name__}" + ("`" if default is None else f" = {default}`")
            for key, (kind, default) in row.params.items()
        )
        assert sweep == (f"`{row.sweep}`" if row.sweep else "none")
        # the cost cells are formulas in n and the row's period and batch keys
        for n, problem in problems.items():
            for period in (1, 3, 7):
                for batch in (1, 4, 20):
                    env = {"n": n, str(period_key): period, str(batch_key): batch}
                    stated = tuple(
                        eval(cell.strip("`"), {"__builtins__": {}, "min": min}, env)
                        for cell in costs
                    )
                    spec = spec_with(name, period, batch)
                    assert stated == harness._costs(spec, problem)


def test_readme_names_every_parameter_flag():
    text = " ".join(README.read_text(encoding="utf-8").split())
    flags = ", ".join(f"`--{key}`" for key in PARAM_FLAGS)
    assert f"The {flags} flags" in text


def test_flags_are_the_float_parameters_the_registry_marks():
    assert set(PARAM_FLAGS) == {"beta0", "g0", "eps", "smoothness", "eta"}
    assert set(PARAM_FLAGS.values()) == {float}
