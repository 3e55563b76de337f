"""Experiment harness: configs, multi-seed runs, sweeps, serialization."""

import json
import math
import numbers
import re
import tracemalloc

import numpy as np
import pytest

from adaspider.harness import (
    ALGORITHM_NAMES,
    ALGORITHMS,
    CONFIG_FIELDS,
    AlgorithmSpec,
    ConfigError,
    DEFAULT_SWEEP_GRID,
    ExperimentConfig,
    ProblemSpec,
    build_problem,
    check_settings,
    closed_form_oracle_calls,
    config_from_dict,
    emit_records,
    initial_point,
    load_records,
    run_experiment,
    steps_for_budget,
    sweep_step_size,
)


# Values that a rule of each kind refuses: of another kind, a bool where a
# number is meant, and, where the bound refuses them, values of the kind.
OTHER_KIND = {int: ["x", 0.5, [1], True], numbers.Real: ["x", [1.0], True],
              bool: ["no", 1], str: [5, ["a"]], list: [4, "x"]}
OF_THE_KIND = {int: [-1, 0], numbers.Real: [-1.0, 0.0, math.inf, math.nan], str: [""],
               list: [[], [2], [2, 0], [2, 1.5]]}
# and one outside the allowed values, for a rule that lists them
NOT_ALLOWED = ["nope", "", 7, None, True]


def out_of_bound(rule) -> list:
    """Values that only the bound of ``rule`` refuses, where its field is read."""
    if isinstance(rule.kind, tuple):
        return NOT_ALLOWED
    return [v for v in OF_THE_KIND.get(rule.kind, []) if not rule.bound[0](v)]


def rule_document(name: str, value, loss: str | None = None) -> dict:
    """A small document with ``name`` set to ``value``, and ``loss`` set."""
    doc = {"problem": {"n": 8, "d": 2}, "algorithms": [{"name": "sgd"}], "steps": 5}
    if loss is not None:
        doc["problem"]["loss"] = loss
    if name == "epochs":
        del doc["steps"]
    owner, _, key = name.rpartition(".")
    (doc["problem"] if owner else doc)[key] = value
    return doc


# (field, value, loss): each value each rule refuses, on every loss that
# reads the field
RULE_CASES = [
    (name, value, loss)
    for name, f in CONFIG_FIELDS.items()
    for loss in f.metadata["rule"].reads or [None]
    for value in OTHER_KIND.get(f.metadata["rule"].kind, []) + out_of_bound(f.metadata["rule"])
]


def small_config(**overrides):
    base = dict(
        problem=ProblemSpec(n=12, d=4, data_seed=0),
        algorithms=[AlgorithmSpec(name="adaspider")],
        steps=24,
        repeats=2,
        master_seed=5,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_record_count_is_algorithms_times_repeats(self):
        config = small_config(
            algorithms=[
                AlgorithmSpec(name="adaspider"),
                AlgorithmSpec(name="sgd", params={"eta": 0.05}),
                AlgorithmSpec(name="svrg", params={"eta": 0.05}),
            ],
            repeats=5,
        )
        records = run_experiment(config)
        assert len(records) == 15

    def test_bit_identical_on_repeat(self):
        config = small_config(
            algorithms=[
                AlgorithmSpec(name="adaspider"),
                AlgorithmSpec(name="sgd", params={"eta": 0.05}),
            ]
        )
        first = run_experiment(config)
        second = run_experiment(config)
        assert first == second

    def test_same_initial_point_across_algorithms(self):
        spec = ProblemSpec(loss="mlp", n=20, layer_dims=(6, 5, 3), c_init=0.02)
        problem = build_problem(spec)
        for repeat in range(3):
            x_a = initial_point(spec, problem, master_seed=4, repeat=repeat)
            x_b = initial_point(spec, problem, master_seed=4, repeat=repeat)
            assert np.array_equal(x_a, x_b)
        # ERM runs start at zero for every algorithm by construction
        erm_spec = ProblemSpec(n=6, d=3)
        erm = build_problem(erm_spec)
        assert np.array_equal(
            initial_point(erm_spec, erm, 0, 0), np.zeros(3)
        )

    def test_oracle_counts_match_closed_form(self):
        config = small_config(steps=30)
        records = run_experiment(config)
        n = 12
        problem = build_problem(config.problem)
        assert problem.n == n
        expected = closed_form_oracle_calls(AlgorithmSpec("adaspider"), problem, 30)
        for record in records:
            assert record.rows[-1].oracle_calls <= expected
        # the run's charged total is exact; re-run directly for it
        from adaspider.optimizers import AdaSpiderConfig, adaspider_run

        trace = adaspider_run(
            problem,
            np.zeros(4),
            AdaSpiderConfig(steps=30),
            np.random.default_rng(0),
        )
        assert trace.charged_calls == expected

    def test_invalid_config_fails_before_running(self):
        with pytest.raises(ConfigError):
            run_experiment(small_config(repeats=0))
        with pytest.raises(ConfigError):
            run_experiment(small_config(steps=None))  # neither steps nor epochs
        with pytest.raises(ConfigError):
            run_experiment(
                small_config(algorithms=[AlgorithmSpec(name="unknown-method")])
            )
        with pytest.raises(ConfigError):
            run_experiment(
                small_config(
                    algorithms=[AlgorithmSpec(name="sgd", params={"eta": -0.1})]
                )
            )

    def test_negative_master_seed_rejected_before_problem_is_built(self, monkeypatch):
        import adaspider.harness as harness

        def fail_build(spec):
            raise AssertionError("problem built before the seed was checked")

        monkeypatch.setattr(harness, "build_problem", fail_build)
        with pytest.raises(ConfigError, match="master_seed"):
            run_experiment(small_config(master_seed=-1))

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_seed_in_document_names_field(self, seed):
        doc = {
            "problem": {"n": 8, "d": 2},
            "algorithms": [{"name": "sgd"}],
            "steps": 5,
            "master_seed": seed,
        }
        with pytest.raises(ConfigError, match="master_seed"):
            run_experiment(config_from_dict(doc))

    def test_integral_float_seed_in_document_accepted(self):
        doc = {
            "problem": {"n": 8, "d": 2},
            "algorithms": [{"name": "sgd"}],
            "steps": 5,
            "repeats": 1,
        }
        records = run_experiment(config_from_dict(dict(doc, master_seed=2.0)))
        assert records == run_experiment(config_from_dict(dict(doc, master_seed=2)))

    @pytest.mark.parametrize(
        "name,key",
        [
            ("adaspider", "inner_batch"),
            ("adaspider", "period"),
            ("spider", "inner_batch"),
            ("spiderboost", "batch_size"),
            ("spiderboost", "period"),
            ("svrg", "epoch_length"),
            ("svrg", "inner_batch"),
        ],
    )
    def test_non_integer_count_parameters_rejected(self, name, key):
        spec = AlgorithmSpec(name=name, params={key: 1.7, "smoothness": 10.0})
        with pytest.raises(ConfigError, match=key):
            run_experiment(small_config(algorithms=[spec]))
        problem = build_problem(ProblemSpec(n=12, d=4))
        with pytest.raises(ConfigError, match=key):
            steps_for_budget(spec, problem, 100)

    def test_integral_float_count_parameter_accepted(self):
        spec = AlgorithmSpec(name="adaspider", params={"inner_batch": 2.0})
        problem = build_problem(ProblemSpec(n=12, d=4))
        assert steps_for_budget(spec, problem, 100) == steps_for_budget(
            AlgorithmSpec(name="adaspider", params={"inner_batch": 2}), problem, 100
        )
        assert run_experiment(small_config(algorithms=[spec], repeats=1))

    @pytest.mark.parametrize(
        "field,doc_update",
        [
            ("repeats", {"repeats": 2.7}),
            ("layer_dims", {"problem": {"loss": "mlp", "n": 8, "layer_dims": [4, 3.7, 2]}}),
            ("steps", {"steps": 5.5}),
            ("epochs", {"steps": None, "epochs": 1.5}),
            ("problem.n", {"problem": {"n": 50.5, "d": 2}}),
            ("problem.d", {"problem": {"n": 8, "d": 3.5}}),
            ("problem.data_seed", {"problem": {"n": 8, "d": 2, "data_seed": 1.5}}),
            ("repeats", {"repeats": "3"}),
            ("problem.n", {"problem": {"n": True, "d": 2}}),
        ],
    )
    def test_non_integer_fields_rejected_before_problem_is_built(
        self, monkeypatch, field, doc_update
    ):
        import adaspider.harness as harness

        def fail_build(spec):
            raise AssertionError("problem built before the fields were checked")

        monkeypatch.setattr(harness, "build_problem", fail_build)
        doc = {"problem": {"n": 8, "d": 2}, "algorithms": [{"name": "sgd"}], "steps": 5}
        doc.update(doc_update)
        doc = {key: value for key, value in doc.items() if value is not None}
        with pytest.raises(ConfigError, match=field):
            run_experiment(config_from_dict(doc))
        with pytest.raises(ConfigError, match=field):
            sweep_step_size(config_from_dict(doc), "sgd", [0.1])

    @pytest.mark.parametrize(
        "field,problem",
        [
            ("problem.layer_dims", {"loss": "mlp", "n": 5, "layer_dims": [4, 0, 2]}),
            ("problem.layer_dims", {"loss": "mlp", "n": 5, "layer_dims": [4, -3, 2]}),
            ("problem.layer_dims", {"loss": "mlp", "n": 5, "layer_dims": [4]}),
            ("problem.layer_dims", {"loss": "mlp", "n": 5, "layer_dims": []}),
            ("problem.data_seed", {"n": 8, "d": 2, "data_seed": -1}),
            ("problem.data_seed", {"loss": "mlp", "n": 5, "data_seed": -3}),
            ("problem.path", {"path": 5}),
            # the sizes the synthetic data reads
            ("problem.n", {"n": 0, "d": 2}),
            ("problem.n", {"loss": "squared", "n": -3, "d": 2}),
            ("problem.d", {"n": 8, "d": 0}),
            ("problem.d", {"loss": "squared", "n": 8, "d": -1}),
            ("problem.n", {"loss": "mlp", "n": 0}),
            ("problem.lam", {"n": 8, "d": 2, "lam": "x"}),
            ("problem.lam", {"n": 8, "d": 2, "lam": None}),
            ("problem.lam", {"n": 8, "d": 2, "lambda": True}),
            ("problem.c_init", {"loss": "mlp", "n": 5, "c_init": "0.1"}),
            # ranges, whatever the loss
            ("problem.lam", {"n": 8, "d": 2, "lam": math.inf}),
            ("problem.lam", {"n": 8, "d": 2, "lam": math.nan}),
            ("problem.lam", {"n": 8, "d": 2, "lam": -1}),
            ("problem.lam", {"loss": "mlp", "n": 5, "lam": -math.inf}),
            ("problem.c_init", {"loss": "mlp", "n": 5, "c_init": math.inf}),
            ("problem.c_init", {"loss": "mlp", "n": 5, "c_init": math.nan}),
            ("problem.c_init", {"loss": "mlp", "n": 5, "c_init": -1}),
            ("problem.c_init", {"loss": "mlp", "n": 5, "c_init": 0}),
            ("problem.c_init", {"n": 8, "d": 2, "c_init": 0.0}),
            ("problem.scale", {"n": 8, "d": 2, "scale": "no"}),
            # the kind logistic loss reads from synthetic data
            ("problem.synthetic", {"n": 8, "d": 2, "synthetic": "nope"}),
            ("problem.synthetic", {"n": 8, "d": 2, "synthetic": 5}),
            # the loss, which build_problem alone would refuse without naming it
            ("problem.loss", {"n": 8, "d": 2, "loss": 7}),
            ("problem.loss", {"n": 8, "d": 2, "loss": None}),
        ],
    )
    def test_bad_values_rejected_before_problem_is_built(self, monkeypatch, field, problem):
        import adaspider.harness as harness

        def fail_build(spec):
            raise AssertionError("problem built before the fields were checked")

        monkeypatch.setattr(harness, "build_problem", fail_build)
        doc = {"problem": problem, "algorithms": [{"name": "sgd"}], "steps": 5}
        with pytest.raises(ConfigError, match=field):
            run_experiment(config_from_dict(doc))
        with pytest.raises(ConfigError, match=field):
            sweep_step_size(config_from_dict(doc), "sgd", [0.1])

    @pytest.mark.parametrize("name,value,loss", RULE_CASES)
    def test_each_rule_refuses_before_problem_is_built(self, monkeypatch, name, value, loss):
        import adaspider.harness as harness

        def fail_build(spec):
            raise AssertionError("problem built before the fields were checked")

        monkeypatch.setattr(harness, "build_problem", fail_build)
        doc = rule_document(name, value, loss)
        with pytest.raises(ConfigError, match=f"^{re.escape(name)} must "):
            run_experiment(config_from_dict(doc))
        with pytest.raises(ConfigError, match=f"^{re.escape(name)} must "):
            sweep_step_size(config_from_dict(doc), "sgd", [0.1])

    @pytest.mark.parametrize("name", [name for name, f in CONFIG_FIELDS.items()
                                      if f.metadata["rule"].reads])
    def test_each_rule_checks_only_where_read(self, name):
        # values of the field's kind that its bound refuses, where no problem
        # reads it: on other losses, or with a data file
        rule = CONFIG_FIELDS[name].metadata["rule"]
        losses = CONFIG_FIELDS["problem.loss"].metadata["rule"].kind
        assert out_of_bound(rule)
        for value in out_of_bound(rule):
            for loss in set(losses) - set(rule.reads):
                check_settings(config_from_dict(rule_document(name, value, loss)))
            doc = rule_document(name, value)
            doc["problem"]["path"] = "data.svm"
            check_settings(config_from_dict(doc))

    def test_sizes_the_build_does_not_read_are_not_checked(self, tmp_path):
        # the network's input size comes from layer_dims, and a data file's
        # sizes from the file; only logistic loss on synthetic data reads
        # the synthetic kind
        data_path = tmp_path / "data.svm"
        data_path.write_text("1 1:0.5\n-1 2:1.5\n")
        for problem in (
            {"loss": "mlp", "n": 4, "d": 0, "layer_dims": [2, 2]},
            {"path": str(data_path), "n": 0, "d": -1},
            {"path": str(data_path), "synthetic": "nope"},
            {"loss": "squared", "n": 4, "d": 2, "synthetic": "nope"},
            {"loss": "mlp", "n": 4, "layer_dims": [2, 2], "synthetic": "nope"},
        ):
            doc = {"problem": problem, "algorithms": [{"name": "sgd"}], "steps": 3}
            records = run_experiment(config_from_dict(dict(doc, repeats=1)))
            assert len(records) == 1

    def test_each_algorithm_rejects_keys_it_does_not_read(self):
        every_key = sorted({key for row in ALGORITHMS.values() for key in row.params})
        for name, row in ALGORITHMS.items():
            keys = tuple(row.params)
            for key in every_key:
                spec = AlgorithmSpec(name=name, params={key: 3})
                config = small_config(algorithms=[spec], repeats=1)
                if key in keys:
                    check_settings(config)
                else:
                    with pytest.raises(ConfigError) as excinfo:
                        check_settings(config)
                    assert str(excinfo.value) == f"unknown parameter {key!r} for {name}"
        assert ALGORITHM_NAMES == tuple(ALGORITHMS)

    def test_sgd_with_ignored_parameters_rejected(self):
        spec = AlgorithmSpec(name="sgd", params={"beta0": 5, "period": 3})
        with pytest.raises(ConfigError, match="unknown parameter 'beta0' for sgd"):
            run_experiment(small_config(algorithms=[spec]))

    def test_parameter_keys_checked_in_order(self):
        # the first bad key is reported, whichever check it fails
        spec = AlgorithmSpec(name="svrg", params={"inner_batch": 1.5, "beta0": 1.0})
        with pytest.raises(ConfigError, match="inner_batch"):
            check_settings(small_config(algorithms=[spec]))
        spec = AlgorithmSpec(name="svrg", params={"beta0": 1.0, "inner_batch": 1.5})
        with pytest.raises(ConfigError, match="beta0"):
            check_settings(small_config(algorithms=[spec]))

    def test_layer_dims_must_be_a_list(self):
        doc = {"problem": {"loss": "mlp", "layer_dims": 4}, "algorithms": [{"name": "sgd"}]}
        with pytest.raises(ConfigError, match="layer_dims"):
            config_from_dict(doc)

    @pytest.mark.parametrize("dims", [4, None, "4,2", {4: 2}])
    def test_problem_spec_refuses_layer_dims_not_a_list(self, dims):
        # in Python as in a document, with the document's text
        with pytest.raises(ConfigError) as excinfo:
            ProblemSpec(layer_dims=dims)
        assert str(excinfo.value) == f"problem.layer_dims must be a list, got {dims!r}"

    def test_integral_float_fields_in_document_accepted(self):
        doc = {
            "problem": {"loss": "mlp", "n": 8, "layer_dims": [4, 3, 2], "data_seed": 1},
            "algorithms": [{"name": "sgd"}],
            "steps": 5,
            "repeats": 2,
        }
        floats = {
            "problem": {"loss": "mlp", "n": 8.0, "layer_dims": [4.0, 3, 2.0],
                        "data_seed": 1.0},
            "algorithms": [{"name": "sgd"}],
            "steps": 5.0,
            "repeats": 2.0,
        }
        config = config_from_dict(floats)
        assert config.problem.layer_dims == (4, 3, 2)
        assert run_experiment(config) == run_experiment(config_from_dict(doc))
        epochs = config_from_dict(dict(doc, steps=None, epochs=2.0))
        assert epochs.epochs == 2 and type(epochs.epochs) is int

    @pytest.mark.parametrize("field,value", [
        ("steps", 5.0), ("epochs", 2.0), ("repeats", 2.0), ("master_seed", 3.0),
        ("n", 8.0), ("d", 3.0), ("data_seed", 1.0),
    ])
    def test_integral_float_fields_in_python_run_as_integers(self, field, value):
        # as in the document form: the field runs as its integer
        def config(value):
            problem, top = {"n": 12, "d": 4, "data_seed": 0}, {"steps": 6, "repeats": 1}
            if field == "epochs":
                top["steps"] = None
            (problem if field in problem else top)[field] = value
            return small_config(problem=ProblemSpec(**problem), **top)

        assert run_experiment(config(value)) == run_experiment(config(int(value)))

    def test_epoch_budget_resolves_per_algorithm(self):
        config = small_config(
            steps=None,
            epochs=6,
            algorithms=[
                AlgorithmSpec(name="adaspider"),
                AlgorithmSpec(name="sgd", params={"eta": 0.05}),
            ],
        )
        records = run_experiment(config)
        budget = 6 * 12
        for record in records:
            assert record.rows[-1].oracle_calls <= budget


    def test_run_alone_keeps_no_per_step_records(self, monkeypatch):
        # One repeat is a run alone. Step sizes, norms and charged calls kept
        # per step would take 24 * T bytes; epoch rows take a point each per
        # n = 1000 charged calls.
        import adaspider.harness as harness

        steps = 20_000
        problem = build_problem(ProblemSpec(n=1000, d=10))
        monkeypatch.setattr(harness, "build_problem", lambda spec: problem)
        config = ExperimentConfig(
            problem=ProblemSpec(n=1000, d=10),
            algorithms=[AlgorithmSpec("sgd")],
            steps=steps,
            repeats=1,
        )
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            live = tracemalloc.get_traced_memory()[0]
            (record,) = run_experiment(config)
            peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        assert len(record.rows) == 20
        assert peak < 24 * steps / 2, peak


class TestStepsForBudget:
    @pytest.mark.parametrize("budget", [12, 36, 50, 100, 137])
    def test_adaspider_budget_inversion(self, budget):
        problem = build_problem(ProblemSpec(n=12, d=4))
        spec = AlgorithmSpec(name="adaspider")
        steps = steps_for_budget(spec, problem, budget)
        used = closed_form_oracle_calls(spec, problem, steps)
        assert used <= budget
        one_more = closed_form_oracle_calls(spec, problem, steps + 1)
        assert one_more > budget

    def test_sgd_budget_is_step_count(self):
        problem = build_problem(ProblemSpec(n=12, d=4))
        assert steps_for_budget(AlgorithmSpec(name="sgd"), problem, 77) == 77

    def test_spiderboost_budget_inversion(self):
        problem = build_problem(ProblemSpec(n=16, d=4))
        spec = AlgorithmSpec(name="spiderboost", params={"smoothness": 10.0})
        # cycle: 4 steps costing 16 + 3 * 8 = 40
        assert steps_for_budget(spec, problem, 40) == 4
        assert steps_for_budget(spec, problem, 39) == 3
        assert steps_for_budget(spec, problem, 80) == 8


class TestSweep:
    def test_default_grid_is_seven_point_exponential(self):
        assert DEFAULT_SWEEP_GRID == (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3)

    def test_single_value_grid_returns_it(self):
        config = small_config(
            algorithms=[AlgorithmSpec(name="sgd")], steps=20, repeats=2
        )
        best, results = sweep_step_size(config, "sgd", [0.05])
        assert best == 0.05
        assert set(results) == {0.05}

    def test_divergent_value_ranks_last(self):
        # eta 1e3 on a quadratic objective diverges; eta 1e-2 converges
        config = ExperimentConfig(
            problem=ProblemSpec(n=10, d=3, loss="squared", lam=0.0, data_seed=1),
            algorithms=[AlgorithmSpec(name="sgd")],
            steps=300,
            repeats=2,
            master_seed=0,
        )
        best, results = sweep_step_size(config, "sgd", [1e3, 1e-2])
        assert best == 1e-2
        assert any(r.diverged for r in results[1e3])
        assert not any(r.diverged for r in results[1e-2])

    def test_problem_built_once_per_sweep(self, monkeypatch):
        import adaspider.harness as harness

        built = []
        original = harness.build_problem

        def counting_build(spec):
            built.append(spec)
            return original(spec)

        monkeypatch.setattr(harness, "build_problem", counting_build)
        config = small_config(algorithms=[AlgorithmSpec(name="svrg")], steps=20)
        sweep_step_size(config, "svrg", [1e-3, 1e-2, 1e-1, 1.0])
        assert len(built) == 1

    def test_sweep_records_equal_independent_runs(self):
        config = small_config(
            algorithms=[AlgorithmSpec(name="svrg", params={"epoch_length": 5})],
            steps=30,
        )
        grid = [1e-2, 0.3, 1e3]
        _, results = sweep_step_size(config, "svrg", grid)
        for value in grid:
            spec = AlgorithmSpec(name="svrg", params={"epoch_length": 5, "eta": value})
            expected = run_experiment(small_config(algorithms=[spec], steps=30))
            assert results[value] == expected

    def test_adaptive_method_not_sweepable(self):
        with pytest.raises(ConfigError, match="tunable"):
            sweep_step_size(small_config(), "adaspider", [0.1])

    def test_unknown_algorithm_named_as_unknown(self):
        with pytest.raises(ConfigError, match="unknown algorithm 'foo'"):
            sweep_step_size(small_config(), "foo", [0.1])

    def test_sweep_preserves_base_parameters(self):
        config = small_config(
            algorithms=[
                AlgorithmSpec(name="svrg", params={"epoch_length": 3})
            ],
            steps=12,
        )
        best, results = sweep_step_size(config, "svrg", [0.02])
        assert best == 0.02
        # epoch_length 3 means full passes every 3 steps: n + 2 + 2 per cycle
        record = results[0.02][0]
        problem = build_problem(config.problem)
        spec = AlgorithmSpec(name="svrg", params={"epoch_length": 3})
        assert record.rows[-1].oracle_calls <= closed_form_oracle_calls(spec, problem, 12)

    @pytest.mark.parametrize("algo,params,key,swept", [
        ("sgd", {"eta": 5}, "eta", "eta"),
        ("spider", {"eps": 0.1, "smoothness": 2.0}, "eps", "eps"),
        # the swept eta is the step that 1/smoothness would be
        ("spiderboost", {"smoothness": 2.0}, "smoothness", "eta"),
    ])
    def test_sweep_refuses_a_configured_key_no_run_reads(self, algo, params, key, swept):
        config = small_config(algorithms=[AlgorithmSpec(name=algo, params=params)], steps=3)
        with pytest.raises(ConfigError) as excinfo:
            sweep_step_size(config, algo, [0.1])
        assert str(excinfo.value) == (
            f"{algo}: parameter {key!r} is not read by a sweep of {algo}, "
            f"which sets {swept} on every run"
        )

    def test_spider_sweep_tunes_accuracy_scale(self):
        config = small_config(
            algorithms=[AlgorithmSpec(name="spider")], steps=30, repeats=2
        )
        best, results = sweep_step_size(config, "spider", [1e-3, 1.0])
        assert best in (1e-3, 1.0)
        assert set(results) == {1e-3, 1.0}

    def test_empty_grid_rejected(self):
        config = small_config(algorithms=[AlgorithmSpec(name="sgd")])
        with pytest.raises(ConfigError, match="empty"):
            sweep_step_size(config, "sgd", [])


class TestSerialization:
    def _records(self):
        config = small_config(
            algorithms=[
                AlgorithmSpec(name="adaspider"),
                AlgorithmSpec(name="sgd", params={"eta": 0.05}),
            ],
            steps=25,
            repeats=2,
        )
        return run_experiment(config)

    def test_csv_header_and_row_count(self, tmp_path):
        records = self._records()
        path = tmp_path / "records.csv"
        emit_records(records, "csv", str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "algo,seed,epoch,oracle_calls,loss,grad_norm,step_size"
        assert len(lines) == 1 + sum(len(r.rows) for r in records)

    def test_csv_round_trip_identical(self, tmp_path):
        records = self._records()
        path = tmp_path / "records.csv"
        emit_records(records, "csv", str(path))
        assert load_records(str(path), "csv") == records

    def test_json_round_trip_identical(self, tmp_path):
        records = self._records()
        path = tmp_path / "records.json"
        emit_records(records, "json", str(path))
        assert load_records(str(path), "json") == records

    def test_awkward_floats_round_trip(self, tmp_path):
        records = self._records()
        records[0].rows[0].grad_norm = 1.0 / 3.0
        records[0].rows[0].loss = 1e-300
        path = tmp_path / "records.csv"
        emit_records(records, "csv", str(path))
        again = load_records(str(path), "csv")
        assert again[0].rows[0].grad_norm == 1.0 / 3.0
        assert again[0].rows[0].loss == 1e-300

    def test_wrong_csv_header_refused(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text("algo,seed,epoch\nsgd,0,0\n")
        with pytest.raises(ValueError, match="does not start with the expected CSV header"):
            load_records(str(path), "csv")

    def test_single_record_single_row(self, tmp_path):
        config = small_config(steps=1, repeats=1)
        records = run_experiment(config)
        assert len(records) == 1
        path = tmp_path / "one.csv"
        emit_records(records, "csv", str(path))
        assert len(path.read_text().splitlines()) == 2

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no records"):
            emit_records([], "csv", str(tmp_path / "x.csv"))

    def test_identical_config_identical_bytes(self, tmp_path):
        records_a = self._records()
        records_b = self._records()
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_records(records_a, "csv", str(pa))
        emit_records(records_b, "csv", str(pb))
        assert pa.read_bytes() == pb.read_bytes()


class TestConfigDocument:
    def test_parse_full_document(self):
        doc = {
            "problem": {
                "synthetic": "separable-logistic",
                "n": 50,
                "d": 8,
                "loss": "logistic",
                "lambda": 0.2,
            },
            "algorithms": [
                {"name": "adaspider"},
                {"name": "sgd", "eta": 0.01},
            ],
            "epochs": 10,
            "repeats": 3,
            "master_seed": 11,
            "format": "json",
        }
        config = config_from_dict(doc)
        assert config.problem.lam == 0.2
        assert config.algorithms[1].params == {"eta": 0.01}
        assert config.repeats == 3
        records = run_experiment(config)
        assert len(records) == 6

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            config_from_dict({"problemz": {}})
        with pytest.raises(ConfigError, match="unknown problem fields"):
            config_from_dict({"problem": {"shape": 3}, "algorithms": []})

    @pytest.mark.parametrize(
        "field,doc",
        [
            ("problem", {"problem": [8, 2]}),
            ("problem", {"problem": None}),
            ("params", {"algorithms": [{"name": "sgd", "params": [0.1]}]}),
            ("algorithms", {"algorithms": "sgd"}),
            ("algorithms", {"algorithms": {"name": "sgd"}}),
            ("algorithms entry", {"algorithms": ["sgd"]}),
            ("algorithm name", {"algorithms": [{"name": ["sgd"]}]}),
            ("out must be a string", {"out": 5}),
        ],
    )
    def test_wrong_structure_or_type_rejected_naming_field(self, field, doc):
        # check_settings runs before any problem is built or any run starts
        with pytest.raises(ConfigError, match=field):
            check_settings(config_from_dict(dict(doc, steps=5)))

    def test_parameter_set_in_and_beside_params_refused(self):
        doc = {"algorithms": [{"name": "sgd", "params": {"eta": 0.1}, "eta": 0.2}], "steps": 5}
        with pytest.raises(ConfigError, match="sgd: parameter 'eta' is set both"):
            config_from_dict(doc)
        # each place alone is accepted
        for entry in ({"name": "sgd", "params": {"eta": 0.1}}, {"name": "sgd", "eta": 0.2}):
            config_from_dict({"algorithms": [entry], "steps": 5})

    def test_lam_set_both_as_lam_and_lambda_refused(self):
        doc = {"problem": {"lam": 0.5, "lambda": 0.1}, "algorithms": [{"name": "sgd"}],
               "steps": 5}
        with pytest.raises(ConfigError) as excinfo:
            config_from_dict(doc)
        assert str(excinfo.value) == "problem.lam is set both as 'lam' and as 'lambda'"
        # each key alone is accepted
        for key in ("lam", "lambda"):
            config = config_from_dict(dict(doc, problem={key: 0.1}))
            assert config.problem.lam == 0.1

    @pytest.mark.parametrize("value", [-1, "0.1", True, math.inf])
    def test_bad_lambda_refused_by_its_own_name(self, value):
        doc = {"problem": {"lambda": value}, "algorithms": [{"name": "sgd"}], "steps": 5}
        with pytest.raises(ConfigError, match=r"^problem\.lambda must be "):
            config_from_dict(doc)

    @pytest.mark.parametrize("field", ["problem.path", "out"])
    def test_empty_path_refused_before_problem_is_built(self, monkeypatch, field):
        import adaspider.harness as harness

        def fail_build(spec):
            raise AssertionError("problem built before the fields were checked")

        monkeypatch.setattr(harness, "build_problem", fail_build)
        doc = {"problem": {"n": 8, "d": 2}, "algorithms": [{"name": "sgd"}], "steps": 5}
        if field == "out":
            doc["out"] = ""
        else:
            doc["problem"]["path"] = ""
        with pytest.raises(ConfigError, match=f"^{field} must name a file, got ''$"):
            run_experiment(config_from_dict(doc))

    def test_algorithm_entry_needs_name(self):
        with pytest.raises(ConfigError, match="name"):
            config_from_dict({"algorithms": [{"eta": 0.1}]})

    def test_mlp_problem_document(self):
        doc = {
            "problem": {
                "loss": "mlp",
                "n": 16,
                "layer_dims": [5, 4, 2],
                "c_init": 0.05,
            },
            "algorithms": [{"name": "adaspider"}],
            "steps": 10,
            "repeats": 1,
        }
        config = config_from_dict(doc)
        records = run_experiment(config)
        assert len(records) == 1
        assert np.isfinite(records[0].rows[0].loss)

    def test_spider_requires_smoothness_source(self):
        # the network problem has no known smoothness constant
        doc = {
            "problem": {"loss": "mlp", "n": 8, "layer_dims": [5, 4, 2]},
            "algorithms": [{"name": "spider", "eps": 0.01}],
            "steps": 5,
        }
        with pytest.raises(ConfigError, match="smoothness"):
            run_experiment(config_from_dict(doc))
