"""Instrumentation of the adaspider package from outside its source.

Every hook replaces a module attribute or a class method with a wrapper.
Names that a module imports by value are patched where the caller looks
them up (``adaspider.optimizers.full_gradient``, ``adaspider.cli.
check_rate_scaling``), so no program file changes.

Two levels:

* :class:`Markers` is installed in every execution, traced or not. It
  costs one extra call per optimizer run, never per oracle call: it notes
  when the first optimizer run or verification check starts (the end of
  set-up), registers every ``OracleCounter`` so charged calls can be
  summed at the end, and keeps the records handed to ``emit_records``.
* :class:`Tracer` is installed only in traced executions. It times each
  wrapped call, keeps coarse spans (name, start, end, parent id) in
  memory, and aggregates hot leaves (component gradients, ``charge``,
  estimator updates) into per-name counts and times. A span's self time
  is its duration minus the time of the wrapped calls made inside it,
  their wrappers' bookkeeping included.
"""

from __future__ import annotations

import functools
import os
import statistics
import time

# The verification checkers the CLI calls, by the name cli.py imports,
# and the per-layer metric each one feeds.
VERIFY_CHECKS = {
    "sweep_sqrt_lemma": "sqrt",
    "sweep_log_lemma": "log",
    "sweep_variance_recursion": "variance_recursion",
    "check_cumulative_variance": "cumulative_variance",
    "check_weighted_variance": "weighted_variance",
    "sweep_trajectory_bound": "trajectory",
    "check_rate_scaling": "rate_scaling",
}

RUN_FUNCTIONS = (
    "adaspider_run",
    "spider_run",
    "spiderboost_run",
    "svrg_run",
    "sgd_run",
    "adagrad_norm_run",
)

FAMILIES = ("logistic", "squared", "quadratic", "mlp")


def _patch(owner, attr, make_wrapper, missing: list) -> None:
    """Replace ``owner.attr`` by ``make_wrapper(original)``.

    A target that no longer exists is listed in ``missing`` and skipped,
    so a later refactor of the package reads as a zero metric and a named
    hook, not as a crash.
    """
    original = getattr(owner, attr, None)
    if original is None:
        missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
        return
    wrapper = make_wrapper(original)
    functools.update_wrapper(wrapper, original)
    setattr(owner, attr, wrapper)


class Markers:
    """Set-up end, charged-call registry and emitted records; cheap enough
    to run in the untraced executions that give the end-to-end numbers."""

    def __init__(self):
        self.setup_end: float | None = None
        self.counters: list = []
        self.emitted: list = []  # (records, fmt, path)
        self.missing: list = []

    def charged_calls(self) -> int:
        return sum(c.component_calls for c in self.counters)

    def install(self, pkg) -> None:
        def first_work(fn):
            def wrapper(*args, **kwargs):
                if self.setup_end is None:
                    self.setup_end = time.monotonic()
                return fn(*args, **kwargs)

            return wrapper

        _patch(pkg.harness, "run_algorithm", first_work, self.missing)
        for name in (*VERIFY_CHECKS, "gradient_check_report"):
            _patch(pkg.cli, name, first_work, self.missing)

        def register(init):
            def wrapper(counter, *args, **kwargs):
                init(counter, *args, **kwargs)
                self.counters.append(counter)

            return wrapper

        _patch(pkg.core.OracleCounter, "__init__", register, self.missing)

        def capture(emit):
            def wrapper(records, fmt, path):
                emit(records, fmt, path)
                self.emitted.append((records, fmt, path))

            return wrapper

        _patch(pkg.harness, "emit_records", capture, self.missing)
        _patch(pkg.cli, "emit_records", capture, self.missing)


def problem_family(problem) -> str:
    kind = getattr(problem, "loss_kind", None)
    if kind is not None:
        return kind
    return "mlp" if hasattr(problem, "layer_dims") else "quadratic"


class Tracer:
    """Spans and per-name aggregates of one traced execution."""

    def __init__(self):
        self.spans: list = []  # (id, name, start, end, parent id)
        self.stats: dict = {}  # name -> [calls, total_s, self_s]
        self.counts: dict = {}
        self.active = {"run": 0, "diag": 0}
        self._stack: list = []  # frames: [span id, child_s]
        self._next_id = 1
        self.missing: list = []

    def count(self, key: str, amount=1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, owner, attr, name, *, keep=True, category=None, after=None):
        """Time every call of ``owner.attr``.

        ``name`` is a string or a function of the call's arguments.
        ``keep`` stores each call as a span; otherwise only aggregates are
        kept. ``category`` marks calls during which ``active[category]``
        is raised, so nested calls can see their context. ``after(args,
        result, duration, outermost)`` records counts from the result.
        """
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                enter = time.perf_counter()
                label = name(args) if callable(name) else name
                stack = tracer._stack
                outermost = category is None or tracer.active[category] == 0
                if category is not None:
                    tracer.active[category] += 1
                span_id = tracer._next_id
                tracer._next_id += 1
                parent_id = stack[-1][0] if stack else 0
                frame = [span_id, 0.0]
                stack.append(frame)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    stack.pop()
                    if category is not None:
                        tracer.active[category] -= 1
                    duration = end - start
                    stat = tracer.stats.setdefault(label, [0, 0.0, 0.0])
                    stat[0] += 1
                    stat[1] += duration
                    stat[2] += duration - frame[1]
                    if keep:
                        tracer.spans.append((span_id, label, start, end, parent_id))
                if after is not None:
                    after(args, result, duration, outermost)
                # The caller's self time excludes this wrapper's own cost too.
                if stack:
                    stack[-1][1] += time.perf_counter() - enter
                return result

            return wrapper

        _patch(owner, attr, make, self.missing)

    def install(self, pkg) -> None:
        cli, core, data, harness = pkg.cli, pkg.core, pkg.data, pkg.harness
        optimizers, problems, verify = pkg.optimizers, pkg.problems, pkg.verify
        count = self.count

        self.wrap(cli, "main", "cli.main")

        # harness
        def on_run(args, trace, duration, outermost):
            count("harness.runs")
            count("harness.diverged_runs", int(trace.diverged))

        def on_emit(args, result, duration, outermost):
            count("harness.emit_bytes", os.path.getsize(args[2]))

        self.wrap(harness, "build_problem", "harness.build_problem")
        self.wrap(harness, "run_algorithm", "harness.run_algorithm", after=on_run)
        for module in (harness, cli):
            self.wrap(module, "run_experiment", "harness.run_experiment")
            self.wrap(module, "sweep_step_size", "harness.sweep_step_size")
            self.wrap(module, "emit_records", "harness.emit_records", after=on_emit)

        # optimizers
        def on_steps(args, trace, duration, outermost):
            count("optimizers.steps", trace.num_steps)

        for fn_name in RUN_FUNCTIONS:
            self.wrap(harness, fn_name, "optimizers.run", category="run", after=on_steps)
        self.wrap(verify, "adaspider_run", "optimizers.run", category="run", after=on_steps)
        self.wrap(
            optimizers, "spider_estimator_update", "optimizers.estimator_update", keep=False
        )

        # core
        def on_charge(args, result, duration, outermost):
            count("core.charged_calls", args[1])

        self.wrap(core.OracleCounter, "charge", "core.charge", keep=False, after=on_charge)
        self.wrap(optimizers, "full_gradient", "core.full_gradient", keep=False)
        self.wrap(cli, "finite_difference_gradient", "core.finite_difference_gradient")

        # problems
        def on_component(args, result, duration, outermost):
            charged = self.active["run"] and not self.active["diag"]
            count(
                "problems.component_gradient_calls."
                + ("charged" if charged else "uncharged")
            )

        def on_diag(args, result, duration, outermost):
            if outermost and self.active["run"]:
                count("optimizers.diag_s", duration)

        for cls in (
            core.FiniteSumProblem,
            problems.RegularizedERM,
            problems.QuadraticProblem,
            problems.MLPClassificationProblem,
        ):
            if "component_gradient" in vars(cls):
                self.wrap(
                    cls,
                    "component_gradient",
                    lambda a: "problems.component_gradient." + problem_family(a[0]),
                    keep=False,
                    after=on_component,
                )
            for method in ("value", "metric_gradient"):
                if method in vars(cls):
                    self.wrap(
                        cls,
                        method,
                        lambda a, m=method: f"problems.{m}." + problem_family(a[0]),
                        keep=False,
                        category="diag",
                        after=on_diag,
                    )
        for cls in (
            problems.RegularizedERM,
            problems.QuadraticProblem,
            problems.MLPClassificationProblem,
        ):
            self.wrap(cls, "__init__", "problems.build", keep=False)

        # data
        def on_format(args, text, duration, outermost):
            count("data.format_bytes", len(text))

        def on_parse(args, dataset, duration, outermost):
            count("data.parse_bytes", len(args[0]))

        for module in (data, harness, cli, verify):
            self.wrap(module, "generate_synthetic", "data.generate_synthetic")
        self.wrap(data, "format_libsvm", "data.format_libsvm", after=on_format)
        self.wrap(data, "parse_libsvm", "data.parse_libsvm", after=on_parse)
        self.wrap(data.Dataset, "dense", "data.dense")

        # verify
        def on_report(args, report, duration, outermost):
            count("verify.trials", report.trials)
            count("verify.violations", report.violations)

        for fn_name, metric in VERIFY_CHECKS.items():
            self.wrap(cli, fn_name, f"verify.{metric}", after=on_report)
        self.wrap(cli, "gradient_check_report", "verify.gradcheck")

    # -- results -----------------------------------------------------------

    def _total(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def _self(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def _calls(self, name: str) -> int:
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def _mean(self, name: str, scale: float) -> float:
        calls = self._calls(name)
        return scale * self._total(name) / calls if calls else 0.0

    def layer_metrics(self, import_s: float) -> dict:
        """Per-layer metrics of this execution, keyed by metric name."""
        counts = self.counts
        run_times = [s[3] - s[2] for s in self.spans if s[1] == "harness.run_algorithm"]
        if len(run_times) >= 2:
            p50 = statistics.median(run_times)
            p90 = statistics.quantiles(run_times, n=10, method="inclusive")[-1]
        else:
            p50 = p90 = run_times[0] if run_times else 0.0
        steps = counts.get("optimizers.steps", 0)
        run_total = self._total("optimizers.run")
        diag_s = counts.get("optimizers.diag_s", 0.0)
        format_s = self._total("data.format_libsvm")
        parse_s = self._total("data.parse_libsvm")
        out = {
            "package.import_s": import_s,
            "cli.main_self_s": self._self("cli.main"),
            "harness.build_problem_s": self._total("harness.build_problem"),
            "harness.runs": counts.get("harness.runs", 0),
            "harness.run_s.p50": p50,
            "harness.run_s.p90": p90,
            "harness.diverged_runs": counts.get("harness.diverged_runs", 0),
            "harness.emit_records_s": self._total("harness.emit_records"),
            "harness.emit_bytes": counts.get("harness.emit_bytes", 0),
            "optimizers.steps": steps,
            "optimizers.loop_self_us_per_step": (
                1e6 * self._self("optimizers.run") / steps if steps else 0.0
            ),
            "optimizers.estimator_update_us": (
                1e6 * self._self("optimizers.estimator_update")
                / self._calls("optimizers.estimator_update")
                if self._calls("optimizers.estimator_update")
                else 0.0
            ),
            "optimizers.diag_s": diag_s,
            "optimizers.diag_share": diag_s / run_total if run_total else 0.0,
            "core.charged_calls": counts.get("core.charged_calls", 0),
            "core.full_gradient_calls": self._calls("core.full_gradient"),
            "core.full_gradient_ms": self._mean("core.full_gradient", 1e3),
            "core.finite_difference_s": self._total("core.finite_difference_gradient"),
        }
        for family in FAMILIES:
            out[f"problems.component_gradient_us.{family}"] = self._mean(
                "problems.component_gradient." + family, 1e6
            )
        for kind in ("charged", "uncharged"):
            key = "problems.component_gradient_calls." + kind
            out[key] = counts.get(key, 0)
        for family in FAMILIES:
            out[f"problems.metric_gradient_ms.{family}"] = self._mean(
                "problems.metric_gradient." + family, 1e3
            )
        for family in FAMILIES:
            out[f"problems.value_ms.{family}"] = self._mean("problems.value." + family, 1e3)
        out["problems.build_s"] = self._total("problems.build")
        out.update(
            {
                "data.generate_synthetic_s": self._total("data.generate_synthetic"),
                "data.format_libsvm_s": format_s,
                "data.format_mb_per_s": (
                    counts.get("data.format_bytes", 0) / 1e6 / format_s if format_s else 0.0
                ),
                "data.parse_libsvm_s": parse_s,
                "data.parse_mb_per_s": (
                    counts.get("data.parse_bytes", 0) / 1e6 / parse_s if parse_s else 0.0
                ),
                "data.dense_s": self._total("data.dense"),
            }
        )
        for metric in VERIFY_CHECKS.values():
            out[f"verify.{metric}_s"] = self._total(f"verify.{metric}")
        out["verify.gradcheck_s"] = self._total("verify.gradcheck")
        out["verify.trials"] = counts.get("verify.trials", 0)
        out["verify.violations"] = counts.get("verify.violations", 0)
        return out
