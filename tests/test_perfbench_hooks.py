"""perfbench's instrumentation (``perfbench/spans.py``) still finds, and
sees called, every package name it hooks.

A hooked name that a refactor removes shows up in a ``missing`` list; one
that stays but is no longer called reads as a zero metric. The probe runs
in a fresh process, since the hooks patch the package's modules.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import json, sys
import numpy as np
import adaspider.cli
import spans

pkg = sys.modules["adaspider"]
markers, tracer = spans.Markers(), spans.Tracer()
markers.install(pkg)
tracer.install(pkg)
harness = pkg.harness
problem = harness.build_problem(harness.ProblemSpec(n=8, d=2))
calls = {}
for name in ("svrg", "adaspider", "spiderboost"):
    harness.run_algorithm(
        harness.AlgorithmSpec(name), problem, np.zeros(2), 10, np.random.default_rng(0)
    )
    calls[name] = {key: tracer._calls(key) for key in (
        "optimizers.run", "optimizers.estimator_update", "core.full_gradient"
    )}
print(json.dumps({
    "markers": markers.missing, "tracer": tracer.missing, "calls": calls,
    "charged": tracer.counts.get("core.charged_calls", 0),
}))
"""


def test_every_hook_found_and_the_estimator_hooks_called():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "perfbench"), str(ROOT / "src"), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    assert found["markers"] == [] and found["tracer"] == []
    # svrg on n = 8 for 10 steps: resets at steps 0 and 8, and every step
    # through the estimator hook; adaspider adds the same again; spiderboost,
    # whose batch of ceil(sqrt(8)) = 3 takes one-row blocks, resets every 3
    # steps (0, 3, 6, 9)
    assert found["calls"] == {
        "svrg": {"optimizers.run": 1, "optimizers.estimator_update": 10, "core.full_gradient": 2},
        "adaspider": {
            "optimizers.run": 2, "optimizers.estimator_update": 20, "core.full_gradient": 4
        },
        "spiderboost": {
            "optimizers.run": 3, "optimizers.estimator_update": 30, "core.full_gradient": 8
        },
    }
    assert found["charged"] == 2 * (2 * 8 + 8 * 2) + (4 * 8 + 6 * 2 * 3)
