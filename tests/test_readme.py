"""The README's Python examples run as written, with the public names it
documents."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_examples_run_as_written(capsys):
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)
    assert blocks, "README has no python example"
    for block in blocks:
        exec(compile(block, str(README), "exec"), {"__name__": "__main__"})
    # the example prints the run's charged_calls and last gradient norm
    calls, grad_norm = capsys.readouterr().out.split()
    assert int(calls) > 0
    assert math.isfinite(float(grad_norm))
