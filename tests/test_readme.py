"""The README's Python and JSON examples run as written, with the public
names and config field rules it documents."""

import importlib
import json
import math
import re
from pathlib import Path

from adaspider.cli import VERIFY_SUITES
from adaspider.harness import CONFIG_FIELDS, check_settings, config_from_dict

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("cli", "core", "data", "harness", "optimizers", "problems", "verify")


def unresolved(names) -> list:
    """Those of the ``module.name`` strings ``names`` that are not an
    attribute of that adaspider module."""
    return [
        name for name in names
        if not hasattr(importlib.import_module(f"adaspider.{name.split('.')[0]}"),
                       name.split(".", 1)[1])
    ]


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


def test_module_qualified_names_resolve():
    text = README.read_text(encoding="utf-8")
    names = re.findall(rf"`((?:{'|'.join(MODULES)})\.\w+)`", text)
    assert names
    assert unresolved(names) == []


def test_paper_to_code_table_names_resolve():
    section = README.read_text(encoding="utf-8").split("## Paper to code\n")[1].split("\n## ")[0]
    cells = [line.split("|")[2] for line in section.splitlines() if line.startswith("| ")][1:]
    assert cells
    for cell in cells:
        # "(suite `x`)" and "(suites `x`, `y`)" name verify suites, not code
        suites = re.findall(r"\(suites? ([^)]*)\)", cell)
        code = re.sub(r"\(suites? [^)]*\)", "", cell)
        assert set(re.findall(r"`(\w+)`", " ".join(suites))) <= set(VERIFY_SUITES)
        names = re.findall(r"`([\w.]+)`", code)
        assert names, cell
        assert unresolved(names) == [], cell


def _config_section() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("## Experiment config\n")[1].split("\n## ")[0]


def test_field_rules_paragraph_names_every_rule():
    paragraphs = _config_section().split("\n\n")
    rules = next(p for p in paragraphs if p.startswith("Each field's rule"))
    named = set(re.findall(r"`([\w.]+)`", rules))
    assert set(CONFIG_FIELDS) <= named, set(CONFIG_FIELDS) - named


def test_json_config_example_passes_the_checks():
    blocks = re.findall(r"^```json\n(.*?)^```", _config_section(), re.S | re.M)
    assert len(blocks) == 1
    check_settings(config_from_dict(json.loads(blocks[0])))
