"""Shared test set-up.

``pythonpath`` in pyproject.toml puts ``src`` on this interpreter's path;
tests that start a fresh interpreter get it through PYTHONPATH.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if _SRC not in [os.path.abspath(p) for p in _paths]:
    os.environ["PYTHONPATH"] = os.pathsep.join([_SRC, *_paths])

