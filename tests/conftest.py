"""Shared test set-up.

``pythonpath`` in pyproject.toml puts ``src`` on this interpreter's path;
tests that start a fresh interpreter get it through PYTHONPATH.
"""

import os
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")
_paths = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
if _SRC not in [os.path.abspath(p) for p in _paths]:
    os.environ["PYTHONPATH"] = os.pathsep.join([_SRC, *_paths])


@pytest.fixture
def lockstep_blocks(monkeypatch):
    """``bound(block_bytes)`` bounds lockstep blocks at ``block_bytes`` and
    returns a list that gets the member count of each block stepped."""
    import adaspider.optimizers as optimizers

    def bound(block_bytes: int) -> list:
        sizes = []
        original = optimizers._lockstep_block

        def block(problem, algo, runs, *args):
            sizes.append(len(runs))
            return original(problem, algo, runs, *args)

        monkeypatch.setattr(optimizers, "_lockstep_block", block)
        monkeypatch.setattr(optimizers, "_BLOCK_BYTES", block_bytes)
        return sizes

    return bound
