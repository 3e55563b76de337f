"""``python -m adaspider``: the same command line as the ``adaspider`` script."""

from .cli import entrypoint

if __name__ == "__main__":
    entrypoint()
