"""LibSVM parsing, serialization and synthetic dataset generation.

A :class:`Dataset` is stored as compressed sparse rows (CSR) of numpy
arrays; LibSVM text is only an input and an output format.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import repeat
from operator import contains, ge

import numpy as np

SYNTHETIC_KINDS = ("separable-logistic", "quadratic", "two-cluster-classification")

_MAX_INDEX = np.iinfo(np.int64).max


def _frozen_array(name: str, value, dtype) -> np.ndarray:
    """``value`` as a read-only 1-d array of ``dtype``.

    Integer fields refuse non-integer input instead of truncating it. The
    result is a view, so freezing it leaves the caller's array writable.
    """
    arr = np.asarray(value)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if dtype is np.int64 and arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integers, got dtype {arr.dtype}")
    arr = arr.astype(dtype, copy=False).view()
    arr.flags.writeable = False
    return arr


def _first_order_violation(indptr: np.ndarray, indices: np.ndarray):
    """(row, position) of the first index that is not above its row
    predecessor (0 before a row's first entry), or None."""
    bad = np.empty(indices.size, dtype=bool)
    np.less_equal(indices[1:], indices[:-1], out=bad[1:])
    starts = indptr[:-1][np.diff(indptr) > 0]
    bad[starts] = indices[starts] <= 0
    bad = np.flatnonzero(bad)
    if not bad.size:
        return None
    k = int(bad[0])
    return int(np.searchsorted(indptr, k, side="right")) - 1, k


@dataclass(frozen=True, eq=False)
class Dataset:
    """Sparse feature rows with labels, stored as CSR arrays.

    Row ``r`` holds the entries ``indptr[r]:indptr[r + 1]`` of ``indices``
    (1-based feature indices, strictly increasing within a row) and
    ``values``; ``labels`` has one entry per row. ``d`` is the feature
    dimension and must cover every index present. The arrays are
    read-only and datasets are immutable after construction.
    """

    indptr: np.ndarray
    indices: np.ndarray
    values: np.ndarray
    labels: np.ndarray
    d: int

    def __post_init__(self):
        for name, dtype in (("indptr", np.int64), ("indices", np.int64),
                            ("values", np.float64), ("labels", np.float64)):
            object.__setattr__(self, name, _frozen_array(name, getattr(self, name), dtype))
        indptr, indices, values, labels = self.indptr, self.indices, self.values, self.labels
        if not indptr.size or indptr[0] != 0 or (np.diff(indptr) < 0).any():
            raise ValueError("indptr must start at 0 and be non-decreasing")
        if indptr[-1] != indices.size or indices.size != values.size:
            raise ValueError(
                f"indptr ends at {indptr[-1]} but there are {indices.size} "
                f"indices and {values.size} values"
            )
        n = indptr.size - 1
        if n != labels.size:
            raise ValueError(f"{n} rows but {labels.size} labels")
        if self.d < 0:
            raise ValueError("feature dimension must be non-negative")
        # the first failing row, checked as rows were read: order, then bound
        order = _first_order_violation(indptr, indices)
        filled = np.flatnonzero(np.diff(indptr) > 0)
        over = filled[indices[indptr[filled + 1] - 1] > self.d]
        if order is not None and (not over.size or order[0] <= over[0]):
            r, k = order
            prev = 0 if k == indptr[r] else int(indices[k - 1])
            raise ValueError(
                f"row {r + 1}: indices must be strictly increasing "
                f"and 1-based (saw {int(indices[k])} after {prev})"
            )
        if over.size:
            r = int(over[0])
            raise ValueError(
                f"row {r + 1}: feature index {int(indices[indptr[r + 1] - 1])} "
                f"exceeds dimension {self.d}"
            )

    def __eq__(self, other) -> bool:
        """Exact equality of every stored number and of ``d``
        (-0.0 equals 0.0; NaN equals nothing)."""
        if not isinstance(other, Dataset):
            return NotImplemented
        if self is other:
            return True
        return bool(self.d == other.d) and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("indptr", "indices", "values", "labels")
        )

    @property
    def n(self) -> int:
        return self.labels.size

    def dense(self) -> np.ndarray:
        """Materialize the feature matrix as an (n, d) float64 array."""
        out = np.zeros((self.n, self.d))
        rows = np.repeat(np.arange(self.n), np.diff(self.indptr))
        out[rows, self.indices - 1] = self.values
        return out

    def dense_labels(self) -> np.ndarray:
        return self.labels.copy()


def map_binary_labels(labels) -> np.ndarray:
    """Map raw labels to {-1, +1} for logistic problems.

    Accepted raw values: 0 -> -1, 1 -> +1, -1 -> -1, +1 -> +1.
    Anything else is an error.
    """
    arr = np.asarray(labels, dtype=np.float64)
    positive = arr == 1.0
    bad = np.flatnonzero(~(positive | (arr == 0.0) | (arr == -1.0)))
    if bad.size:
        label = labels[int(bad[0])]
        if isinstance(label, np.generic):  # a plain number, not np.float64(...)
            label = label.item()
        raise ValueError(
            f"label {label!r} not usable for logistic loss "
            "(expected one of 0, 1, -1, +1)"
        )
    return np.where(positive, 1.0, -1.0)


def _line_error(lineno: int, line: str) -> ValueError:
    """The error for a stripped data line, worded by a token-by-token
    re-scan; only called once the line is known to be bad."""
    parts = line.split()
    try:
        float(parts[0])
    except ValueError:
        return ValueError(f"line {lineno}: unparseable label {parts[0]!r}")
    prev = 0
    for token in parts[1:]:
        idx_str, sep, val_str = token.partition(":")
        if not sep:
            return ValueError(f"line {lineno}: malformed feature pair {token!r}")
        try:
            idx = int(idx_str)
            float(val_str)
        except ValueError:
            return ValueError(f"line {lineno}: unparseable feature pair {token!r}")
        if idx <= prev:
            return ValueError(
                f"line {lineno}: feature indices must be strictly "
                f"increasing and 1-based (saw {idx} after {prev})"
            )
        if idx > _MAX_INDEX:
            return ValueError(f"line {lineno}: feature index {idx} does not fit in 64 bits")
        prev = idx
    raise AssertionError(f"line {lineno} has no error")  # pragma: no cover


def _parse_line(line: str):
    """(label, index strings, value strings) of a stripped data line, or
    ValueError when a token is not one ``idx:val`` pair or the label is
    not a float."""
    parts = line.split()
    label = float(parts[0])
    pairs = parts[1:]
    joined = " ".join(pairs)
    # every token holds exactly one ':', so the pieces alternate index, value
    if joined.count(":") != len(pairs) or not all(map(contains, pairs, repeat(":"))):
        raise ValueError
    pieces = joined.replace(":", " ").split(" ") if pairs else []
    return label, pieces[0::2], pieces[1::2]


def parse_libsvm(text: str, d: int | None = None) -> Dataset:
    """Parse LibSVM-format text into a :class:`Dataset`.

    Each non-empty, non-comment line is ``label idx:val idx:val ...``.
    Lines beginning with ``#`` are skipped. The dimension is the maximum
    feature index seen, unless ``d`` overrides it upward. Numbers are read
    with Python's ``int`` and ``float``; errors name the first bad line.
    Lines are read one at a time into growable typed buffers, which become
    the dataset's arrays without a copy.
    """
    from array import array  # a shared library, so only processes that parse load it

    labels, indptr, indices, values = array("d"), array("q", [0]), array("q"), array("d")
    prev_strs, idx = None, None
    start, lineno = 0, 0
    while start < len(text):
        end = text.find("\n", start)
        if end < 0:
            end = len(text)
        line = text[start:end].strip()
        start, lineno = end + 1, lineno + 1
        if not line or line.startswith("#"):
            continue
        try:
            label, idx_strs, val_strs = _parse_line(line)
            if idx_strs != prev_strs:  # rows often repeat the previous indices
                idx = array("q", list(map(int, idx_strs)))
                if any(map(ge, (0, *idx), idx)):  # 1-based, strictly increasing
                    raise ValueError
                prev_strs = idx_strs
            values.fromlist(list(map(float, val_strs)))
        except (ValueError, OverflowError):
            raise _line_error(lineno, line) from None
        labels.append(label)
        indices.extend(idx)
        indptr.append(len(indices))
    indices = np.asarray(indices)
    max_index = int(indices.max()) if indices.size else 0
    if d is None:
        d = max_index
    elif d < max_index:
        raise ValueError(
            f"requested dimension {d} is below the maximum feature "
            f"index {max_index}; dimension may only be overridden upward"
        )
    return Dataset(indptr=indptr, indices=indices, values=values, labels=labels, d=d)


def load_libsvm(path: str, d: int | None = None) -> Dataset:
    """Read LibSVM data from a file path, or standard input when path is '-'.
    Only "\n" ends a line, as in ``parse_libsvm``."""
    if path == "-":
        return parse_libsvm(sys.stdin.read(), d=d)
    with open(path, "r", encoding="utf-8", newline="\n") as fh:
        return parse_libsvm(fh.read(), d=d)


def format_libsvm(dataset: Dataset) -> str:
    """Serialize to LibSVM text. ``parse_libsvm`` of the result round-trips.

    Labels and values are written as ``repr`` of the float, so the text
    is exact. Rows are read from the arrays one at a time, so the text's
    lines and the text itself are the only large objects. A row whose
    indices differ from the previous row's is formatted pair by pair; a
    run of rows with the same indices (every row of a dense dataset)
    shares one ``str.format`` template of them.
    """
    bounds = dataset.indptr.tolist()
    indices, values = dataset.indices, dataset.values
    pattern, template = None, None
    lines = []
    for label, a, b in zip(dataset.labels.tolist(), bounds, bounds[1:]):
        columns, row = indices[a:b].tolist(), values[a:b].tolist()
        if columns != pattern:
            pattern, template = columns, None
            pairs = [f" {idx}:{val!r}" for idx, val in zip(columns, row)]
            lines.append(repr(label) + "".join(pairs))
            continue
        if template is None:
            template = "{!r}" + "".join([f" {idx}:{{!r}}" for idx in columns])
        lines.append(template.format(label, *row))
    lines.append("")  # the join then ends the text with a newline
    return "\n".join(lines)


def scale_features(dataset: Dataset) -> Dataset:
    """Scale each feature column into [-1, 1] by its max absolute value.

    Off by default everywhere; columns that are identically zero are
    left untouched.
    """
    columns = dataset.indices - 1
    max_abs = np.zeros(dataset.d)
    # fmax skips NaN values, so a NaN never becomes a column's scale
    np.fmax.at(max_abs, columns, np.abs(dataset.values))
    scale = max_abs[columns]
    values = np.divide(
        dataset.values, scale, out=dataset.values.copy(), where=scale > 0
    )
    return Dataset(
        indptr=dataset.indptr,
        indices=dataset.indices,
        values=values,
        labels=dataset.labels,
        d=dataset.d,
    )


def generate_synthetic(
    kind: str,
    n: int,
    d: int,
    seed: int,
    *,
    n_classes: int = 4,
    noise: float = 0.01,
) -> Dataset:
    """Generate a deterministic synthetic dataset of the given kind.

    ``separable-logistic`` draws a hidden weight vector and labels each
    row by the sign of its inner product with it. ``quadratic`` draws
    (features, target) pairs for least squares with additive noise of
    scale ``noise``. ``two-cluster-classification`` draws ``n_classes``
    Gaussian clusters with integer class labels for the network task.
    Every feature is stored, so each row holds the indices 1..d.
    """
    if n < 1 or d < 1:
        raise ValueError("n and d must be at least 1")
    if kind not in SYNTHETIC_KINDS:
        raise ValueError(f"unknown synthetic kind {kind!r}; use one of {SYNTHETIC_KINDS}")
    rng = np.random.default_rng(seed)
    if kind == "separable-logistic":
        features = rng.standard_normal((n, d))
        w = rng.standard_normal(d)
        margins = features @ w
        labels = np.where(margins >= 0, 1.0, -1.0)
    elif kind == "quadratic":
        features = rng.standard_normal((n, d))
        w = rng.standard_normal(d)
        labels = features @ w + noise * rng.standard_normal(n)
    else:
        means = 3.0 * rng.standard_normal((n_classes, d))
        assignments = rng.integers(n_classes, size=n)
        features = means[assignments] + rng.standard_normal((n, d))
        labels = assignments.astype(np.float64)
    return Dataset(
        indptr=np.arange(0, n * d + 1, d, dtype=np.int64),
        indices=np.tile(np.arange(1, d + 1, dtype=np.int64), n),
        values=features.reshape(-1),
        labels=labels,
        d=d,
    )
