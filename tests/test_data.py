"""LibSVM parsing, serialization round-trips, synthetic generators."""

import gc
import hashlib
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adaspider.cli import main
from adaspider.data import (
    Dataset,
    format_libsvm,
    generate_synthetic,
    load_libsvm,
    map_binary_labels,
    parse_libsvm,
    scale_features,
)
from adaspider.problems import RegularizedERM


def csr(rows, labels, d):
    """A Dataset from per-row lists of (index, value) pairs."""
    return Dataset(
        indptr=np.cumsum([0] + [len(row) for row in rows]),
        indices=[idx for row in rows for idx, _ in row],
        values=[val for row in rows for _, val in row],
        labels=labels,
        d=d,
    )


class TestParsing:
    def test_single_line(self):
        ds = parse_libsvm("+1 1:0.5 3:-2.0")
        assert ds.n == 1
        assert ds.labels.tolist() == [1.0]
        assert ds.indptr.tolist() == [0, 2]
        assert ds.indices.tolist() == [1, 3]
        assert ds.values.tolist() == [0.5, -2.0]
        assert ds.d == 3

    def test_empty_input(self):
        ds = parse_libsvm("")
        assert ds.n == 0
        assert ds.d == 0

    def test_binary_label_mapping(self):
        ds = parse_libsvm("0 2:1\n1 1:1")
        assert ds.d == 2
        assert map_binary_labels(ds.labels).tolist() == [-1.0, 1.0]

    def test_label_mapping_rejects_other_values(self):
        with pytest.raises(ValueError, match="label"):
            map_binary_labels((0.0, 3.0))

    def test_comment_and_blank_lines_skipped(self):
        ds = parse_libsvm("# header\n\n+1 1:1\n# trailing\n")
        assert ds.n == 1

    def test_crlf_line_endings(self):
        lf = parse_libsvm("+1 1:1\n-1 2:2\n")
        crlf = parse_libsvm("+1 1:1\r\n-1 2:2\r\n")
        assert lf == crlf

    def test_malformed_pair_reports_line_number(self):
        with pytest.raises(ValueError, match="line 2"):
            parse_libsvm("+1 1:1\n-1 oops\n")

    def test_non_increasing_indices_reports_line_number(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_libsvm("+1 3:1 2:1")

    def test_unparseable_number_reports_line_number(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_libsvm("+1 1:abc")
        with pytest.raises(ValueError, match="line 3"):
            parse_libsvm("1 1:1\n1 1:1\nnope 1:1")

    def test_dimension_override_upward_only(self):
        ds = parse_libsvm("+1 1:1", d=10)
        assert ds.d == 10
        with pytest.raises(ValueError, match="upward"):
            parse_libsvm("+1 5:1", d=3)

    # Only "\n" ends a line, whichever reader takes the text: the "\r" of a
    # "\r\n" ending is trailing whitespace, and a lone "\r" is whitespace
    # inside a line
    @pytest.mark.parametrize(
        "text,error",
        [
            ("+1 1:0.5\n-1 2:1.5\n", None),
            ("+1 1:0.5\r\n-1 2:1.5\r\n", None),
            ("1 1:1\r1 2:1\n", "line 1: malformed feature pair '1'"),
        ],
    )
    def test_load_from_path_and_stdin(self, tmp_path, monkeypatch, text, error):
        path = tmp_path / "tiny.libsvm"
        path.write_bytes(text.encode())
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        readers = (
            lambda: load_libsvm(str(path)), lambda: load_libsvm("-"), lambda: parse_libsvm(text)
        )
        if error is None:
            from_file, from_stdin, from_text = (read() for read in readers)
            assert from_file == from_stdin == from_text == parse_libsvm("+1 1:0.5\n-1 2:1.5\n")
        else:
            for read in readers:
                with pytest.raises(ValueError, match=error):
                    read()


class TestRoundTrip:
    def test_serialize_then_parse_identical(self):
        ds = generate_synthetic("separable-logistic", n=12, d=5, seed=0)
        again = parse_libsvm(format_libsvm(ds))
        assert again == ds

    def test_awkward_floats_survive(self):
        ds = csr([[(1, 1.0 / 3.0), (2, 1e-17)]], labels=[1.0 / 7.0], d=2)
        again = parse_libsvm(format_libsvm(ds))
        assert again == ds

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        n=st.integers(min_value=1, max_value=20),
        d=st.integers(min_value=1, max_value=6),
        kind=st.sampled_from(["separable-logistic", "quadratic"]),
    )
    def test_round_trip_property(self, seed, n, d, kind):
        ds = generate_synthetic(kind, n=n, d=d, seed=seed)
        assert parse_libsvm(format_libsvm(ds)) == ds


class TestDatasetInvariants:
    def test_rejects_non_increasing_indices(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            csr([[(2, 1.0), (2, 1.0)]], labels=[1.0], d=3)

    def test_rejects_zero_index(self):
        with pytest.raises(ValueError, match="1-based"):
            csr([[(0, 1.0)]], labels=[1.0], d=3)

    def test_rejects_index_beyond_dimension(self):
        with pytest.raises(ValueError, match="exceeds dimension"):
            csr([[(4, 1.0)]], labels=[1.0], d=3)

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(ValueError, match="labels"):
            csr([[(1, 1.0)]], labels=[1.0, 2.0], d=1)

    def test_dense_materialization(self):
        ds = csr([[(1, 0.5), (3, 2.0)], []], labels=[1.0, -1.0], d=3)
        dense = ds.dense()
        assert dense.shape == (2, 3)
        assert dense[0].tolist() == [0.5, 0.0, 2.0]
        assert dense[1].tolist() == [0.0, 0.0, 0.0]


class TestSynthetic:
    def test_deterministic_given_seed(self):
        a = generate_synthetic("two-cluster-classification", n=30, d=4, seed=5)
        b = generate_synthetic("two-cluster-classification", n=30, d=4, seed=5)
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_synthetic("quadratic", n=10, d=3, seed=0)
        b = generate_synthetic("quadratic", n=10, d=3, seed=1)
        assert a != b

    def test_separable_labels_consistent_with_hidden_weights(self):
        n, d, seed = 40, 6, 9
        ds = generate_synthetic("separable-logistic", n=n, d=d, seed=seed)
        # replay the generator's draws to recover the hidden weight vector
        rng = np.random.default_rng(seed)
        features = rng.standard_normal((n, d))
        w = rng.standard_normal(d)
        assert np.array_equal(ds.dense(), features)
        labels = ds.dense_labels()
        assert set(labels.tolist()) <= {-1.0, 1.0}
        assert np.array_equal(labels, np.where(features @ w >= 0, 1.0, -1.0))

    def test_quadratic_gradient_small_at_generator(self):
        # oracle: the normal-equations solution of the least squares fit
        n, d, seed = 200, 10, 3
        ds = generate_synthetic("quadratic", n=n, d=d, seed=seed)
        features = ds.dense()
        targets = ds.dense_labels()
        w_star = np.linalg.solve(features.T @ features, features.T @ targets)
        grad_at_star = features.T @ (features @ w_star - targets) / n
        assert np.linalg.norm(grad_at_star) <= 1e-10
        # the generating weights replayed from the rng are near the fit
        rng = np.random.default_rng(seed)
        rng.standard_normal((n, d))
        w_gen = rng.standard_normal(d)
        grad_at_gen = features.T @ (features @ w_gen - targets) / n
        assert np.linalg.norm(grad_at_gen) <= 0.01  # noise scale

    def test_two_cluster_labels_in_class_range(self):
        ds = generate_synthetic(
            "two-cluster-classification", n=50, d=4, seed=2, n_classes=3
        )
        labels = ds.dense_labels()
        assert set(labels.tolist()) <= {0.0, 1.0, 2.0}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            generate_synthetic("mystery", n=5, d=2, seed=0)


class TestScaling:
    def test_scales_into_unit_interval(self):
        ds = csr([[(1, 4.0), (2, -10.0)], [(1, -2.0)]], labels=[1.0, -1.0], d=2)
        scaled = scale_features(ds)
        dense = scaled.dense()
        assert np.max(np.abs(dense)) <= 1.0
        assert dense[0, 0] == pytest.approx(1.0)
        assert dense[0, 1] == pytest.approx(-1.0)
        assert dense[1, 0] == pytest.approx(-0.5)
    def test_scaled_dataset_exports_plain_floats(self):
        scaled = scale_features(parse_libsvm("1 1:2 2:-4\n0 1:1"))
        text = format_libsvm(scaled)
        assert text == "1.0 1:1.0 2:-1.0\n0.0 1:0.5\n"
        assert parse_libsvm(text) == scaled

    def test_matches_loop_reference(self):
        ds = csr(
            [[(1, -3.0), (3, 0.0)], [], [(1, 7.5), (2, -0.0), (3, -0.0)]],
            labels=[0.0, 1.0, 2.0],
            d=4,
        )
        assert scaled_bytes(scale_features(ds)) == scaled_bytes(scale_reference(ds))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_loop_reference_property(self, data):
        ds = data.draw(sparse_datasets(allow_nan=True))
        with np.errstate(invalid="ignore"):  # inf / inf, in both versions
            assert scaled_bytes(scale_features(ds)) == scaled_bytes(scale_reference(ds))


def scale_reference(ds):
    """The per-pair loop that ``scale_features`` replaced."""
    max_abs = np.zeros(ds.d)
    rows = dataset_rows(ds)
    for row in rows:
        for idx, val in row:
            max_abs[idx - 1] = max(max_abs[idx - 1], abs(val))
    scaled = [
        [(idx, val / max_abs[idx - 1] if max_abs[idx - 1] > 0 else val) for idx, val in row]
        for row in rows
    ]
    return csr(scaled, labels=ds.labels, d=ds.d)


def scaled_bytes(ds):
    return ds.values.tobytes(), ds.indices.tobytes(), ds.indptr.tobytes()


def dataset_rows(ds):
    """Per-row lists of (index, value) pairs of ``ds``."""
    bounds = ds.indptr.tolist()
    pairs = list(zip(ds.indices.tolist(), ds.values.tolist()))
    return [pairs[a:b] for a, b in zip(bounds, bounds[1:])]


@st.composite
def sparse_datasets(draw, allow_nan=False):
    d = draw(st.integers(min_value=0, max_value=6))
    n = draw(st.integers(min_value=0, max_value=8))
    floats = st.floats(allow_nan=allow_nan, allow_subnormal=True, width=64)
    rows = []
    for _ in range(n):
        columns = sorted(draw(st.sets(st.integers(1, d), max_size=d)) if d else set())
        rows.append([(idx, draw(floats)) for idx in columns])
    labels = [draw(floats) for _ in range(n)]
    return csr(rows, labels=labels, d=d)


class TestCSR:
    def test_dense_matches_loop_reference(self):
        ds = csr([[], [(2, -0.0), (5, 1e-300)], [(1, 3.0)], []], labels=[0, 1, 2, 3], d=6)
        expected = np.zeros((4, 6))
        for r, row in enumerate(dataset_rows(ds)):
            for idx, val in row:
                expected[r, idx - 1] = val
        assert ds.dense().tobytes() == expected.tobytes()

    def test_arrays_are_read_only_and_inputs_stay_writable(self):
        values = np.array([1.0, 2.0])
        ds = Dataset(indptr=[0, 2], indices=[1, 2], values=values, labels=[1.0], d=2)
        assert ds.values.dtype == np.float64 and ds.indices.dtype == np.int64
        with pytest.raises(ValueError):
            ds.values[0] = 5.0
        values[0] = 5.0  # the caller's array is still its own
        assert ds.dense_labels().flags.writeable
        assert ds.dense().flags.writeable

    def test_equality_is_exact_and_a_plain_bool(self):
        a = csr([[(1, 0.0)]], labels=[1.0], d=2)
        assert (a == csr([[(1, -0.0)]], labels=[1.0], d=2)) is True
        assert (a == csr([[(1, 0.0)]], labels=[1.0], d=3)) is False
        assert (a == csr([[(2, 0.0)]], labels=[1.0], d=2)) is False
        assert (a == csr([[(1, 0.0)]], labels=[-1.0], d=2)) is False
        nan = csr([[(1, float("nan"))]], labels=[1.0], d=1)
        assert nan == nan
        assert nan != csr([[(1, float("nan"))]], labels=[1.0], d=1)
        assert a != "not a dataset"

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            (dict(indptr=[1, 1], indices=[], values=[], labels=[1.0]), "indptr must start at 0"),
            (dict(indptr=[0, 2, 1], indices=[1], values=[1.0], labels=[1.0, 1.0]), "non-decreasing"),
            (dict(indptr=[0, 2], indices=[1], values=[1.0], labels=[1.0]), "indptr ends at 2"),
            (dict(indptr=[0, 1], indices=[1], values=[1.0, 2.0], labels=[1.0]), "2 values"),
            (dict(indptr=[0, 1], indices=[1.5], values=[1.0], labels=[1.0]), "indices must hold integers"),
            (dict(indptr=[[0, 1]], indices=[1], values=[1.0], labels=[1.0]), "one-dimensional"),
        ],
    )
    def test_rejects_malformed_arrays(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            Dataset(d=3, **kwargs)

    @pytest.mark.parametrize(
        "rows,d,message",
        [
            ([[(2, 1.0), (2, 1.0)]], 3,
             "row 1: indices must be strictly increasing and 1-based (saw 2 after 2)"),
            ([[], [(0, 1.0)]], 3,
             "row 2: indices must be strictly increasing and 1-based (saw 0 after 0)"),
            ([[(5, 1.0), (4, 1.0)]], 3,
             "row 1: indices must be strictly increasing and 1-based (saw 4 after 5)"),
            ([[], [(1, 1.0)], [(4, 1.0)]], 3, "row 3: feature index 4 exceeds dimension 3"),
            # the first bad row wins, whichever check it fails
            ([[(1, 1.0)], [(9, 1.0)], [(2, 1.0), (1, 1.0)]], 3,
             "row 2: feature index 9 exceeds dimension 3"),
            ([[(3, 1.0), (2, 1.0)], [(9, 1.0)]], 3,
             "row 1: indices must be strictly increasing and 1-based (saw 2 after 3)"),
            ([[(1, 1.0), (7, 1.0), (5, 1.0)]], 3,
             "row 1: indices must be strictly increasing and 1-based (saw 5 after 7)"),
            ([], -1, "feature dimension must be non-negative"),
        ],
    )
    def test_invariant_errors_name_the_row(self, rows, d, message):
        with pytest.raises(ValueError) as excinfo:
            csr(rows, labels=[1.0] * len(rows), d=d)
        assert str(excinfo.value) == message

    def test_label_count_message(self):
        with pytest.raises(ValueError) as excinfo:
            csr([[(1, 1.0)]], labels=[1.0, 2.0], d=1)
        assert str(excinfo.value) == "1 rows but 2 labels"

    def test_generated_rows_store_every_feature(self):
        ds = generate_synthetic("quadratic", n=3, d=4, seed=0)
        assert ds.indptr.tolist() == [0, 4, 8, 12]
        assert ds.indices.tolist() == [1, 2, 3, 4] * 3

    def test_binary_label_error_names_first_bad_label(self):
        with pytest.raises(ValueError) as excinfo:
            map_binary_labels((1.0, 0.0, 0.5, 7.0))
        assert str(excinfo.value) == (
            "label 0.5 not usable for logistic loss (expected one of 0, 1, -1, +1)"
        )
        with pytest.raises(ValueError, match="nan"):
            map_binary_labels([float("nan")])
        assert map_binary_labels([-0.0, 1.0, -1.0, 0.0]).tolist() == [-1.0, 1.0, -1.0, -1.0]
        assert map_binary_labels(()).shape == (0,)

    def test_binary_label_error_prints_array_labels_plainly(self):
        expected = "label 2.0 not usable for logistic loss (expected one of 0, 1, -1, +1)"
        with pytest.raises(ValueError) as excinfo:
            map_binary_labels(np.array([1.0, 2.0]))
        assert str(excinfo.value) == expected
        with pytest.raises(ValueError) as excinfo:
            RegularizedERM(parse_libsvm("2 1:1"))
        assert str(excinfo.value) == expected


# (text, d, message): every bad input, with the error each reader must raise
PARSE_ERROR_CASES = [
    ("+1 1:1\n-1 oops\n", None, "line 2: malformed feature pair 'oops'"),
    ("1 1:", None, "line 1: unparseable feature pair '1:'"),
    ("1 :5", None, "line 1: unparseable feature pair ':5'"),
    ("1 1:2:3", None, "line 1: unparseable feature pair '1:2:3'"),
    ("1 x:1", None, "line 1: unparseable feature pair 'x:1'"),
    # right piece count, wrong pairing: one token has no ':' and another two
    ("1 5 1:2:3", None, "line 1: malformed feature pair '5'"),
    ("1 1:1\nabc 1:1", None, "line 2: unparseable label 'abc'"),
    ("1 0:1", None,
     "line 1: feature indices must be strictly increasing and 1-based (saw 0 after 0)"),
    ("1 -3:1", None,
     "line 1: feature indices must be strictly increasing and 1-based (saw -3 after 0)"),
    ("1 2:1 2:3", None,
     "line 1: feature indices must be strictly increasing and 1-based (saw 2 after 2)"),
    # comment and blank lines still count as lines
    ("# c\n\n1 1:1\n\n# d\n1 3:1 1:1", None,
     "line 6: feature indices must be strictly increasing and 1-based (saw 1 after 3)"),
    ("1 1:1\r\n1 1:1\r\n-1 oops\r\n", None, "line 3: malformed feature pair 'oops'"),
    # within a line the first bad token wins
    ("1 3:1 1:1 oops", None,
     "line 1: feature indices must be strictly increasing and 1-based (saw 1 after 3)"),
    ("1 2:1 1:x", None, "line 1: unparseable feature pair '1:x'"),
    # an order error on an earlier line wins over a later parse error
    ("1 1:1\n1 2:1 2:1\n1 x", None,
     "line 2: feature indices must be strictly increasing and 1-based (saw 2 after 2)"),
    ("1 5:1", 3,
     "requested dimension 3 is below the maximum feature index 5; "
     "dimension may only be overridden upward"),
    ("1 1:1\n1 2:1 99999999999999999999:1", None,
     "line 2: feature index 99999999999999999999 does not fit in 64 bits"),
    # the same cases as in TestParsing
    ("+1 3:1 2:1", None,
     "line 1: feature indices must be strictly increasing and 1-based (saw 2 after 3)"),
    ("+1 1:abc", None, "line 1: unparseable feature pair '1:abc'"),
    ("1 1:1\n1 1:1\nnope 1:1", None, "line 3: unparseable label 'nope'"),
    # an order error on line 2 is reported before an unparseable line 3, and
    # an unparseable line 2 before an order error on line 3
    ("1 1:1\n1 3:1 1:1\n1 1:y", None,
     "line 2: feature indices must be strictly increasing and 1-based (saw 1 after 3)"),
    ("1 1:1\n1 1:y\n1 3:1 1:1", None, "line 2: unparseable feature pair '1:y'"),
    # a first index of 0 after good rows
    ("1 1:1 2:1\n1 0:1 2:1", None,
     "line 2: feature indices must be strictly increasing and 1-based (saw 0 after 0)"),
    ("1 2:1\n\n-1 0:2 1:3", None,
     "line 3: feature indices must be strictly increasing and 1-based (saw 0 after 0)"),
    # a bad order and a bad token on one line: the first in token order wins
    ("1 1:1\n1 x:1 3:1 2:1", None, "line 2: unparseable feature pair 'x:1'"),
    ("1 3:1 2:1 4:z", None,
     "line 1: feature indices must be strictly increasing and 1-based (saw 2 after 3)"),
    ("1 oops 3:1 2:1", None, "line 1: malformed feature pair 'oops'"),
    # CRLF line ends, and no newline after the last line
    ("1 1:1\r\n1 2:1 2:1\r\n", None,
     "line 2: feature indices must be strictly increasing and 1-based (saw 2 after 2)"),
    ("# c\r\n1 1:1\r\nabc 1:1", None, "line 3: unparseable label 'abc'"),
    ("1 1:1\n1 2:1 1:1", None,
     "line 2: feature indices must be strictly increasing and 1-based (saw 1 after 2)"),
    ("1 1:1\n-1 oops", None, "line 2: malformed feature pair 'oops'"),
]


class TestParseErrors:
    @pytest.mark.parametrize("text,d,message", PARSE_ERROR_CASES)
    def test_message_and_line_number(self, text, d, message):
        with pytest.raises(ValueError) as excinfo:
            parse_libsvm(text, d=d)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize("reader", ["path", "stdin"])
    @pytest.mark.parametrize("text,d,message", PARSE_ERROR_CASES)
    def test_every_reader_gives_the_same_error(
        self, text, d, message, reader, tmp_path, monkeypatch
    ):
        data = text.encode()
        if reader == "path":
            path = tmp_path / "bad.libsvm"
            path.write_bytes(data)  # CRLF kept on disk
            source = str(path)
        else:  # a POSIX stdin splits lines at "\n" only and keeps "\r"
            stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\n")
            monkeypatch.setattr("sys.stdin", stdin)
            source = "-"
        with pytest.raises(ValueError) as excinfo:
            load_libsvm(source, d=d)
        assert str(excinfo.value) == message

    def test_python_number_syntax_accepted(self):
        ds = parse_libsvm("1 1:1 2:nan 3:inf 4:1_0 +5:2 6:-0.0")
        assert ds.indices.tolist() == [1, 2, 3, 4, 5, 6]
        assert np.isnan(ds.values[1]) and ds.values[2] == np.inf
        assert ds.values[3] == 10.0 and np.signbit(ds.values[5])


# SHA-256 digests computed with the tuple-backed Dataset, before the CSR arrays.
FORMAT_DIGESTS = [
    (("separable-logistic", 13, 5, 7),
     "45d49b03662560a5d48cf6f547b72cd441014d7277ebaffb07929666890eb208"),
    (("quadratic", 11, 4, 3),
     "185bf4fa09f50fc09e0ef4cbe5f85d32c6f327407302cb0b603b3e552d6e5526"),
    (("two-cluster-classification", 17, 6, 2),
     "0225eb8193ab70c8e5695b45d7990807c0a657028f5fa5df0d0250a79ceb317c"),
    (("quadratic", 5000, 100, 0),
     "3397ac382af51bd3bb3f10829079f21c30c59a55358e89f7294fc99e1622fbb9"),
]

RUN_DIGESTS = {
    False: "e10512080f8a73739e171dc588e8fe185a73d2a32b59a83ecd6d28774ba37fd4",
    True: "186e42accf22049cb6a270312d3937bdcf896d55546c8d3b96e4ecfee6abdad1",
}


def sha256(data) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def sparse_fixture_text() -> str:
    """30 sparse rows with mixed column scales, an all-zero column and
    binary labels, after a comment and a blank line."""
    lines = ["# sparse fixture", ""]
    for i in range(1, 31):
        fields = ["1" if i % 3 else "0"]
        for j in range(1, 8):
            if (i + 2 * j) % 4 == 0:
                continue
            val = 0.0 if j == 6 else ((i * 7 + j * 13) % 17 - 8) * 10.0 ** (j - 4)
            fields.append(f"{j}:{val!r}")
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def sparse_random_dataset() -> Dataset:
    """300 half-filled rows over 40 features: random index patterns, a
    run of 51 rows with one pattern, 10 empty rows, values over 40 decades.
    The decades are exact decimal powers, parsed rather than computed, so
    the values do not depend on numpy's float power kernel."""
    rng = np.random.default_rng(11)
    mask = rng.random((300, 40)) < 0.5
    mask[100:150] = mask[99]
    mask[200:210] = False
    counts = mask.sum(axis=1)
    nnz = int(counts.sum())
    normals = rng.standard_normal(nnz)
    powers = np.array([float(f"1e{k}") for k in rng.integers(-20, 21, nnz)])
    return Dataset(
        indptr=np.concatenate([[0], np.cumsum(counts)]),
        indices=np.nonzero(mask)[1] + 1,
        values=normals * powers,
        labels=rng.standard_normal(300),
        d=40,
    )


class TestGolden:
    @pytest.mark.parametrize("args,digest", FORMAT_DIGESTS)
    def test_synthetic_export_bytes(self, args, digest):
        assert sha256(format_libsvm(generate_synthetic(*args))) == digest

    def test_sparse_random_export_bytes(self):
        # rows of differing patterns are written pair by pair, a run of
        # repeated patterns through one shared template
        text = format_libsvm(sparse_random_dataset())
        assert sha256(text) == "2ea6620870ffe471b972ceb69bfcc2039abfc9293920e88b05999ae295bb629a"

    def test_hand_made_export_bytes(self):
        ds = csr(
            [
                [(1, -0.0), (3, 5e-324), (7, 1e300)],
                [],
                [(2, 1e-300), (4, 1e-17), (5, -2.2250738585072014e-308),
                 (6, 2.225073858507201e-308)],
                [],
                [(1, 1.0 / 3.0), (7, -1e-300)],
            ],
            labels=[-0.0, 1.0, 1e-17, 5e-324, -1e300],
            d=9,
        )
        text = format_libsvm(ds)
        assert sha256(text) == "5d28c46c53fa3a2d10369495bcfc02fb5e6a53435260843deedf9e4e4d6771d0"
        again = parse_libsvm(text, d=9)
        assert again == ds
        assert again.values.tobytes() == ds.values.tobytes()
        assert again.labels.tobytes() == ds.labels.tobytes()

    @pytest.mark.parametrize("scale", [False, True])
    def test_run_records_on_libsvm_file(self, scale, tmp_path, capsys):
        text = sparse_fixture_text()
        assert sha256(text) == "b8826a86533130c54a877e572ef9004cefda2a9b8996a63a0faaf76851480efd"
        data_path = tmp_path / "sparse.libsvm"
        data_path.write_text(text)
        config = {
            "problem": {"path": str(data_path), "loss": "logistic", "scale": scale},
            "algorithms": [{"name": "adaspider"}, {"name": "svrg", "eta": 0.1}],
            "epochs": 3,
            "repeats": 2,
            "master_seed": 4,
            "format": "json",
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out_path = tmp_path / "records.json"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_path)]) == 0
        assert sha256(out_path.read_bytes()) == RUN_DIGESTS[scale]

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_random_sparse_round_trip(self, data):
        ds = data.draw(sparse_datasets())
        again = parse_libsvm(format_libsvm(ds), d=ds.d)
        assert again == ds
        assert again.values.tobytes() == ds.values.tobytes()
        assert again.labels.tobytes() == ds.labels.tobytes()


def traced_peak(fn, arg):
    """(fn(arg), the peak of memory fn allocated beyond what was live)."""
    gc.collect()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        live = tracemalloc.get_traced_memory()[0]
        result = fn(arg)
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    return result, peak


class TestMemory:
    """Export and import peaks, relative to the size of the text."""

    def test_format_peak_is_about_twice_the_text(self):
        ds = generate_synthetic("quadratic", 2000, 50, 0)
        text, peak = traced_peak(format_libsvm, ds)
        # the lines and their join, 2.1x; whole-dataset lists of the values
        # and a second copy of the text read 4.8x
        assert peak <= 2.5 * len(text), peak / len(text)

    def test_parse_peak_is_about_the_text(self):
        ds = generate_synthetic("quadratic", 2000, 50, 0)
        text = format_libsvm(ds)
        again, peak = traced_peak(parse_libsvm, text)
        assert again == ds
        # the arrays (0.71x the text here) and buffer slack, 0.82x; a split
        # copy of the text and per-row value chunks read 2.7x
        assert peak <= 1.6 * len(text), peak / len(text)
