import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hnf.data import (
    Dataset,
    load_csv,
    load_csv_snapshot,
    load_idx,
    make_synthetic_blobs,
    merge_train_test,
    one_hot,
    save_csv_snapshot,
    split_dataset,
)
from hnf.errors import (DataError, DimensionError, FormatError, ParameterError,
                        ParseError)
from conftest import solve
from oracles import accuracy, reference_load_csv, traced_peak


def write_idx_pair(tmp_path, images: np.ndarray, labels: np.ndarray,
                   image_magic=0x00000803, label_magic=0x00000801):
    """images: (count, rows, cols) uint8; labels: (count,) uint8."""
    count, rows, cols = images.shape
    img_path = tmp_path / "images.idx"
    lbl_path = tmp_path / "labels.idx"
    img_path.write_bytes(struct.pack(">IIII", image_magic, count, rows, cols)
                         + images.tobytes())
    lbl_path.write_bytes(struct.pack(">II", label_magic, len(labels))
                         + labels.tobytes())
    return img_path, lbl_path


class TestLoadCsv:
    def test_two_row_example(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,A\n3,4,B\n")
        ds = load_csv(path, label_column=2)
        assert ds.input_dim == 2
        assert ds.n_classes == 2
        assert np.array_equal(ds.labels, [0, 1])
        assert np.array_equal(ds.targets(np.arange(2)), np.eye(2))
        assert np.array_equal(ds.X, np.array([[1.0, 3.0], [2.0, 4.0]]))
        assert ds.label_names == ["A", "B"]

    def test_ragged_row_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,A\n3,B\n")
        with pytest.raises(ParseError, match="row 2"):
            load_csv(path, label_column=2)

    def test_non_numeric_feature_located(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,A\nx,4,B\n")
        with pytest.raises(ParseError, match="row 2, column 1"):
            load_csv(path, label_column=2)

    @pytest.mark.parametrize("text, label, header, where", [
        ("1,2,A\n3,nan,B\n", 2, False, "row 2, column 2"),
        ("A,1,2\nB,inf,4\n", 0, False, "row 2, column 2"),
        ("f1,f2,c\n1,2,A\n-inf,4,B\n1e999,0,A\n", "c", True,
         "row 3, column 1"),
    ])
    def test_non_finite_feature_located(self, tmp_path, text, label, header,
                                        where):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=where):
            load_csv(path, label_column=label, has_header=header)

    def test_label_by_header_name(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("f1,f2,cls\n1,2,A\n3,4,B\n")
        ds = load_csv(path, label_column="cls", has_header=True)
        assert ds.label_names == ["A", "B"]
        assert ds.input_dim == 2

    def test_label_name_without_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,A\n")
        with pytest.raises(ParseError):
            load_csv(path, label_column="cls")

    def test_first_column_label(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("T,1,2\nU,3,4\nT,5,6\n")
        ds = load_csv(path, label_column=0)
        assert ds.label_names == ["T", "U"]
        assert np.array_equal(ds.labels, [0, 1, 0])

    def test_label_column_out_of_range(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,A\n")
        with pytest.raises(ParseError, match="out of range"):
            load_csv(path, label_column=3)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(tmp_path / "absent.csv")

    def test_one_hot_validity(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,A\n3,4,B\n5,6,A\n7,8,C\n")
        ds = load_csv(path, label_column=2)
        t = ds.targets(np.arange(ds.n_samples))
        assert np.all(np.sum(t == 1.0, axis=0) == 1)
        assert np.all((t == 0.0) | (t == 1.0))

    @pytest.mark.parametrize("text, where", [
        ("1,2,A\n\nx,4,B\n", "row 3, column 1: non-numeric feature 'x'"),
        ("1,2,A\n\n3,B\n", "row 3 has 2 fields, expected 3"),
    ])
    def test_error_row_is_the_file_line(self, tmp_path, text, where):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=where):
            load_csv(path, label_column=2)

    @pytest.mark.parametrize("text, delimiter, header, message", [
        ("", ",", False, "no rows"),
        ("\n\n", ",", False, "no rows"),
        (" \t\n\n", " ", False, "no rows"),
        ("f1,f2,c\n", ",", True, "header but no data rows"),
        ("\nf1,f2,c\n\n", ",", True, "header but no data rows"),
    ])
    def test_empty_input_raises_without_a_numpy_warning(
            self, tmp_path, recwarn, text, delimiter, header, message):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(ParseError, match=message):
            load_csv(path, label_column=-1, delimiter=delimiter,
                     has_header=header)
        assert not recwarn.list

    def test_header_after_blank_lines(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("\n\nf1,f2,cls\n\n1,2,A\n3,4,B\n")
        ds = load_csv(path, label_column="cls", has_header=True)
        assert np.array_equal(ds.X, np.array([[1.0, 3.0], [2.0, 4.0]]))
        assert ds.label_names == ["A", "B"]

    @pytest.mark.parametrize("text, delimiter, names", [
        ('1 2 "a b"\n3 4 c\n', " ", ["a b", "c"]),
        ('1,2,"say ""hi"""\n3,4,#c\n', ",", ['say "hi"', "#c"]),
    ])
    def test_quoting_and_hash(self, tmp_path, text, delimiter, names):
        path = tmp_path / "d.csv"
        path.write_text(text)
        ds = load_csv(path, label_column=-1, delimiter=delimiter)
        assert ds.label_names == names

    def test_underscored_number_is_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1_000,2,A\n")
        with pytest.raises(ParseError, match="row 1, column 1: non-numeric"):
            load_csv(path, label_column=2)

    def test_quoted_label_spans_lines(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('"A\nB",1,2\n3,4,5\n')
        ds = load_csv(path, label_column=0)
        assert ds.label_names == ["A\nB", "3"]
        assert np.array_equal(ds.X, np.array([[1.0, 4.0], [2.0, 5.0]]))

    def test_error_row_is_where_its_record_starts(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('1,2,"A\nB"\n3,x,C\n')
        with pytest.raises(ParseError,
                           match="row 3, column 2: non-numeric feature 'x'"):
            load_csv(path)

    def test_quoted_label_containing_delimiter(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('1,2,"a,b"\n3,4,plain\n')
        ds = load_csv(path, label_column=2)
        assert ds.label_names == ["a,b", "plain"]
        assert ds.input_dim == 2


NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e6, 1e6).map(lambda f: f"{f:+.6e}"),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.sampled_from(["-0.0", "+0", "1e5", "-2.5E-3", ".5", "5.", "4.9e-324",
                     "+1.25e+300"]),
)


@st.composite
def csv_tables(draw):
    """A table's text and the load_csv arguments that read it."""
    delimiter = draw(st.sampled_from([",", ";", "\t", " "]))
    spaced = delimiter.isspace()
    p = draw(st.integers(1, 4))
    label_at = draw(st.sampled_from(sorted({0, p // 2, p})))
    plain = st.text("abXY09_-#", min_size=1, max_size=3)
    if spaced:
        label = plain
    else:  # also quoted labels that hold the delimiter, spaces, a quote
        # or a line break
        quoted = st.text('ab #"\n' + delimiter, max_size=4).map(
            lambda s: '"' + s.replace('"', '""') + '"')
        label = st.one_of(plain, plain.map(lambda s: f" {s} "), quoted)
    names = draw(st.lists(label, min_size=1, max_size=3))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        cells = draw(st.lists(NUMBERS, min_size=p, max_size=p))
        cells.insert(label_at, draw(st.sampled_from(names)))
        rows.append(cells)
    has_header = draw(st.booleans())
    if has_header:
        rows.insert(0, [f"h{j}" for j in range(p + 1)])
    joiner = (draw(st.sampled_from([" ", "\t", " \t "])) if spaced
              else delimiter)
    blank = st.sampled_from(["", " \t"] if spaced else [""])
    lines = []
    for cells in rows:
        lines += draw(st.lists(blank, max_size=2))
        lines.append(joiner.join(cells))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + draw(st.sampled_from(["", end]))
    by_name = [f"h{label_at}"] if has_header else []
    column = draw(st.sampled_from([label_at, label_at - p - 1] + by_name))
    return text, {"label_column": column, "delimiter": delimiter,
                  "has_header": has_header}


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(table=csv_tables())
def test_load_csv_matches_cell_by_cell_reference(tmp_path, table):
    text, kwargs = table
    path = tmp_path / "d.csv"
    path.write_bytes(text.encode("utf-8"))
    x, t, names = reference_load_csv(path, **kwargs)
    ds = load_csv(path, **kwargs)
    assert ds.X.tobytes() == x.tobytes()
    assert ds.targets(np.arange(ds.n_samples)).tobytes() == t.tobytes()
    assert ds.label_names == names


def test_ingest_peak_is_a_few_tables(tmp_path):
    """A 20000 x 17 Letter-shaped table parses within 5x its float64 bytes."""
    rng = np.random.Generator(np.random.PCG64(3))
    table = np.column_stack([rng.standard_normal((20000, 16)),
                             np.arange(20000) % 26])
    path = tmp_path / "letter.csv"
    np.savetxt(path, table, fmt=["%.17g"] * 16 + ["%d"], delimiter=",")
    ds, peak = traced_peak(load_csv, path)
    assert np.array_equal(ds.X, table[:, :16].T)
    assert peak <= 5 * table.nbytes


def test_snapshot_loads_straight_into_its_arrays(tmp_path):
    """A 16 MiB snapshot loads within its arrays' bytes plus 1 MiB: each
    array is filled from the file, and no copy of the file is held."""
    csv = tmp_path / "d.csv"
    csv.write_text("1,2,B\n3,4,A\n")
    n = 1025
    ds = replace(load_csv(csv), X=np.random.Generator(
        np.random.PCG64(4)).standard_normal((2048, n)),
        labels=np.arange(n) % 2, train_idx=np.arange(n))
    assert ds.X.nbytes >= 16 * 2 ** 20
    record = save_csv_snapshot(ds, tmp_path / "t.snap", -1, ",")
    snap, peak = traced_peak(load_csv_snapshot, tmp_path / "t.snap", record,
                             csv, -1, ",")
    assert np.array_equal(snap.X, ds.X)
    assert np.array_equal(snap.labels, ds.labels)
    assert peak <= ds.X.nbytes + ds.labels.nbytes + 2 ** 20


class TestLoadIdx:
    def test_small_pair(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(6, 4, 5)).astype(np.uint8)
        labels = np.array([0, 1, 2, 9, 4, 5], dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        ds = load_idx(img, lbl)
        assert ds.input_dim == 20
        assert ds.n_classes == 10
        assert ds.n_samples == 6
        assert np.max(ds.X) <= 1.0 and np.min(ds.X) >= 0.0
        assert ds.X[:, 0] == pytest.approx(
            images[0].reshape(-1) / 255.0)
        assert np.array_equal(ds.labels, labels)

    def test_pixels_load_into_one_float_copy(self, tmp_path, rng):
        """A 4000 x 28 x 28 pair loads with a traced peak of X, the pixel
        bytes and under 1 MiB more: the pixels are read straight into their
        u8 array, converted once and scaled in place. X has the bits and
        the column-major layout of ``pixels.T / 255``."""
        images = rng.integers(0, 256, size=(4000, 28, 28)).astype(np.uint8)
        labels = (np.arange(4000) % 10).astype(np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        ds, peak = traced_peak(load_idx, img, lbl)
        want = images.reshape(4000, 784).astype(np.float64).T / 255.0
        assert ds.X.tobytes("A") == want.tobytes("A")
        assert ds.X.strides == want.strides
        assert peak <= ds.X.nbytes + images.nbytes + 2 ** 20

    def test_truncated_images(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(4, 3, 3)).astype(np.uint8)
        labels = np.zeros(4, dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        img.write_bytes(img.read_bytes()[:-7])
        with pytest.raises(FormatError):
            load_idx(img, lbl)

    def test_bad_magic(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(2, 2, 2)).astype(np.uint8)
        labels = np.zeros(2, dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels,
                                  image_magic=0xDEADBEEF)
        with pytest.raises(FormatError):
            load_idx(img, lbl)

    def test_label_out_of_range(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(2, 2, 2)).astype(np.uint8)
        labels = np.array([3, 10], dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        with pytest.raises(FormatError, match="range"):
            load_idx(img, lbl)

    def test_count_mismatch(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(3, 2, 2)).astype(np.uint8)
        labels = np.zeros(2, dtype=np.uint8)
        img, lbl = write_idx_pair(tmp_path, images, labels)
        with pytest.raises(FormatError, match="count"):
            load_idx(img, lbl)

    def test_image_size_no_array_can_hold(self, tmp_path):
        """0 images of (2**32 - 1) x (2**32 - 1) pixels match their empty
        pixel data, but no array dimension holds one image's pixels: a
        FormatError naming the file and the declared size."""
        img, lbl = tmp_path / "img.idx", tmp_path / "lbl.idx"
        img.write_bytes(struct.pack(">IIII", 0x803, 0, 2**32 - 1, 2**32 - 1))
        lbl.write_bytes(struct.pack(">II", 0x801, 0))
        with pytest.raises(FormatError, match=(
                f"{img.name}: images of 4294967295 x 4294967295 pixels")):
            load_idx(img, lbl)


class TestBlobs:
    def test_separated_blobs_linearly_separable(self):
        ds = make_synthetic_blobs(8, 3, 600, separation=10.0, seed=1)
        x, t = ds.columns(ds.train_idx), ds.targets(ds.train_idx)
        acc = accuracy(solve(x, t).matrix @ x, t)
        assert acc >= 0.95

    def test_zero_separation_chance_level(self):
        ds = make_synthetic_blobs(8, 4, 2000, separation=0.0, seed=2)
        om = solve(ds.columns(ds.train_idx), ds.targets(ds.train_idx))
        acc = accuracy(om.matrix @ ds.columns(ds.test_idx),
                       ds.targets(ds.test_idx))
        assert abs(acc - 0.25) <= 0.1

    def test_deterministic(self):
        a = make_synthetic_blobs(5, 3, 90, separation=4.0, seed=7)
        b = make_synthetic_blobs(5, 3, 90, separation=4.0, seed=7)
        assert np.array_equal(a.X, b.X)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.train_idx, b.train_idx)

    def test_split_ratio_and_balance(self):
        ds = make_synthetic_blobs(4, 3, 300, separation=5.0, seed=0)
        assert len(ds.train_idx) == 200
        assert len(ds.test_idx) == 100
        counts = np.bincount(ds.labels)
        assert np.all(counts == 100)

    def test_more_classes_than_dims(self):
        ds = make_synthetic_blobs(3, 7, 140, separation=8.0, seed=3)
        assert ds.n_classes == 7

    def test_degenerate_parameters(self):
        with pytest.raises(ParameterError):
            make_synthetic_blobs(0, 3, 10, 1.0, 0)
        with pytest.raises(ParameterError):
            make_synthetic_blobs(3, 11, 10, 1.0, 0)
        for sep in (-1.0, math.nan, math.inf):
            with pytest.raises(ParameterError):
                make_synthetic_blobs(3, 2, 10, sep, 0)

    def test_negative_seed_refused(self):
        """A negative seed is named; a seed past 64 bits is taken."""
        with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
            make_synthetic_blobs(3, 2, 10, 1.0, -1)
        assert make_synthetic_blobs(3, 2, 10, 1.0, 2**64).n_samples == 10


class TestSplitAndMerge:
    def test_split_partitions(self, tmp_path):
        ds = make_synthetic_blobs(4, 2, 100, 3.0, seed=1)
        resplit = split_dataset(ds, 70, seed=5)
        assert len(resplit.train_idx) == 70
        assert len(resplit.test_idx) == 30
        combined = np.concatenate([resplit.train_idx, resplit.test_idx])
        assert len(np.unique(combined)) == 100

    @pytest.mark.parametrize("train, test", [
        ([0, 1], [1, 3]), ([0, 5], [2, 3]), ([-1, 1], [2, 3]), ([0, 1], [2]),
    ], ids=["repeated", "beyond", "negative", "short"])
    def test_indices_must_partition_the_columns(self, train, test):
        """Train and test indices together name each column exactly once:
        four distinct indices do not partition four columns if one lies
        outside them."""
        x, labels = np.zeros((2, 4)), np.array([0, 1, 0, 1])
        with pytest.raises(DataError, match="partition"):
            Dataset(x, labels, ["0", "1"], np.array(train), np.array(test),
                    {})

    def test_split_deterministic(self):
        ds = make_synthetic_blobs(4, 2, 100, 3.0, seed=1)
        a = split_dataset(ds, 70, seed=5)
        b = split_dataset(ds, 70, seed=5)
        assert np.array_equal(a.train_idx, b.train_idx)

    def test_split_bounds(self):
        ds = make_synthetic_blobs(4, 2, 100, 3.0, seed=1)
        with pytest.raises(ParameterError):
            split_dataset(ds, 0)
        with pytest.raises(ParameterError):
            split_dataset(ds, 101)

    def test_split_negative_seed_refused(self):
        ds = make_synthetic_blobs(4, 2, 100, 3.0, seed=1)
        with pytest.raises(ParameterError, match="seed must be >= 0, got -1"):
            split_dataset(ds, 70, seed=-1)

    def test_merge_keeps_canonical_division(self, tmp_path, rng):
        images = rng.integers(0, 256, size=(5, 2, 2)).astype(np.uint8)
        tr = load_idx(*write_idx_pair(tmp_path, images,
                                      np.arange(5, dtype=np.uint8)))
        sub = tmp_path / "t"
        sub.mkdir()
        images2 = rng.integers(0, 256, size=(3, 2, 2)).astype(np.uint8)
        te = load_idx(*write_idx_pair(sub, images2,
                                      np.array([7, 8, 9], dtype=np.uint8)))
        ds = merge_train_test(tr, te)
        assert len(ds.train_idx) == 5
        assert len(ds.test_idx) == 3
        assert np.array_equal(ds.columns(ds.test_idx), te.X)

    def test_merge_reconciles_label_orders(self, tmp_path):
        (tmp_path / "tr.csv").write_text("1,2,B\n3,4,A\n5,6,C\n")
        (tmp_path / "te.csv").write_text("7,8,A\n9,10,C\n11,12,D\n")
        tr = load_csv(tmp_path / "tr.csv", label_column=2)
        te = load_csv(tmp_path / "te.csv", label_column=2)
        assert tr.label_names == ["B", "A", "C"]
        assert te.label_names == ["A", "C", "D"]
        ds = merge_train_test(tr, te)
        assert ds.label_names == ["B", "A", "C", "D"]
        assert list(ds.labels) == [0, 1, 2, 1, 2, 3]

    def test_meta_is_provenance_only(self, tmp_path, rng):
        """No loader copies P, Q, the split sizes or the label names into
        ``meta``: the arrays and ``label_names`` state them once."""
        csv = tmp_path / "d.csv"
        csv.write_text("1,2,B\n3,4,A\n5,6,B\n")
        parsed = load_csv(csv)
        record = save_csv_snapshot(parsed, tmp_path / "t.snap", -1, ",")
        snap = load_csv_snapshot(tmp_path / "t.snap", record, csv, -1, ",")
        images = rng.integers(0, 256, size=(5, 2, 2)).astype(np.uint8)
        idx = load_idx(*write_idx_pair(tmp_path, images,
                                       np.arange(5, dtype=np.uint8)))
        blobs = make_synthetic_blobs(4, 2, 30, 3.0, seed=1)
        for ds in (blobs, parsed, snap, idx, merge_train_test(idx, idx),
                   split_dataset(blobs, 20)):
            assert not {"P", "Q", "N_train", "N_test", "label_names"} & set(
                ds.meta), ds.meta
        assert snap.label_names == parsed.label_names == ["B", "A"]

    def test_relabel(self, tmp_path):
        """``relabel`` renumbers each label onto the given names, returns
        the dataset itself when the names already match, and names a label
        the names lack."""
        (tmp_path / "d.csv").write_text("1,2,B\n3,4,A\n5,6,C\n7,8,A\n")
        ds = split_dataset(load_csv(tmp_path / "d.csv"), 3, seed=2)
        moved = ds.relabel(["A", "C", "B", "D"])
        assert moved.label_names == ["A", "C", "B", "D"]
        assert moved.n_classes == 4
        assert list(moved.labels) == [2, 0, 1, 0]
        assert moved.X is ds.X and moved.meta == ds.meta
        assert np.array_equal(moved.train_idx, ds.train_idx)
        assert ds.relabel(["B", "A", "C"]) is ds
        with pytest.raises(DimensionError, match=r"\['B'\]"):
            ds.relabel(["A", "C", "D"])

    def test_whitespace_delimiter_splits_runs(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text(" 1  2   A\n3 4 B\n")
        ds = load_csv(path, label_column=-1, delimiter=" ")
        assert ds.input_dim == 2
        assert np.array_equal(ds.X, np.array([[1.0, 3.0], [2.0, 4.0]]))
        assert ds.label_names == ["A", "B"]


class TestColumns:
    def test_gather_is_the_standardized_split_bit_for_bit(self):
        """Over each whole split, ``columns(idx, (mu, sigma))`` is
        ``(X[:, idx] - mu) / sigma`` bit for bit, in a new array; X keeps
        its values and stays read-only."""
        ds = split_dataset(make_synthetic_blobs(5, 3, 300, 3.0, seed=4),
                           200, seed=2)
        x0 = ds.X.copy()
        mu = x0[:, ds.train_idx].mean(axis=1, keepdims=True)
        sigma = x0[:, ds.train_idx].std(axis=1, keepdims=True)
        for idx in (ds.train_idx, ds.test_idx):
            got = ds.columns(idx, (mu, sigma))
            assert got.tobytes() == ((x0[:, idx] - mu) / sigma).tobytes()
            plain = ds.columns(idx)
            assert plain.dtype == np.float64
            assert plain.tobytes() == x0[:, idx].tobytes()
            assert not np.shares_memory(plain, ds.X)
            plain += 1.0
        assert np.array_equal(ds.X, x0)
        assert not ds.X.flags.writeable

    def test_empty_indices_give_no_columns(self):
        ds = make_synthetic_blobs(5, 3, 30, 3.0, seed=4)
        transform = np.zeros((5, 1)), np.ones((5, 1))
        for t in (None, transform):
            assert ds.columns(np.arange(0), t).shape == (5, 0)


class TestRoundTrip:
    def test_export_then_load_exact(self, tmp_path):
        ds = make_synthetic_blobs(5, 3, 60, 2.5, seed=9)
        path = tmp_path / "blobs.csv"
        path.write_text("".join(
            ",".join(map(repr, ds.X[:, j].tolist())) + f",c{ds.labels[j]}\n"
            for j in range(ds.n_samples)))
        back = load_csv(path, label_column=-1)
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.labels, ds.labels)

    def test_dataset_invariants_enforced(self):
        """Each label is an integer class index in 0..n_classes-1, one per
        column of X, on every dataset built, a split one too."""
        x = np.zeros((2, 3))
        for bad in ([0, 2, 1], [0, -1, 1], [0.0, 1.0, 1.0], [0, 1]):
            with pytest.raises(DataError):
                Dataset(x, np.array(bad), ["0", "1"], np.arange(3),
                        np.arange(0), {})
        ds = split_dataset(make_synthetic_blobs(3, 2, 30, 3.0, seed=1), 20)
        with pytest.raises(DataError, match="labels must be integers in 0..1"):
            split_dataset(replace(ds, labels=ds.labels + 1), 20)


class TestTargets:
    def test_targets_are_the_one_hot_columns(self):
        """``targets(idx)`` is ``one_hot(labels)[:, idx]`` bit for bit, in
        the Fortran layout of that gather (matrix products round by
        layout), in a new array each call."""
        ds = split_dataset(make_synthetic_blobs(4, 5, 200, 3.0, seed=2),
                           150, seed=3)
        full = one_hot(ds.labels, ds.n_classes)
        for idx in (ds.train_idx, ds.test_idx, ds.train_idx[7:40]):
            got = ds.targets(idx)
            want = full[:, idx]
            assert got.shape == (5, len(idx)) and got.dtype == np.float64
            assert got.tobytes() == want.tobytes()
            assert got.flags.f_contiguous and want.flags.f_contiguous
            assert not np.shares_memory(got, ds.targets(idx))
            assert np.array_equal(np.argmax(got, axis=0), ds.labels[idx])

    def test_empty_indices_give_no_targets(self):
        ds = make_synthetic_blobs(5, 3, 30, 3.0, seed=4)
        assert ds.targets(np.arange(0)).shape == (3, 0)
