import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaknn import (CONTINUOUS, SYMBOLIC, DataError, Dataset, FeatureSpec,
                     Partition, encode_symbolic, load_csv, load_monks,
                     load_partition, minmax_rescale, split_rows)
from metaknn import dataset

from conftest import DATA_DIR


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_three_row_numeric(self, tmp_path):
        path = write(tmp_path, "t.csv", "1.0,2.0,A\n3.0,4.0,B\n5.0,6.0,A\n")
        ds = load_csv(path)
        assert ds.n == 3 and ds.n_features == 2 and ds.n_classes == 2
        assert np.array_equal(ds.vectors, [[1, 2], [3, 4], [5, 6]])
        assert ds.class_names == ["A", "B"]
        assert list(ds.labels) == [0, 1, 0]
        assert all(f.kind == CONTINUOUS for f in ds.features)

    def test_symbolic_first_occurrence(self, tmp_path):
        path = write(tmp_path, "t.csv", "red,1,A\ngreen,2,B\nred,3,A\n")
        ds = load_csv(path)
        assert ds.features[0].kind == SYMBOLIC
        assert list(ds.vectors[:, 0]) == [0, 1, 0]

    def test_header_detected(self, tmp_path):
        path = write(tmp_path, "t.csv", "x,y,label\n1,2,A\n3,4,B\n")
        ds = load_csv(path, label_column="label")
        assert ds.n == 2
        assert [f.name for f in ds.features] == ["x", "y"]

    def test_label_column_by_position(self, tmp_path):
        path = write(tmp_path, "t.csv", "A,1,2\nB,3,4\n")
        ds = load_csv(path, label_column=0)
        assert ds.class_names == ["A", "B"]
        assert np.array_equal(ds.vectors, [[1, 2], [3, 4]])

    def test_ragged_row_reports_position(self, tmp_path):
        path = write(tmp_path, "t.csv", "1,2,A\n3,B\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path)

    def test_parse_error_reports_row_and_column(self, tmp_path):
        path = write(tmp_path, "t.csv", "1,2,A\noops,4,B\n", )
        with pytest.raises(DataError, match="column"):
            load_csv(path, schema={0: CONTINUOUS})

    @pytest.mark.parametrize("column", [-100, -4, 3, 5])
    def test_label_position_out_of_range(self, tmp_path, column):
        path = write(tmp_path, "t.csv", "1,2,A\n3,4,B\n")
        with pytest.raises(DataError, match="out of range"):
            load_csv(path, label_column=column)

    @pytest.mark.parametrize("column, names", [(-3, ["1", "3"]), (2, ["A", "B"])])
    def test_label_position_at_the_edges(self, tmp_path, column, names):
        path = write(tmp_path, "t.csv", "1,2,A\n3,4,B\n")
        assert load_csv(path, label_column=column).class_names == names

    def test_label_only_file_rejected(self, tmp_path):
        path = write(tmp_path, "t.csv", "A\nB\n")
        with pytest.raises(DataError, match="feature column"):
            load_csv(path)

    def test_unknown_label_column(self, tmp_path):
        path = write(tmp_path, "t.csv", "x,y\n1,A\n2,B\n")
        with pytest.raises(DataError, match="label column"):
            load_csv(path, label_column="nope")

    def test_schema_override_numeric_as_symbolic(self, tmp_path):
        path = write(tmp_path, "t.csv", "3,A\n7,B\n3,A\n")
        ds = load_csv(path, schema={0: SYMBOLIC})
        assert ds.features[0].kind == SYMBOLIC
        # all-integer tokens keep their native values
        assert list(ds.vectors[:, 0]) == [3, 7, 3]

    def test_symbolic_integer_too_large_for_float(self, tmp_path):
        path = write(tmp_path, "t.csv", f"{'9' * 400},A\n1,B\n")
        with pytest.raises(DataError, match="too large"):
            load_csv(path, schema={0: SYMBOLIC})

    def test_ionosphere_shape_and_split(self, ionosphere):
        assert ionosphere.train.n == 200
        assert ionosphere.test.n == 150
        assert ionosphere.train.n_features == 34
        assert ionosphere.train.n_classes == 2
        assert ionosphere.unused_rows == 1  # 351 rows minus the 200+150 split


class TestLoadMonks:
    def test_monk1_sizes(self, monks1):
        assert monks1.train.n == 124 and monks1.train.n_features == 6
        assert monks1.train.n_classes == 2
        assert monks1.test.n == 432

    def test_line_field_mapping(self, tmp_path):
        path = write(tmp_path, "m.train", "1 1 1 1 1 3 1 data_5\n0 2 1 1 1 3 1 data_6\n")
        ds = load_monks(path)
        assert ds.class_names == ["1", "0"]
        assert list(ds.labels) == [0, 1]
        assert np.array_equal(ds.vectors[0], [1, 1, 1, 1, 3, 1])

    def test_huge_attribute_rejected(self, tmp_path):
        path = write(tmp_path, "m", f"1 {'9' * 400} 1 1 1 1 1 d1\n0 1 1 1 1 1 1 d2\n")
        with pytest.raises(DataError, match="too large"):
            load_monks(path)

    def test_wrong_token_count(self, tmp_path):
        path = write(tmp_path, "m.train", "1 1 1 1 1 3 data_5\n")
        with pytest.raises(DataError, match="line 1"):
            load_monks(path)

    def test_test_labels_reuse_training_codes(self, monks1):
        # both files must agree on which symbol means which class index
        assert monks1.train.class_names == monks1.test.class_names

    def test_test_value_missing_from_training_is_data_error(self, tmp_path):
        train = write(tmp_path, "m.train", "1 1 1 1 1 1 1 d1\n0 2 1 1 1 1 1 d2\n")
        test = write(tmp_path, "m.test", "1 1 1 1 1 1 1 d1\n0 1 1 3 1 1 1 d2\n")
        with pytest.raises(DataError, match=r"m\.test: column 'a3': unknown symbol '3'"):
            load_partition(train, test, fmt="monks")

    def test_test_codes_are_the_training_codes(self, tmp_path):
        # the test file lacks a1 = 3 and a2 = 1; its tables still hold them
        train = write(tmp_path, "m.train", "1 1 1 1 1 1 1 d1\n0 3 2 1 1 1 1 d2\n")
        test = write(tmp_path, "m.test", "1 1 2 1 1 1 1 d1\n")
        part = load_partition(train, test, fmt="monks")
        assert [f.codes for f in part.test.features] == [f.codes for f in part.train.features]
        assert part.test.features[0].codes == {"1": 1, "3": 3}
        assert np.array_equal(part.test.vectors, [[1, 2, 1, 1, 1, 1]])


class TestEncodeSymbolic:
    def test_native_integers_preserved(self):
        values, codes = encode_symbolic(["1", "2", "3", "2"])
        assert values == [1, 2, 3, 2]

    def test_first_occurrence_order(self):
        values, codes = encode_symbolic(["b", "a", "b", "c"])
        assert values == [0, 1, 0, 2]
        assert codes == {"b": 0, "a": 1, "c": 2}

    def test_unknown_test_symbol(self):
        _, codes = encode_symbolic(["a", "b", "c"])
        with pytest.raises(DataError, match="unknown symbol"):
            encode_symbolic(["d"], codes)

    def test_unknown_symbol_via_partition(self, tmp_path):
        train = write(tmp_path, "tr.csv", "red,A\ngreen,B\n")
        test = write(tmp_path, "te.csv", "blue,A\n")
        with pytest.raises(DataError, match="unknown symbol"):
            load_partition(train, test)

    def test_unknown_class_label(self, tmp_path):
        train = write(tmp_path, "tr.csv", "1,A\n2,B\n")
        test = write(tmp_path, "te.csv", "1,C\n")
        with pytest.raises(DataError, match="unknown class label"):
            load_partition(train, test)

    def test_integer_symbols_keyed_by_their_tokens(self, tmp_path):
        train = write(tmp_path, "tr.csv", "01,A\n2,B\n")
        test = write(tmp_path, "te.csv", "01,A\n")
        part = load_partition(train, test, schema={0: SYMBOLIC})
        assert part.train.features[0].codes == {"01": 1, "2": 2}
        assert np.array_equal(part.test.vectors, [[1]])

    def test_renamed_symbolic_column_rejected(self, tmp_path):
        train = write(tmp_path, "tr.csv", "color,x,label\nred,1,A\ngreen,2,B\n")
        test = write(tmp_path, "te.csv", "colour,x,label\nred,1,A\n")
        with pytest.raises(DataError, match="schemas differ"):
            load_partition(train, test, label_column="label")

    @pytest.mark.parametrize("train_rows, test_rows, where", [
        ("1,2,A\n3,4,B\n", "1,2,A\n1,oops,B\n", "row 2, column 'a2'"),
        ("x,y,label\n1,2,A\n3,4,B\n", "x,y,label\n1,2,A\n1,oops,B\n", "row 3, column 'y'"),
    ], ids=["no-header", "header"])
    def test_test_parse_error_reports_row_and_column(self, tmp_path, train_rows, test_rows,
                                                     where):
        train = write(tmp_path, "tr.csv", train_rows)
        test = write(tmp_path, "te.csv", test_rows)
        with pytest.raises(DataError, match=f"te.csv: {where}: cannot parse 'oops'"):
            load_partition(train, test)

    @pytest.mark.parametrize("test_rows", ["1,2,3,A\n", "1,A\n"], ids=["wider", "narrower"])
    def test_feature_count_must_match_training(self, tmp_path, test_rows):
        train = write(tmp_path, "tr.csv", "1,2,A\n3,4,B\n")
        test = write(tmp_path, "te.csv", test_rows)
        width = test_rows.count(",")
        with pytest.raises(DataError, match=f"te.csv: {width} feature columns, expected 2"):
            load_partition(train, test)


class TestPartitionHelpers:
    def test_split_preserves_rows(self, tmp_path):
        path = write(tmp_path, "t.csv", "".join(f"{i},{i % 2}\n" for i in range(10)))
        ds = load_csv(path)
        part = split_rows(ds, 6, 3)
        assert part.train.n == 6 and part.test.n == 3 and part.unused_rows == 1
        assert np.array_equal(np.vstack([part.train.vectors, part.test.vectors]),
                              ds.vectors[:9])

    def test_split_too_large(self, tmp_path):
        path = write(tmp_path, "t.csv", "1,A\n2,B\n")
        with pytest.raises(DataError, match="exceeds"):
            split_rows(load_csv(path), 2, 1)

    @pytest.mark.parametrize("counts", [(-10, 5), (5, -1)])
    def test_split_negative_count_rejected(self, counts):
        data = load_csv(DATA_DIR / "ionosphere.data", label_column=-1)
        with pytest.raises(DataError, match="negative"):
            split_rows(data, *counts)

    @pytest.mark.parametrize("counts, side", [((0, 150), "training"), ((200, 0), "test")])
    def test_split_empty_side_rejected(self, counts, side):
        data = load_csv(DATA_DIR / "ionosphere.data", label_column=-1)
        with pytest.raises(DataError, match=f"split {counts[0]}:{counts[1]} leaves the {side} "
                                            "side empty"):
            split_rows(data, *counts)

    @pytest.mark.parametrize("train, test", [("monks-1.train", "monks-1.test"),
                                             ("ionosphere.data", "ionosphere.data")],
                             ids=["monk-files", "csv-file"])
    def test_unknown_format_rejected(self, train, test):
        # no fallback to CSV, which would load a comma-separated file silently
        with pytest.raises(ValueError, match="unknown format 'monk'; choose from csv, monks"):
            load_partition(DATA_DIR / train, DATA_DIR / test, fmt="monk")

    def test_schema_mismatch_rejected(self, monks1, ionosphere):
        with pytest.raises(DataError, match="schemas differ"):
            Partition(monks1.train, ionosphere.test)

    def test_minmax_rescale_range(self, ionosphere):
        scaled = minmax_rescale(ionosphere.train)
        assert scaled.vectors.min() >= 0.0 and scaled.vectors.max() <= 1.0
        spans = scaled.vectors.max(axis=0) - scaled.vectors.min(axis=0)
        varying = ionosphere.train.vectors.std(axis=0) > 0
        assert np.allclose(spans[varying], 1.0)

    def test_rescale_with_training_bounds(self, tmp_path):
        train = load_csv(write(tmp_path, "a.csv", "0,A\n10,B\n"))
        test = load_csv(write(tmp_path, "b.csv", "5,A\n20,B\n"), reference=train)
        assert np.array_equal(minmax_rescale(test, reference=train).vectors, [[0.5], [2.0]])
        assert np.array_equal(minmax_rescale(test).vectors, [[0.0], [1.0]])

    def test_rescale_reference_of_another_width(self, ionosphere, monks1):
        with pytest.raises(DataError, match="rescale 6 features .* reference with 34"):
            minmax_rescale(monks1.train, reference=ionosphere.train)


class TestOutsideInput:
    @pytest.mark.parametrize("loader", [load_csv, load_monks])
    def test_non_utf8_is_data_error(self, tmp_path, loader):
        path = tmp_path / "bad"
        path.write_bytes(b"1 1 1 1 1 1 1 d\xff\n0 2 2 2 2 2 2 e\n")
        with pytest.raises(DataError, match="(?i)utf-8"):
            loader(path)

    @given(st.one_of(st.binary(max_size=200),
                     st.text(alphabet="0123456789,.- e\n\r\"AB\x00", max_size=200)
                     .map(str.encode)))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes_load_or_raise_data_error(self, blob):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "blob"
            path.write_bytes(blob)
            for loader in (load_csv, load_monks):
                try:
                    loader(path)
                except DataError:
                    pass


def general(path, **kwargs) -> Dataset:
    """`load_csv` through the csv.reader path alone."""
    return dataset._csv_rows(path, dataset._csv_text(path), **kwargs)


def identity(data: Dataset) -> tuple:
    """Everything a loader hands on: vector bytes and layout, labels, names,
    kinds, codes and class names."""
    return (data.vectors.shape, data.vectors.flags.f_contiguous, data.vectors.tobytes(),
            data.labels.dtype, data.labels.tolist(), data.class_names,
            [(f.name, f.kind, f.index, f.codes) for f in data.features])


def outcome(load, path, **kwargs) -> tuple:
    try:
        return "loaded", identity(load(path, **kwargs))
    except DataError as exc:
        return "error", str(exc)


needs_c_reader = pytest.mark.skipif(not dataset.NUMPY_C_READER,
                                    reason="numpy < 1.23 has no C text reader")


def wide_eval_text(rng, centers, n) -> str:
    """A table shaped like the wide-eval benchmark's: a header, 24 six-decimal
    features and a class name last."""
    labels = rng.integers(0, len(centers), n)
    x = centers[labels] + rng.normal(0.0, 1.5, (n, centers.shape[1]))
    header = ",".join(f"f{j + 1}" for j in range(centers.shape[1])) + ",class"
    rows = [",".join(f"{v:.6f}" for v in row) + f",c{c}" for row, c in zip(x, labels)]
    return "\n".join([header] + rows) + "\n"


BOM = "\ufeff"


class TestByteOrderMark:
    @pytest.mark.parametrize("text, rows", [
        ("1.5,2.0,a\n2.5,3.0,b\n3.5,1.0,a\n", 3),
        ("x,y,label\n1.5,2.0,a\n2.5,3.0,b\n3.5,1.0,a\n", 3),
        ("red,2.0,a\ngreen,3.0,b\nred,1.0,a\n", 3),
        ("color,y,label\nred,2.0,a\ngreen,3.0,b\n", 2),
    ], ids=["numeric", "numeric-header", "symbolic", "symbolic-header"])
    def test_csv_loads_as_without_it(self, tmp_path, text, rows):
        plain = write(tmp_path, "plain.csv", text)
        marked = tmp_path / "marked.csv"
        marked.write_bytes((BOM + text).encode())
        assert identity(load_csv(marked)) == identity(load_csv(plain))
        assert identity(general(marked)) == identity(general(plain))
        assert load_csv(marked).n == rows

    def test_monk_file_loads_as_without_it(self, tmp_path):
        text = (DATA_DIR / "monks-1.train").read_text()
        marked = tmp_path / "monks-1.train"
        marked.write_bytes((BOM + text).encode())
        assert identity(load_monks(marked)) == identity(load_monks(DATA_DIR / "monks-1.train"))
        assert load_monks(marked).class_names == ["1", "0"]


class TestColumnMajor:
    """Every Dataset stores its vectors with contiguous columns."""

    def test_every_loader_and_transform(self, tmp_path, monks1):
        numeric = write(tmp_path, "n.csv", "1,2,A\n3,4,B\n5,6,A\n7,8,B\n")
        symbolic = write(tmp_path, "s.csv", "red,2,A\ngreen,4,B\nred,6,A\n")
        part = split_rows(load_csv(numeric), 2, 1)
        data = [load_csv(numeric), general(numeric), load_csv(symbolic), general(symbolic),
                load_csv(DATA_DIR / "ionosphere.data"), load_monks(DATA_DIR / "monks-1.train"),
                part.train, part.test, minmax_rescale(load_csv(numeric)),
                minmax_rescale(monks1.test, monks1.train)]
        assert [d.vectors.strides[0] for d in data] == [8] * len(data)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_whatever_the_loader_hands_it(self, order):
        vectors = np.asarray(np.arange(12.0).reshape(4, 3), order=order)
        features = [FeatureSpec(f"a{j}", CONTINUOUS, j) for j in range(3)]
        data = Dataset(features, vectors, [0, 1, 0, 1], ["A", "B"])
        assert data.vectors.flags.f_contiguous and np.array_equal(data.vectors, vectors)


class TestNumericReader:
    """The numpy reader takes plain numeric tables and returns what the
    csv.reader path returns; it declines every other text."""

    @needs_c_reader
    @pytest.mark.parametrize("seed", range(4))
    def test_wide_eval_tables_are_bit_identical(self, tmp_path, seed):
        rng = np.random.default_rng([seed, 0])
        centers = rng.normal(0.0, 1.0, (3, 24))
        train = write(tmp_path, "train.csv", wide_eval_text(rng, centers, 800))
        test = write(tmp_path, "test.csv", wide_eval_text(rng, centers, 400))
        reference = general(train)
        for path, kwargs in ((train, {}), (test, {"reference": reference})):
            assert dataset._numeric_rows(path, dataset._csv_text(path), **kwargs) is not None
            assert identity(load_csv(path, **kwargs)) == identity(general(path, **kwargs))

    @needs_c_reader
    def test_ionosphere_is_bit_identical(self):
        path = DATA_DIR / "ionosphere.data"
        assert dataset._numeric_rows(path, dataset._csv_text(path)) is not None
        assert identity(load_csv(path)) == identity(general(path))

    @needs_c_reader
    @pytest.mark.parametrize("text, kwargs", [
        ("1,2,A\r\n3,4,B\r\n", {}),
        ("1,2,A\n3,4,B", {}),
        ("A,1,2\nB,3,4\n", {"label_column": 0}),
        ("x,label,y\n1,A,2\n3,B,4\n", {"label_column": "label"}),
        ("\xa01.5\xa0, 2 ,A\n\t3,4e0,B\n", {}),
        ("1,2, \n3,4,B\n", {}),
    ], ids=["crlf", "no-final-newline", "label-first", "label-named", "padding", "blank-label"])
    def test_takes_plain_numeric_tables(self, tmp_path, text, kwargs):
        path = write(tmp_path, "t.csv", text)
        assert dataset._numeric_rows(path, dataset._csv_text(path), **kwargs) is not None
        assert identity(load_csv(path, **kwargs)) == identity(general(path, **kwargs))

    @needs_c_reader
    @pytest.mark.parametrize("text", [
        '"1",2,A\n3,4,B\n', "1,2,A\r3,4,B\r", "1,2,A\n3,4\n", "1,2,A\n\n3,4,B\n",
        "1,,A\n3,4,B\n", "1,2,A\n,,\n3,4,B\n", " , ,\n1,2,A\n3,4,B\n", "1_0,2,A\n3,4,B\n",
        "0x1p3,2,A\n3,4,B\n", "\u0661,2,A\n3,4,B\n", "red,2,A\ngreen,4,B\n", "1\x00,2,A\n3,4,B\n",
    ], ids=["quote", "lone-cr", "ragged", "blank-line", "blank-cell", "commas-only",
            "blank-header", "underscore", "hex", "arabic-digit", "symbol", "nul"])
    def test_declines_other_tables(self, tmp_path, text):
        path = write(tmp_path, "t.csv", text)
        assert dataset._numeric_rows(path, dataset._csv_text(path)) is None

    def test_declines_a_reference_with_symbols(self, tmp_path):
        train = load_csv(write(tmp_path, "tr.csv", "1,2,A\n3,4,B\n"), schema={0: SYMBOLIC})
        path = write(tmp_path, "te.csv", "1,2,A\n3,4,B\n")
        assert dataset._numeric_rows(path, dataset._csv_text(path), reference=train) is None
        assert identity(load_csv(path, reference=train)) == identity(general(path, reference=train))

    def test_without_the_c_reader_every_table_takes_the_csv_path(self, tmp_path, monkeypatch):
        path = write(tmp_path, "t.csv", "1,2,A\n3,4,B\n")
        monkeypatch.setattr(dataset, "NUMPY_C_READER", False)
        monkeypatch.setattr(dataset, "_numeric_rows", None)
        assert identity(load_csv(path)) == identity(general(path))


# cells the two CSV paths must read alike; numbers dominate, so that many
# drawn tables are plain enough for the numpy reader
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.decimals(allow_nan=False, allow_infinity=False, places=6).map(str),
    st.sampled_from(["-0", ".5", "1.", "+3", "1e5", "1E-05", " 2 ", "\t7", "1e999", "4e0"]))
ODD_CELLS = st.sampled_from([
    "", " ", "\t", "\xa0", "nan", "inf", "-Infinity", "1_0", "0x1p3", "\u0661", "\xa01.5\xa0",
    "\xa0", '"1.5"', '"a,b"', '""', '"x"', "1\x00", "red", "blue", "\ufeff1"])
LABELS = st.sampled_from(["A", "B", "c0", "1", " A ", "", "\xa0B"])
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def csv_texts(draw, label_first: bool) -> str:
    width = draw(st.integers(2, 4))
    n = draw(st.integers(1, 6))
    odd = draw(st.sampled_from([0.0, 0.0, 0.05, 0.3]))  # the share of odd cells
    shapes = ["row"] + (["row"] * 8 + ["short", "long", "blank", "commas", "spaces"]
                        if draw(st.booleans()) else [])
    label_at = 0 if label_first else width - 1
    lines = []
    if draw(st.booleans()):
        names = [draw(st.sampled_from(["x", "y", "1", " ", "z"])) for _ in range(width)]
        names[label_at] = draw(st.sampled_from(["class", "class", "y", ""]))
        lines.append(",".join(names))
    for _ in range(n):
        cells = [draw(LABELS) if j == label_at else
                 draw(ODD_CELLS) if odd and draw(st.floats(0, 1)) < odd else draw(NUMBERS)
                 for j in range(width)]
        cells = {"short": cells[:-1], "long": cells + ["9"], "blank": [],
                 "commas": [""] * width, "spaces": [" "] * width,
                 }.get(draw(st.sampled_from(shapes)), cells)
        lines.append(",".join(cells))
    ends = draw(st.one_of(st.sampled_from(["\n", "\r\n"]).map(lambda end: [end] * len(lines)),
                          st.lists(LINE_ENDS, min_size=len(lines), max_size=len(lines))))
    text = "".join(line + end for line, end in zip(lines, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@given(st.sampled_from([-1, 0, 1, "class"]).flatmap(
    lambda label: st.tuples(csv_texts(label == 0), csv_texts(label == 0), st.just(label))))
@settings(max_examples=400, deadline=None)
def test_the_two_csv_paths_agree(texts):
    """load_csv, which tries the numpy reader first, and the csv.reader path
    alone give the same Dataset or the same DataError, on a training file and
    on a test file loaded against it."""
    train_text, test_text, label_column = texts
    with tempfile.TemporaryDirectory() as tmp:
        train, test = Path(tmp) / "train.csv", Path(tmp) / "test.csv"
        train.write_bytes(train_text.encode())
        test.write_bytes(test_text.encode())
        kwargs = {"label_column": label_column}
        assert outcome(load_csv, train, **kwargs) == outcome(general, train, **kwargs)
        try:
            kwargs["reference"] = general(train, label_column=label_column)
        except DataError:
            return
        assert outcome(load_csv, test, **kwargs) == outcome(general, test, **kwargs)
