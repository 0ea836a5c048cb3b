import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metaknn import (CONTINUOUS, SYMBOLIC, DataError, Dataset, FeatureSpec,
                     Partition, encode_symbolic, load_csv, load_monks,
                     load_partition, minmax_rescale, split_rows, write_csv)

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

    @pytest.mark.parametrize("test_rows", ["1,2,3,A\n", "1,A\n"], ids=["wider", "narrower"])
    def test_feature_count_must_match_training(self, tmp_path, test_rows):
        train = write(tmp_path, "tr.csv", "1,2,A\n3,4,B\n")
        test = write(tmp_path, "te.csv", test_rows)
        width = test_rows.count(",")
        with pytest.raises(DataError, match=f"te.csv: {width} feature columns, expected 2"):
            load_partition(train, test)


class TestRoundTrip:
    def test_mixed_dataset_round_trips(self, tmp_path):
        src = write(tmp_path, "src.csv", "red,1.25,A\ngreen,2.5,B\nred,-0.125,A\nblue,9.0,B\n")
        ds = load_csv(src)
        out = tmp_path / "out.csv"
        write_csv(ds, out)
        back = load_csv(out, label_column="class")
        assert np.array_equal(back.vectors, ds.vectors)
        assert np.array_equal(back.labels, ds.labels)
        assert back.class_names == ds.class_names
        assert [f.kind for f in back.features] == [f.kind for f in ds.features]

    def test_monk_round_trips_via_csv(self, tmp_path, monks1):
        out = tmp_path / "monk.csv"
        write_csv(monks1.train, out)
        back = load_csv(out, label_column="class",
                        schema={f.name: SYMBOLIC for f in monks1.train.features})
        assert np.array_equal(back.vectors, monks1.train.vectors)
        assert np.array_equal(back.labels, monks1.train.labels)


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
