"""Tests for CSV ingestion and fold-safe standardization."""

import numpy as np
import pytest

from graphmetric.data import (CsvFormatError, Dataset, load_csv,
                              load_feature_matrix, standardize)


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_three_line_example(self, tmp_path):
        path = _write(tmp_path, "1.0,2.0,A\n2.0,3.0,B\n1.5,2.5,A\n")
        ds = load_csv(path, label_column=-1)
        assert ds.num_classes == 2
        assert ds.labels.tolist() == [0, 1, 0]
        assert ds.features.shape == (3, 2)

    def test_iris(self):
        ds = load_csv("data/iris.csv", label_column="class")
        assert ds.num_samples == 150
        assert ds.num_features == 4
        assert ds.num_classes == 3

    def test_wine(self):
        ds = load_csv("data/wine.csv", label_column="class")
        assert (ds.num_samples, ds.num_features, ds.num_classes) == (178, 13, 3)

    def test_missing_cell_names_row_and_column(self, tmp_path):
        path = _write(tmp_path, "1.0,2.0,A\n1.0,,B\n2.0,1.0,A\n")
        with pytest.raises(CsvFormatError, match=r":2: missing value in column 1"):
            load_csv(path, label_column=-1)

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = _write(tmp_path, "1.0,2.0,A\nx,3.0,B\n")
        with pytest.raises(CsvFormatError, match=r":2: non-numeric"):
            load_csv(path, label_column=-1)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_cell_names_line_and_column(self, tmp_path, cell):
        path = _write(tmp_path, f"1.0,2.0,A\n1.0,{cell},B\n")
        with pytest.raises(CsvFormatError, match=rf":2: non-finite feature "
                           rf"cell '{cell}' in column 1"):
            load_csv(path, label_column=-1)

    @pytest.mark.parametrize("label", ["", "  "])
    def test_blank_label_names_line_and_column(self, tmp_path, label):
        path = _write(tmp_path, f"f0,y,f1\n1.0,A,2.0\n1.0,{label},3.0\n")
        with pytest.raises(CsvFormatError,
                           match=r":3: missing label in column 1"):
            load_csv(path, label_column="y")

    def test_error_lines_count_blank_lines(self, tmp_path):
        path = _write(tmp_path, "1.0,2.0,A\n\n2.0,x,B\n")
        with pytest.raises(CsvFormatError, match=r":3: non-numeric"):
            load_csv(path, label_column=-1)

    def test_header_by_name(self, tmp_path):
        path = _write(tmp_path, "f1,f2,species\n1,2,cat\n3,4,dog\n5,6,cat\n")
        ds = load_csv(path, label_column="species")
        assert ds.labels.tolist() == [0, 1, 0]
        assert ds.features[0].tolist() == [1.0, 2.0]

    def test_unknown_header_name(self, tmp_path):
        path = _write(tmp_path, "f1,f2,label\n1,2,a\n")
        with pytest.raises(CsvFormatError, match="no column named"):
            load_csv(path, label_column="species")

    def test_header_autodetect_with_int_column(self, tmp_path):
        path = _write(tmp_path, "f1,f2,label\n1,2,a\n3,4,b\n")
        ds = load_csv(path, label_column=2)
        assert ds.num_samples == 2

    def test_header_autodetect_on_the_bundled_data(self):
        for path, shape in (("data/iris.csv", (150, 4)),
                            ("data/wine.csv", (178, 13))):
            assert load_csv(path, label_column=-1).features.shape == shape

    def test_first_row_typo_is_not_a_header(self, tmp_path):
        # the row used to be dropped as a header, and class B became 0
        path = _write(tmp_path, "5.l,3.5,A\n4.9,3.0,B\n4.7,3.2,A\n5.0,3.1,B\n")
        with pytest.raises(CsvFormatError, match=r":1: non-numeric feature "
                           r"cell '5\.l' in column 0"):
            load_csv(path, label_column=-1)

    def test_first_row_mixing_numbers_and_text_is_an_error(self, tmp_path):
        path = _write(tmp_path, "\n1.0,f1,A\n2.0,3.0,B\n")
        with pytest.raises(CsvFormatError, match=r":2: non-numeric feature "
                           r"cell 'f1' in column 1"):
            load_csv(path, label_column=-1)
        with pytest.raises(CsvFormatError, match=r":2: non-numeric feature "
                           r"cell 'f1' in column 1"):
            load_feature_matrix(path, label_column=2)

    def test_label_column_in_middle(self, tmp_path):
        path = _write(tmp_path, "1.0,A,2.0\n3.0,B,4.0\n")
        ds = load_csv(path, label_column=1)
        assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_label_column_index_bounds(self, tmp_path):
        # an index of width or more, or below -width, names no column;
        # it used to wrap (4 -> column 0) and load one class per row
        path = _write(tmp_path, "1,2,3,4\n5,6,7,8\n9,1,2,3\n")
        for col in (4, 9, -5):
            with pytest.raises(CsvFormatError, match=rf"label column index "
                               rf"{col} is out of range for 4 columns"):
                load_csv(path, label_column=col)
        assert load_csv(path, label_column=-4).features[:, 0].tolist() == \
            [2.0, 6.0, 1.0]
        assert load_csv(path, label_column=3).num_classes == 3

    def test_first_appearance_encoding(self, tmp_path):
        path = _write(tmp_path, "1,Z\n2,A\n3,Z\n4,M\n")
        ds = load_csv(path, label_column=-1)
        assert ds.labels.tolist() == [0, 1, 0, 2]  # Z=0, A=1, M=2

    def test_alternate_delimiter(self, tmp_path):
        path = _write(tmp_path, "1.0;2.0;A\n2.0;1.0;B\n")
        ds = load_csv(path, label_column=-1, delimiter=";")
        assert ds.num_samples == 2

    @pytest.mark.parametrize("delimiter", ["", ";;"])
    def test_delimiter_must_be_one_character(self, tmp_path, delimiter):
        path = _write(tmp_path, "1.0,2.0,A\n2.0,1.0,B\n")
        with pytest.raises(CsvFormatError,
                           match=f"delimiter must be one character, not "
                                 f"{delimiter!r}"):
            load_csv(path, label_column=-1, delimiter=delimiter)

    def test_ragged_row_rejected(self, tmp_path):
        path = _write(tmp_path, "1.0,2.0,A\n1.0,B\n")
        with pytest.raises(CsvFormatError, match="expected 3 cells"):
            load_csv(path, label_column=-1)

    def test_empty_file(self, tmp_path):
        with pytest.raises(CsvFormatError, match="empty"):
            load_csv(_write(tmp_path, ""), label_column=-1)


class TestLoadFeatureMatrix:
    def test_features_only_file(self, tmp_path):
        path = _write(tmp_path, "1.0,2.0\n3.0,4.0\n")
        feats = load_feature_matrix(path)
        assert feats.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_label_column_discarded(self, tmp_path):
        path = _write(tmp_path, "1.0,whatever,2.0\n3.0,whatever,4.0\n")
        feats = load_feature_matrix(path, label_column=1)
        assert feats.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_non_finite_cell_names_line_and_column(self, tmp_path):
        path = _write(tmp_path, "f0,f1\n1.0,2.0\n3.0,nan\n")
        with pytest.raises(CsvFormatError, match=r":3: non-finite feature "
                           r"cell 'nan' in column 1"):
            load_feature_matrix(path)

    def test_first_row_typo_without_label_column(self, tmp_path):
        path = _write(tmp_path, "1.0,2.O\n3.0,4.0\n")
        with pytest.raises(CsvFormatError, match=r":1: non-numeric feature "
                           r"cell '2\.O' in column 1"):
            load_feature_matrix(path)

    def test_blank_label_cells_allowed(self, tmp_path):
        # the labels of samples to classify may be unknown
        path = _write(tmp_path, "1.0,,2.0\n3.0, ,4.0\n")
        feats = load_feature_matrix(path, label_column=1)
        assert feats.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_single_class_file_loads(self, tmp_path):
        # a prediction input may carry a degenerate label column
        path = _write(tmp_path, "1.0,u\n2.0,u\n")
        feats = load_feature_matrix(path, label_column=-1)
        assert feats.shape == (2, 1)


class TestDataset:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Dataset(name="x", features=np.array([[np.nan]]),
                    labels=np.array([0]), num_classes=2)

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ValueError):
            Dataset(name="x", features=np.zeros((2, 1)),
                    labels=np.array([0, 2]), num_classes=2)

    @pytest.mark.parametrize("labels", [[0.7, 1.9, 0.2], [0, 1, np.nan],
                                        [0.0, 1.0, 0.5]])
    def test_rejects_non_integral_labels(self, labels):
        with pytest.raises(ValueError, match="labels must be integers"):
            Dataset(name="x", features=np.ones((3, 2)), labels=labels,
                    num_classes=2)

    @pytest.mark.parametrize("num_classes", [2.5, 2.0, True, np.True_, "2"])
    def test_rejects_non_integer_num_classes(self, num_classes):
        with pytest.raises(ValueError, match="num_classes must be an integer"):
            Dataset(name="x", features=np.ones((3, 2)), labels=[0, 1, 0],
                    num_classes=num_classes)

    def test_integral_float_labels_and_numpy_class_count_accepted(self):
        ds = Dataset(name="x", features=np.ones((3, 2)),
                     labels=[0.0, 1.0, 0.0], num_classes=np.int64(2))
        assert ds.labels.tolist() == [0, 1, 0]
        assert ds.class_counts().tolist() == [2, 1]

    def test_class_counts(self):
        ds = Dataset(name="x", features=np.zeros((3, 1)),
                     labels=np.array([0, 1, 0]), num_classes=2)
        assert ds.class_counts().tolist() == [2, 1]


class TestStandardize:
    def test_train_column_zero_two(self):
        train = np.array([[0.0], [2.0]])
        scaled, _, scaler = standardize(train, np.zeros((0, 1)))
        assert scaler.mean[0] == 1.0
        assert scaler.scale[0] == 1.0  # population std of (0, 2)
        assert scaled.ravel().tolist() == [-1.0, 1.0]

    def test_constant_column_divisor_one(self):
        train = np.full((4, 1), 3.0)
        scaled, _, scaler = standardize(train, train)
        assert scaler.scale[0] == 1.0
        assert np.all(scaled == 0.0)

    def test_test_uses_train_stats(self):
        train = np.array([[0.0], [2.0]])
        _, test_scaled, _ = standardize(train, np.array([[4.0]]))
        assert test_scaled[0, 0] == 3.0

    def test_empty_train_rejected(self):
        with pytest.raises(ValueError):
            standardize(np.zeros((0, 2)), np.zeros((1, 2)))
