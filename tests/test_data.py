import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coeye import Dataset, TimeSeries, load_ucr, write_ucr, znormalize
from coeye.data import znormalize_rows
from coeye.errors import EmptyDataset, ParseError, RaggedData


def write(tmp_path, text, name="d.tsv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadUcr:
    def test_tab_separated(self, tmp_path):
        ds = load_ucr(write(tmp_path, "1\t0.0\t1.0\n2\t3.0\t4.0\n"))
        assert ds.n == 2
        assert len(ds) == 2
        assert ds.class_labels == (1, 2)
        assert np.array_equal(ds.X, [[0.0, 1.0], [3.0, 4.0]])

    def test_comma_separated(self, tmp_path):
        ds = load_ucr(write(tmp_path, "1,0.5,1.5\n1,2.5,3.5\n"))
        assert ds.n == 2 and ds.class_labels == (1,)

    def test_auto_prefers_tab(self, tmp_path):
        # a tab-separated file whose values contain no commas
        ds = load_ucr(write(tmp_path, "3\t1.0\t2.0\n"), delimiter="auto")
        assert ds.y[0] == 3

    def test_explicit_delimiters(self, tmp_path):
        path = write(tmp_path, "1,1.0,2.0\n")
        assert load_ucr(path, delimiter="comma").n == 2
        with pytest.raises((ParseError, RaggedData)):
            load_ucr(path, delimiter="tab")

    def test_ragged_row_names_line(self, tmp_path):
        with pytest.raises(RaggedData) as err:
            load_ucr(write(tmp_path, "1\t1.0\t2.0\n2\t3.0\n"))
        assert err.value.line_no == 2

    def test_non_numeric_cell_has_position(self, tmp_path):
        with pytest.raises(ParseError) as err:
            load_ucr(write(tmp_path, "1\t1.0\tx\n"))
        assert err.value.line_no == 1
        assert err.value.column == 3

    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyDataset):
            load_ucr(write(tmp_path, "\n\n"))

    def test_real_valued_label_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_ucr(write(tmp_path, "1.5\t1.0\t2.0\n"))

    @pytest.mark.parametrize("label", ["1e20", "-1e20", "9223372036854775808"])
    def test_label_outside_int64_rejected(self, tmp_path, label):
        with pytest.raises(ParseError) as err:
            load_ucr(write(tmp_path, f"1\t0.0\t0.5\n{label}\t1.0\t2.0\n"))
        assert (err.value.line_no, err.value.column) == (2, 1)

    @pytest.mark.parametrize("label, reason", [("abc", "not a number"), ("nan", "not finite"), ("inf", "not finite"),
                                               ("-inf", "not finite")])
    def test_label_not_a_finite_number_rejected(self, tmp_path, label, reason):
        with pytest.raises(ParseError, match=f"label is {reason}") as err:
            load_ucr(write(tmp_path, f"1\t0.0\t0.5\n{label}\t1.0\t2.0\n"))
        assert (err.value.line_no, err.value.column) == (2, 1)

    def test_labels_past_2_53_stay_distinct(self, tmp_path):
        ds = load_ucr(write(tmp_path, "9007199254740993\t1.0\t2.0\n9007199254740992\t0.0\t0.5\n"))
        assert ds.class_labels == (2**53, 2**53 + 1)

    def test_int64_maximum_label_accepted(self, tmp_path):
        ds = load_ucr(write(tmp_path, "9223372036854775807\t1.0\t2.0\n-1\t0.0\t0.5\n"))
        assert ds.class_labels == (-1, 2**63 - 1)

    def test_float_written_labels_accepted(self, tmp_path):
        ds = load_ucr(write(tmp_path, "1.0\t1.0\t2.0\n1e3\t0.0\t0.5\n-9007199254740991.0\t0.0\t0.5\n"))
        assert ds.class_labels == (-(2**53) + 1, 1, 1000)

    @pytest.mark.parametrize("label", ["9007199254740992.0", "-9007199254740992.0", "9.007199254740993e15"])
    def test_float_label_at_2_53_rejected(self, tmp_path, label):
        with pytest.raises(ParseError) as err:
            load_ucr(write(tmp_path, f"1\t0.0\t0.5\n{label}\t1.0\t2.0\n"))
        assert (err.value.line_no, err.value.column) == (2, 1)

    def test_int64_minimum_label_accepted(self, tmp_path):
        ds = load_ucr(write(tmp_path, "-9223372036854775808\t1.0\t2.0\n"))
        assert ds.class_labels == (-2**63,)

    def test_negative_label_accepted(self, tmp_path):
        ds = load_ucr(write(tmp_path, "-1\t1.0\t2.0\n1\t0.0\t0.5\n"))
        assert ds.class_labels == (-1, 1)

    @pytest.mark.parametrize("row, column", [("1\t1_0\t2.0", 2), ("2_0\t1.0\t2.0", 1),
                                             ("1\t\u0661\u0662\t2.0", 2), ("\uff12\t1.0\t2.0", 1)])
    def test_only_plain_ascii_numbers(self, tmp_path, row, column):
        # float and int read "1_0" as 10 and Arabic-Indic or full-width digits as numbers
        path = tmp_path / "d.tsv"
        path.write_text(f"1\t0.0\t0.5\n{row}\n", encoding="utf-8")
        with pytest.raises(ParseError, match="not a plain ASCII number") as err:
            load_ucr(path)
        assert (err.value.line_no, err.value.column) == (2, column)

    def test_nan_value_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            load_ucr(write(tmp_path, "1\tnan\t2.0\n"))
        with pytest.raises(ParseError):
            load_ucr(write(tmp_path, "1\t1.0\tinf\n"))

    def test_no_rows_dropped(self, tmp_path):
        text = "1\t1.0\t2.0\n\n2\t3.0\t4.0\n\n\n1\t5.0\t6.0\n"
        ds = load_ucr(write(tmp_path, text))
        assert len(ds) == sum(1 for line in text.splitlines() if line.strip())

    def test_name_from_filename(self, tmp_path):
        ds = load_ucr(write(tmp_path, "1\t1.0\t2.0\n", name="Gadget_TRAIN.tsv"))
        assert ds.name == "Gadget"


class TestRoundTrip:
    @given(
        rows=st.lists(
            st.lists(st.floats(-1e6, 1e6, allow_nan=False, width=64), min_size=4, max_size=4),
            min_size=1,
            max_size=6,
        ),
        delimiter=st.sampled_from(["tab", "comma"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_write_load_is_exact(self, rows, delimiter, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("rt")
        ds = Dataset(np.asarray(rows), np.arange(1, len(rows) + 1))
        write_ucr(ds, tmp / "x.tsv", delimiter=delimiter)
        back = load_ucr(tmp / "x.tsv")
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.y, ds.y)


    @pytest.mark.parametrize("delimiter", ["auto", "Tab", "csv", ","])
    def test_write_refuses_an_unknown_delimiter(self, delimiter, tmp_path):
        # any name but "tab" used to write commas
        with pytest.raises(ValueError, match="unknown delimiter"):
            write_ucr(Dataset(np.zeros((1, 3)), [1]), tmp_path / "x.tsv", delimiter=delimiter)
        assert not (tmp_path / "x.tsv").exists()


class TestZnormalize:
    def test_constant_maps_to_zeros(self):
        assert np.array_equal(znormalize(np.array([5.0, 5, 5, 5])), np.zeros(4))

    def test_three_points(self):
        # (x - mean) / popstd with popstd = sqrt(2/3)
        out = znormalize(np.array([1.0, 2.0, 3.0]))
        expected = np.array([-math.sqrt(1.5), 0.0, math.sqrt(1.5)])
        assert np.allclose(out, expected, atol=1e-12)

    def test_idempotent(self):
        x = znormalize(np.array([0.3, -1.2, 4.5, 2.2]))
        assert np.allclose(znormalize(x), x, atol=1e-9)

    def test_timeseries_in_timeseries_out(self):
        ts = TimeSeries(np.array([1.0, 3.0]), label=7)
        out = znormalize(ts)
        assert isinstance(out, TimeSeries) and out.label == 7

    @given(st.lists(st.floats(-1e4, 1e4, allow_nan=False, width=64), min_size=2, max_size=64))
    @example([7.419369504963986e-91] * 3)
    @example([1.0, 1.0000000000000002])
    @example([0.0, 6.46772466178601e-162])
    @example([0.0, 1e-300])
    @settings(max_examples=100, deadline=None)
    def test_mean_zero_std_one(self, values):
        arr = np.asarray(values)
        out = znormalize(arr)
        if np.ptp(arr) == 0:
            # constant series maps to zeros
            assert np.array_equal(out, np.zeros_like(arr))
        else:
            assert abs(out.mean()) <= 1e-9
            assert abs(out.std() - 1.0) <= 1e-9

    def test_rowwise_matches_per_series(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(5, 16))
        X[2] = 3.25  # constant row
        rows = znormalize_rows(X)
        for i in range(5):
            assert np.allclose(rows[i], znormalize(X[i]))


class TestDatasetInvariants:
    def test_immutable_arrays(self):
        ds = Dataset(np.zeros((2, 3)), np.array([1, 2]))
        with pytest.raises(ValueError):
            ds.X[0, 0] = 1.0
        with pytest.raises(ValueError):
            ds.y[0] = 5

    def test_class_labels_sorted_and_exact(self):
        ds = Dataset(np.zeros((4, 2)), np.array([4, 1, 4, 2]))
        assert ds.class_labels == (1, 2, 4)
        assert ds.class_counts() == {1: 1, 2: 1, 4: 2}

    def test_getitem(self):
        ds = Dataset(np.array([[1.0, 2.0]]), np.array([9]))
        ts = ds[0]
        assert ts.label == 9 and len(ts) == 2

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros(3), np.array([1]))
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 3)), np.array([1]))
