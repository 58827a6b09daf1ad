import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cybermodels.series import FLOAT_FORMAT, CurveSeries, format_value, rows_to_csv

# Any float64 at all, with the cases where formatting could part ways drawn
# often: nan, +-inf, -0.0, subnormals and integral floats of 1e12 and above.
_SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2250738585072e-308,
            1e12, -1e12, 123456789012345.0, 1e22, 2.0**53 + 2, 1e300]
_ANY_FLOAT = st.one_of(
    st.floats(width=64, allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(_SPECIAL),
    st.integers(min_value=-(2**62), max_value=2**62).map(float),
)


def _via_rows_to_csv(columns: dict) -> str:
    """The CSV text through the general per-cell formatter."""
    return rows_to_csv(list(columns), zip(*(col.tolist() for col in columns.values())))


class TestCurveSeries:
    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="length"):
            CurveSeries({"x": [1, 2, 3], "y": [1, 2]}, x_label="x")

    def test_x_must_increase_strictly(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            CurveSeries({"x": [1, 2, 2], "y": [1, 2, 3]}, x_label="x")

    def test_x_label_must_exist(self):
        with pytest.raises(ValueError, match="x column"):
            CurveSeries({"x": [1, 2]}, x_label="t")

    def test_empty_columns_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            CurveSeries({}, x_label="x")

    def test_csv_layout(self):
        series = CurveSeries({"x": [1.0, 2.0], "y": [0.5, 0.25]}, x_label="x")
        assert series.to_csv() == "x,y\n1,0.5\n2,0.25\n"

    @settings(max_examples=100, deadline=None)
    @given(
        arrays(
            np.float64,
            st.tuples(st.integers(0, 30), st.integers(1, 8)),
            elements=_ANY_FLOAT,
        )
    )
    def test_to_csv_matches_rows_to_csv(self, table):
        # The x column must increase strictly, so it is the row index; the 1-8
        # drawn columns carry the arbitrary values.
        columns = {"x": np.arange(table.shape[0], dtype=float)}
        columns.update((f"c{i}", col) for i, col in enumerate(table.T))
        series = CurveSeries(columns, x_label="x")
        assert series.to_csv() == _via_rows_to_csv(series.columns)

    def test_to_csv_of_zero_rows_is_the_header(self):
        series = CurveSeries({"x": [], "y": []}, x_label="x")
        assert series.to_csv() == "x,y\n" == _via_rows_to_csv(series.columns)

    def test_to_csv_of_one_column(self):
        series = CurveSeries({"x": [-1e12, -0.0, 5e-324, 1e12, 1e15, np.inf]}, x_label="x")
        text = series.to_csv()
        assert text == "x\n-1e+12\n-0\n4.94065645841e-324\n1e+12\n1e+15\ninf\n"
        assert text == _via_rows_to_csv(series.columns)

    def test_len_and_accessors(self):
        series = CurveSeries({"x": [0.0, 1.0], "y": [3.0, 4.0]}, x_label="x")
        assert len(series) == 2
        assert np.array_equal(series.column("x"), [0.0, 1.0])
        assert np.array_equal(series.column("y"), [3.0, 4.0])


class TestFormatting:
    def test_twelve_significant_digits(self):
        assert format_value(1.0 / 3.0) == "0.333333333333"
        assert format_value(6.0575889e-29) == "6.0575889e-29"

    def test_integral_floats_render_bare(self):
        assert format_value(26.0) == "26"

    def test_float_spec_is_shared(self):
        assert FLOAT_FORMAT == "%.12g"
        for value in [1.0 / 3.0, np.float32(0.1), -0.0, np.nan, -np.inf, 1e12]:
            assert format_value(value) == f"{float(value):.12g}"

    def test_booleans(self):
        assert format_value(True) == "true"
        assert format_value(np.bool_(False)) == "false"

    def test_rows_to_csv_lf_only(self):
        text = rows_to_csv(["a", "b"], [[1, 2.5]])
        assert text == "a,b\n1,2.5\n"
        assert "\r" not in text
