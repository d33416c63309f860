import numpy as np
import pytest

from wtrv.cli import _jsonable
from wtrv.data import (DegenerateSeriesError, EmptyDataError, SchemaError,
                       Series, describe, read_csv)


@pytest.fixture
def csv_path(tmp_path):
    path = tmp_path / "rain.csv"
    path.write_text(
        "year,rainfall_mm\n"
        "2001,912.4\n"
        "2002,\n"
        "2003,1044.1\n"
        "2004,not-a-number\n"
        "2005,873.0\n")
    return str(path)


class TestReadCsv:
    def test_values_and_skips(self, csv_path):
        s = read_csv(csv_path, "rainfall_mm")
        assert s.n == 3
        assert s.skipped == 2
        assert np.allclose(s.rainfall_mm, [912.4, 1044.1, 873.0])

    def test_missing_column(self, csv_path):
        with pytest.raises(SchemaError):
            read_csv(csv_path, "precip")

    def test_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("year,rainfall_mm\n")
        with pytest.raises(EmptyDataError):
            read_csv(str(path), "rainfall_mm")

    def test_nonpositive_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("rainfall_mm\n-5.0\n3.0\n")
        with pytest.raises(ValueError):
            read_csv(str(path), "rainfall_mm")


def mode_by_loop(values):
    """The most frequent value, first seen among ties, by counting in a dict."""
    counts = {}
    for v in values:
        counts[float(v)] = counts.get(float(v), 0) + 1
    best = max(counts.values())
    return next(float(v) for v in values if counts[float(v)] == best)


class TestDescribe:
    @pytest.mark.parametrize("values, mode", [
        ([3.0, 1.0, 1.0, 3.0, 2.0], 3.0),  # 3 and 1 tie, and 3 comes first
        ([5.0, 2.0, 7.0, 2.0, 2.0, 5.0], 2.0),  # one mode
        ([9.0, 4.0, 6.0], 9.0),  # all distinct: the first value
    ])
    def test_mode_first_seen(self, values, mode):
        assert describe(Series(np.array(values))).mode == mode

    def test_mode_matches_counting_loop(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            v = rng.integers(1, 8, int(rng.integers(2, 30))) * 0.5
            assert describe(Series(v)).mode == mode_by_loop(v)

    def test_population_moments(self):
        v = np.array([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        st = describe(Series(v))
        assert st.n == 8
        assert st.mean == pytest.approx(5.0)
        assert st.median == pytest.approx(4.5)
        assert st.mode == pytest.approx(4.0)
        assert st.std == pytest.approx(2.0)  # classic population-sd example
        assert st.variance == pytest.approx(4.0)
        d = v - 5.0
        m2, m3, m4 = (np.mean(d ** k) for k in (2, 3, 4))
        assert st.skewness == pytest.approx(m3 / m2 ** 1.5)
        assert st.kurtosis == pytest.approx(m4 / m2 ** 2)  # non-excess
        assert st.minimum == 2.0 and st.maximum == 9.0

    def test_sample_convention_differs(self):
        v = np.array([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        pop = describe(Series(v), convention="population")
        sam = describe(Series(v), convention="sample")
        assert sam.variance == pytest.approx(pop.variance * 8 / 7)
        assert sam.skewness != pop.skewness

    def test_constant_series(self):
        with pytest.raises(DegenerateSeriesError):
            describe(Series(np.full(5, 3.0)))

    def test_json_keys(self):
        # the CLI writes the dataclass itself, one key per field
        d = _jsonable(describe(Series(np.array([1.0, 2.0, 3.0]))))
        assert set(d) == {"n", "mean", "median", "mode", "std", "variance",
                          "skewness", "kurtosis", "minimum", "maximum", "convention"}

    def test_unknown_convention(self):
        with pytest.raises(ValueError):
            describe(Series(np.array([1.0, 2.0, 3.0])), convention="fisher")
