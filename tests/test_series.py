"""Tests for series handling: combination, detrending, normalization, splits, CSV."""

import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from clockpred.series import (
    CSV_HEADER,
    DEFAULT_INTERVAL_DAYS,
    DataSplit,
    NormalizationScale,
    QuadraticTrend,
    TimeSeries,
    combine_series,
    denormalize,
    detrend,
    fit_quadratic,
    parse_series,
    prepare,
    read_series,
    retrend,
    series_to_csv,
    split,
)
from tests.helpers import (
    bind_groups, fit_quadratic_oracle, loadtxt_via_float, parse_series_rowwise, series_of
)
from tests.test_refusals import REFUSALS, refusal_test


def quadratic_series(c0, c1, c2, n, start=56934, interval=5):
    epochs = start + interval * np.arange(n)
    dt = epochs - start
    return TimeSeries(epochs, c0 + c1 * dt + c2 * dt**2, interval)


class TestTimeSeries:
    def test_basic_construction(self):
        s = series_of([1.0, 2.0, 3.0])
        assert len(s) == 3
        assert s.interval == 5
        npt.assert_array_equal(s.epochs, [56934, 56939, 56944])

    def test_values_are_immutable(self):
        s = series_of([1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 9.0

    def test_single_point_allowed(self):
        assert len(series_of([7.0])) == 1

    def test_subseries(self):
        s = series_of(np.arange(10.0))
        sub = s.subseries(range(2, 6))
        npt.assert_array_equal(sub.values, [2.0, 3.0, 4.0, 5.0])
        assert sub.epochs[0] == 56934 + 10


class TestCombineSeries:
    def test_pointwise_sum(self):
        a = TimeSeries([56934, 56939], [10.0, 12.0], 5)
        b = TimeSeries([56934, 56939], [-3.0, 1.0], 5)
        npt.assert_array_equal(combine_series(a, b).values, [7.0, 13.0])

    def test_zero_is_identity(self):
        a = series_of([4.0, -2.0, 9.0])
        b = a.with_values(np.zeros(3))
        npt.assert_array_equal(combine_series(a, b).values, a.values)

    def test_commutative_and_associative(self):
        rng = np.random.default_rng(11)
        a = series_of(rng.normal(size=20))
        b = series_of(rng.normal(size=20))
        c = series_of(rng.normal(size=20))
        npt.assert_allclose(
            combine_series(a, b).values, combine_series(b, a).values, rtol=0
        )
        npt.assert_allclose(
            combine_series(combine_series(a, b), c).values,
            combine_series(a, combine_series(b, c)).values,
            atol=1e-12,
        )


class TestFitQuadratic:
    def test_recovers_exact_quadratic(self):
        s = quadratic_series(5.0, -0.2, 0.01, 20)
        tr = fit_quadratic(s)
        npt.assert_allclose([tr.c0, tr.c1, tr.c2], [5.0, -0.2, 0.01], rtol=1e-9)
        assert tr.t0 == s.epochs[0]

    def test_constant_series(self):
        tr = fit_quadratic(series_of(np.full(12, 7.0)))
        npt.assert_allclose([tr.c0, tr.c1, tr.c2], [7.0, 0.0, 0.0], atol=1e-9)

    def test_matches_rational_normal_equation_oracle(self):
        rng = np.random.default_rng(2024)
        s = quadratic_series(40.0, 3.0, 0.004, 274)
        noisy = s.with_values(s.values + rng.normal(0, 5.0, len(s)))
        tr = fit_quadratic(noisy)
        oracle = fit_quadratic_oracle(noisy.epochs, noisy.values)
        npt.assert_allclose([tr.c0, tr.c1, tr.c2], oracle, rtol=1e-9)

    def test_residual_orthogonal_to_basis(self):
        rng = np.random.default_rng(5)
        s = series_of(rng.normal(0, 30.0, 100))
        tr = fit_quadratic(s)
        resid = detrend(s, tr).values
        dt = s.epochs - s.epochs[0]
        for basis in (np.ones_like(dt), dt, dt**2):
            # normalized inner product; raw moments reach ~1e6 at these spans
            assert abs(resid @ basis) / (np.linalg.norm(resid) * np.linalg.norm(basis)) < 1e-6


class TestDetrendRetrend:
    def test_detrend_of_exact_quadratic_is_zero(self):
        s = quadratic_series(5.0, -0.2, 0.01, 30)
        resid = detrend(s, fit_quadratic(s))
        npt.assert_allclose(resid.values, 0.0, atol=1e-9)

    def test_zero_trend_is_identity(self):
        s = series_of([1.0, -2.0, 3.0])
        npt.assert_array_equal(detrend(s, QuadraticTrend(56934, 0, 0, 0)).values, s.values)

    def test_retrend_of_zero_residual_is_trend(self):
        tr = QuadraticTrend(56934.0, 4.0, 0.5, -0.001)
        zero = series_of(np.zeros(8))
        npt.assert_allclose(retrend(zero, tr).values, tr(zero.epochs), rtol=0)

    def test_pointwise_addition(self):
        tr = QuadraticTrend(56934.0, 10.0, 0.0, 0.0)
        s = TimeSeries([56934, 56939], [-1.0, 2.0], 5)
        npt.assert_array_equal(retrend(s, tr).values, [9.0, 12.0])

    def test_round_trip_random(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            s = series_of(rng.normal(0, 100, rng.integers(3, 60)))
            tr = QuadraticTrend(56934.0, *rng.normal(0, [50, 1, 0.01]))
            npt.assert_allclose(retrend(detrend(s, tr), tr).values, s.values, atol=1e-9)


class TestNormalize:
    def test_denormalize_inverts(self):
        s = TimeSeries([56934, 56939], [-1.0, 0.5], 5)
        npt.assert_array_equal(denormalize(s, NormalizationScale(100.0)).values, [-100.0, 50.0])
        rng = np.random.default_rng(3)
        t = series_of(rng.normal(0, 40, 50))
        prep = prepare(t)
        rebuilt = denormalize(prep.residual_norm, prep.scale).values
        npt.assert_allclose(rebuilt, detrend(t, prep.trend).values, rtol=1e-12)

    def test_unit_scale_is_identity(self):
        s = series_of([1.5, -0.25])
        npt.assert_array_equal(denormalize(s, NormalizationScale(1.0)).values, s.values)


class TestSplit:
    def test_reference_partition(self):
        parts = split(274)
        assert parts.sizes == (141, 33, 100)
        assert parts.train_range == range(0, 141)
        assert parts.val_range == range(141, 174)
        assert parts.test_range == range(174, 274)

    def test_small_case(self):
        assert split(10, 0.5, 0.2).sizes == (5, 2, 3)

    def test_partition_properties(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            n = int(rng.integers(10, 2000))
            tf = float(rng.uniform(0.2, 0.7))
            vf = float(rng.uniform(0.05, min(0.25, 0.95 - tf)))
            try:
                parts = split(n, tf, vf)
            except ValueError:
                continue
            covered = list(parts.train_range) + list(parts.val_range) + list(parts.test_range)
            assert covered == list(range(n))
            assert len(parts.train_range) == int(np.floor(tf * n))
            assert len(parts.val_range) == int(np.floor(vf * n))


class TestCsvRoundTrip:
    def test_write_read(self, tmp_path):
        rng = np.random.default_rng(21)
        s = series_of(np.round(rng.normal(0, 50, 40), 3))
        path = tmp_path / "series.csv"
        path.write_text(series_to_csv(s))
        back = read_series(path)
        npt.assert_array_equal(back.epochs, s.epochs)
        npt.assert_array_equal(back.values, s.values)

    def test_format_shape(self):
        s = TimeSeries([56934, 56939], [1.25, -3.5], 5)
        text = series_to_csv(s)
        assert text == "mjd,ns\n56934,1.250\n56939,-3.500\n"

    def test_full_precision_mode(self, tmp_path):
        rng = np.random.default_rng(31)
        s = series_of(rng.normal(0, 1, 25))
        path = tmp_path / "residual.csv"
        path.write_text(series_to_csv(s, decimals=None))
        npt.assert_array_equal(read_series(path).values, s.values)

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(series_to_csv(series_of([1.0, 2.0])))
        assert b"\r" not in path.read_bytes()

    def test_single_row_takes_default_interval(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("mjd,ns\n56934,1.0\n")
        assert read_series(path).interval == DEFAULT_INTERVAL_DAYS

    @pytest.mark.parametrize("reader", ["installed-numpy", "int-via-float"])
    @pytest.mark.parametrize("mjd", ["56939.5", "5.6939e4", str(2**63), "1e400", "nan"])
    def test_mjd_that_is_not_an_int64_is_a_malformed_row(self, tmp_path, monkeypatch, mjd, reader):
        """numpy 1.x reads such a field through a float cast to int64, warning only
        with a ``DeprecationWarning``, which Python ignores when a library gives it."""
        if reader == "int-via-float":
            monkeypatch.setattr(np, "loadtxt", loadtxt_via_float(np.loadtxt))
        path = tmp_path / "odd.csv"
        path.write_text(f"mjd,ns\n56934,1\n{mjd},2\n")
        with warnings.catch_warnings(), pytest.raises(ValueError) as err:
            warnings.simplefilter("ignore", DeprecationWarning)
            read_series(path)
        assert str(err.value) == f"{path}:3: malformed row '{mjd},2'"

    def test_spaces_signs_blank_lines_and_crlf_are_accepted(self, tmp_path):
        path = tmp_path / "loose.csv"
        path.write_bytes(b"mjd,ns\r\n 56934 , +5 \r\n\r\n \t \r\n+56939,\t-1.5e0\r\n\n")
        s = read_series(path)
        npt.assert_array_equal(s.epochs, [56934, 56939])
        npt.assert_array_equal(s.values, [5.0, -1.5])
        assert s.interval == 5


INT64_ENDS = [-(2**63), -(2**63) + 7, 2**63 - 40, 2**63 - 1]
ODD_FIELDS = ["", "x", "1.5", "0x10", "--1", "1e", "nan", "-inf", "1e400", "\ufffd", "2**63"]
ODD_FIELDS += [str(2**63), str(-(2**63) - 1)]


@st.composite
def series_texts(draw):
    """A ``mjd,ns`` document at 3 decimals or ``repr``, often with one row mutated."""
    n = draw(st.integers(0, 8))
    start = draw(
        st.one_of(st.sampled_from([56934, *INT64_ENDS]), st.integers(-(2**63), 2**63 - 1))
    )
    interval = draw(st.integers(-1, 30))
    values = draw(st.lists(st.floats(width=64), min_size=n, max_size=n))
    decimals = draw(st.sampled_from(["{:.3f}", "{!r}"]))
    rows = [f"{start + interval * i},{decimals.format(v)}" for i, v in enumerate(values)]
    lines = [CSV_HEADER, *rows]
    at = draw(st.integers(1, len(lines)))
    row = lines[at].split(",") if at < len(lines) else ["56934", "1.0"]
    mutation = draw(st.sampled_from(["none", "drop", "add", "odd", "blank", "spaced", "insert"]))
    if mutation == "drop":
        lines[at:at + 1] = [row[draw(st.integers(0, 1))]]
    elif mutation == "add":
        lines[at:at + 1] = [",".join(row + [draw(st.sampled_from(["1", "", "x"]))])]
    elif mutation == "odd":
        row[draw(st.integers(0, 1))] = draw(st.sampled_from(ODD_FIELDS))
        lines[at:at + 1] = [",".join(row)]
    elif mutation == "blank":
        lines.insert(at, draw(st.sampled_from(["", " ", "\t", " \t "])))
    elif mutation == "spaced":
        lines[at:at + 1] = [f" {row[0]} , {row[-1]}\t"]
    elif mutation == "insert":
        mjd, ns = draw(st.sampled_from(INT64_ENDS)), draw(st.sampled_from(ODD_FIELDS))
        lines.insert(at, f"{mjd},{ns}")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + newline * draw(st.integers(0, 2))


def parsed(parse, text):
    """The epochs, value bits and interval ``parse`` reads from ``text``, or its error line."""
    try:
        s = parse(text, "s.csv")
    except ValueError as err:
        return str(err)
    return s.epochs.tolist(), s.values.view(np.int64).tolist(), s.interval


class TestColumnParser:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(text=series_texts())
    @example(text=f"mjd,ns\n{2**63 - 1},1\n{-(2**63)},2\n")  # the first step overflows int64
    @example(text=f"mjd,ns\n{-(2**63)},1\n{2**63 - 1},2\n")
    def test_agrees_with_the_row_loop(self, text):
        """The one ``np.loadtxt`` pass reads what the row-by-row parser reads,
        bit for bit, and refuses what it refuses with the same line, warning about nothing."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert parsed(parse_series, text) == parsed(parse_series_rowwise, text)


class TestPrepare:
    def test_round_trip_within_tolerance(self):
        rng = np.random.default_rng(55)
        s = quadratic_series(40.0, 3.0, 0.004, 274)
        s = s.with_values(s.values + rng.normal(0, 20.0, len(s)))
        for fit_on_full in (False, True):
            prep = prepare(s, fit_on_full=fit_on_full)
            rebuilt = retrend(denormalize(prep.residual_norm, prep.scale), prep.trend)
            npt.assert_allclose(rebuilt.values, s.values, atol=1e-9)

    def test_prefix_fit_ignores_test_data(self):
        rng = np.random.default_rng(56)
        s = series_of(rng.normal(0, 10, 274))
        prep = prepare(s)
        corrupted = s.values.copy()
        corrupted[200:] += 1e6
        prep2 = prepare(s.with_values(corrupted))
        assert prep.trend == prep2.trend
        assert prep.scale == prep2.scale

    def test_full_fit_sees_everything(self):
        rng = np.random.default_rng(57)
        s = series_of(rng.normal(0, 10, 274))
        corrupted = s.values.copy()
        corrupted[200:] += 1e4
        assert prepare(s, fit_on_full=True).trend != prepare(
            s.with_values(corrupted), fit_on_full=True
        ).trend

    def test_train_prefix_normalized_peak_is_one(self):
        rng = np.random.default_rng(58)
        s = series_of(rng.normal(0, 10, 274))
        prep = prepare(s)
        train = prep.residual_norm.values[: prep.split.train_range.stop]
        assert np.max(np.abs(train)) == 1.0


def test_datasplit_sizes_property():
    parts = DataSplit(range(0, 5), range(5, 7), range(7, 10), (0.5, 0.2))
    assert parts.sizes == (5, 2, 3)


bind_groups(globals(), REFUSALS, refusal_test)
