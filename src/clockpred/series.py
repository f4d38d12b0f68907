"""Clock time-difference series and their invertible preprocessing.

The data of interest are offsets between a reference timescale and a
free-running hydrogen maser, sampled every 5 days on the MJD grid and
expressed in nanoseconds.  This module owns everything that happens to
such a series before a predictor sees it: combining partial offset
streams, removing the slow quadratic drift, scaling into [-1, 1], and
slicing into train / validation / test partitions.  Every transform keeps
enough state (:class:`QuadraticTrend`, :class:`NormalizationScale`) to map
predictions back to physical nanoseconds.  It also holds the one reader and
the one writer of the pipeline's JSON documents (:func:`_read_json`, :func:`_json_text`)
and the one writer of its CSV documents (:func:`_csv_text`).
"""

from __future__ import annotations

import json
import math
import reprlib
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_INTERVAL_DAYS = 5

# Partition fractions.  floor(0.5146 * n) / floor(0.1205 * n) reproduce the
# reference 141 / 33 / 100 partition of a 274-point series.
DEFAULT_TRAIN_FRAC = 0.5146
DEFAULT_VAL_FRAC = 0.1205
DEFAULT_FIT_ON_FULL = False

CSV_HEADER = "mjd,ns"
_ROW = np.dtype([("mjd", np.int64), ("ns", np.float64)])
_NO_ROWS = np.empty(0, _ROW)
_brief = reprlib.Repr()  # echoes a bad input's text in an error line, cut short
_brief.maxstring, _brief.maxlist = 60, 4


def _freeze(record, **fields) -> None:
    """Set ``fields`` on the frozen dataclass ``record``, each array among them read-only.

    Every validated value type ends its ``__post_init__`` here, passing its own
    copies, never the caller's; ``subseries`` passes read-only slices of its own.
    """
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(record, name, value)


@dataclass(frozen=True)
class TimeSeries:
    """A uniformly spaced offset series.

    Parameters
    ----------
    epochs : array-like of int
        MJD day numbers, strictly increasing with constant spacing.
    values : array-like of float
        Offsets in nanoseconds, all finite.
    interval : int
        Spacing between consecutive epochs in days.
    """

    epochs: np.ndarray
    values: np.ndarray
    interval: int = DEFAULT_INTERVAL_DAYS

    def __post_init__(self):
        epochs = np.asarray(self.epochs)
        if epochs.dtype.kind == "f":
            if not (epochs == np.floor(epochs)).all():
                raise ValueError("epochs must be whole MJD day numbers")
        if epochs.dtype.kind in "ufO" and not ((epochs >= -(2**63)) & (epochs < 2**63)).all():
            raise ValueError("epochs must be MJD day numbers within the int64 range")
        epochs = epochs.astype(np.int64)
        values = np.array(self.values, dtype=np.float64)
        if epochs.ndim != 1 or values.ndim != 1:
            raise ValueError("epochs and values must be one-dimensional")
        if epochs.size != values.size:
            raise ValueError(
                f"epochs ({epochs.size}) and values ({values.size}) differ in length"
            )
        if epochs.size == 0:
            raise ValueError("series must contain at least one point")
        interval = self.interval
        if not isinstance(interval, (int, np.integer)) or interval <= 0:
            raise ValueError(f"interval must be a positive integer day count, got {interval!r}")
        steps = np.diff(epochs)
        if steps.size and not (steps == interval).all():
            bad = int(np.flatnonzero(steps != interval)[0])
            raise ValueError(
                f"epochs must advance by {interval} days; offending step "
                f"{epochs[bad]} -> {epochs[bad + 1]}"
            )
        if not np.isfinite(values).all():
            raise ValueError("values must all be finite")
        _freeze(self, epochs=epochs, values=values, interval=int(interval))

    def __len__(self) -> int:
        return self.epochs.size

    def with_values(self, values) -> "TimeSeries":
        """Same epochs and interval, new values."""
        return TimeSeries(self.epochs, values, self.interval)

    def subseries(self, indices: range) -> "TimeSeries":
        """Contiguous slice of the series (``indices`` must have step 1)."""
        if indices.step != 1:
            raise ValueError("subseries requires a contiguous index range")
        if indices.start < 0 or indices.stop > len(self) or len(indices) == 0:
            raise ValueError(
                f"index range {indices} out of bounds for series of length {len(self)}"
            )
        part, cut = object.__new__(TimeSeries), slice(indices.start, indices.stop)
        _freeze(part, epochs=self.epochs[cut], values=self.values[cut], interval=self.interval)
        return part  # a slice of a valid series: read-only views, not validated again


@dataclass(frozen=True)
class QuadraticTrend:
    """Quadratic drift ``c0 + c1*(t - t0) + c2*(t - t0)**2``.

    ``t0`` is the reference epoch in MJD days; the coefficients carry ns,
    ns/day and ns/day**2 units.
    """

    t0: float
    c0: float
    c1: float
    c2: float

    def __post_init__(self):
        coefficients = {name: float(getattr(self, name)) for name in ("t0", "c0", "c1", "c2")}
        for name, value in coefficients.items():
            if not math.isfinite(value):
                raise ValueError(f"trend coefficient {name} must be finite")
        _freeze(self, **coefficients)

    def __call__(self, epochs) -> np.ndarray:
        dt = np.asarray(epochs, dtype=np.float64) - self.t0
        return self.c0 + dt * (self.c1 + dt * self.c2)


@dataclass(frozen=True)
class NormalizationScale:
    """The max-absolute-value divisor used to bring a series into [-1, 1]."""

    d_max_abs: float

    def __post_init__(self):
        value = float(self.d_max_abs)
        if not math.isfinite(value) or value <= 0.0:
            raise ValueError(
                f"degenerate normalization scale {self.d_max_abs!r}; "
                "the source series must contain a nonzero value"
            )
        _freeze(self, d_max_abs=value)


@dataclass(frozen=True)
class DataSplit:
    """Contiguous train / validation / test index partition."""

    train_range: range
    val_range: range
    test_range: range
    fractions: tuple[float, float]

    @property
    def sizes(self) -> tuple[int, int, int]:
        return (len(self.train_range), len(self.val_range), len(self.test_range))


def combine_series(a: TimeSeries, b: TimeSeries) -> TimeSeries:
    """Pointwise sum of two offset streams defined on identical epochs.

    Adding the [reference - local timescale] and [local timescale - maser]
    streams yields the [reference - maser] series the predictors work on.

    Raises
    ------
    ValueError
        If the epoch grids diverge; the message names the first epoch
        present in one series but not matched by the other.
    """
    if a.interval != b.interval:
        raise ValueError(
            f"cannot combine series with intervals {a.interval} and {b.interval}"
        )
    if a.epochs[0] != b.epochs[0]:  # one interval: the grids differ at every index or at none
        raise ValueError(f"epoch alignment error at index 0: {a.epochs[0]} != {b.epochs[0]}")
    n = min(len(a), len(b))
    if len(a) != len(b):
        extra = a.epochs[n] if len(a) > len(b) else b.epochs[n]
        raise ValueError(
            f"epoch alignment error at index {n}: epoch {extra} has no counterpart"
        )
    return a.with_values(a.values + b.values)


def fit_quadratic(s: TimeSeries) -> QuadraticTrend:
    """Least-squares quadratic through the series.

    Solves the 3x3 normal equations on a centered and span-scaled abscissa
    so the system stays well conditioned at MJD magnitudes; the reference
    epoch of the returned trend is the first epoch of the series.

    Raises
    ------
    ValueError
        If the series has fewer than 3 points.
    """
    if len(s) < 3:
        raise ValueError(f"quadratic fit needs at least 3 points, got {len(s)}")
    t0 = float(s.epochs[0])
    dt = s.epochs.astype(np.float64) - t0
    span = float(dt[-1])
    u = dt / span
    design = np.vander(u, 3, increasing=True)
    gram = design.T @ design
    moments = design.T @ s.values
    a0, a1, a2 = np.linalg.solve(gram, moments)
    return QuadraticTrend(t0, float(a0), float(a1 / span), float(a2 / span**2))


def detrend(s: TimeSeries, trend: QuadraticTrend) -> TimeSeries:
    """Subtract the trend evaluated at the series epochs."""
    return s.with_values(s.values - trend(s.epochs))


def retrend(s: TimeSeries, trend: QuadraticTrend) -> TimeSeries:
    """Exact inverse of :func:`detrend`."""
    return s.with_values(s.values + trend(s.epochs))


def denormalize(s: TimeSeries, scale: NormalizationScale) -> TimeSeries:
    """Multiply by the stored scale; inverse of the division :func:`prepare` makes."""
    return s.with_values(s.values * scale.d_max_abs)


def check_fractions(train_frac: float, val_frac: float) -> None:
    """Raise ``ValueError`` unless both fractions are positive and sum to less than 1."""
    if not (0.0 < train_frac and 0.0 < val_frac and train_frac + val_frac < 1.0):
        raise ValueError(
            f"fractions out of range: train={train_frac}, val={val_frac} "
            "(need both > 0 and their sum < 1)"
        )


def split(
    n: int,
    train_frac: float = DEFAULT_TRAIN_FRAC,
    val_frac: float = DEFAULT_VAL_FRAC,
) -> DataSplit:
    """Partition ``n`` indices into contiguous train / validation / test.

    Train and validation sizes are ``floor(frac * n)``; the test partition
    takes the remainder.  All three partitions must end up nonempty.

    Raises
    ------
    ValueError
        On a count that is not an integer, on fractions outside (0, 1) or
        summing to >= 1, and when the floor rule leaves any partition empty.
    """
    if not isinstance(n, (int, np.integer)):
        raise ValueError(f"point count must be an integer, got {n!r}")
    check_fractions(train_frac, val_frac)
    n_train = math.floor(train_frac * n)
    n_val = math.floor(val_frac * n)
    n_test = n - n_train - n_val
    if min(n_train, n_val, n_test) < 1:
        raise ValueError(
            f"splitting {n} points as {n_train}/{n_val}/{n_test} leaves an "
            "empty partition; every partition must be nonempty"
        )
    return DataSplit(
        train_range=range(0, n_train),
        val_range=range(n_train, n_train + n_val),
        test_range=range(n_train + n_val, n),
        fractions=(float(train_frac), float(val_frac)),
    )


def series_to_csv(s: TimeSeries, decimals: int | None = 3) -> str:
    """Render the ``mjd,ns`` CSV document (LF line endings).

    ``decimals`` fixes the fractional digits of the ns column; ``None``
    writes full ``repr`` precision for intermediate files that must
    round-trip exactly.
    """
    row = "%d,%r" if decimals is None else f"%d,%.{decimals}f"
    return _csv_text(CSV_HEADER, row, s.epochs, s.values)


def _csv_text(header: str, row: str, *columns: np.ndarray) -> str:
    """The one CSV writer: ``header``, then ``row`` % each entry of ``columns``; LF endings."""
    cells = [None] * (len(columns) * len(columns[0]))
    for k, column in enumerate(columns):
        cells[k::len(columns)] = column.tolist()
    return (header + ("\n" + row) * len(columns[0]) + "\n") % tuple(cells)


def _rows(lines: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The epochs and values of the ``mjd,ns`` rows among ``lines``, blank lines skipped."""
    rows = [line for line in lines if line.strip()]
    with warnings.catch_warnings():  # numpy 1.x reads '1.5' or '1e400' as an int64, warning only
        warnings.simplefilter("error", DeprecationWarning)  # so it refuses them instead
        table = np.loadtxt(rows, _ROW, comments=None, delimiter=",", ndmin=1) if rows else _NO_ROWS
    return table["mjd"], table["ns"]


def read_series(path) -> TimeSeries:
    """Parse the ``mjd,ns`` CSV file at ``path`` with :func:`parse_series`."""
    return parse_series(Path(path).read_text(encoding="utf-8", errors="replace"), path)


def parse_series(text: str, path) -> TimeSeries:
    """Parse a ``mjd,ns`` CSV document into a :class:`TimeSeries`; errors name ``path``.

    A row is an int64 MJD and a float in ASCII digits, each optionally signed and
    spaced; digit-group underscores are refused and blank lines skipped.  The interval
    is the step between the first two epochs (a file with one data row gets
    ``DEFAULT_INTERVAL_DAYS``), and every later step must equal it; gaps are rejected,
    not interpolated, because a silently patched series would corrupt any evaluation.

    Raises
    ------
    ValueError
        On a bad header, a malformed row (the message carries the line
        number), a first step of zero or less, or any other step that
        differs from the first.
    """
    lines = text.splitlines()
    if not lines or lines[0].strip() != CSV_HEADER:
        raise ValueError(f"{path}:1: expected header {CSV_HEADER!r}")
    try:
        epochs, values = _rows(lines[1:])
    except ValueError:  # name the first row that is malformed on its own
        for lineno, line in enumerate(lines[1:], start=2):
            try:
                _rows([line])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed row {_brief.repr(line)}") from None
        raise
    interval = int(epochs[1]) - int(epochs[0]) if len(epochs) > 1 else DEFAULT_INTERVAL_DAYS
    try:
        if interval <= 0:
            raise ValueError(f"epochs must increase; offending step {epochs[0]} -> {epochs[1]}")
        return TimeSeries(epochs, values, interval)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None


def _numbers_only(doc, key=""):
    """``doc``, if its lists and objects hold JSON numbers only: no boolean, string or null.
    A refusal names the value's key path, such as ``layers[2].kernel[0][0][1]``."""
    if isinstance(doc, (dict, list)):
        for name, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            if type(value) not in (int, float):  # most values: skip the call and key path
                _numbers_only(value, f"{key}.{name}" if type(name) is str else f"{key}[{name}]")
    elif type(doc) not in (int, float):
        at = _brief.repr(key.lstrip(".")) if key else "the top level"
        raise TypeError(f"a {type(doc).__name__} at {at} where a JSON number belongs")
    return doc


def _json_text(doc) -> str:
    """The one JSON writer: sorted keys, two-space indents, finite numbers only."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _check_as_written(doc, written: dict, what: str) -> None:
    """Refuse ``doc`` unless :func:`_json_text` writes each of its keys as ``written``'s;
    the refusal names each key that differs, that ``written`` lacks or whose value
    ``_json_text`` refuses (a non-finite number), never a value."""
    def differs(value, want) -> bool:
        try:
            return _json_text(value) != _json_text(want)
        except ValueError:  # not finite
            return True

    if differs(doc, written):
        unlike = [key for key in written if differs(doc[key], written[key])]
        unlike += sorted(set(doc) - set(written))
        raise ValueError(f"keys {_brief.repr(unlike)} differ from {what}")


def _read_json(path, build):
    """Build a value from the JSON document at ``path``.

    A missing key, a value of the wrong type, an infinite count, nesting too
    deep to decode or a value its constructor rejects becomes a ``ValueError``
    that names the path.
    """
    try:
        return build(json.loads(Path(path).read_text(encoding="utf-8")))
    except KeyError as err:
        raise ValueError(f"{path}: missing key {err}") from None
    except (TypeError, ValueError, OverflowError, RecursionError) as err:
        raise ValueError(f"{path}: malformed document: {err}") from None


@dataclass(frozen=True)
class PreparedSeries:
    """A series together with all of its invertible preprocessing state.

    ``residual_norm`` is the detrended, scale-normalized series every
    predictor consumes; ``trend`` and ``scale`` recover nanoseconds.
    """

    series: TimeSeries
    residual_norm: TimeSeries
    trend: QuadraticTrend
    scale: NormalizationScale
    split: DataSplit
    fit_on_full: bool


def prepare(
    series: TimeSeries,
    train_frac: float = DEFAULT_TRAIN_FRAC,
    val_frac: float = DEFAULT_VAL_FRAC,
    fit_on_full: bool = DEFAULT_FIT_ON_FULL,
) -> PreparedSeries:
    """Run the full preprocessing pipeline on a raw offset series.

    The quadratic trend and the normalization scale are fitted on the
    training prefix by default so no information leaks out of the train
    partition.  ``fit_on_full`` instead fits both on the complete series,
    which is the presentation convention for residual plots.
    """
    parts = split(len(series), train_frac, val_frac)
    fit_slice = range(0, len(series)) if fit_on_full else parts.train_range
    trend = fit_quadratic(series.subseries(fit_slice))
    residual = series.values - trend(series.epochs)
    peak = float(np.max(np.abs(residual[: fit_slice.stop])))
    if peak == 0.0:
        raise ValueError("cannot normalize an all-zero series (degenerate scale)")
    residual_norm = series.with_values(residual / peak)  # refuses a non-finite residual
    scale = NormalizationScale(peak)
    return PreparedSeries(series, residual_norm, trend, scale, parts, fit_on_full)
