"""The column-wise CSV renderers are byte-identical to the original row-wise
ones kept in ``tests/helpers.py``, and each written manifest to the canonical
rendering of its own JSON."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import clockpred as cp
from clockpred import cli
from clockpred import training as tr
from clockpred.cnn import model_to_json
from clockpred.predictor import PredictionReport, report_to_csv
from clockpred.series import TimeSeries, denormalize, series_to_csv
from clockpred.training import STOP_MAX_UPDATES, TrainingTrace, trace_to_csv
from tests.helpers import (
    report_to_csv_rowwise,
    series_to_csv_rowwise,
    trace_to_csv_rowwise,
)

EXPERIMENT_CONF = str(Path(__file__).resolve().parent.parent / "configs" / "experiment.conf")

# Values whose rendering is easy to get wrong: signed zero, the smallest
# subnormal, huge magnitudes, and ``.3f`` ties, both exact in binary (k/16)
# and decimal ties that binary rounds to either side.
SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 0.0625, -0.1875, 1.0005, 2.675, 0.0005]
values = st.one_of(
    st.sampled_from(SPECIAL),
    st.integers(-(10**7), 10**7).map(lambda k: k / 16),
    st.integers(-(10**7), 10**7).map(lambda k: (k + 0.5) / 1000),
    st.floats(allow_nan=False, allow_infinity=False),
)


def column(n):
    return arrays(np.float64, n, elements=values)


@pytest.fixture(scope="module")
def frozen(tmp_path_factory):
    """The frozen experiment in process, and the manifests of its CLI stages."""
    data = cp.generate(cp.default_maser_spec())
    prepared = cp.prepare(data, fit_on_full=True)
    train_ds = tr.make_windows(prepared.residual_norm, prepared.split.train_range)
    val_ds = tr.make_windows(prepared.residual_norm, prepared.split.val_range)
    model, trace = cp.train(cp.init_weights(56934), train_ds, val_ds, cp.TrainConfig())
    report = cp.compare(model, cp.KalmanParams(), prepared)

    root = tmp_path_factory.mktemp("frozen")
    (root / "model.json").write_text(model_to_json(model))
    manifests = {
        root / "series.csv.manifest.json": cli.cmd_generate(
            EXPERIMENT_CONF, root / "series.csv", None, False
        ),
        root / "prepared" / "manifest.json": cli.cmd_prepare(
            root / "series.csv", EXPERIMENT_CONF, root / "prepared"
        ),
        root / "report.csv.manifest.json": cli.cmd_compare(
            root / "prepared", root / "model.json", EXPERIMENT_CONF, root / "report.csv"
        ),
    }
    return {
        "series": [data, prepared.series, denormalize(prepared.residual_norm, prepared.scale)],
        "report": report,
        "trace": trace,
        "manifests": manifests,
    }


class TestFrozenData:
    @pytest.mark.parametrize("decimals", [3, None])
    def test_series(self, frozen, decimals):
        for s in frozen["series"]:
            assert series_to_csv(s, decimals) == series_to_csv_rowwise(s, decimals)

    def test_report(self, frozen):
        assert report_to_csv(frozen["report"]) == report_to_csv_rowwise(frozen["report"])

    def test_trace(self, frozen):
        assert len(frozen["trace"]) == 2000
        assert trace_to_csv(frozen["trace"]) == trace_to_csv_rowwise(frozen["trace"])

    def test_manifests(self, frozen):
        for path, manifest in frozen["manifests"].items():
            text = path.read_text()
            doc = json.loads(text)
            assert doc == manifest
            assert text == json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


class TestArbitraryValues:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        data=st.data(),
        start=st.integers(-(10**6), 10**6),
        interval=st.integers(1, 30),
        decimals=st.sampled_from([None, 0, 3, 6]),
    )
    def test_series(self, data, start, interval, decimals):
        n = data.draw(st.integers(1, 30))
        s = TimeSeries(start + interval * np.arange(n), data.draw(column(n)), interval)
        assert series_to_csv(s, decimals) == series_to_csv_rowwise(s, decimals)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data(), rms=st.tuples(values, values))
    def test_report(self, data, rms):
        n = data.draw(st.integers(1, 30))
        epochs = data.draw(arrays(np.int64, n, elements=st.integers(0, 10**6)))
        columns = [data.draw(column(n)) for _ in range(5)]
        report = PredictionReport(epochs, *columns, n, *rms)
        assert report_to_csv(report) == report_to_csv_rowwise(report)

    def test_report_with_integer_and_float32_columns(self):
        n = 4
        columns = [np.arange(n), np.arange(n, dtype=np.float32) / 3] + [np.zeros(n)] * 3
        report = PredictionReport(np.arange(n), *columns, n, 0.0, 0.0)
        assert report_to_csv(report) == report_to_csv_rowwise(report)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_trace(self, data):
        n = data.draw(st.integers(1, 30))
        trace = TrainingTrace(data.draw(column(n)), data.draw(column(n)), STOP_MAX_UPDATES, 0)
        assert trace_to_csv(trace) == trace_to_csv_rowwise(trace)
