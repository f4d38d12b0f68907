"""Command-line pipeline: generate, prepare, train, compare.

Each stage reads and writes plain files so the intermediate products (the
detrended residual, the training trace, the comparison report) stay
independently inspectable.  A stage computes all its documents first and
then commits them: it checks every target and its JSON manifest, and
without --force refuses before writing anything if one exists; then it
writes each document atomically, in order, and the manifest recording
exactly what produced them last.  Each stage takes its configuration's path;
an error in its computation reads ``<inputs> with <config>: <reason>``, with
``<config>`` that path or ``the default configuration``.

The argument parser is built once per process and reused by every
:func:`main` call, so a Python driver that runs several stages in one
process pays for it once; ``parse_args`` returns a fresh namespace each
time, so no option carries from one call into the next.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import __version__, config, predictor, series, synthetic, training
from .cnn import init_weights, load_model, model_to_json
from .series import PreparedSeries


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce one command bit-for-bit."""

    command: str
    tool_version: str
    seed: int
    config: dict[str, str]
    inputs: dict[str, str]
    outputs: dict[str, str]
    extra: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return _json_text({f.name: getattr(self, f.name) for f in fields(self)})


def _json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _write_atomic(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _commit(command, seed, cfg, inputs, outputs, extra, manifest_path, force) -> RunManifest:
    """Write a stage's documents in order, then the manifest that records them.

    ``outputs`` maps each manifest name to a ``(path, text)`` pair.  Every
    target is checked before the first write, so a refused stage writes
    nothing.
    """
    targets = [Path(path) for path, _ in outputs.values()] + [Path(manifest_path)]
    if len(set(targets)) < len(targets):
        raise ValueError(f"two outputs of {command} share one path")
    for path in targets:
        if path.exists() and not force:
            raise ValueError(f"refusing to overwrite {path} (pass --force)")
    for path, text in outputs.values():
        _write_atomic(path, text)
    paths = {name: str(path) for name, (path, _) in outputs.items()}
    manifest = RunManifest(command, __version__, seed, cfg, inputs, paths, extra)
    _write_atomic(manifest_path, manifest.to_json())
    return manifest


@contextlib.contextmanager
def _computing(*sources):
    """Compute with overflow left to the finiteness checks; name ``sources`` in a ValueError."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except ValueError as err:
        raise ValueError(f"{' with '.join(map(str, sources))}: {err}") from None


def _load_config(path: str | None) -> tuple[dict[str, str], str]:
    overrides = config.parse_config(path) if path else None
    cfg, name = config.effective_config(overrides), path or "the default configuration"
    with _computing(name):  # every stage reads every value once, so a bad one is refused
        config.synthetic_spec_from(cfg), config.train_config_from(cfg), config.channels_from(cfg)
        config.prepare_options_from(cfg), config.kalman_params_from(cfg)
    return cfg, name


def cmd_generate(config_path, out, seed: int | None, force: bool) -> RunManifest:
    cfg, config_name = _load_config(config_path)
    spec = config.synthetic_spec_from(cfg, seed)
    with _computing(config_name):
        data = synthetic.generate(spec)
    outputs = {"series": (out, series.series_to_csv(data))}
    return _commit(
        "generate", spec.seed, cfg, {}, outputs, {"n": len(data)}, f"{out}.manifest.json", force
    )


def cmd_prepare(
    in_path,
    config_path,
    out_dir,
    in_path_b=None,
    force: bool = False,
) -> RunManifest:
    cfg, config_name = _load_config(config_path)
    data, inputs = series.read_series(in_path), {"series": str(in_path)}
    if in_path_b is not None:
        data_b, inputs["series_b"] = series.read_series(in_path_b), str(in_path_b)
        with _computing(in_path_b):
            data = series.combine_series(data, data_b)
    with _computing(" + ".join(inputs.values()), config_name):
        prepared = series.prepare(data, *config.prepare_options_from(cfg))
    residual = series.denormalize(prepared.residual_norm, prepared.scale)
    trend, parts = prepared.trend, prepared.split
    out_dir = Path(out_dir)
    texts = {
        "series.csv": series.series_to_csv(prepared.series),
        "residual.csv": series.series_to_csv(residual, decimals=None),
        "trend.json": _json_text({"t0": trend.t0, "c0": trend.c0, "c1": trend.c1, "c2": trend.c2}),
        "scale.json": _json_text({"d_max_abs": prepared.scale.d_max_abs}),
        "split.json": _json_text(
            {
                "n": len(prepared.series),
                "train": [parts.train_range.start, parts.train_range.stop],
                "val": [parts.val_range.start, parts.val_range.stop],
                "test": [parts.test_range.start, parts.test_range.stop],
                "fractions": list(parts.fractions),
                "fit_on_full": prepared.fit_on_full,
            }
        ),
    }
    outputs = {name.split(".")[0]: (out_dir / name, text) for name, text in texts.items()}
    seed = config.seed_from(cfg)
    extra = {"split_sizes": list(parts.sizes)}
    return _commit("prepare", seed, cfg, inputs, outputs, extra, out_dir / "manifest.json", force)


def _read_json(path: Path, build):
    """Build a value from the JSON document at ``path``.

    A missing key, a value of the wrong type, an infinite count or a value
    its constructor rejects becomes a ``ValueError`` that names the path.
    """
    try:
        return build(json.loads(path.read_text(encoding="utf-8")))
    except KeyError as err:
        raise ValueError(f"{path}: missing key {err}") from None
    except (TypeError, ValueError, OverflowError) as err:
        raise ValueError(f"{path}: malformed document: {err}") from None


# ``series.csv`` is rewritten at 1 ps (3 decimals of ns) while ``residual.csv``
# keeps the residual of the unrounded input, so the two may differ by up to
# half a picosecond plus round-off.
_RESIDUAL_TOLERANCE_NS = 1e-3


def _split_from_doc(doc) -> tuple[int, series.DataSplit, series.DataSplit, bool]:
    """The document's n, its partition, the partition ``prepare`` makes of n, fit_on_full."""
    n, fractions, fit_on_full = doc["n"], tuple(doc["fractions"]), doc["fit_on_full"]
    if type(n) is not int or type(fit_on_full) is not bool:
        raise TypeError(f"n {n!r} must be an integer and fit_on_full {fit_on_full!r} a boolean")
    parts = series.DataSplit(
        range(*doc["train"]), range(*doc["val"]), range(*doc["test"]), fractions
    )
    return n, parts, series.split(n, *fractions), fit_on_full


def load_prepared(prepared_dir) -> PreparedSeries:
    """Reassemble a :class:`PreparedSeries` from a prepare output directory.

    The interval is the spacing of the epochs in ``series.csv``; the
    manifest is not read.  The documents must agree with one another: the
    split is the partition ``prepare`` makes of the whole series with the
    recorded fractions, the residual has the series' epochs, and the
    residual equals series − trend to within ``_RESIDUAL_TOLERANCE_NS``.

    Raises
    ------
    ValueError
        When a document in the directory is malformed or contradicts the
        others; the message names its path.
    """
    prepared_dir = Path(prepared_dir)
    split_path = prepared_dir / "split.json"
    n, parts, expected, fit_on_full = _read_json(split_path, _split_from_doc)
    trend = _read_json(prepared_dir / "trend.json", lambda doc: series.QuadraticTrend(**doc))
    scale_path = prepared_dir / "scale.json"
    scale = _read_json(scale_path, lambda doc: series.NormalizationScale(doc["d_max_abs"]))
    full = series.read_series(prepared_dir / "series.csv")
    residual_path = prepared_dir / "residual.csv"
    residual = series.read_series(residual_path)
    if n != len(full):
        raise ValueError(f"{split_path}: split n {n} != {len(full)} points in series.csv")
    if parts != expected:
        raise ValueError(f"{split_path}: ranges are not the split of {n} points by the fractions")
    if len(residual) != len(full) or np.any(residual.epochs != full.epochs):
        raise ValueError(f"{residual_path}: epochs differ from those of series.csv")
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, not warned about
        gap = np.abs(residual.values - (full.values - trend(full.epochs)))
        norm = residual.values / scale.d_max_abs
    worst = int(np.argmax(gap))  # the first NaN, if any
    if not gap[worst] <= _RESIDUAL_TOLERANCE_NS:
        raise ValueError(
            f"{residual_path}: residual at MJD {full.epochs[worst]} is "
            f"{gap[worst]:.6g} ns from series - trend (tolerance {_RESIDUAL_TOLERANCE_NS} ns)"
        )
    if not np.isfinite(norm).all():
        raise ValueError(f"{scale_path}: d_max_abs {scale.d_max_abs!r} overflows the residual")
    return PreparedSeries(
        series=full,
        residual_norm=residual.with_values(norm),
        trend=trend,
        scale=scale,
        split=parts,
        fit_on_full=fit_on_full,
    )


def cmd_train(
    prepared_dir, config_path, model_out, trace_out, seed: int | None, force: bool
) -> RunManifest:
    cfg, config_name = _load_config(config_path)
    prepared = load_prepared(prepared_dir)
    train_cfg = config.train_config_from(cfg, seed)
    model0 = init_weights(train_cfg.seed, channels=config.channels_from(cfg))
    with _computing(prepared_dir, config_name):
        train_ds = training.make_windows(prepared.residual_norm, prepared.split.train_range)
        val_ds = training.make_windows(prepared.residual_norm, prepared.split.val_range)
        model, trace = training.train(model0, train_ds, val_ds, train_cfg)
    outputs = {
        "model": (model_out, model_to_json(model)),
        "trace": (trace_out, training.trace_to_csv(trace)),
    }
    extra = {
        "stop_reason": trace.stop_reason,
        "best_update": trace.best_update,
        "updates": len(trace),
        "train_pairs": len(train_ds),
        "val_pairs": len(val_ds),
    }
    inputs = {"prepared": str(prepared_dir)}
    manifest_path = f"{model_out}.manifest.json"
    return _commit("train", train_cfg.seed, cfg, inputs, outputs, extra, manifest_path, force)


def cmd_compare(
    prepared_dir,
    model_path,
    config_path,
    report_out,
    summary_out=None,
    stub_memorize: bool = False,
    force: bool = False,
) -> RunManifest:
    cfg, config_name = _load_config(config_path)
    prepared = load_prepared(prepared_dir)
    model = None if stub_memorize else load_model(model_path)
    with _computing(f"{model_path} on {prepared_dir}", config_name):
        if model is None:
            indices = predictor.eligible_indices(prepared.split.test_range)
            actual = prepared.residual_norm.values[indices]
            report = predictor.score(prepared, actual, actual)
        else:
            report = predictor.compare(model, config.kalman_params_from(cfg), prepared)
    if summary_out is None:
        summary_out = f"{report_out}.summary.json"
    summary = predictor.summary_to_json(report)
    outputs = {
        "report": (report_out, predictor.report_to_csv(report)),
        "summary": (summary_out, summary),
    }
    extra = {**json.loads(summary), "stub_memorize": stub_memorize}
    inputs = {"prepared": str(prepared_dir), "model": str(model_path)}
    seed = config.seed_from(cfg)
    manifest_path = f"{report_out}.manifest.json"
    return _commit("compare", seed, cfg, inputs, outputs, extra, manifest_path, force)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a key=value configuration file")
    common.add_argument(
        "--force", action="store_true", help="allow overwriting existing outputs"
    )
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, help="seed overriding the configuration")
    parser = argparse.ArgumentParser(
        prog="clockpred",
        description="Predict [UTC - hydrogen maser] offsets with a small 1D "
        "convolutional network and a Kalman-filter baseline.",
    )
    parser.add_argument("--version", action="version", version=f"clockpred {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "generate", parents=[common, seeded], help="write a synthetic offset series"
    )
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser(
        "prepare", parents=[common], help="detrend, normalize and split a series"
    )
    p.add_argument("--in", dest="in_path", required=True, help="input series CSV")
    p.add_argument(
        "--in-b",
        dest="in_path_b",
        help="optional second series; the two are summed pointwise first",
    )
    p.add_argument("--out-dir", required=True, help="directory for prepared artifacts")

    p = sub.add_parser(
        "train", parents=[common, seeded], help="train the convolutional predictor"
    )
    p.add_argument("--prepared", required=True, help="prepare output directory")
    p.add_argument("--model-out", required=True, help="trained model JSON path")
    p.add_argument("--trace-out", required=True, help="training trace CSV path")

    p = sub.add_parser(
        "compare", parents=[common], help="score both predictors on the test partition"
    )
    p.add_argument("--prepared", required=True, help="prepare output directory")
    p.add_argument("--model", required=True, help="trained model JSON path")
    p.add_argument("--report-out", required=True, help="per-epoch report CSV path")
    p.add_argument("--summary-out", help="summary JSON path (default: <report>.summary.json)")
    p.add_argument(
        "--stub-memorize",
        action="store_true",
        help="replace both methods with a perfect-memorization stub (harness self-check)",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    config_path = os.environ.get(config.ENV_CONFIG_PATH) if args.config is None else args.config
    try:
        if args.command == "generate":
            cmd_generate(config_path, args.out, args.seed, args.force)
        elif args.command == "prepare":
            cmd_prepare(args.in_path, config_path, args.out_dir, args.in_path_b, args.force)
        elif args.command == "train":
            cmd_train(
                args.prepared, config_path, args.model_out, args.trace_out, args.seed, args.force
            )
        elif args.command == "compare":
            cmd_compare(
                args.prepared, args.model, config_path, args.report_out, args.summary_out,
                args.stub_memorize, args.force,
            )
    except (ValueError, OSError) as err:
        print(f"clockpred: error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
