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

Each sub-parser names its stage function, whose parameters are named as the
sub-parser's options, and :func:`main` passes the parsed options to it by name.
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
from pathlib import Path

import numpy as np

from . import __version__, config, predictor, series, synthetic, training
from .cnn import init_weights, load_model, model_to_json
from .series import PreparedSeries, _check_as_written, _json_text, _read_json


def _write_atomic(path, text: str) -> None:
    path = Path(path)
    tmp = os.path.join(path.parent, f".{path.name}.{os.urandom(4).hex()}")
    fh = open(tmp, "x", encoding="utf-8", newline="\n")  # new, ours, its mode from the umask
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _commit(command, seed, cfg, inputs, outputs, extra, manifest_path, force) -> dict:
    """Write a stage's documents in order, then the manifest that records them.

    ``outputs`` maps each manifest name to a ``(path, text)`` pair.  Every
    target is checked before the first write, so a refused stage writes nothing,
    and two targets that are one file once ``..`` and symlinks are resolved are
    refused.  The manifest holds everything needed to reproduce the stage
    bit-for-bit; it is returned as the dict that was written.
    """
    targets = [Path(path) for path, _ in outputs.values()] + [Path(manifest_path)]
    if len(set(map(os.path.realpath, targets))) < len(targets):
        raise ValueError(f"two outputs of {command} share one path")
    for path in targets:
        if path.exists() and not force:
            raise ValueError(f"refusing to overwrite {path} (pass --force)")
    for directory in dict.fromkeys(path.parent for path in targets):
        directory.mkdir(parents=True, exist_ok=True)
    for path, text in outputs.values():
        _write_atomic(path, text)
    paths = {name: str(path) for name, (path, _) in outputs.items()}
    manifest = {
        "command": command, "tool_version": __version__, "seed": seed, "config": cfg,
        "inputs": inputs, "outputs": paths, "extra": extra,
    }
    _write_atomic(manifest_path, _json_text(manifest))
    return manifest


@contextlib.contextmanager
def _computing(*sources):
    """Compute with overflow left to the finiteness checks; name ``sources`` in a ValueError."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except (ValueError, MemoryError) as err:  # an array too large to allocate, say
        raise ValueError(f"{' with '.join(map(str, sources))}: {err}") from None


def _load_config(path: str | None) -> tuple[dict[str, str], str]:
    if path == "":  # an unset shell variable, say: never the defaults in its place
        raise ValueError("the configuration path is empty")
    overrides = None if path is None else config.parse_config(path)
    cfg, name = config.effective_config(overrides), path or "the default configuration"
    with _computing(name):  # every stage reads every value once, so a bad one is refused
        config.synthetic_spec_from(cfg), config.train_config_from(cfg), config.channels_from(cfg)
        config.prepare_options_from(cfg), config.kalman_params_from(cfg)
    return cfg, name


def cmd_generate(config_path, out, seed: int | None, force: bool) -> dict:
    cfg, config_name = _load_config(config_path)
    spec = config.synthetic_spec_from(cfg, seed)
    with _computing(config_name):
        data = synthetic.generate(spec)
    outputs = {"series": (out, series.series_to_csv(data))}
    return _commit(
        "generate", spec.seed, cfg, {}, outputs, {"n": len(data)}, f"{out}.manifest.json", force
    )


def cmd_prepare(in_path, config_path, out_dir, in_path_b=None, force: bool = False) -> dict:
    """Prepare the input series as ``series.csv`` records it, at 1 ps (3 decimals of
    ns), so :func:`load_prepared` can prepare it again; write the prepared directory."""
    cfg, config_name = _load_config(config_path)
    text = Path(in_path).read_text(encoding="utf-8", errors="replace")
    data, inputs = series.parse_series(text, in_path), {"series": str(in_path)}
    if in_path_b is not None:
        data_b, inputs["series_b"] = series.read_series(in_path_b), str(in_path_b)
        with _computing(in_path_b):
            data = series.combine_series(data, data_b)
    out_dir = Path(out_dir)
    csv = series.series_to_csv(data)
    if csv != text:  # rounded to 1 ps, or summed
        data = series.parse_series(csv, out_dir / "series.csv")
    with _computing(" + ".join(inputs.values()), config_name):
        prepared = series.prepare(data, *config.prepare_options_from(cfg))
    residual, texts = _prepared_documents(prepared)
    texts = {"series.csv": csv, "residual.csv": series.series_to_csv(residual, None), **texts}
    outputs = {name.split(".")[0]: (out_dir / name, text) for name, text in texts.items()}
    seed = config.seed_from(cfg)
    extra = {"split_sizes": list(prepared.split.sizes)}
    return _commit("prepare", seed, cfg, inputs, outputs, extra, out_dir / "manifest.json", force)


def _prepared_documents(prepared: PreparedSeries) -> tuple[series.TimeSeries, dict[str, str]]:
    """The residual in ns that ``residual.csv`` holds and each JSON text ``prepare`` writes."""
    parts = prepared.split
    ranges = {"train": parts.train_range, "val": parts.val_range, "test": parts.test_range}
    split = {name: [r.start, r.stop] for name, r in ranges.items()}
    split.update(n=len(prepared.series), fractions=list(parts.fractions))
    return series.denormalize(prepared.residual_norm, prepared.scale), {
        "trend.json": _json_text(vars(prepared.trend)),
        "scale.json": _json_text(vars(prepared.scale)),
        "split.json": _json_text({**split, "fit_on_full": prepared.fit_on_full}),
    }


_AS_PREPARED = "what prepare writes for series.csv"


def _split_options(doc) -> tuple[float, float, bool]:
    """The fractions and ``fit_on_full`` that a ``split.json`` document records."""
    train_frac, val_frac = map(float, doc["fractions"])
    return train_frac, val_frac, bool(doc["fit_on_full"])


def load_prepared(prepared_dir) -> PreparedSeries:
    """Prepare the ``series.csv`` of a prepared directory again, as ``prepare`` did.

    The fractions and ``fit_on_full`` are ``split.json``'s, the interval is the
    spacing of the epochs; the manifest is not read.  ``residual.csv``,
    ``trend.json``, ``scale.json`` and ``split.json`` must be what ``prepare``
    writes for that series, save for layout: ``residual.csv`` is parsed and refused
    naming its first MJD whose value differs, bit for bit; a JSON document whose text
    differs is parsed and refused naming the keys that differ, never their values.

    Raises
    ------
    ValueError
        When a document in the directory is malformed or is not what
        ``prepare`` writes; the message names its path.
    """
    prepared_dir = Path(prepared_dir)
    full = series.read_series(prepared_dir / "series.csv")
    options = _read_json(prepared_dir / "split.json", _split_options)
    with _computing(prepared_dir / "series.csv", prepared_dir / "split.json"):
        prepared = series.prepare(full, *options)
    path = prepared_dir / "residual.csv"
    got = series.read_series(path)
    if not np.array_equal(got.epochs, full.epochs):
        raise ValueError(f"{path}: epochs differ from those of series.csv")
    residual, texts = _prepared_documents(prepared)
    unlike = full.epochs[got.values != residual.values]
    if unlike.size:
        raise ValueError(f"{path}: residual at MJD {unlike[0]} differs from {_AS_PREPARED}")
    for name, want in texts.items():
        path = prepared_dir / name
        if path.read_text(encoding="utf-8", errors="replace") != want:
            _read_json(path, lambda doc: _check_as_written(doc, json.loads(want), _AS_PREPARED))
    return prepared


def cmd_train(prepared, config_path, model_out, trace_out, seed: int | None, force: bool) -> dict:
    cfg, config_name = _load_config(config_path)
    loaded = load_prepared(prepared)
    train_cfg = config.train_config_from(cfg, seed)
    model0 = init_weights(train_cfg.seed, channels=config.channels_from(cfg))
    with _computing(prepared, config_name):
        train_ds = training.make_windows(loaded.residual_norm, loaded.split.train_range)
        val_ds = training.make_windows(loaded.residual_norm, loaded.split.val_range)
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
    inputs = {"prepared": str(prepared)}
    manifest_path = f"{model_out}.manifest.json"
    return _commit("train", train_cfg.seed, cfg, inputs, outputs, extra, manifest_path, force)


def cmd_compare(
    prepared, model, config_path, report_out, summary_out=None,
    stub_memorize: bool = False, force: bool = False,
) -> dict:
    cfg, config_name = _load_config(config_path)
    loaded = load_prepared(prepared)
    cnn = None if stub_memorize else load_model(model)
    with _computing(f"{model} on {prepared}", config_name):
        if cnn is None:
            indices = predictor.eligible_indices(loaded.split.test_range)
            actual = loaded.residual_norm.values[indices]
            report = predictor.score(loaded, actual, actual)
        else:
            report = predictor.compare(cnn, config.kalman_params_from(cfg), loaded)
    if summary_out is None:
        summary_out = f"{report_out}.summary.json"
    summary = predictor.summary_to_json(report)
    outputs = {
        "report": (report_out, predictor.report_to_csv(report)),
        "summary": (summary_out, summary),
    }
    extra = {**json.loads(summary), "stub_memorize": stub_memorize}
    inputs = {"prepared": str(prepared), "model": str(model)}
    seed = config.seed_from(cfg)
    manifest_path = f"{report_out}.manifest.json"
    return _commit("compare", seed, cfg, inputs, outputs, extra, manifest_path, force)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--config", dest="config_path", metavar="CONFIG",
        help="path to a key=value configuration file",
    )
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
    p.set_defaults(stage=cmd_generate)
    p.add_argument("--out", required=True, help="output CSV path")

    p = sub.add_parser(
        "prepare", parents=[common], help="detrend, normalize and split a series"
    )
    p.set_defaults(stage=cmd_prepare)
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
    p.set_defaults(stage=cmd_train)
    p.add_argument("--prepared", required=True, help="prepare output directory")
    p.add_argument("--model-out", required=True, help="trained model JSON path")
    p.add_argument("--trace-out", required=True, help="training trace CSV path")

    p = sub.add_parser(
        "compare", parents=[common], help="score both predictors on the test partition"
    )
    p.set_defaults(stage=cmd_compare)
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
    options = vars(_build_parser().parse_args(argv))
    stage = options.pop("stage")
    del options["command"]
    if options["config_path"] is None:
        options["config_path"] = os.environ.get(config.ENV_CONFIG_PATH)
    try:
        stage(**options)
    except (ValueError, OSError) as err:
        print(f"clockpred: error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
