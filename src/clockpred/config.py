"""Flat key=value configuration shared by every pipeline stage.

One file configures the synthetic generator (gen_*), preprocessing
(train_frac, val_frac, fit_on_full), training (train_*, cnn_channels) and
the Kalman baseline (kf_*).  Every key is optional; omitted keys fall back
to the frozen defaults of the bundled experiment, which are the library's
own: key ``gen_<field>`` is ``SyntheticClockSpec.<field>``, ``train_<field>``
is ``TrainConfig.<field>`` and ``kf_<field>`` is ``KalmanParams.<field>``,
except the ``seed`` fields, which all take the shared ``seed`` key.  A value
is parsed as the type of its default.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path
from typing import Mapping

from .cnn import DEFAULT_CHANNELS
from .kalman import KalmanParams
from .series import (
    DEFAULT_FIT_ON_FULL, DEFAULT_TRAIN_FRAC, DEFAULT_VAL_FRAC, _brief, _whole, check_fractions
)
from .synthetic import DEFAULT_SEED, SyntheticClockSpec
from .training import TrainConfig

ENV_CONFIG_PATH = "CLOCKPRED_CONFIG"
# 1024 channels already make 6.3 M parameters; a wider net outgrows memory before it trains.
MAX_CHANNELS = 1024

_SECTIONS = {SyntheticClockSpec: "gen_", TrainConfig: "train_", KalmanParams: "kf_"}

_TYPED_DEFAULTS: dict[str, object] = {
    "seed": DEFAULT_SEED,
    "train_frac": DEFAULT_TRAIN_FRAC,
    "val_frac": DEFAULT_VAL_FRAC,
    "fit_on_full": DEFAULT_FIT_ON_FULL,
    "cnn_channels": DEFAULT_CHANNELS,
    **{
        prefix + f.name: f.default
        for cls, prefix in _SECTIONS.items()
        for f in fields(cls)
        if f.name != "seed"
    },
}

DEFAULTS: dict[str, str] = {
    key: str(value).lower() if isinstance(value, bool) else repr(value)
    for key, value in _TYPED_DEFAULTS.items()
}

_BOOLEANS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}
_PARSERS = {
    bool: (lambda text: _BOOLEANS[text.lower()], "a boolean"),
    int: (int, "an integer"),
    float: (float, "a number"),
}


def parse_config(path) -> dict[str, str]:
    """Read ``key = value`` lines; '#' starts a comment, blanks are skipped.

    Raises
    ------
    ValueError
        On malformed lines, unknown keys or a key set twice, with the line number.
    """
    entries: dict[str, str] = {}
    lines: dict[str, int] = {}
    text = Path(path).read_text(encoding="utf-8", errors="replace")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value', got {_brief.repr(raw)}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in DEFAULTS:
            raise ValueError(f"{path}:{lineno}: unknown configuration key {_brief.repr(key)}")
        if key in lines:
            raise ValueError(
                f"{path}:{lineno}: duplicate key {key!r} (first set on line {lines[key]})"
            )
        if not value:
            raise ValueError(f"{path}:{lineno}: empty value for {key!r}")
        entries[key], lines[key] = value, lineno
    return entries


def effective_config(overrides: Mapping[str, str] | None = None) -> dict[str, str]:
    """Defaults merged with the given overrides."""
    merged = dict(DEFAULTS)
    if overrides:
        merged.update(overrides)
    return merged


def _value(cfg: Mapping[str, str], key: str):
    """``cfg[key]`` parsed as the type of the key's default.  As in a series row, the
    digit-group underscores and non-ASCII digits that ``int`` and ``float`` take are refused."""
    parse, noun = _PARSERS[type(_TYPED_DEFAULTS[key])]
    text = cfg[key]
    try:
        if text.isascii() and "_" not in text:
            return parse(text)
    except (KeyError, ValueError):
        pass
    raise ValueError(f"configuration key {key!r}: {_brief.repr(text)} is not {noun}")


def _section(cls, cfg: Mapping[str, str], **given):
    """An instance of a ``_SECTIONS`` dataclass from its keys; ``given`` fields are not read."""
    prefix = _SECTIONS[cls]
    read = {f.name: _value(cfg, prefix + f.name) for f in fields(cls) if f.name not in given}
    return cls(**read, **given)


def seed_from(cfg: Mapping[str, str], override: int | None = None) -> int:
    return _whole("seed", _value(cfg, "seed") if override is None else override, 0)


def synthetic_spec_from(cfg: Mapping[str, str], seed: int | None = None) -> SyntheticClockSpec:
    return _section(SyntheticClockSpec, cfg, seed=seed_from(cfg, seed))


def train_config_from(cfg: Mapping[str, str], seed: int | None = None) -> TrainConfig:
    return _section(TrainConfig, cfg, seed=seed_from(cfg, seed))


def kalman_params_from(cfg: Mapping[str, str]) -> KalmanParams:
    return _section(KalmanParams, cfg)


def prepare_options_from(cfg: Mapping[str, str]) -> tuple[float, float, bool]:
    train_frac, val_frac = _value(cfg, "train_frac"), _value(cfg, "val_frac")
    check_fractions(train_frac, val_frac)
    return train_frac, val_frac, _value(cfg, "fit_on_full")


def channels_from(cfg: Mapping[str, str]) -> int:
    channels = _value(cfg, "cnn_channels")
    if not 1 <= channels <= MAX_CHANNELS:
        raise ValueError(
            f"configuration key 'cnn_channels': must be at least 1 and at most {MAX_CHANNELS}, "
            f"got {_brief.repr(channels)}"
        )
    return channels
