"""The four benchmark workloads and what each of them sets up.

Every workload is one closed-loop client: the next operation starts when
the previous one has returned.  Operations run in this process and last
a few to a few tens of milliseconds (README.md says why).  An operation
returns its own wall time, so output checks and clean-up stay outside the
timed part, plus the work it completed and a failure message (``None``
when its outputs are correct).  The wall time is one number, or a dict of
phase times when the operation runs in timed phases.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import clockpred as cp
from clockpred import cli, config, predictor

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CONFIG = ROOT / "configs" / "experiment.conf"
NOTEBOOK = ROOT / "notebooks" / "05_kalman_calibration.py"
WORK_DIR = BENCH_DIR / ".work"
CHILD_TIMEOUT_S = 120
REL_TOL = 1e-9


def load_reference() -> dict:
    return json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))


def child_env() -> dict:
    """The benchmark's environment (BLAS threads pinned) with ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv, cwd) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *argv],
        cwd=cwd,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=False,
    )


def child_error(proc: subprocess.CompletedProcess, what: str) -> str | None:
    if proc.returncode == 0:
        return None
    tail = (proc.stderr.strip().splitlines() or ["(no stderr)"])[-1]
    return f"{what} exited {proc.returncode}: {tail}"


def scores_error(report, expected: dict) -> str | None:
    got = {"cnn_e_rms_ns": report.cnn_e_rms_ns, "kf_e_rms_ns": report.kf_e_rms_ns}
    if report.n_pred != expected["n_pred"] or not all(
        math.isclose(got[key], expected[key], rel_tol=REL_TOL) for key in got
    ):
        return f"in-process scores n_pred={report.n_pred} {got} differ from {expected}"
    return None


@dataclasses.dataclass(frozen=True)
class Fixture:
    """The frozen experiment in process: config, prepared series, windows, C=1 CNN."""

    cfg: dict
    prepared: object
    train_ds: object
    val_ds: object
    model: object


def build_fixture() -> Fixture:
    cfg = config.effective_config(config.parse_config(CONFIG))
    series = cp.generate(config.synthetic_spec_from(cfg))
    prepared = cp.prepare(series, *config.prepare_options_from(cfg))
    train_ds = cp.make_windows(prepared.residual_norm, prepared.split.train_range)
    val_ds = cp.make_windows(prepared.residual_norm, prepared.split.val_range)
    train_cfg = config.train_config_from(cfg)
    model0 = cp.init_weights(train_cfg.seed, channels=config.channels_from(cfg))
    model, _ = cp.train(model0, train_ds, val_ds, train_cfg)
    return Fixture(cfg, prepared, train_ds, val_ds, model)


class Workload:
    """Set-up builds the fixture; ``checks`` run once per invocation, untimed."""

    name = ""

    def __init__(self, seed: int, small: bool, workdir: Path, reference: dict):
        self.seed = seed
        self.small = small
        self.workdir = workdir
        self.reference = reference
        self.fixture: Fixture | None = None

    def setup(self) -> None:
        self.fixture = build_fixture()

    def checks(self) -> dict[str, str | None]:
        fx = self.fixture
        report = cp.compare(fx.model, cp.KalmanParams(), fx.prepared)
        return {"fixture scores": scores_error(report, self.reference["in_process"])}

    def op(self, tracer) -> tuple[float, int, str | None]:
        raise NotImplementedError

    def extra_layer_metrics(self) -> dict:
        """Per-layer metrics measured outside the traced operations."""
        return {}


class FrozenCli(Workload):
    """The README's CLI run on configs/experiment.conf, through ``cli.main(argv)``.

    Set-up runs generate, prepare and train.  Each operation runs generate,
    prepare and compare in a fresh directory, against the trained model,
    and times each stage as a phase of its own.
    """

    name = "frozen-cli"
    TIMED_STAGES = ("generate", "prepare", "compare")

    def __init__(self, *args):
        super().__init__(*args)
        self.trained_dir: Path | None = None
        self.train_stage_s: list[float] = []

    @staticmethod
    def stage_argv(stage: str) -> list[str]:
        args = {
            "generate": ["--out", "series.csv"],
            "prepare": ["--in", "series.csv", "--out-dir", "prepared"],
            "train": [
                "--prepared", "prepared", "--model-out", "model.json", "--trace-out", "trace.csv",
            ],
            "compare": [
                "--prepared", "prepared", "--model", "model.json",
                "--report-out", "report.csv", "--summary-out", "summary.json",
            ],
        }[stage]
        return [stage, "--config", str(CONFIG), *args]

    @staticmethod
    def run_stage(argv, cwd: Path) -> str | None:
        previous = os.getcwd()
        os.chdir(cwd)
        try:
            rc = cli.main(argv)
        finally:
            os.chdir(previous)
        return None if rc == 0 else f"{argv[0]} returned {rc}"

    def setup(self):
        if self.trained_dir is not None:
            shutil.rmtree(self.trained_dir)
        self.trained_dir = Path(tempfile.mkdtemp(dir=self.workdir))
        for stage in ("generate", "prepare", "train"):
            start = time.perf_counter()
            err = self.run_stage(self.stage_argv(stage), self.trained_dir)
            if err:
                raise RuntimeError(f"set-up: {err}")
            if stage == "train":
                self.train_stage_s.append(time.perf_counter() - start)

    @contextlib.contextmanager
    def fresh_dir(self):
        path = Path(tempfile.mkdtemp(dir=self.workdir))
        try:
            yield path
        finally:
            shutil.rmtree(path)

    def checks(self) -> dict[str, str | None]:
        found = {"set-up artifacts": self._digests_error(self.trained_dir)}
        stub = [
            "compare", "--config", str(CONFIG), "--prepared", "prepared", "--model", "model.json",
            "--report-out", "stub.csv", "--summary-out", "stub.json", "--stub-memorize",
        ]
        with self.fresh_dir() as d:
            for argv in (self.stage_argv("generate"), self.stage_argv("prepare"), stub):
                err = child_error(run_child(["-m", "clockpred.cli", *argv], d), argv[0])
                if err:
                    break
            else:
                summary = json.loads((d / "stub.json").read_text(encoding="utf-8"))
                if summary != {"n_pred": 100, "cnn_e_rms_ns": 0.0, "kf_e_rms_ns": 0.0}:
                    err = f"stub scores {summary} are not exactly 0/0"
        found["compare --stub-memorize, as processes"] = err
        return found

    def op(self, tracer):
        with self.fresh_dir() as d:
            shutil.copy(self.trained_dir / "model.json", d / "model.json")
            elapsed = {}
            for stage in self.TIMED_STAGES:
                span = tracer.span(f"cli.{stage}") if tracer else contextlib.nullcontext()
                start = time.perf_counter()
                with span:
                    err = self.run_stage(self.stage_argv(stage), d)
                elapsed[stage] = time.perf_counter() - start
                if err:
                    return elapsed, 1, err
            return elapsed, 1, self._digests_error(d) or self._summary_error(d)

    def _digests_error(self, d: Path) -> str | None:
        """Every file under ``d`` must have its recorded sha256."""
        expected = self.reference["frozen_cli"]["sha256"]
        wrong = []
        for path in sorted(d.rglob("*")):
            name = path.relative_to(d).as_posix()
            if path.is_file() and hashlib.sha256(path.read_bytes()).hexdigest() != expected.get(name):
                wrong.append(name)
        return f"artifacts differ from the reference: {', '.join(wrong)}" if wrong else None

    def _summary_error(self, d: Path) -> str | None:
        expected = self.reference["frozen_cli"]["summary_rounded"]
        summary = json.loads((d / "summary.json").read_text(encoding="utf-8"))
        rounded = {k: round(v, 2) if isinstance(v, float) else v for k, v in summary.items()}
        return None if rounded == expected else f"summary {summary} does not round to {expected}"

    def extra_layer_metrics(self) -> dict:
        return {"cli.train_s": (float(np.median(self.train_stage_s)), "s")}


class KfCalibrate(Workload):
    """The grid search of notebooks/05_kalman_calibration.py, one grid point per operation.

    The grid and the calls are the script's.  The script itself runs once
    per invocation, as a process, and its printed winner is checked.
    """

    name = "kf-calibrate"
    GRID_Q = [0.0] + [10.0**e for e in range(-7, 0)]
    GRID_R = [10.0**e for e in range(-6, 0)]
    WINNER = re.compile(r"frozen winner: q1=([^,\s]+), q2=([^,\s]+), r=([^,\s]+)")

    def setup(self):
        super().setup()
        prepared = self.fixture.prepared
        self.grid = [
            cp.KalmanParams(q1=q1, q2=q2, r=r)
            for q1 in self.GRID_Q
            for q2 in self.GRID_Q
            for r in self.GRID_R
        ]
        indices = predictor.eligible_indices(prepared.split.val_range)
        self.actual = prepared.residual_norm.values[indices]
        self.rmse: list[float | None] = [None] * len(self.grid)
        self.count = 0

    def checks(self):
        found = super().checks()
        proc = run_child([str(NOTEBOOK)], ROOT)
        match = self.WINNER.search(proc.stdout)
        winner = [float(v) for v in match.groups()] if match else None
        found["calibration script"] = child_error(proc, NOTEBOOK.name) or self._winner_error(
            winner
        )
        return found

    def _winner_error(self, winner) -> str | None:
        expected = self.reference["kf_calibrate"]["winner"]
        if winner is None or not all(
            math.isclose(g, e, rel_tol=REL_TOL) for g, e in zip(winner, expected)
        ):
            return f"winner (q1, q2, r) = {winner}, expected {expected}"
        return None

    def op(self, tracer):
        k = self.count % len(self.grid)
        self.count += 1
        prepared = self.fixture.prepared
        start = time.perf_counter()
        fn = predictor.kalman_window_predictor(self.grid[k], prepared.series.interval)
        preds = predictor.rolling_predict(fn, prepared.residual_norm, prepared.split.val_range)
        rmse = cp.rmse_loss(preds, self.actual)
        elapsed = time.perf_counter() - start
        if not math.isfinite(rmse):
            return elapsed, preds.size, f"grid point {k}: RMSE {rmse}"
        if self.rmse[k] is None:
            self.rmse[k] = rmse
        elif self.rmse[k] != rmse:
            return elapsed, preds.size, f"grid point {k}: RMSE {rmse}, earlier {self.rmse[k]}"
        if k == len(self.grid) - 1:
            # A full sweep is done: its winner, ties broken as the script's sort does.
            _, q1, q2, r = min((e, p.q1, p.q2, p.r) for e, p in zip(self.rmse, self.grid))
            return elapsed, preds.size, self._winner_error([q1, q2, r])
        return elapsed, preds.size, None


class WideTrain(Workload):
    """Short ``cp.train`` calls at 8 channels, each with the same fixed update budget."""

    name = "wide-train"
    CHANNELS = 8
    BUDGET = 2
    SMALL_BUDGET = 1

    def setup(self):
        super().setup()
        budget = self.SMALL_BUDGET if self.small else self.BUDGET
        self.train_cfg = dataclasses.replace(
            config.train_config_from(self.fixture.cfg, self.seed),
            max_updates=budget,
            patience=budget,
        )
        self.first_trace = None

    def op(self, tracer):
        fx = self.fixture
        start = time.perf_counter()
        model0 = cp.init_weights(self.seed, channels=self.CHANNELS)
        _, trace = cp.train(model0, fx.train_ds, fx.val_ds, self.train_cfg)
        elapsed = time.perf_counter() - start
        curves = np.concatenate([trace.train_rmse, trace.val_rmse])
        budget = self.train_cfg.max_updates
        if len(trace) != budget:
            return elapsed, len(trace), f"trace has {len(trace)} updates, budget {budget}"
        if not np.all(np.isfinite(curves)):
            return elapsed, len(trace), "non-finite RMSE in the training trace"
        if self.first_trace is None:
            self.first_trace = curves
        elif not np.array_equal(curves, self.first_trace):
            return elapsed, len(trace), "training trace differs from the first call's"
        return elapsed, len(trace), None


class RollingEval(Workload):
    """``cp.compare`` with the frozen C=1 CNN over many noise realizations."""

    name = "rolling-eval"
    REALIZATIONS = 32
    SMALL_REALIZATIONS = 4

    def setup(self):
        super().setup()
        fx = self.fixture
        count = self.SMALL_REALIZATIONS if self.small else self.REALIZATIONS
        seeds = np.random.default_rng(self.seed).integers(0, 2**31, size=count - 1)
        options = config.prepare_options_from(fx.cfg)
        # Realization 0 is the default-seed series, checked against the reference.
        self.realizations = [fx.prepared] + [
            cp.prepare(cp.generate(config.synthetic_spec_from(fx.cfg, int(s))), *options)
            for s in seeds
        ]
        self.scores: dict[int, tuple[float, float]] = {}
        self.count = 0

    def op(self, tracer):
        k = self.count % len(self.realizations)
        self.count += 1
        start = time.perf_counter()
        report = cp.compare(self.fixture.model, cp.KalmanParams(), self.realizations[k])
        elapsed = time.perf_counter() - start
        scores = (report.cnn_e_rms_ns, report.kf_e_rms_ns)
        if k == 0:
            err = scores_error(report, self.reference["in_process"])
        elif report.n_pred != 100 or not all(map(math.isfinite, scores)):
            err = f"realization {k}: n_pred={report.n_pred}, scores {scores}"
        else:
            err = None
        if err is None and self.scores.setdefault(k, scores) != scores:
            err = f"realization {k}: scores {scores} differ from an earlier {self.scores[k]}"
        return elapsed, report.n_pred, err


WORKLOADS = {cls.name: cls for cls in (FrozenCli, WideTrain, KfCalibrate, RollingEval)}
