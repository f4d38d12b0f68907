"""Smoke tests: the narrative scripts under notebooks/ still run against the library."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import clockpred

ROOT = Path(__file__).resolve().parent.parent
NOTEBOOKS = sorted(path.name for path in (ROOT / "notebooks").glob("*.py"))


@functools.cache
def run_notebook(name):
    """Run one script as its own process with ``src`` importable; cached per name."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "notebooks" / name)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("name", NOTEBOOKS)
def test_notebook_runs(name):
    proc = run_notebook(name)
    assert proc.returncode == 0, proc.stderr


def test_calibration_notebook_recovers_frozen_defaults():
    proc = run_notebook("05_kalman_calibration.py")
    assert "frozen winner: q1=0.1, q2=0.0001, r=1e-06" in proc.stdout


def test_every_export_resolves():
    assert [name for name in clockpred.__all__ if not hasattr(clockpred, name)] == []
