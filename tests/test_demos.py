"""Every demo script runs to completion and writes nothing to stderr, so
the public API they exercise keeps working."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # Under `python -O` the demos run optimized too, where the
    # certificates must still hold.
    proc = subprocess.run(
        [sys.executable, *["-O"] * sys.flags.optimize, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
