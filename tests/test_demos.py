"""Each demo script runs to completion against the package in src/."""

import subprocess
import sys
from pathlib import Path

import pytest

from spawn import child_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    done = subprocess.run(
        [sys.executable, str(demo)], env=child_env(), capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert "Traceback" not in done.stderr
