"""Each demo script runs to completion against the package in src/ and prints
what it printed when its output was recorded in data/demo_digests.json."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from spawn import child_env

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
RECORDED = json.loads((ROOT / "tests" / "data" / "demo_digests.json").read_text())["digests"]


def test_every_demo_is_recorded():
    assert sorted(RECORDED) == [d.name for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    done = subprocess.run(
        [sys.executable, str(demo)], env=child_env(), capture_output=True, timeout=120
    )
    assert done.returncode == 0, done.stderr.decode()
    assert b"Traceback" not in done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == RECORDED[demo.name]
