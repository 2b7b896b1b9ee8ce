"""Each committed mutant (mutants.py) is caught by the tests it lists.

A mutant is applied to a copy of src/, tests/ and pyproject.toml, so that
pytest's `pythonpath` and tests/spawn.py both resolve to the copy, and the
listed tests run there in a child pytest, in the slow tier.  Tier-1 checks
only that each mutant's old text occurs once in the checkout, so that an
edit which outgrows an entry fails at once.
"""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from mutants import MUTANTS
from spawn import SRC, child_env

ROOT = SRC.parent


def copy_checkout(dest: Path) -> None:
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_text_occurs_once(mutant):
    source = (ROOT / mutant.file).read_text()
    assert source.count(mutant.old) == 1, f"{mutant.name}: old text must occur once"


@pytest.mark.slow
@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_is_caught(mutant, tmp_path):
    copy_checkout(tmp_path)
    target = tmp_path / mutant.file
    source = target.read_text()
    assert source.count(mutant.old) == 1, f"{mutant.name}: old text must occur once"
    target.write_text(source.replace(mutant.old, mutant.new))

    copy_src = tmp_path / "src"
    env = dict(child_env(copy_src), PYTHONDONTWRITEBYTECODE="1")
    imported = subprocess.run(
        [sys.executable, "-c", "import quasischur; print(quasischur.__file__)"],
        cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
    )
    assert Path(imported.stdout.strip()).resolve().parent == (copy_src / "quasischur").resolve()

    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rf", *mutant.test_ids],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode != 0, run.stdout[-2000:]
    # every listed test fails, rather than erring at collection or being
    # deselected
    failed = set(re.findall(r"^FAILED (\S+)", run.stdout, flags=re.MULTILINE))
    assert set(mutant.test_ids) <= failed, run.stdout[-2000:]
