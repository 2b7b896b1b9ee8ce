"""Each committed mutant (mutants.py) is caught by the tests it lists.

A mutant is applied to a copy of src/, tests/ and pyproject.toml, so that
pytest's `pythonpath` and tests/spawn.py both resolve to the copy, and the
listed tests run there in a child pytest, in the slow tier.  Tier-1 checks
that each mutant's old text occurs once in the checkout, and that each
listed test is one the session collected, so that an edit which outgrows
an entry, or renames or deletes a listed test, fails at once.
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


def test_listed_tests_are_collected(request):
    # read off this session's own collection, so no child process.  Only the
    # files that the session collected whole are judged: none under -k, and
    # none that an argument names by a node id
    config = request.config
    if config.option.keyword:
        pytest.skip("-k selects part of each file")
    named = {Path(arg.split("::")[0]).resolve() for arg in config.args if "::" in arg}
    items = request.session.items
    collected = {item.nodeid for item in items}
    files = {item.path for item in items} - named
    stale = [
        (mutant.name, test_id)
        for mutant in MUTANTS
        for test_id in mutant.test_ids
        if config.rootpath / test_id.split("::")[0] in files and test_id not in collected
    ]
    assert not stale


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
