"""Every function under src/quasischur is reached by the command line or a
demo, or is named in ALLOWLIST with the reason it stays.

The trace runs in one child process, this file run as a script.  The child
imports quasischur before it installs its sys.setprofile hook, so code that
runs at import time, such as a module constant built by a call, is not a use.
It then runs cli.main for every subcommand and flag, on the stored documents
and on malformed input, and runs the five demos.  The trace stays out of
pytest's own process: a profile hook there changes what the cyclic-GC tests
of test_cli.py see.

A function that the trace misses belongs in the tests, or goes; one that the
package keeps for its readers is named in ALLOWLIST.  The test fails on a
function that is neither reached nor allowlisted, and on an allowlist entry
that is reached.
"""

import ast
import contextlib
import io
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

from spawn import SRC, child_env

PACKAGE = SRC / "quasischur"
ROOT = SRC.parent
DOCUMENTS = ROOT / "tests" / "data" / "documents"
DEMOS = sorted((ROOT / "demos").glob("*.py"))

ALLOWLIST = {
    "combinatorics._Parts.__repr__": "shows a composition or partition to a reader at the prompt",
    "polynomial._SparseMap.__repr__": "shows a QT or an Expansion to a reader at the prompt",
    "polynomial.SparsePoly.__repr__": "shows a polynomial with its variable count at the prompt",
    "polynomial.QT.__hash__": "QT defines __eq__, so without it a QT is unhashable; "
                              "test_hashable_exactly_for_qt pins hashing",
    "polynomial.QT.__rsub__": "QT's docstring promises an int operand on either side of -",
    "polynomial.SparsePoly.from_json_dict": "reads back what to_json_dict writes",
}

# an error input for each way a document can be malformed, read from stdin
BAD_DOCUMENTS = [
    '{"vars": 1, "terms": {}}',  # an object where an array belongs
    '{"vars": 1, "terms": [{"exps": {}, "coeff": [[0, 0, 1]]}]}',
    '{"vars": 1, "terms": [{"exps": [1], "coeff": {}}]}',
    '{"vars": true, "terms": []}',
    '{"vars": 1, "terms": [{"exps": [1], "coeff": [[-1, 0, 1]]}]}',
    '{"vars": 1, "terms": [{"exps": [1, 0], "coeff": [[0, 0, 1]]}]}',
    '{"vars": 2, "terms": [{"exps": [1, 0], "coeff": [[0, 0, 1]]}]}',  # not symmetric
    '{"vars": 1, "terms": [{"exps": [2], "coeff": [[0, 0, 1]]}]}',  # too few variables
    '{"vars": 1}',
    "{",
    "[" * 100_000,
]
BAD_EXPANSIONS = [
    '{"basis": "s", "degree": 1, "terms": [{"index": [1], "coeff": [[0, 0, 1]]}]}',
    '{"basis": "X", "degree": 1, "terms": []}',
    '{"basis": "F", "degree": 2, "terms": [{"index": [1], "coeff": [[0, 0, 1]]}]}',
    '{"basis": "F", "degree": 1, "terms": [{"index": {}, "coeff": [[0, 0, 1]]}]}',
]


def runs():
    """(argv, stdin text or None, QUASISCHUR_MAX_N or None) for each command
    line of the trace."""
    for doc in sorted(DOCUMENTS.glob("poly_*.json")):
        yield ["fexpand", str(doc)], None, None
        yield ["fexpand", "--text", "--max-n", "5", str(doc)], None, None
    for doc in sorted(DOCUMENTS.glob("F_*.json")):
        yield ["toschur", str(doc)], None, None
        yield ["toschur", "--text", str(doc)], None, None
        yield ["toschur", "--verify-symmetric", "--max-n", "5", str(doc)], None, None
    for text in BAD_DOCUMENTS:
        yield ["fexpand", "-"], text, None
    for text in BAD_EXPANSIONS:
        yield ["toschur", "--verify-symmetric", "-"], text, None
    yield ["fexpand", str(DOCUMENTS / "missing.json")], None, None
    for argv in [
        ["straighten", "1,3,0"],
        ["straighten", "--json", "0,2,1"],
        ["straighten", "1,-1"],
        ["straighten", "1_0"],
        ["fundamental", "2,1"],
        ["fundamental", "--text", "--vars", "4", "--max-n", "5", "1,2"],
        ["fundamental", "0,1"],
        ["fundamental", "--vars", "1", "2,1"],
        ["fundamental", "--vars", "３", "2,1"],
        ["verify-involution", "2,3,3"],
        ["verify-involution", "--max-n", "4", "2,3"],
        ["hll", "3,2,1"],
        ["hll", "--text", "2,2"],
        ["hll", "--experiment", "3,3,3"],
        ["hll", "1,2"],
        ["positivity", "4"],
        ["positivity", "0"],
        ["positivity", "٣"],
    ]:
        yield argv, None, None
    yield ["verify-involution", "2,1"], None, "abc"


def trace() -> list[tuple[str, int]]:
    """(file name, first line) of the code of every function of the package
    that the command lines and the demos call."""
    import quasischur
    from quasischur import cli

    assert Path(quasischur.__file__).parent == PACKAGE, quasischur.__file__
    reached = set()

    def hook(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        sys.setprofile(hook)
        try:
            for argv, stdin, max_n in runs():
                sys.stdin = io.StringIO(stdin or "")
                os.environ.pop(cli.ENV_MAX_N, None)
                if max_n is not None:
                    os.environ[cli.ENV_MAX_N] = max_n
                try:
                    cli.main(argv)
                except SystemExit:  # argparse's own usage errors
                    pass
            for demo in DEMOS:
                runpy.run_path(str(demo), run_name="__main__")
        finally:
            sys.setprofile(None)
    return sorted(
        (Path(code.co_filename).name, code.co_firstlineno)
        for code in reached
        if Path(code.co_filename).parent == PACKAGE
    )


def functions() -> dict[tuple[str, int], str]:
    """Every def of the package, keyed by (file name, first line of its code)
    and named module.qualname.  A decorated function's code starts at its
    first decorator."""
    out = {}

    def walk(node, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                out[path.name, first] = f"{path.stem}.{prefix}{child.name}"
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, f"{prefix}{child.name}.")
            else:
                walk(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text()), path, "")
    return out


def test_every_function_is_reached_or_allowlisted():
    done = subprocess.run(
        [sys.executable, __file__], env=child_env(), capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    reached = {tuple(key) for key in json.loads(done.stdout)}
    unreached = {name for key, name in functions().items() if key not in reached}
    assert unreached == set(ALLOWLIST), {
        "unreached, not allowlisted": sorted(unreached - set(ALLOWLIST)),
        "allowlisted, but reached": sorted(set(ALLOWLIST) - unreached),
    }


if __name__ == "__main__":
    print(json.dumps(trace()))
