import argparse
import contextlib
import gc
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from quasischur import cli
from quasischur.cli import build_parser, main
from quasischur.schur import schur_ssyt

from spawn import SRC, child_env


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def closed_pipe(result, text: bool) -> None:
    raise BrokenPipeError


def set_gc(enabled: bool) -> None:
    if enabled:
        gc.enable()
    else:
        gc.disable()


# each case replaces a 1 in an integer field of a valid document by a value of
# another JSON type that int() would read as 1
POLY_X1 = {"vars": 1, "terms": [{"exps": [1], "coeff": [[0, 0, 1]]}]}
EXPANSION_F1 = {"basis": "F", "degree": 1, "terms": [{"index": [1], "coeff": [[0, 0, 1]]}]}
NON_INTEGERS = [True, 1.5, "1"]
NON_ARRAYS = [{}, ""]


def non_integer_documents(doc, paths, values=NON_INTEGERS):
    cases = []
    for path in paths:
        field = next(key for key in reversed(path) if isinstance(key, str))
        for value in values:
            spoiled = json.loads(json.dumps(doc))
            target = spoiled
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
            cases.append(pytest.param(json.dumps(spoiled), id=f"{field}={value!r}"))
    return cases


class TestStraighten:
    def test_zero(self, capsys):
        code, out, _ = run_cli(capsys, "straighten", "1,2")
        assert (code, out.strip()) == (0, "0")

    def test_negative(self, capsys):
        code, out, _ = run_cli(capsys, "straighten", "1,3")
        assert (code, out.strip()) == (0, "-s[2,2]")

    def test_partition(self, capsys):
        code, out, _ = run_cli(capsys, "straighten", "3,1")
        assert (code, out.strip()) == (0, "+s[3,1]")

    def test_json_flag(self, capsys):
        code, out, _ = run_cli(capsys, "straighten", "--json", "1,3")
        assert code == 0
        assert json.loads(out) == {"sign": -1, "shape": [2, 2]}

    def test_bad_input(self, capsys):
        code, _, err = run_cli(capsys, "straighten", "1,x")
        assert code == 2
        assert "error" in err


class TestFundamental:
    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "fundamental", "2,1", "--vars", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc == {"vars": 2, "terms": [{"exps": [2, 1], "coeff": [[0, 0, 1]]}]}

    def test_zero_vars_is_honoured(self, capsys):
        code, out, _ = run_cli(capsys, "fundamental", "2,1", "--vars", "0")
        assert code == 0
        assert json.loads(out) == {"vars": 0, "terms": []}

    def test_negative_vars_rejected(self, capsys):
        code, out, err = run_cli(capsys, "fundamental", "2,1", "--vars", "-1")
        assert (code, out, err) == (2, "", "error: variable count must be non-negative\n")


class TestFexpand:
    def test_round_trip(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "fundamental", "2,1", "--vars", "3")
        poly_doc = tmp_path / "poly.json"
        poly_doc.write_text(out)
        code, out, _ = run_cli(capsys, "fexpand", str(poly_doc))
        assert code == 0
        doc = json.loads(out)
        assert doc["basis"] == "F"
        assert doc["terms"] == [{"index": [2, 1], "coeff": [[0, 0, 1]]}]

    @pytest.mark.parametrize(
        "text",
        [pytest.param("{nope", id="not-json")]
        + non_integer_documents(
            POLY_X1, [("vars",), ("terms", 0, "exps", 0), ("terms", 0, "coeff", 0, 2)]
        )
        + non_integer_documents(POLY_X1, [("terms",), ("terms", 0, "coeff")], NON_ARRAYS),
    )
    def test_malformed_json(self, capsys, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, out, err = run_cli(capsys, "fexpand", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith("error:")


    @pytest.mark.parametrize("nvars", [0, 1, 3])
    def test_constant_is_degree_zero(self, capsys, monkeypatch, nvars):
        # F_() = 1 = s_(): a constant c is c*F[] and then c*s[]
        doc = {"vars": nvars, "terms": [
            {"exps": [0] * nvars, "coeff": [[0, 0, 2], [1, 2, -3]]},
            {"exps": [0] * nvars, "coeff": [[0, 0, -1]]},
        ]}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, out, _ = run_cli(capsys, "fexpand", "-")
        coeff = [[0, 0, 1], [1, 2, -3]]
        assert (code, json.loads(out)) == (
            0, {"basis": "F", "degree": 0, "terms": [{"index": [], "coeff": coeff}]})
        for flags in ([], ["--verify-symmetric"]):
            monkeypatch.setattr(sys, "stdin", io.StringIO(out))
            code, s_out, _ = run_cli(capsys, "toschur", *flags, "-")
            assert (code, json.loads(s_out)) == (
                0, {"basis": "s", "degree": 0, "terms": [{"index": [], "coeff": coeff}]})
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, out, _ = run_cli(capsys, "fexpand", "--text", "-")
        assert (code, out) == (0, "(1 + -3*q*t^2)*F[]\n")

    @pytest.mark.parametrize(
        "terms",
        [
            pytest.param([], id="no-terms"),
            pytest.param(
                [{"exps": e, "coeff": [[0, 0, c]]} for c in (1, -1) for e in ([1, 0], [0, 1])],
                id="terms-cancel",
            ),
        ],
    )
    def test_zero_polynomial_is_degree_zero(self, capsys, monkeypatch, terms):
        # the zero polynomial is within any size bound, even --max-n 0
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({"vars": 2, "terms": terms})))
        code, out, err = run_cli(capsys, "fexpand", "--max-n", "0", "-")
        assert (code, out, err) == (0, '{"basis":"F","degree":0,"terms":[]}\n', "")

    @pytest.mark.parametrize("spoiled", ["[[0,0,true]]", "[[0,0,1.0]]", "[[0.0,0,1]]"])
    def test_array_equal_to_a_read_one_is_still_checked(self, capsys, monkeypatch, spoiled):
        # each of these equals [[0,0,1]] in Python but not in JSON, so a
        # reader that reused the map of an equal array would let it through
        text = ('{"vars":2,"terms":[{"exps":[1,0],"coeff":[[0,0,1]]},'
                f'{{"exps":[0,1],"coeff":{spoiled}}}]}}')
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code, out, err = run_cli(capsys, "fexpand", "-")
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read polynomial document: expected an integer")

    @pytest.mark.parametrize(
        "terms, nvars, message",
        [
            ([[2, 0]], 2, "polynomial is not quasisymmetric"),
            ([[1, 0], [0, 1], [2, 0], [0, 2]], 2, "polynomial is not homogeneous"),
            ([[2]], 1, "need at least 2 variables to separate degree-2 fundamentals"),
        ],
        ids=["not-quasisymmetric", "not-homogeneous", "too-few-variables"],
    )
    def test_polynomial_without_an_f_expansion_refused(
        self, capsys, monkeypatch, terms, nvars, message
    ):
        doc = {"vars": nvars, "terms": [{"exps": e, "coeff": [[0, 0, 1]]} for e in terms]}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, out, err = run_cli(capsys, "fexpand", "-")
        assert (code, out, err.splitlines()) == (2, "", [f"error: {message}"])

    @pytest.mark.parametrize("exps, kind", [({"0": 1}, "dict"), ("12", "str")])
    def test_exponents_not_an_array(self, capsys, monkeypatch, exps, kind):
        doc = {"vars": 1, "terms": [{"exps": exps, "coeff": [[0, 0, 1]]}]}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, out, err = run_cli(capsys, "fexpand", "-")
        assert (code, out, err.splitlines()) == (
            2, "", [f"error: cannot read polynomial document: expected an array, got {kind}"])

    @pytest.mark.parametrize("exps", [[-1, 1], [1, -1], [-1, 0]])
    def test_negative_exponent_rejected(self, capsys, monkeypatch, exps):
        doc = {"vars": 2, "terms": [{"exps": exps, "coeff": [[0, 0, 1]]}]}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, out, err = run_cli(capsys, "fexpand", "-")
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        assert "negative exponent" in err


class TestToSchur:
    SCHUR21 = {
        "basis": "F",
        "degree": 3,
        "terms": [
            {"index": [2, 1], "coeff": [[0, 0, 1]]},
            {"index": [1, 2], "coeff": [[0, 0, 1]]},
        ],
    }

    def test_conversion(self, capsys, tmp_path):
        doc = tmp_path / "in.json"
        doc.write_text(json.dumps(self.SCHUR21))
        code, out, _ = run_cli(capsys, "toschur", str(doc))
        assert code == 0
        result = json.loads(out)
        assert result["basis"] == "s"
        assert result["terms"] == [{"index": [2, 1], "coeff": [[0, 0, 1]]}]

    @pytest.mark.parametrize("basis", ["M", "s"])
    def test_other_bases_refused(self, capsys, monkeypatch, basis):
        doc = {"basis": basis, "degree": 1, "terms": [{"index": [1], "coeff": [[0, 0, 1]]}]}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, out, err = run_cli(capsys, "toschur", "-")
        message = f"error: expected an F-basis expansion, got basis {basis!r}"
        assert (code, out, err.splitlines()) == (2, "", [message])

    def test_single_h(self, capsys, tmp_path):
        doc = tmp_path / "in.json"
        doc.write_text(
            json.dumps(
                {
                    "basis": "F",
                    "degree": 2,
                    "terms": [{"index": [2], "coeff": [[0, 0, 1]]}],
                }
            )
        )
        code, out, _ = run_cli(capsys, "toschur", str(doc))
        assert code == 0
        assert json.loads(out)["terms"] == [{"index": [2], "coeff": [[0, 0, 1]]}]

    @pytest.mark.parametrize("index, kind", [({"0": 2}, "dict"), ("2", "str")])
    def test_index_not_an_array(self, capsys, monkeypatch, index, kind):
        doc = {"basis": "F", "degree": 2, "terms": [{"index": index, "coeff": [[0, 0, 1]]}]}
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        code, out, err = run_cli(capsys, "toschur", "-")
        assert (code, out, err.splitlines()) == (
            2, "", [f"error: cannot read expansion document: expected an array, got {kind}"])

    def test_empty_terms(self, capsys, tmp_path):
        doc = tmp_path / "in.json"
        doc.write_text(json.dumps({"basis": "F", "degree": 0, "terms": []}))
        code, out, _ = run_cli(capsys, "toschur", str(doc))
        assert code == 0
        assert json.loads(out)["terms"] == []

    @pytest.mark.parametrize("flags", [[], ["--verify-symmetric"]], ids=["plain", "verify"])
    def test_negative_degree_rejected(self, capsys, tmp_path, flags):
        doc = tmp_path / "in.json"
        doc.write_text(json.dumps({"basis": "F", "degree": -3, "terms": []}))
        code, out, err = run_cli(capsys, "toschur", *flags, str(doc))
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        doc.write_text(json.dumps({"basis": "F", "degree": 0, "terms": []}))
        code, out, _ = run_cli(capsys, "toschur", *flags, str(doc))
        assert code == 0
        assert json.loads(out) == {"basis": "s", "degree": 0, "terms": []}

    def test_verify_symmetric_rejects(self, capsys, tmp_path):
        doc = tmp_path / "in.json"
        doc.write_text(
            json.dumps(
                {
                    "basis": "F",
                    "degree": 3,
                    "terms": [{"index": [2, 1], "coeff": [[0, 0, 1]]}],
                }
            )
        )
        code, _, err = run_cli(capsys, "toschur", "--verify-symmetric", str(doc))
        assert code == 3
        assert "not symmetric" in err

    def test_verify_symmetric_accepts(self, capsys, tmp_path):
        doc = tmp_path / "in.json"
        doc.write_text(json.dumps(self.SCHUR21))
        code, _, _ = run_cli(capsys, "toschur", "--verify-symmetric", str(doc))
        assert code == 0

    @pytest.mark.parametrize(
        "coeffs, code",
        [
            # s_21 = F_21 + F_12 times q: symmetric
            ([[[1, 0, 1]], [[1, 0, 1]]], 0),
            # F_21 + q F_12: the integer parts alone would pass
            ([[[0, 0, 1]], [[1, 0, 1]]], 3),
            # (1 + t) F_21 + F_12 - q t^2 F_12
            ([[[0, 0, 1], [0, 1, 1]], [[0, 0, 1], [1, 2, -1]]], 3),
        ],
    )
    def test_verify_symmetric_qt_coefficients(self, capsys, tmp_path, coeffs, code):
        doc = tmp_path / "in.json"
        doc.write_text(json.dumps({
            "basis": "F",
            "degree": 3,
            "terms": [{"index": index, "coeff": c}
                      for index, c in zip([[1, 2], [2, 1]], coeffs)],
        }))
        got, out, err = run_cli(capsys, "toschur", "--verify-symmetric", str(doc))
        assert got == code
        if code:
            assert out == ""
            assert "not symmetric" in err

    @pytest.mark.parametrize(
        "text",
        [pytest.param("not json", id="not-json")]
        + non_integer_documents(
            EXPANSION_F1, [("degree",), ("terms", 0, "index", 0), ("terms", 0, "coeff", 0, 2)]
        )
        + non_integer_documents(EXPANSION_F1, [("terms",), ("terms", 0, "coeff")], NON_ARRAYS),
    )
    def test_malformed_json_is_usage_error(self, capsys, tmp_path, text):
        doc = tmp_path / "in.json"
        doc.write_text(text)
        code, out, err = run_cli(capsys, "toschur", str(doc))
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    @pytest.mark.parametrize("index", [[100000], [1] * 100000], ids=["one-part", "one-per-part"])
    def test_large_degree_is_cheap(self, index):
        # straightening an unpadded index takes time in its length, not in the
        # degree; padding to the degree and counting inversions took minutes
        doc = {"basis": "F", "degree": 100000, "terms": [{"index": index, "coeff": [[0, 0, 1]]}]}
        proc = subprocess.run(
            [sys.executable, "-m", "quasischur", "toschur", "--text", "-"],
            input=json.dumps(doc, separators=(",", ":")).encode(),
            capture_output=True,
            timeout=30,
            env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.decode() == f"1*s[{','.join(map(str, index))}]\n"


def mostly(valid, junk):
    """valid four times in five, else junk."""
    return st.integers(0, 4).flatmap(lambda k: junk if k == 0 else valid)


class TestDocumentReading:
    # main pauses the cyclic GC while the command runs, and gives the
    # caller's GC state back on every exit.  Each case is a command line,
    # with {doc} standing for the path of the document, the document's
    # text (None: no file) and the exit code.
    X1 = json.dumps(POLY_X1)
    F21 = '{"basis":"F","degree":3,"terms":[{"index":[2,1],"coeff":[[0,0,1]]}]}'
    F3 = '{"basis":"F","degree":3,"terms":[{"index":[3],"coeff":[[0,0,1]]}]}'
    CASES = {
        "ok": (["fexpand", "{doc}"], X1, 0),
        "bad-json": (["fexpand", "{doc}"], "{nope", 2),
        "bad-document": (["fexpand", "{doc}"], X1.replace("1]]", "1.5]]"), 2),
        "missing-file": (["fexpand", "{doc}"], None, 2),
        "toschur": (["toschur", "--verify-symmetric", "{doc}"], F3, 0),
        "not-symmetric": (["toschur", "--verify-symmetric", "{doc}"], F21, 3),
        "broken-pipe": (["fexpand", "{doc}"], X1, 0),
    }

    @pytest.mark.parametrize("caller_enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("case", list(CASES))
    def test_gc_state_is_restored(self, capsys, monkeypatch, tmp_path, case, caller_enabled):
        argv, text, want_code = self.CASES[case]
        path = tmp_path / "doc.json"
        if text is not None:
            path.write_text(text)
        argv = [arg.format(doc=path) for arg in argv]
        # the GC state each stage of the command sees: reading, computing and
        # emitting
        seen = []

        def recording(stage, func):
            def wrapper(*args):
                seen.append((stage, gc.isenabled()))
                return func(*args)
            return wrapper

        monkeypatch.setattr(cli, "_read_document", recording("read", cli._read_document))
        monkeypatch.setattr(cli, "extract_f_expansion", recording("compute", cli.extract_f_expansion))
        monkeypatch.setattr(cli, "elw_to_schur", recording("compute", cli.elw_to_schur))
        emit = cli._emit
        if case == "broken-pipe":
            # a reader that has gone away; main sends the rest of the output
            # to devnull through this file's descriptor
            emit = closed_pipe
            out = (tmp_path / "stdout").open("w")
            monkeypatch.setattr(sys, "stdout", out)
        monkeypatch.setattr(cli, "_emit", recording("emit", emit))

        was_enabled = gc.isenabled()
        set_gc(caller_enabled)
        try:
            code = main(argv)
            assert gc.isenabled() is caller_enabled
        finally:
            set_gc(was_enabled)
            if case == "broken-pipe":
                out.close()
        assert code == want_code
        assert seen and not any(enabled for _, enabled in seen)
        stages = [stage for stage, _ in seen]
        if want_code == 0:
            assert stages == ["read", "compute", "emit"]

    @pytest.mark.parametrize("caller_enabled", [True, False], ids=["gc-on", "gc-off"])
    def test_usage_error_leaves_gc_state(self, capsys, caller_enabled):
        # argparse exits before the pause
        was_enabled = gc.isenabled()
        set_gc(caller_enabled)
        try:
            with pytest.raises(SystemExit) as exc:
                main(["fexpand", "--max-n", "x"])
            assert gc.isenabled() is caller_enabled
        finally:
            set_gc(was_enabled)
        assert exc.value.code == 2

    def test_no_collection_once_reading_starts(self, capsys, monkeypatch, tmp_path):
        # a pause that ended when the document was read would leave its maps
        # alive for the next allocations to scan; s_(4,2,1,1) in 8
        # variables has 4,775 monomials
        path = tmp_path / "s4211.json"
        path.write_text(json.dumps(schur_ssyt((4, 2, 1, 1), 8).to_json_dict()))
        reading = []
        collections = []

        def on_gc(phase, info):
            if reading and phase == "start":
                collections.append(info["generation"])

        def read(*args):
            reading.append(1)
            return read_document(*args)

        read_document = cli._read_document
        monkeypatch.setattr(cli, "_read_document", read)
        was_enabled = gc.isenabled()
        gc.enable()
        gc.collect()
        gc.callbacks.append(on_gc)
        try:
            code = main(["fexpand", str(path)])
        finally:
            gc.callbacks.remove(on_gc)
            set_gc(was_enabled)
        assert code == 0
        assert reading == [1]
        assert collections == []
        assert capsys.readouterr().out.startswith('{"basis":"F","degree":8,')

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize("command", ["fexpand", "toschur"])
    def test_deep_nesting_is_usage_error(self, capsys, tmp_path, monkeypatch, command, source):
        # 6 kB of brackets exceed the JSON decoder's nesting limit
        text = "[" * 3000 + "]" * 3000
        if source == "file":
            path = tmp_path / "deep.json"
            path.write_text(text)
            argument = str(path)
        else:
            monkeypatch.setattr(sys, "stdin", io.StringIO(text))
            argument = "-"
        code, out, err = run_cli(capsys, command, argument)
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read ")
        assert "recursion" in err

    # JSON trees of bounded depth, mixing the documents' keys and every JSON
    # type, some shaped like documents so that the readers get past the top
    LEAVES = st.one_of(
        st.integers(-2, 4), st.booleans(), st.none(),
        st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(["F", "M", "s", "", "1"]),
    )
    TREES = st.recursive(
        LEAVES,
        lambda kids: st.lists(kids, max_size=4) | st.dictionaries(
            st.sampled_from(["vars", "terms", "exps", "coeff", "basis", "degree", "index"]),
            kids, max_size=4),
        max_leaves=16,
    )

    NUMBER = mostly(st.integers(0, 2), st.integers(-1, 3) | LEAVES)
    TRIPLE = st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(-2, 2)).map(list)
    COEFF = mostly(st.lists(mostly(TRIPLE, st.lists(NUMBER, max_size=4)), max_size=2), LEAVES)
    POLY = st.fixed_dictionaries({
        "vars": mostly(st.integers(0, 2), NUMBER),
        "terms": st.lists(st.fixed_dictionaries(
            {"exps": st.lists(NUMBER, max_size=2), "coeff": COEFF}), max_size=3),
    })
    EXPANSION = st.fixed_dictionaries({
        "basis": mostly(st.just("F"), LEAVES),
        "degree": mostly(st.integers(0, 3), NUMBER),
        "terms": st.lists(st.fixed_dictionaries({
            "index": mostly(st.sampled_from([[], [1], [2], [1, 1], [3], [2, 1], [1, 2]]),
                            st.lists(NUMBER, max_size=3)),
            "coeff": COEFF,
        }), max_size=3),
    })
    COMMANDS = [["fexpand"], ["fexpand", "--text"], ["toschur"], ["toschur", "--verify-symmetric"]]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_exit_codes(self, data):
        argv = data.draw(st.sampled_from(self.COMMANDS))
        shaped = self.POLY if argv[0] == "fexpand" else self.EXPANSION
        doc = data.draw(self.TREES | shaped)
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(json.dumps(doc))
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv + ["--max-n", "6", "-"])
        finally:
            sys.stdin = saved
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 2, 3)
        if code == 0:
            assert out.endswith("\n") and err == ""
        else:
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1, err
            assert code == 2 or "not symmetric" in err


class TestArgv:
    """Generated argv for the commands that read integers from their
    arguments.  --max-n is at most 5, so every example stays cheap."""

    @staticmethod
    def ints(parts, min_size):
        return st.lists(parts, min_size=min_size, max_size=4).map(
            lambda xs: ",".join(map(str, xs)))

    # mostly lists of weight <= 5 or so, else arbitrary text
    TEXT = mostly(
        ints(st.integers(1, 2), 1),
        st.one_of(ints(st.integers(-1, 4), 0), st.text(max_size=10),
                  st.text("0123456789,- ", max_size=8)),
    )
    INT = mostly(st.integers(1, 5).map(str), st.integers(-2, 6).map(str) | st.text(max_size=4))
    MAX_N = mostly(st.just("5"), st.integers(-1, 4).map(str))

    COMMANDS = ["straighten", "fundamental", "hll", "positivity", "verify-involution"]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_exit_codes(self, data):
        def flags(*names):
            return data.draw(st.lists(st.sampled_from(names), unique=True))

        command = data.draw(st.sampled_from(self.COMMANDS))
        argv = [command]
        if command == "straighten":
            argv += flags("--json")
        elif command == "fundamental":
            argv += flags("--text")
            if data.draw(st.booleans()):
                argv += ["--vars", data.draw(self.INT)]
        elif command == "hll":
            argv += flags("--experiment", "--text")
        if command != "straighten":
            argv += ["--max-n", data.draw(self.MAX_N)]
        argv.append(data.draw(self.INT if command == "positivity" else self.TEXT))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's own usage errors
                code = exc.code
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 2, 3), (argv, code)
        assert "Traceback" not in err
        if "error:" in err.rstrip("\n").rsplit("\n", 1)[-1]:
            assert (code, out) == (2, ""), argv
        else:
            assert code != 2, argv


class TestSizeBound:
    """Every enumerating command checks --max-n / QUASISCHUR_MAX_N (default 9)
    before it starts work."""

    # e_10 = x_1 ... x_10 = F_(1^10), as a polynomial and as an F-expansion
    E10_POLY = {"vars": 10, "terms": [{"exps": [1] * 10, "coeff": [[0, 0, 1]]}]}
    E10_F = {"basis": "F", "degree": 10, "terms": [{"index": [1] * 10, "coeff": [[0, 0, 1]]}]}
    E10_S = {"basis": "s", "degree": 10, "terms": [{"index": [1] * 10, "coeff": [[0, 0, 1]]}]}

    @pytest.fixture(autouse=True)
    def default_bound(self, monkeypatch):
        monkeypatch.delenv("QUASISCHUR_MAX_N", raising=False)

    def documents(self, tmp_path):
        poly, f = tmp_path / "poly.json", tmp_path / "f.json"
        poly.write_text(json.dumps(self.E10_POLY))
        f.write_text(json.dumps(self.E10_F))
        return str(poly), str(f)

    @pytest.mark.parametrize(
        "argv",
        [
            ["fundamental", "14", "--vars", "14"],
            ["fundamental", "2,1", "--vars", "12"],
            ["fundamental", "2,3,5"],
            ["fexpand", "POLY"],
            ["toschur", "--verify-symmetric", "F"],
            ["verify-involution", "2,3,5"],
            ["hll", "5,5"],
            ["hll", "--experiment", "4,3,3"],
            ["positivity", "10"],
        ],
        ids=["fundamental-14-vars-14", "fundamental-vars-12", "fundamental-weight-10",
             "fexpand-degree-10", "toschur-verify-degree-10", "verify-involution-weight-10",
             "hll-weight-10", "hll-experiment-weight-10", "positivity-weight-10"],
    )
    def test_over_default_bound_rejected(self, capsys, tmp_path, argv):
        poly, f = self.documents(tmp_path)
        argv = [{"POLY": poly, "F": f}.get(a, a) for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error:")
        assert "exceeds bound 9" in err

    def test_lower_bound_rejects_default_sizes(self, capsys):
        code, out, err = run_cli(capsys, "fundamental", "2,1", "--max-n", "2")
        assert (code, out) == (2, "")
        assert "weight 3 exceeds bound 2" in err

    def test_flag_raises_bound(self, capsys, tmp_path):
        poly, f = self.documents(tmp_path)
        code, out, _ = run_cli(capsys, "fundamental", "2,1", "--vars", "10", "--max-n", "10")
        assert code == 0
        # C(10 - 2 + 3, 3) weakly increasing words with one forced rise
        assert len(json.loads(out)["terms"]) == 165
        code, out, _ = run_cli(capsys, "fexpand", "--max-n", "10", poly)
        assert (code, json.loads(out)) == (0, self.E10_F)
        code, out, _ = run_cli(capsys, "toschur", "--verify-symmetric", "--max-n", "10", f)
        assert (code, json.loads(out)) == (0, self.E10_S)

    def test_environment_raises_bound(self, capsys, tmp_path, monkeypatch):
        poly, f = self.documents(tmp_path)
        monkeypatch.setenv("QUASISCHUR_MAX_N", "10")
        code, out, _ = run_cli(capsys, "fundamental", "2,1", "--vars", "10")
        assert (code, len(json.loads(out)["terms"])) == (0, 165)
        code, out, _ = run_cli(capsys, "fexpand", poly)
        assert (code, json.loads(out)) == (0, self.E10_F)
        code, out, _ = run_cli(capsys, "toschur", "--verify-symmetric", f)
        assert (code, json.loads(out)) == (0, self.E10_S)

    def test_environment_bound_must_be_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("QUASISCHUR_MAX_N", "abc")
        code, out, err = run_cli(capsys, "hll", "2")
        message = "error: QUASISCHUR_MAX_N must be an integer, got 'abc'"
        assert (code, out, err.splitlines()) == (2, "", [message])

    def test_toschur_without_verification_is_unbounded(self, capsys, tmp_path):
        _, f = self.documents(tmp_path)
        code, out, _ = run_cli(capsys, "toschur", f)
        assert (code, json.loads(out)) == (0, self.E10_S)


class TestVerifyInvolution:
    def test_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify-involution", "2,1")
        assert code == 0
        assert json.loads(out)["passed"] is True

    def test_single_part(self, capsys):
        code, out, _ = run_cli(capsys, "verify-involution", "4")
        assert code == 0

    def test_bound_exceeded(self, capsys):
        code, _, err = run_cli(capsys, "verify-involution", "--max-n", "5", "2,3,3")
        assert code == 2

    def test_env_bound(self, capsys, monkeypatch):
        monkeypatch.setenv("QUASISCHUR_MAX_N", "4")
        code, _, _ = run_cli(capsys, "verify-involution", "2,3")
        assert code == 2


class TestHll:
    def test_column(self, capsys):
        code, out, _ = run_cli(capsys, "hll", "1,1")
        assert code == 0
        doc = json.loads(out)
        assert doc["terms"] == [
            {"index": [1, 1], "coeff": [[0, 1, 1]]},
            {"index": [2], "coeff": [[0, 0, 1]]},
        ]

    def test_row(self, capsys):
        code, out, _ = run_cli(capsys, "hll", "2")
        assert code == 0
        assert json.loads(out)["terms"] == [{"index": [2], "coeff": [[0, 0, 1]]}]

    def test_experiment_discrepancy(self, capsys):
        code, out, _ = run_cli(capsys, "hll", "--experiment", "3,3,3")
        assert code == 0
        doc = json.loads(out)
        assert doc["fillings"] == 1680
        assert len(doc["discrepancy"]["terms"]) == 1

    def test_non_partition_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "hll", "1,2")
        assert code == 2

    @pytest.mark.parametrize("flags", [[], ["--text"], ["--experiment"]])
    def test_empty_shape_is_a_usage_error(self, capsys, flags):
        # the library computes H~ of the empty shape; the argument has no
        # spelling for it
        assert run_cli(capsys, "hll", "", *flags)[:2] == (2, "")

    @pytest.mark.parametrize(
        "flags", [["--experiment", "--text"], ["--text", "--experiment"]], ids=["ex-text", "text-ex"]
    )
    def test_experiment_refuses_text(self, capsys, flags):
        # the experiment report is JSON only
        with pytest.raises(SystemExit) as exc:
            main(["hll", *flags, "2,1"])
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (2, "")
        assert "not allowed with" in captured.err


class TestPositivity:
    def test_weight_four(self, capsys):
        code, out, _ = run_cli(capsys, "positivity", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_positive"] is True
        assert len(doc["shapes"]) == 5

    def test_one_shape_not_positive(self, capsys, monkeypatch):
        # every shape is Schur positive, so the refusal is reached only by
        # making the check fail for one shape of several
        real = cli.is_schur_positive
        refused = cli.hll_expansion((2, 1, 1))
        monkeypatch.setattr(cli, "is_schur_positive", lambda e: e != refused and real(e))
        code, out, _ = run_cli(capsys, "positivity", "4")
        assert code == 3
        doc = json.loads(out)
        assert doc["shapes"] == [
            {"mu": list(mu), "positive": mu != (2, 1, 1)}
            for mu in [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
        ]
        assert doc["all_positive"] is False

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_non_positive_weight_rejected(self, capsys, n):
        code, out, err = run_cli(capsys, "positivity", n)
        assert (code, out) == (2, "")
        assert "weight must be positive" in err


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["straighten", "--json", "1,3"],
            ["hll", "2,2"],
            ["verify-involution", "2,1"],
            ["hll", "--experiment", "2,1"],
        ],
    )
    def test_byte_identical_runs(self, argv):
        runs = [
            subprocess.run(
                [sys.executable, "-m", "quasischur"] + argv,
                capture_output=True,
                check=True,
                env=child_env(),
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestChildProcesses:
    def test_children_import_this_checkout(self):
        # the CLI tests run this checkout's src/, never a stale installed copy
        proc = subprocess.run(
            [sys.executable, "-c", "import quasischur; print(quasischur.__file__)"],
            capture_output=True,
            check=True,
            text=True,
            env=child_env(),
        )
        assert Path(proc.stdout.strip()).resolve().parent == SRC / "quasischur"


class TestCyclicGarbage:
    """No command leaves reference cycles, so main's pause of the cyclic GC
    defers no work: reference counting frees all a command made."""

    # {doc}: the polynomial F_(2,1)(x1, x2, x3), {f21}: its F-expansion,
    # which is not symmetric, {bad}: not JSON
    RUNS = [
        (["straighten", "1,3"], 0),
        (["straighten", "1,3", "--json"], 0),
        (["straighten", "x"], 2),
        (["fundamental", "2,1", "--vars", "4"], 0),
        (["fundamental", "2,1", "--vars", "-1"], 2),
        (["fexpand", "{doc}"], 0),
        (["fexpand", "{doc}", "--text"], 0),
        (["fexpand", "-"], 0),
        (["fexpand", "{bad}"], 2),
        (["fexpand", "{doc}", "--max-n", "2"], 2),
        (["toschur", "{f21}"], 0),
        (["toschur", "{f21}", "--text"], 0),
        (["toschur", "--verify-symmetric", "{f21}"], 3),
        (["toschur", "{bad}"], 2),
        (["verify-involution", "2,1"], 0),
        (["verify-involution", "2,3,3"], 0),
        (["verify-involution", "0,1"], 2),
        (["hll", "2,2,1"], 0),
        (["hll", "2,2,1", "--text"], 0),
        (["hll", "3,3,3", "--experiment"], 0),
        (["hll", "0"], 2),
        (["positivity", "6"], 0),
        (["positivity", "0"], 2),
    ]
    # the child disables the GC and builds the parser, whose argparse
    # objects hold cycles once per process and outside the pause; then it
    # runs each command line and counts what gc.collect() finds after it
    CHILD = """
import contextlib, gc, io, json, sys
from quasischur.cli import build_parser, main
gc.disable()
build_parser()
gc.collect()
counts = []
for argv in json.loads(sys.argv[1]):
    sys.stdin = io.StringIO(sys.argv[2])
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    counts.append([code, gc.collect()])
print(json.dumps(counts))
"""

    def test_commands_leave_no_cyclic_garbage(self, tmp_path):
        poly = TestParserReuse.FUNDAMENTAL_21
        files = {"doc": poly, "f21": TestDocumentReading.F21, "bad": "{nope"}
        for name, text in files.items():
            (tmp_path / f"{name}.json").write_text(text)
        paths = {name: str(tmp_path / f"{name}.json") for name in files}
        argvs = [[arg.format(**paths) for arg in argv] for argv, _ in self.RUNS]
        proc = subprocess.run(
            [sys.executable, "-c", self.CHILD, json.dumps(argvs), poly],
            capture_output=True, check=True, text=True, env=child_env(), timeout=120,
        )
        got = {" ".join(argv): tuple(run) for (argv, _), run in zip(self.RUNS, json.loads(proc.stdout))}
        want = {" ".join(argv): (code, 0) for argv, code in self.RUNS}
        assert got == want


class TestParserReuse:
    """main builds its parser on the first call in a process and reuses it."""

    HLL_21 = (
        '{"basis":"s","degree":3,"terms":[{"index":[2,1],"coeff":[[0,1,1]]},'
        '{"index":[3],"coeff":[[0,0,1]]}]}\n'
    )
    FUNDAMENTAL_21 = (
        '{"vars":3,"terms":[{"exps":[0,2,1],"coeff":[[0,0,1]]},'
        '{"exps":[1,1,1],"coeff":[[0,0,1]]},{"exps":[2,0,1],"coeff":[[0,0,1]]},'
        '{"exps":[2,1,0],"coeff":[[0,0,1]]}]}\n'
    )

    def test_several_calls_build_one_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        build_parser.cache_clear()
        assert run_cli(capsys, "straighten", "1,3")[:2] == (0, "-s[2,2]\n")
        first = len(built)
        assert first > 0
        for argv in (["hll", "2,1"], ["verify-involution", "2,1"], ["straighten", "3,1"]):
            assert run_cli(capsys, *argv)[0] == 0
        assert len(built) == first

    @pytest.mark.parametrize(
        "before, before_code, argv, want",
        [
            (["hll", "2,1", "--experiment"], 0, ["hll", "2,1"], HLL_21),
            (["fundamental", "2,1", "--vars", "4"], 0, ["fundamental", "2,1"], FUNDAMENTAL_21),
            (["hll", "2,1", "--experiment", "--text"], 2, ["hll", "2,1", "--text"],
             "t*s[2,1] + 1*s[3]\n"),
            (["fundamental", "2,1", "--vars", "x"], 2, ["fundamental", "2,1"], FUNDAMENTAL_21),
        ],
        ids=["experiment-then-expansion", "vars-then-default", "usage-error-then-text",
             "bad-vars-then-default"],
    )
    def test_no_state_carries_over(self, capsys, before, before_code, argv, want):
        try:
            code = main(before)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code
        capsys.readouterr()
        assert code == before_code
        assert run_cli(capsys, *argv) == (0, want, "")


class TestRecordedDigests:
    def test_stdout_matches_recorded_sha256(self, capsys):
        # hll (JSON, --text, --experiment) on every partition of weight <= 7
        # and 3,3,3, and positivity 1..7, as recorded before the filling
        # statistics were read through one census
        recorded = json.loads(
            (Path(__file__).parent / "data" / "cli_digests.json").read_text()
        )["digests"]
        changed = []
        for argv, digest in recorded.items():
            code = main(argv.split())
            out = capsys.readouterr().out
            if code != 0 or hashlib.sha256(out.encode()).hexdigest() != digest:
                changed.append(argv)
        assert not changed

    def test_document_commands_match_recorded_exit_and_sha256(self, capsys, monkeypatch):
        # fundamental on every composition of weight <= 5 in weight and
        # weight + 1 variables, fexpand on each of those outputs, toschur on
        # each F-expansion (--verify-symmetric exits 3 on a non-symmetric
        # F_alpha), and straighten on {0..3}^3, as recorded before the three
        # sparse containers shared one implementation of their arithmetic;
        # the stored documents are the recorded outputs
        data = Path(__file__).parent / "data"
        recorded = json.loads((data / "cli_document_digests.json").read_text())["runs"]
        monkeypatch.chdir(data)
        changed = []
        for argv, want in recorded.items():
            code = main(argv.split())
            out = capsys.readouterr().out
            got = {"exit": code, "sha256": hashlib.sha256(out.encode()).hexdigest()}
            if got != want:
                changed.append(argv)
        assert not changed
        assert {want["exit"] for want in recorded.values()} == {0, 3}

    def test_verify_involution_matches_recorded_exit_and_sha256(self, capsys, monkeypatch):
        # verify-involution on every composition of weight <= 7, on 2,3,3 and
        # 3,3,2, and on a zero part and a weight over the default bound, both
        # refused with exit 2 and empty stdout, as recorded before the
        # verifier read each pair as one comparison of straightened values
        monkeypatch.delenv("QUASISCHUR_MAX_N", raising=False)
        recorded = json.loads(
            (Path(__file__).parent / "data" / "involution_digests.json").read_text()
        )["runs"]
        changed = []
        for argv, want in recorded.items():
            code = main(argv.split())
            out = capsys.readouterr().out
            got = {"exit": code, "sha256": hashlib.sha256(out.encode()).hexdigest()}
            if got != want:
                changed.append(argv)
        assert not changed
        assert {want["exit"] for want in recorded.values()} == {0, 2}


class TestEarlyStdoutClose:
    def test_reader_closing_early_is_not_a_crash(self):
        # about 240 kB of JSON, more than a pipe buffers, so the writer meets
        # the closed pipe whatever the timing
        # the with block closes the pipes and reaps the child on a failed
        # assertion too
        with subprocess.Popen(
            [sys.executable, "-m", "quasischur", "fundamental", "3,3",
             "--vars", "12", "--max-n", "12"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=child_env(),
        ) as proc:
            assert proc.stdout.read(10) == b'{"vars":12'
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) in (0, 2, 3)
        assert b"Traceback" not in err
