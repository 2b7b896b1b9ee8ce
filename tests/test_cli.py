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

from quasischur.cli import CliError, _read_document, main
from quasischur.polynomial import SparsePoly


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.decode() == f"1*s[{','.join(map(str, index))}]\n"


def mostly(valid, junk):
    """valid four times in five, else junk."""
    return st.integers(0, 4).flatmap(lambda k: junk if k == 0 else valid)


class TestDocumentReading:
    # _read_document pauses the cyclic GC while it reads, and gives the
    # caller's GC state back on every exit
    READS = {
        "ok": '{"vars":1,"terms":[{"exps":[1],"coeff":[[0,0,1]]}]}',
        "bad-json": "{nope",
        "bad-document": '{"vars":1,"terms":[{"exps":[1],"coeff":[[0,0,1.5]]}]}',
        "missing-file": None,
    }

    @pytest.mark.parametrize("caller_enabled", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("case", list(READS))
    def test_gc_state_is_restored(self, tmp_path, case, caller_enabled):
        path = tmp_path / "doc.json"
        if self.READS[case] is not None:
            path.write_text(self.READS[case])
        seen = []

        def parse(doc):
            seen.append(gc.isenabled())
            return SparsePoly.from_json_dict(doc)

        was_enabled = gc.isenabled()
        set_gc(caller_enabled)
        try:
            if case == "ok":
                assert _read_document(str(path), parse, "polynomial") == SparsePoly(1, {(1,): 1})
                assert seen == [False]
            else:
                with pytest.raises(CliError):
                    _read_document(str(path), parse, "polynomial")
            assert gc.isenabled() is caller_enabled
        finally:
            set_gc(was_enabled)

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
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


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


class TestEarlyStdoutClose:
    def test_reader_closing_early_is_not_a_crash(self):
        # about 240 kB of JSON, more than a pipe buffers, so the writer meets
        # the closed pipe whatever the timing
        proc = subprocess.Popen(
            [sys.executable, "-m", "quasischur", "fundamental", "3,3",
             "--vars", "12", "--max-n", "12"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.read(10) == b'{"vars":12'
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) in (0, 2, 3)
        assert b"Traceback" not in err
