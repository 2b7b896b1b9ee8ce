import json
import subprocess
import sys

import pytest

from quasischur.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# each case replaces a 1 in an integer field of a valid document by a value of
# another JSON type that int() would read as 1
POLY_X1 = {"vars": 1, "terms": [{"exps": [1], "coeff": [[0, 0, 1]]}]}
EXPANSION_F1 = {"basis": "F", "degree": 1, "terms": [{"index": [1], "coeff": [[0, 0, 1]]}]}
NON_INTEGERS = [True, 1.5, "1"]


def non_integer_documents(doc, paths):
    cases = []
    for path in paths:
        field = next(key for key in reversed(path) if isinstance(key, str))
        for value in NON_INTEGERS:
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
        ),
    )
    def test_malformed_json(self, capsys, tmp_path, text):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        code, out, err = run_cli(capsys, "fexpand", str(bad))
        assert (code, out) == (2, "")
        assert err.startswith("error:")


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
        "text",
        [pytest.param("not json", id="not-json")]
        + non_integer_documents(
            EXPANSION_F1, [("degree",), ("terms", 0, "index", 0), ("terms", 0, "coeff", 0, 2)]
        ),
    )
    def test_malformed_json_is_usage_error(self, capsys, tmp_path, text):
        doc = tmp_path / "in.json"
        doc.write_text(text)
        code, out, err = run_cli(capsys, "toschur", str(doc))
        assert (code, out) == (2, "")
        assert err.startswith("error:")


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
