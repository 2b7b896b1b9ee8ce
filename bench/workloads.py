"""The benchmark's three workloads.

Each workload has two halves.  ``ops`` runs in the harness process, imports
nothing from the program, and turns a seed into a list of small JSON-able
operation specs.  ``setup`` and ``run`` run in the measured child process:
``setup`` materialises the inputs (untimed, never touching the program's
caches) and ``run`` performs one operation and checks its output exactly,
raising ``CheckFailed`` on any mismatch.

An operation is one shape (``leftover-w8``), one composition
(``involution-cli``) or one polynomial document (``fschur-cli``).  Why each
workload exists is written in README.md next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from math import comb, factorial
from pathlib import Path


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def partitions(n: int, largest: int | None = None):
    """Partitions of n, largest part first, independent of the program."""
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def compositions(n: int):
    """All 2^(n-1) compositions of n, independent of the program."""
    for mask in range(1 << (n - 1)):
        parts, run = [], 1
        for i in range(n - 1):
            if mask >> i & 1:
                parts.append(run)
                run = 1
            else:
                run += 1
        yield tuple(parts + [run])


def multinomial(mu) -> int:
    out = factorial(sum(mu))
    for part in mu:
        out //= factorial(part)
    return out


HL_EXPANSIONS = Path(__file__).resolve().parent / "hl_expansions.json"


def hall_littlewood_schur(n: int) -> dict[tuple, list]:
    """The Schur expansions of the modified Hall-Littlewood polynomials
    H~_mu(x; t), mu a partition of n, as recorded in hl_expansions.json:
    mu -> [[lambda, [[0, t, c], ...]], ...]."""
    table = json.loads(HL_EXPANSIONS.read_text())["expansions"][str(n)]
    return {tuple(map(int, mu.split(","))): terms for mu, terms in table.items()}


def _text(parts) -> str:
    return ",".join(str(p) for p in parts)


def _cli(cli, argv, stdin_text: str | None = None) -> tuple[int, str]:
    """``cli.main(argv)`` in-process with stdout captured and, when given,
    stdin replaced by ``stdin_text``."""
    out = io.StringIO()
    saved_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = saved_stdin
    return code, out.getvalue()


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class LeftoverW8:
    """``leftover_experiment(mu)`` for every partition of 8, plus (3,3,3)."""

    name = "leftover-w8"
    # the paper's unique weight-9 counterexample: -1*t^5*s[5,2,2]
    COUNTEREXAMPLE = (3, 3, 3)
    COUNTEREXAMPLE_TERMS = [{"index": [5, 2, 2], "coeff": [[0, 5, -1]]}]

    def ops(self, seed: int, tiny: bool) -> list[dict]:
        # exhaustive: the seed is not used
        shapes = list(partitions(4 if tiny else 8)) + [self.COUNTEREXAMPLE]
        return [{"id": _text(mu), "mu": list(mu)} for mu in shapes]

    def setup(self, ops):
        from quasischur import hall_littlewood

        return hall_littlewood, [None] * len(ops)

    def run(self, hall_littlewood, op, _data) -> tuple[dict, str | None]:
        mu = tuple(op["mu"])
        report = hall_littlewood.leftover_experiment(mu)
        expected = self.COUNTEREXAMPLE_TERMS if mu == self.COUNTEREXAMPLE else []
        got = report.discrepancy.to_json_dict()["terms"]
        _require(got == expected, f"discrepancy {got} != {expected}")
        _require(
            report.filling_count == multinomial(mu),
            f"{report.filling_count} fillings, expected {multinomial(mu)}",
        )
        return {"fillings": report.filling_count, "kept": report.kept_count}, None


class InvolutionCli:
    """``quasischur verify-involution alpha`` for every composition of weight
    at most 5, plus (3,3), (2,2,2) and (2,3,3)."""

    name = "involution-cli"
    EXTRA = ((3, 3), (2, 2, 2), (2, 3, 3))

    def ops(self, seed: int, tiny: bool) -> list[dict]:
        # exhaustive: the seed is not used
        top, extra = (3, ((2, 2),)) if tiny else (5, self.EXTRA)
        alphas = [a for n in range(1, top + 1) for a in compositions(n)]
        return [{"id": _text(a), "alpha": list(a)} for a in alphas + list(extra)]

    def setup(self, ops):
        from quasischur import cli

        return cli, [None] * len(ops)

    def run(self, cli, op, _data) -> tuple[dict, str | None]:
        alpha = op["alpha"]
        code, out = _cli(cli, ["verify-involution", _text(alpha)])
        _require(code == 0, f"exit code {code}")
        report = json.loads(out)
        _require(report["passed"] is True, "report did not pass")
        _require(report["alpha"] == alpha, f"report is for {report['alpha']}")
        # weakly increasing words in 1..n with len(alpha)-1 forced strict rises
        n = sum(alpha)
        words = comb(2 * n - len(alpha), n)
        _require(report["monomials"] == words, f"{report['monomials']} != {words} words")
        data = out.encode()
        stats = {"monomials": report["monomials"], "stdout_bytes": len(data)}
        return stats, hashlib.sha256(data).hexdigest()


class FSchurCli:
    """``quasischur fexpand doc | quasischur toschur --verify-symmetric -`` on
    polynomial documents in n variables: every s_lambda with lambda a
    partition of n, then one seeded combination of modified Hall-Littlewood
    polynomials, the sum over the hooks mu of +-q^i H~_mu(x; t), whose Schur
    coefficients lie in Z[q,t]."""

    name = "fschur-cli"

    def ops(self, seed: int, tiny: bool) -> list[dict]:
        n = 4 if tiny else 8
        shapes = list(partitions(n))
        ops = [
            {"id": f"s[{_text(lam)}]", "nvars": n, "seeded": False,
             "coeffs": [[list(lam), [[0, 0, 1]]]]}
            for lam in shapes
        ]
        # The hooks (n-k, 1^k) span every top t-degree n(mu) = k(k+1)/2 up to
        # n(1^n).  Hook k gets the sign (-1)^k and a power of q that the seed
        # draws, distinct per hook, so the H~_mu never cancel and neither the
        # work nor the memory depends on the seed.
        hl = hall_littlewood_schur(n)
        hooks = [(n - k,) + (1,) * k for k in range(n)]
        qexps = random.Random(seed).sample(range(len(hooks)), len(hooks))
        coeffs: dict[tuple, list] = {}
        for k, (mu, qexp) in enumerate(zip(hooks, qexps)):
            sign = -1 if k % 2 else 1
            for lam, qt in hl[mu]:
                coeffs.setdefault(tuple(lam), []).extend([qexp, t, sign * c] for _, t, c in qt)
        ops.append({"id": f"seed{seed}-w{n}-hooks", "nvars": n, "seeded": True,
                    "coeffs": [[list(lam), sorted(qt)] for lam, qt in sorted(coeffs.items())]})
        return ops

    def setup(self, ops):
        """Write each operation's polynomial document.  The Schur polynomials
        come from the tableau oracle's uncached body, so the program's
        ``schur_ssyt`` cache stays cold."""
        from quasischur import cli, schur

        cache: dict = {}

        def schur_terms(lam, nvars) -> dict:
            if (lam, nvars) not in cache:
                doc = schur.schur_ssyt.__wrapped__(lam, nvars).to_json_dict()
                cache[lam, nvars] = {
                    tuple(t["exps"]): t["coeff"][0][2] for t in doc["terms"]
                }
            return cache[lam, nvars]

        docs = []
        for op in ops:
            terms: dict[tuple, dict] = {}
            for lam, qt in op["coeffs"]:
                for exps, k in schur_terms(tuple(lam), op["nvars"]).items():
                    acc = terms.setdefault(exps, {})
                    for q, t, c in qt:
                        acc[q, t] = acc.get((q, t), 0) + c * k
            doc = {"vars": op["nvars"], "terms": [
                {"exps": list(exps), "coeff": [[q, t, c] for (q, t), c in sorted(acc.items()) if c]}
                for exps, acc in sorted(terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))
                if any(acc.values())
            ]}
            docs.append(json.dumps(doc, separators=(",", ":")))
        return cli, docs

    def run(self, cli, op, doc) -> tuple[dict, str | None]:
        code, f_text = _cli(cli, ["fexpand", "-"], doc)
        _require(code == 0, f"fexpand exit code {code}")
        code, s_text = _cli(cli, ["toschur", "--verify-symmetric", "-"], f_text)
        _require(code == 0, f"toschur exit code {code}")
        result = json.loads(s_text)
        _require(result["basis"] == "s" and result["degree"] == op["nvars"],
                 f"basis {result['basis']} degree {result['degree']}")
        got = {tuple(t["index"]): sorted(map(tuple, t["coeff"])) for t in result["terms"]}
        expected = {tuple(lam): sorted(map(tuple, qt)) for lam, qt in op["coeffs"]}
        _require(got == expected, f"Schur expansion {got} != {expected}")
        data = (f_text + s_text).encode()
        return {"stdout_bytes": len(data)}, hashlib.sha256(data).hexdigest()


WORKLOADS = {w.name: w for w in (LeftoverW8(), InvolutionCli(), FSchurCli())}
