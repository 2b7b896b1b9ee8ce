"""Self-test of the benchmark harness, at tiny sizes (about half a minute).

    python3 bench/selftest.py

Runs every workload untraced and traced on tiny inputs, then checks that the
harness counts failures instead of crashing: a pass killed by its timeout, a
child that cannot start under its memory cap, a stdout digest mismatch, and
trace counts that disagree with the independent totals or are missing.  It
checks the stored Hall-Littlewood expansions of weight 4 against the
program.  Finally it checks
that the benchmark refuses to run without the program.  Prints one PASS or
FAIL line per check and exits 1 if any failed.
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import tempfile

import run
from workloads import WORKLOADS, hall_littlewood_schur


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    digests = json.loads(run.DIGESTS.read_text())["digests"]
    quiet = io.StringIO()
    failures = []

    def check(ok: bool, label: str) -> None:
        print(("PASS " if ok else "FAIL ") + label)
        if not ok:
            failures.append(label)

    seed = run.DEFAULT_SEED
    for name in WORKLOADS:
        r = run.measure(name, seed, 0, False, tiny=True)
        check(r["correct"] and r["failed"] == 0 and list(r["metrics"]) == end_to_end
              and r["metrics"]["ok_frac"] == 1.0,
              f"{name}: tiny run is correct and reports every end-to-end metric")
        r = run.measure(name, seed, 0, True, tiny=True)
        check(r["correct"] and r["failed"] == 0 and set(r["metrics"]) == set(per_layer),
              f"{name}: tiny traced run passes its cross-checks and reports every "
              "per-layer metric")

    r = run.measure("leftover-w8", seed, 0, True, tiny=True)
    m = r["metrics"]
    check(m["hall_littlewood.walks_per_shape"] == 2.0
          and m["combinatorics.decompositions.items"]
          == m["hall_littlewood.inv_zero_fillings.items"] > 0
          and m["polynomial.self_s"] == 0 and m["cli.main.calls"] == 0,
          "leftover-w8: generator spans count items and the idle layers read zero")

    r = run.measure("leftover-w8", seed, 0, False, pass_timeout=3.0, log=quiet)
    check(not r["correct"] and 0 < r["failed"] < r["attempted"] and r["metrics"] is None,
          "a pass killed by its timeout fails only the operations it did not finish, "
          "and reports no time")

    r = run.measure("involution-cli", seed, 0, False, tiny=True, mem_cap=1 << 20,
                    log=quiet)
    check(not r["correct"] and r["failed"] == r["attempted"],
          "a child that cannot start under the memory cap fails every operation")

    r = run.measure("involution-cli", seed, 0, False, tiny=True, digests=digests)
    check(r["correct"] and r["failed"] == 0,
          "involution-cli: tiny outputs hash to the stored digests")
    tampered = dict(digests, **{"2,2": "0" * 64})
    r = run.measure("involution-cli", seed, 0, False, tiny=True, digests=tampered,
                    log=quiet)
    check(not r["correct"] and r["failed"] == 1,
          "a stdout digest mismatch fails exactly that operation")

    ops = WORKLOADS["leftover-w8"].ops(seed, True)
    fillings = sum(run.multinomial(op["mu"]) for op in ops)
    trace = {"hall_littlewood.inv_zero_fillings": {"calls": len(ops), "items": fillings - 1},
             "hall_littlewood.leftover_experiment": {"calls": len(ops)}}
    check(run.cross_checks("leftover-w8", ops, trace, []) != [],
          "a filling walk that skips one filling fails the cross-check")
    trace = {"hall_littlewood.leftover_experiment": {"calls": len(ops)}}
    check(run.cross_checks("leftover-w8", ops, trace, []) != [],
          "a leftover experiment that never walks inv_zero_fillings fails the cross-check")
    check(run.cross_checks("leftover-w8", ops, {}, []) != [],
          "a traced pass with no leftover experiment fails the cross-check")
    trace = {"elw.constrained_monomials": {"calls": 1, "items": 9}}
    check(run.cross_checks("involution-cli", [], trace, [{"monomials": 10}]) != [],
          "a monomial count that disagrees with the CLI report fails the cross-check")

    sys.path.insert(0, str(run.SRC))
    from quasischur.hall_littlewood import hll_expansion

    stored = hall_littlewood_schur(4)
    check(all([[t["index"], t["coeff"]] for t in hll_expansion(mu).to_json_dict()["terms"]]
              == stored[mu] for mu in stored) and len(stored) == 5,
          "the stored H~_mu for the partitions of 4 match the program's hll_expansion")

    with tempfile.TemporaryDirectory(prefix=".bench-selftest-", dir=run.ROOT) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH_DIR, f"{bare}/bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "leftover-w8", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the program the benchmark exits non-zero and prints no result")

    print(f"{len(failures)} of the checks failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
