"""quasischur benchmark harness.

    python3 bench/run.py --workload leftover-w8 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                    # every workload, traced and not
    python3 bench/run.py --record   # rewrite bench/hl_expansions.json, bench/digests.json

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  Each pass is a fresh ``python3 -I bench/worker.py``
child with an address-space cap and a wall timeout; passes repeat until
``--seconds`` have elapsed and the medians are reported; times are scaled
to a reference speed measured in each child (see worker.py).  With ``--trace 1``
untraced and traced passes alternate and the per-layer metrics come from the
traced ones.  A table of every metric goes to stderr; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import compileall
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import REFERENCE_S
from workloads import HL_EXPANSIONS, WORKLOADS, multinomial, partitions

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"

DEFAULT_SEED = 1
DEFAULT_SECONDS = 30
# A pass that needs more is failing: the heaviest workload peaks near 100 MB.
MEM_CAP_BYTES = 2 << 30
# Every run ends (and prints) before this many seconds, however passes behave.
RUN_DEADLINE_S = 165.0


def _limit_memory(cap: int) -> None:
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


def run_pass(workload: str, ops: list[dict], traced: bool, timeout: float,
             mem_cap: int = MEM_CAP_BYTES) -> dict:
    """One child process.  Returns its events folded into one dict; ``error``
    says why the child ended early, if it did."""
    cmd = [sys.executable, "-I", str(BENCH_DIR / "worker.py")]
    job = {"root": str(ROOT), "workload": workload, "ops": ops, "trace": traced,
           "spawned": time.monotonic()}
    with subprocess.Popen(
        cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, cwd=ROOT, preexec_fn=lambda: _limit_memory(mem_cap),
    ) as proc:
        try:
            out, err = proc.communicate(json.dumps(job), timeout=max(timeout, 0.001))
            error = f"exit code {proc.returncode}" if proc.returncode else None
        except subprocess.TimeoutExpired:
            proc.kill()
            out, err = proc.communicate()
            error = f"timed out after {timeout:.1f} s"
    result = {"traced": traced, "ops": {}, "error": error,
              "elapsed_s": time.monotonic() - job["spawned"]}
    for line in out.splitlines():
        try:
            event = json.loads(line)
        except ValueError:
            continue  # a line cut short by a kill
        kind = event.pop("event", None)
        if kind == "op":
            result["ops"][event["id"]] = event
        elif kind in ("setup", "done"):
            result.update(event)
    if error:
        tail = err.strip().splitlines()[-1:] or [""]
        result["error"] = f"{error}: {tail[0]}" if tail[0] else error
    return result


def check_digests(ops: list[dict], result: dict, digests: dict) -> None:
    """Mark operations whose captured stdout does not hash to the stored
    digest as failed.  Seeded operations have stored digests for the default
    seed only."""
    for op in ops:
        got = result["ops"].get(op["id"])
        if not got or not got["ok"] or got.get("digest") is None:
            continue
        expected = digests.get(op["id"])
        if expected is None and op.get("seeded"):
            continue
        if expected != got["digest"]:
            got["ok"] = False
            got["error"] = "stdout digest differs from bench/digests.json"


def layer_metrics(trace: dict, stats: list[dict]) -> dict[str, float]:
    """The per-layer metrics of one traced pass (see README.md for which
    end-to-end metric each should move)."""

    def get(name: str, key: str) -> float:
        return trace.get(name, {}).get(key, 0)

    def layer_self(layer: str) -> float:
        return sum(v["self_s"] for k, v in trace.items() if k.startswith(layer + "."))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def total(key: str) -> int:
        return sum(s.get(key, 0) for s in stats)

    return {
        "combinatorics.decompositions.items": get("combinatorics.decompositions", "items"),
        "combinatorics.decompositions.self_s": get("combinatorics.decompositions", "self_s"),
        "combinatorics.rsk_shape.calls": get("combinatorics.rsk_shape", "calls"),
        "combinatorics.rsk_shape.self_s": get("combinatorics.rsk_shape", "self_s"),
        "combinatorics.rsk_insert.self_s": get("combinatorics.rsk_insert", "self_s"),
        "combinatorics.composition_of_set.calls": get("combinatorics.composition_of_set", "calls"),
        "combinatorics.self_s": layer_self("combinatorics"),
        "hall_littlewood.inv_zero_fillings.items": get("hall_littlewood.inv_zero_fillings", "items"),
        "hall_littlewood.inv_zero_fillings.self_s": get("hall_littlewood.inv_zero_fillings", "self_s"),
        "hall_littlewood.walks_per_shape": ratio(
            get("hall_littlewood.inv_zero_fillings", "calls"),
            get("hall_littlewood.leftover_experiment", "calls"),
        ),
        "hall_littlewood.maj_stat.self_s": get("hall_littlewood.maj_stat", "self_s"),
        "hall_littlewood.pides.self_s": get("hall_littlewood.pides", "self_s"),
        "hall_littlewood.self_s": layer_self("hall_littlewood"),
        "hall_littlewood.kept_frac": ratio(total("kept"), total("fillings")),
        "schur.straighten.calls": get("schur.straighten", "calls"),
        "schur.straighten.self_s": get("schur.straighten", "self_s"),
        "schur.straighten.zero_frac": ratio(
            get("schur.straighten", "zero"), get("schur.straighten", "calls")
        ),
        "schur.schur_bialternant.self_s": get("schur.schur_bialternant", "self_s"),
        "schur.self_s": layer_self("schur"),
        "polynomial.vandermonde.self_s": get("polynomial.vandermonde", "self_s"),
        "polynomial.antisymmetrize.self_s": get("polynomial.antisymmetrize", "self_s"),
        "polynomial.antisymmetrize.terms_out": get("polynomial.antisymmetrize", "terms_out"),
        "polynomial.exact_divide.self_s": get("polynomial.exact_divide", "self_s"),
        "polynomial.exact_divide.quotient_terms": get("polynomial.exact_divide", "quotient_terms"),
        "polynomial.from_json_dict.self_s": get("polynomial.from_json_dict", "self_s"),
        "polynomial.is_symmetric.self_s": get("polynomial.is_symmetric", "self_s"),
        "polynomial.swap_variables.self_s": get("polynomial.swap_variables", "self_s"),
        "polynomial.self_s": layer_self("polynomial"),
        "quasisym.fundamental.calls": get("quasisym.fundamental", "calls"),
        "quasisym.fundamental.self_s": get("quasisym.fundamental", "self_s"),
        "quasisym.expansion_to_poly.self_s": get("quasisym.expansion_to_poly", "self_s"),
        "quasisym.extract_f_expansion.self_s": get("quasisym.extract_f_expansion", "self_s"),
        "quasisym.self_s": layer_self("quasisym"),
        "elw.constrained_monomials.items": get("elw.constrained_monomials", "items"),
        "elw.involution.calls": get("elw.involution", "calls"),
        "elw.verify_involution.self_s": get("elw.verify_involution", "self_s"),
        "elw.elw_to_schur.self_s": get("elw.elw_to_schur", "self_s"),
        "elw.self_s": layer_self("elw"),
        "cli.main.calls": get("cli.main", "calls"),
        "cli.self_s": layer_self("cli"),
        "cli.stdout_bytes": total("stdout_bytes"),
    }


def cross_checks(workload: str, ops: list[dict], trace: dict, stats: list[dict]) -> list[str]:
    """Counts from the traced pass that must equal independent totals, so that
    skipped work shows as a failed check and not as a speed-up."""
    problems = []
    if workload == "leftover-w8":
        items = trace.get("hall_littlewood.inv_zero_fillings", {}).get("items", 0)
        walks = trace.get("hall_littlewood.inv_zero_fillings", {}).get("calls", 0)
        shapes = trace.get("hall_littlewood.leftover_experiment", {}).get("calls", 0)
        expected = sum(multinomial(op["mu"]) for op in ops)
        # every shape walks its fillings at least once, and
        # items / walks_per_shape == expected, kept in integers
        if shapes != len(ops) or walks < shapes or items * shapes != expected * walks:
            problems.append(
                f"inv_zero_fillings yielded {items} fillings over {walks} walks "
                f"of {shapes} shapes; expected {expected} per walk of {len(ops)} shapes"
            )
    if workload == "involution-cli":
        items = trace.get("elw.constrained_monomials", {}).get("items", 0)
        reported = sum(s.get("monomials", 0) for s in stats)
        if items != reported:
            problems.append(
                f"constrained_monomials yielded {items} words; the CLI reported {reported}"
            )
    return problems


def measure(workload: str, seed: int, seconds: float, trace: bool, *,
            tiny: bool = False, digests: dict | None = None,
            pass_timeout: float | None = None, mem_cap: int = MEM_CAP_BYTES,
            deadline: float | None = None, log=sys.stderr) -> dict:
    """Run passes of ``workload`` for ``seconds`` and reduce them to the
    contract's result object (plus ``passes`` for the human table)."""
    ops = WORKLOADS[workload].ops(seed, tiny)
    start = time.monotonic()
    deadline = deadline if deadline is not None else start + RUN_DEADLINE_S
    modes = (False, True) if trace else (False,)
    passes: list[dict] = []
    while not passes or time.monotonic() - start < seconds:
        # start a round only if it can end before the deadline
        longest = max((p["elapsed_s"] for p in passes), default=0.0)
        if deadline - time.monotonic() < 1.5 * longest * len(modes):
            break
        for traced in modes:
            timeout = deadline - time.monotonic()
            if pass_timeout is not None:
                timeout = min(timeout, pass_timeout)
            passes.append(run_pass(workload, ops, traced, timeout, mem_cap))
            if digests is not None:
                check_digests(ops, passes[-1], digests)

    attempted = failed = 0
    problems: list[str] = []
    for p in passes:
        attempted += len(ops)
        for op in ops:
            got = p["ops"].get(op["id"])
            if got is None or not got["ok"]:
                failed += 1
                reason = got["error"] if got else p["error"] or "no result"
                problems.append(f"{op['id']}: {reason}")
    complete = [p for p in passes if "wall_s" in p]
    untraced = [p for p in complete if not p["traced"]]
    traced = [p for p in complete if p["traced"]]

    # With no complete pass there is no time or memory to report; a failed
    # pass must not read as the fastest one.
    metrics = None
    if trace and traced and untraced:
        per_pass = []
        for p in traced:
            stats = [o.get("stats", {}) for o in p["ops"].values()]
            per_pass.append(layer_metrics(p["trace"], stats))
            problems += cross_checks(workload, ops, p["trace"], stats)
        metrics = {
            name: statistics.median(m[name] for m in per_pass)
            for name in layer_metrics({}, [])
        }
        metrics["trace.overhead_s"] = statistics.median(
            p["wall_s"] for p in traced
        ) - statistics.median(p["wall_s"] for p in untraced)
    elif not trace and untraced:
        metrics = {
            "wall_s": statistics.median(p["wall_s"] for p in untraced),
            "setup_s": statistics.median(p["setup_s"] for p in passes if "setup_s" in p),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in untraced),
            "ok_frac": (attempted - failed) / attempted,
        }
    else:
        problems.append("no pass completed" if not trace
                        else "no traced and untraced pair of passes completed")
    for line in problems[:20]:
        print(f"FAILED {workload}: {line}", file=log)
    if len(problems) > 20:
        print(f"FAILED {workload}: ... {len(problems) - 20} more", file=log)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "passes": passes,
    }


def print_table(workload: str, result: dict, units: dict, out) -> None:
    passes = result["passes"]
    print(f"# {workload}: {len(passes)} passes, {result['attempted']} operations "
          f"attempted, {result['failed']} failed, correct={result['correct']}", file=out)
    for name, value in (result["metrics"] or {}).items():
        print(f"  {name:44s} {value:>14.6g} {units[name]}", file=out)
    untraced = [p for p in passes if "wall_raw_s" in p and not p["traced"]]
    if untraced:
        raw = statistics.median(p["wall_raw_s"] for p in untraced)
        ref = statistics.median(p["reference_s"] for p in untraced)
        print(f"  unscaled wall time {raw:.4f} s; reference reading {1000 * ref:.3f} ms "
              f"(scaled to {1000 * REFERENCE_S:.3f} ms)", file=out)
    traced = [p for p in passes if p.get("trace")]
    if traced:
        p = traced[0]
        print(f"  spans of the first traced pass ({p['spans']} spans), by self time:",
              file=out)
        rows = sorted(p["trace"].items(), key=lambda kv: -kv[1]["self_s"])
        for name, row in rows:
            print(f"    {name:42s} self {row['self_s']:9.4f} s  total {row['total_s']:9.4f} s"
                  f"  calls {row['calls']:>8}  items {row['items']:>8}", file=out)


def record_hl_expansions() -> None:
    """Write the Schur expansions of H~_mu, mu a partition of 4 or 8, from the
    program's ``hll_expansion``.  ``fschur-cli`` builds its seeded documents
    from them."""
    sys.path.insert(0, str(SRC))
    from quasischur.hall_littlewood import hll_expansion

    table = {}
    for n in (4, 8):
        table[str(n)] = {
            ",".join(map(str, mu)): [[t["index"], t["coeff"]]
                                     for t in hll_expansion(mu).to_json_dict()["terms"]]
            for mu in partitions(n)
        }
    HL_EXPANSIONS.write_text(json.dumps(
        {"source": "quasischur.hall_littlewood.hll_expansion", "expansions": table},
        separators=(",", ":")) + "\n")
    print(f"wrote H~_mu for the partitions of 4 and 8 to {HL_EXPANSIONS.relative_to(ROOT)}")


def record() -> int:
    record_hl_expansions()
    table = {}
    for name in ("involution-cli", "fschur-cli"):
        result = measure(name, DEFAULT_SEED, 0, False)
        if result["failed"]:
            print(f"{name}: {result['failed']} operations failed; nothing written",
                  file=sys.stderr)
            return 1
        for op_id, got in result["passes"][0]["ops"].items():
            table[op_id] = got["digest"]
    DIGESTS.write_text(json.dumps({"seed": DEFAULT_SEED, "digests": table}, indent=1,
                                  sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {DIGESTS.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help=f"rewrite {HL_EXPANSIONS.name} and {DIGESTS.name} from the "
                             "program's outputs")
    args = parser.parse_args(argv)

    if not (SRC / "quasischur" / "__init__.py").is_file():
        print(f"error: no quasischur package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    compileall.compile_dir(str(SRC), quiet=2)
    if args.record:
        return record()
    table = json.loads(DIGESTS.read_text())["digests"]

    if args.workload != "all":
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                         digests=table, deadline=start + RUN_DEADLINE_S)
        if result["metrics"] is None:
            print(f"error: no pass of {args.workload} completed; no result",
                  file=sys.stderr)
            return 1
        expected = spec["per_layer" if args.trace else "end_to_end"]
        mismatch = {m["name"] for m in expected} ^ set(result["metrics"])
        if mismatch:
            print(f"error: metrics and BENCHMARK.json disagree on {sorted(mismatch)}",
                  file=sys.stderr)
            return 2
        print_table(args.workload, result, units, sys.stderr)
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": result["metrics"][name], "unit": units[name]}
                        for name in (m["name"] for m in expected)},
        }))
        return 0

    all_correct = True
    for name in WORKLOADS:
        for trace in (False, True):
            result = measure(name, args.seed, args.seconds, trace, digests=table,
                             log=sys.stdout)
            print_table(name, result, units, sys.stdout)
            all_correct &= result["correct"]
    print("all checks passed" if all_correct else "SOME CHECKS FAILED")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
