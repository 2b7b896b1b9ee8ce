"""Command-line interface with deterministic JSON/text output.

Exit codes: 0 success, 2 usage or parse error, 3 semantic verification
failure.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys

from .combinatorics import Composition, Partition, WeakComposition, partitions_of
from .elw import elw_to_schur, verify_involution
from .hall_littlewood import hll_expansion, is_schur_positive, leftover_experiment
from .quasisym import (
    Expansion,
    extract_f_expansion,
    fundamental,
    is_symmetric_expansion,
)
from .polynomial import SparsePoly
from .schur import straighten

ENV_MAX_N = "QUASISCHUR_MAX_N"
DEFAULT_MAX_N = 9

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_VERIFY = 3


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(piece) for piece in text.split(","))
    except ValueError:
        raise CliError(f"expected comma-separated integers, got {text!r}")


def _parse(text: str, kind):
    """The comma-separated integers of text as a kind: WeakComposition,
    Composition or Partition."""
    try:
        return kind(_parse_ints(text))
    except ValueError as exc:
        raise CliError(str(exc))


def _emit(result, text: bool) -> None:
    """Print result as text, or its compact JSON: result is a JSON document
    itself or has a to_json_dict."""
    if text:
        print(result)
    else:
        doc = result if isinstance(result, dict) else result.to_json_dict()
        print(json.dumps(doc, separators=(",", ":")))


def _read_document(path: str, parse, kind: str):
    """Load a JSON document from a file or stdin (`-`) and parse it.

    It runs inside main's pause of the cyclic GC: a pause that ended here
    would leave the decoded maps alive, and the command's next allocations
    would start a collection that scans all of them."""
    try:
        if path == "-":
            doc = json.load(sys.stdin)
        else:
            with open(path, encoding="utf-8") as handle:
                doc = json.load(handle)
        return parse(doc)
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        # RecursionError: the decoder's nesting limit, from a few kB of brackets
        raise CliError(f"cannot read {kind} document: {exc}")


def _within_bound(args, what: str, size: int) -> None:
    """Refuse a size over the bound, before any work on it: --max-n, else
    the environment variable, else DEFAULT_MAX_N."""
    max_n = args.max_n
    if max_n is None:
        env = os.environ.get(ENV_MAX_N, str(DEFAULT_MAX_N))
        try:
            max_n = int(env)
        except ValueError:
            raise CliError(f"{ENV_MAX_N} must be an integer, got {env!r}")
    if size > max_n:
        raise CliError(f"{what} {size} exceeds bound {max_n}")


def cmd_straighten(args) -> int:
    _emit(straighten(_parse(args.gamma, WeakComposition)), text=not args.json)
    return EXIT_OK


def cmd_fundamental(args) -> int:
    alpha = _parse(args.alpha, Composition)
    nvars = alpha.weight if args.vars is None else args.vars
    # the output has C(nvars - len(alpha) + weight, weight) monomials
    _within_bound(args, "weight", alpha.weight)
    _within_bound(args, "variable count", nvars)
    try:
        poly = fundamental(alpha, nvars)
    except ValueError as exc:
        raise CliError(str(exc))
    _emit(poly, args.text)
    return EXIT_OK


def cmd_fexpand(args) -> int:
    poly = _read_document(args.input, SparsePoly.from_json_dict, "polynomial")
    _within_bound(args, "degree", poly.degree())
    try:
        expansion = extract_f_expansion(poly)
    except ValueError as exc:
        raise CliError(str(exc))
    _emit(expansion, args.text)
    return EXIT_OK


def cmd_toschur(args) -> int:
    expansion = _read_document(args.input, Expansion.from_json_dict, "expansion")
    if expansion.basis != "F":
        raise CliError(f"expected an F-basis expansion, got basis {expansion.basis!r}")
    if args.verify_symmetric:
        # the check walks all 2^(degree-1) compositions of the degree
        _within_bound(args, "degree", expansion.degree)
        if not is_symmetric_expansion(expansion):
            raise CliError("input is not symmetric", code=EXIT_VERIFY)
    _emit(elw_to_schur(expansion), args.text)
    return EXIT_OK


def cmd_verify_involution(args) -> int:
    alpha = _parse(args.alpha, Composition)
    _within_bound(args, "weight", alpha.weight)
    report = verify_involution(alpha)
    _emit(report, False)
    return EXIT_OK if report.passed() else EXIT_VERIFY


def cmd_hll(args) -> int:
    mu = _parse(args.mu, Partition)
    _within_bound(args, "weight", mu.weight)
    if args.experiment:
        _emit(leftover_experiment(mu), False)
    else:
        _emit(hll_expansion(mu), args.text)
    return EXIT_OK


def cmd_positivity(args) -> int:
    if args.n < 1:
        raise CliError(f"weight must be positive, got {args.n}")
    _within_bound(args, "weight", args.n)
    results = []
    all_positive = True
    for mu in partitions_of(args.n):
        positive = is_schur_positive(hll_expansion(mu))
        all_positive = all_positive and positive
        results.append({"mu": list(mu), "positive": positive})
    _emit({"n": args.n, "shapes": results, "all_positive": all_positive}, False)
    return EXIT_OK if all_positive else EXIT_VERIFY


def _add_max_n(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-n", type=int, default=None,
                   help=f"size bound (default: ${ENV_MAX_N}, else {DEFAULT_MAX_N})")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built on the first call and shared after
    that: parsing reads it and leaves it as it was, and a new namespace
    holds each call's arguments."""
    parser = argparse.ArgumentParser(
        prog="quasischur",
        description="Exact F-to-Schur expansion conversion and related checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("straighten", help="normal form of a composition-indexed Schur function")
    p.add_argument("gamma", help="weak composition, e.g. 1,3,0")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.set_defaults(func=cmd_straighten)

    p = sub.add_parser("fundamental", help="expand a fundamental quasisymmetric polynomial")
    p.add_argument("alpha", help="composition, e.g. 2,1")
    p.add_argument("--vars", type=int, default=None, help="variable count (default: weight)")
    p.add_argument("--text", action="store_true", help="human-readable output")
    _add_max_n(p)
    p.set_defaults(func=cmd_fundamental)

    p = sub.add_parser("fexpand", help="extract the F-expansion of a polynomial document")
    p.add_argument("input", nargs="?", default="-", help="polynomial JSON file or - for stdin")
    p.add_argument("--text", action="store_true")
    _add_max_n(p)
    p.set_defaults(func=cmd_fexpand)

    p = sub.add_parser("toschur", help="convert an F-expansion to a Schur expansion")
    p.add_argument("input", nargs="?", default="-", help="expansion JSON file or - for stdin")
    p.add_argument("--verify-symmetric", action="store_true",
                   help="abort unless the input is symmetric in degree-many variables")
    p.add_argument("--text", action="store_true")
    _add_max_n(p)
    p.set_defaults(func=cmd_toschur)

    p = sub.add_parser("verify-involution", help="run the four involution checks")
    p.add_argument("alpha", help="composition, e.g. 2,3,3")
    _add_max_n(p)
    p.set_defaults(func=cmd_verify_involution)

    p = sub.add_parser("hll", help="Schur expansion of the modified Hall-Littlewood polynomial")
    p.add_argument("mu", help="partition, e.g. 3,3,3")
    output = p.add_mutually_exclusive_group()  # the experiment report is JSON only
    output.add_argument("--experiment", action="store_true",
                        help="run the Schensted leftover experiment and report the discrepancy")
    output.add_argument("--text", action="store_true")
    _add_max_n(p)
    p.set_defaults(func=cmd_hll)

    p = sub.add_parser("positivity", help="check Schur positivity for all shapes of a weight")
    p.add_argument("n", type=int)
    _add_max_n(p)
    p.set_defaults(func=cmd_positivity)

    return parser


def main(argv=None) -> int:
    """Run one command line and return its exit code.

    The cyclic GC is paused while the command runs and its output is
    flushed, and the caller's GC state is restored on every exit.  No
    command leaves reference cycles, so reference counting frees the
    command's maps before the pause ends and its passes would only have
    scanned them.  The pause ends after the command has returned: one that
    ended inside it, with a document's maps still alive, would only move
    the scan.  Argparse's usage errors exit before the pause."""
    parser = build_parser()
    args = parser.parse_args(argv)
    enabled = gc.isenabled()
    gc.disable()
    try:
        code = args.func(args)
        # flush here, so that a reader closing early is met below
        sys.stdout.flush()
        return code
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except BrokenPipeError:
        # the reader has what it wanted; send the unflushed rest to devnull so
        # the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
