"""End-to-end acceptance suite.

Each test prints one PASS line on success; all comparisons are exact
(integer / polynomial equality, no tolerances).
"""

import json
import random
import subprocess
import sys

import pytest

import quasischur as qs
from quasischur.elw import locate_block
from quasischur.quasisym import Expansion

from oracles import (
    Q,
    compositions_of,
    decomposition_count,
    expansion_to_poly,
    haglund_expansion,
    is_symmetric,
    scalar_mul,
    zero,
)
from spawn import child_env


def _report(name):
    print(f"PASS: {name}")


def test_theorem_round_trip():
    """F-extraction followed by the F-to-s replacement recovers every Schur
    function exactly, and random integer combinations coefficient-exact."""
    rng = random.Random(20260825)
    for n in range(1, 7):
        partitions = list(qs.partitions_of(n))
        for lam in partitions:
            e = qs.extract_f_expansion(qs.schur_ssyt(lam, n))
            assert qs.elw_to_schur(e) == Expansion("s", n, {tuple(lam): 1})
        for _ in range(100):
            coeffs = {
                tuple(lam): rng.randint(-9, 9) for lam in partitions
            }
            poly = zero(n)
            for lam, c in coeffs.items():
                poly = poly + scalar_mul(qs.schur_ssyt(qs.Partition(lam), n), c)
            recovered = qs.elw_to_schur(qs.extract_f_expansion(poly))
            expected = Expansion("s", n, {k: v for k, v in coeffs.items() if v})
            if expected.is_zero():
                assert recovered.is_zero()
            else:
                assert recovered == expected
    _report("theorem round trip: exact for all partitions and 100 random "
            "combinations per degree, n <= 6")


def test_involution_suite():
    """All four involution clauses pass exhaustively for n <= 7 and for the
    worked compositions (2,3,3) and (3,3,2), the first with its documented
    block values."""
    for n in range(1, 8):
        for alpha in compositions_of(n):
            report = qs.verify_involution(alpha)
            assert report.passed(), (tuple(alpha), report.to_json_dict())
    for alpha in [(2, 3, 3), (3, 3, 2)]:
        report = qs.verify_involution(alpha)
        assert report.passed(), (alpha, report.to_json_dict())
    step = locate_block((2, 3, 3), (1, 1, 2, 2, 2, 3, 5, 5))
    assert (step.s, step.r) == (2, 3)
    _report("involution suite: exhaustive n <= 7 plus (2,3,3) with s=2, r=3 "
            "and (3,3,2)")


def test_hall_littlewood_positivity():
    """Non-negative integer t-coefficients for every shape of weight <= 7,
    with the filling census matching the multinomial count."""
    for n in range(1, 8):
        for mu in qs.partitions_of(n):
            e = qs.hll_expansion(mu)
            assert qs.is_schur_positive(e), (tuple(mu), e)
            census = sum(1 for _ in qs.inv_zero_fillings(mu))
            assert census == decomposition_count(mu)
    _report("Hall-Littlewood positivity and filling census, weight <= 7")


def test_convention_validation():
    """The full filling sum is symmetric per bidegree for weight <= 5, and the
    one-row anchor pins the inversion-triple orientation."""
    for n in range(1, 6):
        for mu in qs.partitions_of(n):
            e = haglund_expansion(mu)
            assert is_symmetric(expansion_to_poly(e, n)), tuple(mu)
            assert qs.is_symmetric_expansion(e), tuple(mu)
    anchor = haglund_expansion((2,))
    assert anchor == Expansion("F", 2, {(2,): 1, (1, 1): Q})
    _report("convention validation: symmetry for weight <= 5 and the "
            "one-row q-anchor")


def test_leftover_experiment_desk_slice():
    """Empty discrepancy for every shape of weight <= 6; exactly one
    discrepancy term for (3,3,3) over its 1680 fillings."""
    for n in range(1, 7):
        for mu in qs.partitions_of(n):
            report = qs.leftover_experiment(mu)
            assert report.discrepancy.is_zero(), (tuple(mu), report.discrepancy)
    report = qs.leftover_experiment((3, 3, 3))
    assert report.filling_count == 1680
    assert len(list(report.discrepancy.terms())) == 1
    assert report.conjectured + report.discrepancy == report.true_expansion
    _report("leftover experiment: empty through weight 6, one term for (3,3,3)")


def test_cli_determinism():
    """Identical CLI invocations produce byte-identical output."""
    commands = [
        ["straighten", "--json", "1,3"],
        ["hll", "2,1"],
        ["hll", "--experiment", "2,2"],
        ["verify-involution", "2,1"],
        ["positivity", "4"],
    ]
    for argv in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "quasischur"] + argv,
                capture_output=True,
                check=True,
                env=child_env(),
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1], argv
        json.loads(runs[0])  # stable and well-formed
    _report("CLI determinism: byte-identical repeated runs")


@pytest.mark.slow
def test_slow_tier_weight_nine():
    """Every shape of weight 9 except (3,3,3) has an empty discrepancy."""
    for mu in qs.partitions_of(9):
        report = qs.leftover_experiment(mu)
        if tuple(mu) == (3, 3, 3):
            assert len(list(report.discrepancy.terms())) == 1
        else:
            assert report.discrepancy.is_zero(), tuple(mu)
    _report("slow tier: weight-9 sweep matches the reported computation")
