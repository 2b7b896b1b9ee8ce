import gc
from operator import add

import pytest

from quasischur.combinatorics import compositions_of, pad, partitions_of
from quasischur.polynomial import SparsePoly, class_map, staircase
from quasischur.schur import SignedSchur, schur_ssyt, straighten

from oracles import antisymmetrize, is_symmetric, monomial, mul, one, straighten_once, variable


def is_schur_by_class_map(f, lam, n):
    """Whether f = s_lam in n variables, without division: for a symmetric f,
    the alternant of f * x^delta is f * a_delta, and a_delta is a
    nonzerodivisor, so f = s_lam exactly when that alternant is the one of
    x^(lam + delta)."""
    delta = staircase(n)
    lifted = class_map((tuple(map(add, exps, delta)), c) for exps, c in f.terms())
    return is_symmetric(f) and lifted == {tuple(map(add, pad(lam, n), delta)): 1}


def weak_compositions(total, length):
    if length == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in weak_compositions(total - first, length - 1):
            yield (first,) + rest


class TestStraighten:
    def test_forced_zero(self):
        assert straighten((1, 2)).is_zero()

    def test_non_integer_entry_is_refused(self):
        with pytest.raises(TypeError):
            straighten((1.7, 0))

    def test_signed_example(self):
        assert straighten((1, 3)) == SignedSchur.of(-1, (2, 2))

    def test_signed_value_needs_a_unit_sign(self):
        with pytest.raises(ValueError, match="sign must be"):
            SignedSchur.of(0, (1,))

    def test_partition_is_fixed(self):
        assert straighten((3, 1)) == SignedSchur.of(1, (3, 1))

    def test_padded_example_matches_bialternant(self):
        gamma = pad((2, 3, 2, 1), 8)
        normal = straighten(gamma)
        # the shifted vector has a repeat here, so the alternant of
        # x^(gamma + delta), the bialternant's numerator, vanishes too
        assert normal.is_zero()
        assert class_map([(tuple(map(add, gamma, staircase(8))), 1)]) == {}

    def test_trailing_zeros_dropped(self):
        assert straighten((2, 1, 0, 0)) == SignedSchur.of(1, (2, 1))

    def test_text_forms(self):
        assert str(straighten((1, 2))) == "0"
        assert str(straighten((1, 3))) == "-s[2,2]"
        assert str(straighten((3, 1))) == "+s[3,1]"

    def test_json_forms(self):
        assert straighten((1, 2)).to_json_dict() == {"zero": True}
        assert straighten((1, 3)).to_json_dict() == {"sign": -1, "shape": [2, 2]}

    def test_exchange_negation(self):
        # one application of the exchange rule flips the straightened sign
        for weight in range(7):
            for length in range(1, 6):
                for gamma in weak_compositions(weight, length):
                    for i in range(1, length):
                        if gamma[i] == 0:
                            continue
                        a = straighten(gamma)
                        b = straighten(straighten_once(gamma, i))
                        if a.is_zero():
                            assert b.is_zero()
                        else:
                            assert b == SignedSchur.of(-a.sign, a.shape)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_padding_does_not_change_a_composition(self, n):
        # the padded zeros shift to a staircase tail below the shifted parts
        for alpha in compositions_of(n):
            for m in range(len(alpha), n + 4):
                assert straighten(alpha) == straighten(pad(alpha, m)), (alpha, m)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_partitions_fixed(self, n):
        for lam in partitions_of(n):
            for length in range(len(lam), n + 1):
                normal = straighten(pad(lam, length))
                assert normal == SignedSchur.of(1, lam)


class TestSsyt:
    def test_single_box_row(self):
        p = schur_ssyt((1,), 3)
        assert p == sum((variable(3, i) for i in (2, 3)), variable(3, 1))

    def test_two_fillings(self):
        p = schur_ssyt((2, 1), 2)
        expected = monomial(2, (2, 1)) + monomial(2, (1, 2))
        assert p == expected

    def test_column_taller_than_vars(self):
        assert schur_ssyt((1, 1, 1), 2).is_zero()

    def test_empty_shape(self):
        assert schur_ssyt((), 3) == one(3)
        assert schur_ssyt((), 0) == one(0)

    def test_negative_variable_count_rejected(self):
        with pytest.raises(ValueError, match="variable count must be non-negative"):
            schur_ssyt((), -1)

    @pytest.mark.parametrize("shape, nvars", [((2, 1), 3), ((3, 2, 1), 4)], ids=["2,1", "3,2,1"])
    def test_leaves_no_reference_cycle(self, shape, nvars):
        # the cyclic GC finds nothing to free after the uncached body
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            schur_ssyt.__wrapped__(shape, nvars)
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()


def alternant(n, exps, coeff=1):
    """The alternant of coeff * x^exps in n variables, through the n! oracle."""
    return antisymmetrize(monomial(n, exps, coeff))


class TestOracleAgreement:
    @pytest.mark.parametrize("length", range(1, 6))
    def test_straighten_matches_alternant(self, length):
        # s_gamma = sign * s_lam exactly when a_(gamma + delta) is sign times
        # a_(lam + delta), and s_gamma = 0 exactly when a_(gamma + delta) = 0:
        # both sides are divided by the same nonzerodivisor a_delta
        delta = staircase(length)
        for weight in range(7):
            for gamma in weak_compositions(weight, length):
                lifted = alternant(length, tuple(map(add, gamma, delta)))
                normal = straighten(gamma)
                if normal.is_zero():
                    assert lifted.is_zero(), gamma
                else:
                    lam = pad(normal.shape, length)
                    expected = alternant(length, tuple(map(add, lam, delta)), normal.sign)
                    assert lifted == expected, gamma

    @pytest.mark.parametrize("n", range(1, 7))
    def test_partition_cases(self, n):
        delta = staircase(n)
        for m in range(n + 1):
            for lam in partitions_of(m):
                if len(lam) > n:
                    continue
                f = schur_ssyt(lam, n)
                if n <= 5:
                    # for a symmetric f, the alternant of f * x^delta is
                    # f * a_delta, so f = s_lam when it is a_(lam + delta)
                    lifted = antisymmetrize(mul(f, monomial(n, delta)))
                    expected = alternant(n, tuple(map(add, pad(lam, n), delta)))
                    assert is_symmetric(f) and lifted == expected, lam
                else:
                    # the same identity, read off the class maps without the
                    # n! expansion
                    assert is_schur_by_class_map(f, lam, n), lam

    @pytest.mark.parametrize("n", [3, 4])
    def test_class_map_check_needs_every_monomial_and_symmetry(self, n):
        for m in range(1, 5):
            for lam in partitions_of(m):
                if len(lam) > n:
                    continue
                f = schur_ssyt(lam, n)
                assert is_schur_by_class_map(f, lam, n)
                terms = dict(f.terms())
                for exps in terms:
                    dropped = SparsePoly(n, {e: c for e, c in terms.items() if e != exps})
                    assert not is_schur_by_class_map(dropped, lam, n), (lam, exps)
                # x^lam alone has the alternant of x^(lam + delta); unless it
                # is s_lam, it is not symmetric
                single = monomial(n, pad(lam, n))
                if single != f:
                    assert not is_schur_by_class_map(single, lam, n), lam
