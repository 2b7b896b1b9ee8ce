from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from quasischur.combinatorics import permutation_sign
from quasischur.polynomial import (
    QT,
    QT_ONE,
    Q,
    T,
    ExactDivisionError,
    SparsePoly,
    antisymmetrize,
    class_map,
    exact_divide,
    staircase,
    vandermonde,
)
from quasischur.schur import schur_ssyt


def x(n, i):
    return SparsePoly.variable(n, i)


def qt_values():
    return st.builds(
        QT,
        st.dictionaries(
            st.tuples(st.integers(0, 2), st.integers(0, 2)),
            st.integers(-5, 5),
            max_size=3,
        ),
    )


def polys(nvars, max_exp=3, max_terms=4, coeffs=None):
    return st.builds(
        lambda terms: SparsePoly(nvars, terms),
        st.dictionaries(
            st.tuples(*[st.integers(0, max_exp)] * nvars),
            qt_values() if coeffs is None else coeffs,
            max_size=max_terms,
        ),
    )


class TestQT:
    def test_zero_is_dropped(self):
        assert QT({(1, 1): 0}).is_zero()

    def test_arithmetic(self):
        assert (Q + T) * (Q - T) == Q * Q - T * T
        assert Q * T == T * Q

    def test_triples_round_trip(self):
        value = QT.integer(3) + Q * T * T - T
        assert QT.from_triples(value.triples()) == value

    def test_str(self):
        assert str(QT_ONE + Q * T * T) == "1 + q*t^2"


class TestRingOps:
    def test_add_cancels(self):
        p = (x(2, 1) + x(2, 2)) + (-x(2, 2))
        assert p == x(2, 1)

    def test_difference_of_squares(self):
        left = (x(2, 1) - x(2, 2)) * (x(2, 1) + x(2, 2))
        assert left == x(2, 1) * x(2, 1) - x(2, 2) * x(2, 2)

    def test_scalar_chain(self):
        p = x(1, 1).scalar_mul(Q).scalar_mul(T)
        assert p == x(1, 1).scalar_mul(Q * T)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            x(2, 1) + x(3, 1)

    def test_json_round_trip(self):
        p = x(3, 1) * x(3, 2).scalar_mul(Q) + SparsePoly.monomial(3, (0, 1, 2), T)
        assert SparsePoly.from_json_dict(p.to_json_dict()) == p

    def test_json_term_order_is_graded_lex(self):
        p = x(2, 2) + x(2, 1) * x(2, 1) + SparsePoly.one(2)
        exps = [tuple(t["exps"]) for t in p.to_json_dict()["terms"]]
        assert exps == [(0, 0), (0, 1), (2, 0)]


class TestAntisymmetrize:
    def test_staircase_gives_vandermonde(self):
        assert antisymmetrize(SparsePoly.monomial(2, (1, 0))) == x(2, 1) - x(2, 2)

    def test_repeated_exponents_vanish(self):
        assert antisymmetrize(x(2, 1) * x(2, 2)).is_zero()

    def test_two_term_cancellation(self):
        p = SparsePoly.monomial(2, (2, 0)) + SparsePoly.monomial(2, (0, 2))
        assert antisymmetrize(p).is_zero()

    @pytest.mark.parametrize("n", range(2, 6))
    def test_vandermonde_identity(self, n):
        assert antisymmetrize(SparsePoly.monomial(n, staircase(n))) == vandermonde(n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_result_is_alternating(self, n, data):
        p = data.draw(polys(n))
        a = antisymmetrize(p)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                assert a.swap_variables(i, j) == -a


class TestClassMap:
    def test_repeated_exponents_vanish(self):
        assert class_map([((1, 1), 1)]) == {}

    def test_sorting_sign(self):
        assert class_map([((1, 2, 0), 1), ((0, 2, 1), 3)]) == {(2, 1, 0): 2}

    def test_cancelling_classes_are_dropped(self):
        assert class_map([((2, 0), 1), ((0, 2), 1)]) == {}

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_expands_to_antisymmetrize(self, n, data):
        # writing out each class over all n! orderings gives the alternant
        p = data.draw(polys(n))
        expanded = {}
        for exps, coeff in class_map(p.terms()).items():
            for perm in permutations(range(n)):
                expanded[tuple(exps[i] for i in perm)] = coeff * permutation_sign(perm)
        assert SparsePoly(n, expanded) == antisymmetrize(p)


class TestVandermonde:
    def test_one_variable(self):
        assert vandermonde(1) == SparsePoly.one(1)

    def test_two_variables(self):
        assert vandermonde(2) == x(2, 1) - x(2, 2)

    def test_three_variables(self):
        v = vandermonde(3)
        assert len(list(v.terms())) == 6
        assert dict(v.terms())[(2, 1, 0)] == QT_ONE


class TestExactDivide:
    def test_difference_of_squares(self):
        p = x(2, 1) * x(2, 1) - x(2, 2) * x(2, 2)
        assert exact_divide(p, x(2, 1) - x(2, 2)) == x(2, 1) + x(2, 2)

    def test_self_division(self):
        assert exact_divide(vandermonde(3), vandermonde(3)) == SparsePoly.one(3)

    def test_bialternant_example(self):
        num = antisymmetrize(SparsePoly.monomial(3, (3, 2, 0)))
        assert exact_divide(num, vandermonde(3)) == schur_ssyt((1, 1), 3)

    def test_non_divisible_raises(self):
        with pytest.raises(ExactDivisionError):
            exact_divide(x(2, 1) + SparsePoly.one(2), x(2, 2))

    def test_non_integer_coefficient_raises(self):
        # the division loop is over Z; the bialternant oracle only needs that
        with pytest.raises(TypeError):
            exact_divide(x(2, 1).scalar_mul(Q), x(2, 1))
        with pytest.raises(TypeError):
            exact_divide(x(2, 1), SparsePoly.one(2).scalar_mul(T))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_product_round_trip(self, n, data):
        p = data.draw(polys(n, coeffs=st.integers(-5, 5)))
        d = data.draw(polys(n, coeffs=st.integers(-5, 5)))
        if d.is_zero():
            return
        assert exact_divide(p * d, d) == p

    @pytest.mark.parametrize("n", range(1, 7))
    def test_alternant_divisibility(self, n):
        delta = staircase(n)
        seen = 0
        for weight in range(7):
            for gamma in _weak_compositions(weight, n):
                exps = tuple(g + d for g, d in zip(gamma, delta))
                numerator = antisymmetrize(SparsePoly.monomial(n, exps))
                exact_divide(numerator, vandermonde(n))  # must not raise
                seen += 1
                if seen > 40:  # keep the sweep cheap per n
                    return


def _weak_compositions(total, length):
    if length == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _weak_compositions(total - first, length - 1):
            yield (first,) + rest


class TestSymmetric:
    def test_sum_is_symmetric(self):
        assert (x(2, 1) + x(2, 2)).is_symmetric()

    def test_difference_is_not(self):
        assert not (x(2, 1) - x(2, 2)).is_symmetric()

    def test_fundamental_is_not_symmetric(self):
        from quasischur.quasisym import fundamental

        assert not fundamental((2, 1), 3).is_symmetric()

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_reconstruction_identity(self, n):
        # a symmetric f equals the antisymmetrizer of f * staircase divided
        # by the Vandermonde determinant
        from quasischur.combinatorics import partitions_of

        for degree in range(0, 6):
            for lam in partitions_of(degree):
                f = schur_ssyt(lam, n)
                if f.is_zero():
                    continue
                lifted = f * SparsePoly.monomial(n, staircase(n))
                assert exact_divide(antisymmetrize(lifted), vandermonde(n)) == f
