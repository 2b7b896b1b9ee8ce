import operator
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from quasischur.combinatorics import permutation_sign
from quasischur.polynomial import QT, QT_ONE, Q, T, SparsePoly, class_map, staircase
from quasischur.quasisym import Expansion
from quasischur.schur import schur_ssyt

from oracles import (
    antisymmetrize,
    is_symmetric,
    monomial,
    mul,
    one,
    scalar_mul,
    swap_variables,
    variable,
)


def x(n, i):
    return variable(n, i)


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

    @pytest.mark.parametrize(
        "terms", [{(0, 0): 2.5}, {(0, 0): "2"}, {(1.5, 0): 1}, {(0, 1.0): 1}]
    )
    def test_non_integers_are_refused(self, terms):
        with pytest.raises(TypeError):
            QT(terms)

    def test_bool_is_an_int(self):
        assert QT({(0, 0): True}) == QT_ONE and str(QT({(1, 0): True})) == "q"

    def test_non_number_operand_is_refused(self):
        with pytest.raises(TypeError):
            QT.integer(1) * "x"

    def test_repr(self):
        assert repr(QT_ONE + Q * T * T) == "QT(1 + q*t^2)"
        assert repr(SparsePoly(2, {(1, 0): Q, (0, 2): 1})) == "SparsePoly(2, q*x1 + 1*x2^2)"


class TestRingOps:
    def test_add_cancels(self):
        p = (x(2, 1) + x(2, 2)) + (-x(2, 2))
        assert p == x(2, 1)

    def test_difference_of_squares(self):
        left = mul(x(2, 1) - x(2, 2), x(2, 1) + x(2, 2))
        assert left == mul(x(2, 1), x(2, 1)) - mul(x(2, 2), x(2, 2))

    def test_scalar_chain(self):
        p = scalar_mul(scalar_mul(x(1, 1), Q), T)
        assert p == scalar_mul(x(1, 1), Q * T)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            x(2, 1) + x(3, 1)

    @pytest.mark.parametrize("exps", [(-1,), (1, -1), (-2, 0)], ids=str)
    def test_negative_exponent_is_refused(self, exps):
        nvars = len(exps)
        with pytest.raises(ValueError, match="negative exponent"):
            SparsePoly(nvars, {exps: 1})
        doc = {"vars": nvars, "terms": [{"exps": list(exps), "coeff": [[0, 0, 1]]}]}
        with pytest.raises(ValueError, match="negative exponent"):
            SparsePoly.from_json_dict(doc)

    def test_non_integer_exponent_is_refused(self):
        with pytest.raises(TypeError):
            SparsePoly(1, {(1.5,): 1})
        with pytest.raises(TypeError):
            SparsePoly(2.5)

    def test_keys_read_alike_are_added(self):
        assert SparsePoly(2, {range(2): 1, (0, 1): 1}) == SparsePoly(2, {(0, 1): 2})
        assert SparsePoly(2, {range(2): 1, (0, 1): -1}).is_zero()
        assert Expansion("F", 3, {range(1, 3): 1, (1, 2): 1}) == Expansion("F", 3, {(1, 2): 2})

    def test_json_round_trip(self):
        p = mul(x(3, 1), scalar_mul(x(3, 2), Q)) + monomial(3, (0, 1, 2), T)
        assert SparsePoly.from_json_dict(p.to_json_dict()) == p

    def test_json_term_order_is_graded_lex(self):
        p = x(2, 2) + mul(x(2, 1), x(2, 1)) + one(2)
        exps = [tuple(t["exps"]) for t in p.to_json_dict()["terms"]]
        assert exps == [(0, 0), (0, 1), (2, 0)]


class TestAntisymmetrize:
    def test_staircase_gives_vandermonde(self):
        assert antisymmetrize(monomial(2, (1, 0))) == x(2, 1) - x(2, 2)

    def test_repeated_exponents_vanish(self):
        assert antisymmetrize(mul(x(2, 1), x(2, 2))).is_zero()

    def test_two_term_cancellation(self):
        p = monomial(2, (2, 0)) + monomial(2, (0, 2))
        assert antisymmetrize(p).is_zero()

    @pytest.mark.parametrize("n", range(2, 6))
    def test_vandermonde_identity(self, n):
        product = one(n)
        for i, j in combinations(range(1, n + 1), 2):
            product = mul(product, x(n, i) - x(n, j))
        assert antisymmetrize(monomial(n, staircase(n))) == product

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_result_is_alternating(self, n, data):
        p = data.draw(polys(n))
        a = antisymmetrize(p)
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                assert swap_variables(a, i, j) == -a


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


class TestSymmetric:
    def test_sum_is_symmetric(self):
        assert is_symmetric(x(2, 1) + x(2, 2))

    def test_difference_is_not(self):
        assert not is_symmetric(x(2, 1) - x(2, 2))

    def test_fundamental_is_not_symmetric(self):
        from quasischur.quasisym import fundamental

        assert not is_symmetric(fundamental((2, 1), 3))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_reconstruction_identity(self, n):
        # a symmetric f commutes with the antisymmetrizer: the alternant of
        # f * x^staircase is f times the Vandermonde alternant, and that is a
        # nonzerodivisor, so f is recovered from it without a division
        from quasischur.combinatorics import partitions_of

        vandermonde = antisymmetrize(monomial(n, staircase(n)))
        for degree in range(0, 6):
            for lam in partitions_of(degree):
                f = schur_ssyt(lam, n)
                if f.is_zero():
                    continue
                lifted = mul(f, monomial(n, staircase(n)))
                assert antisymmetrize(lifted) == mul(f, vandermonde)


# one element of each sparse container, a second element of the same space
# that cancels exactly one of its keys, and elements of the same class in
# other spaces
SPARSE_MAPS = {
    "QT": (QT_ONE + Q - T * T, T * T + Q, []),
    "SparsePoly": (
        SparsePoly(2, {(1, 0): Q, (0, 2): QT_ONE - T}),
        SparsePoly(2, {(0, 2): T - QT_ONE, (1, 1): T}),
        [SparsePoly(3, {(1, 0, 0): Q})],
    ),
    "Expansion": (
        Expansion("F", 3, {(2, 1): Q, (1, 1, 1): QT_ONE - T}),
        Expansion("F", 3, {(1, 1, 1): T - QT_ONE, (3,): T}),
        [Expansion("M", 3, {(2, 1): Q}), Expansion("F", 2, {(2,): Q})],
    ),
}


@pytest.mark.parametrize("name", SPARSE_MAPS)
class TestSharedSparseMap:
    def test_sums_drop_every_cancelled_key(self, name):
        a, b, _ = SPARSE_MAPS[name]
        assert (a + (-a)).is_zero() and (a - a).is_zero() and not (a - a)
        total = a + b
        keys = {key for key, _ in a.terms()} | {key for key, _ in b.terms()}
        assert len(total.terms()) == len(keys) - 1
        for value in (total, a - (-b), -total, a + b - b):
            assert all(coeff for _, coeff in value.terms())
        assert a + b - b == a

    def test_other_spaces_are_refused_and_unequal(self, name):
        a, _, others = SPARSE_MAPS[name]
        for other in others:
            assert a != other and other != a
            for op in (operator.add, operator.sub):
                for left, right in ((a, other), (other, a)):
                    with pytest.raises(ValueError):
                        op(left, right)

    def test_int_operands(self, name):
        a, _, _ = SPARSE_MAPS[name]
        if name != "QT":
            for op in (operator.add, operator.sub):
                with pytest.raises(TypeError):
                    op(a, 1)
                with pytest.raises(TypeError):
                    op(1, a)
            assert a != 0
            return
        assert a + 1 == 1 + a == QT.integer(2) + Q - T * T and a - 1 == Q - T * T
        assert 1 - a == T * T - Q and 0 - a == -a
        assert sum([T, T]) == 2 * T and sum([a, -a]) == 0
        assert 2 * a == a * 2 == a + a and a * 0 == 0 and 0 * a == QT()
        assert QT.integer(3) == 3 and 3 == QT.integer(3) and QT() == 0

    def test_hashable_exactly_for_qt(self, name):
        a, _, _ = SPARSE_MAPS[name]
        if name == "QT":
            assert {a: 1}[QT_ONE + Q - T * T] == 1
        else:
            with pytest.raises(TypeError):
                hash(a)
