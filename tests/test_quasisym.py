import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from quasischur import elw
from quasischur.combinatorics import partitions_of, set_of_composition
from quasischur.polynomial import QT, QT_ZERO, SparsePoly
from quasischur.quasisym import (
    Expansion,
    _exponents,
    extract_f_expansion,
    fundamental,
    fundamental_words,
    is_symmetric_expansion,
)
from quasischur.schur import schur_ssyt

from oracles import (
    Q,
    T,
    compositions_of,
    expansion_to_poly,
    is_symmetric,
    monomial,
    monomial_qs_coefficients,
    monomial_quasisym,
    one,
    scalar_mul,
    set_variable_to_zero,
    zero,
)


class TestExpansion:
    def test_rejects_mixed_degree(self):
        with pytest.raises(ValueError):
            Expansion("F", 3, {(2, 1): 1, (2, 2): 1})

    def test_rejects_unknown_basis(self):
        with pytest.raises(ValueError):
            Expansion("X", 2, {})

    def test_non_integers_are_refused(self):
        # the float index is refused, not read as (1, 2) over the other term
        with pytest.raises(TypeError):
            Expansion("F", 3, {(1.5, 2): 1, (1, 2): 1})
        with pytest.raises(TypeError):
            Expansion("F", 2.0)

    def test_non_number_coefficient_is_refused(self):
        with pytest.raises(TypeError, match="cannot use str as a Z\\[q,t\\] coefficient"):
            Expansion("F", 1, {(1,): "x"})

    def test_s_basis_needs_partitions(self):
        with pytest.raises(ValueError):
            Expansion("s", 3, {(1, 2): 1})

    def test_zero_coefficients_dropped(self):
        assert Expansion("F", 2, {(2,): 0}).is_zero()

    def test_json_round_trip(self):
        e = Expansion("F", 3, {(2, 1): QT.integer(2), (1, 1, 1): T})
        assert Expansion.from_json_dict(e.to_json_dict()) == e

    def test_json_sorted_by_index(self):
        e = Expansion("F", 3, {(3,): 1, (1, 2): 1, (2, 1): 1})
        indices = [tuple(t["index"]) for t in e.to_json_dict()["terms"]]
        assert indices == sorted(indices)

    @pytest.mark.parametrize("basis", ["F", "M", "s"])
    def test_empty_index_only_at_degree_zero(self, basis):
        # F_() = M_() = s_() = 1
        e = Expansion(basis, 0, {(): QT.integer(3) + T})
        assert Expansion.from_json_dict(e.to_json_dict()) == e
        assert expansion_to_poly(e, 2) == scalar_mul(one(2), QT.integer(3) + T)
        for degree in (1, 2):
            with pytest.raises(ValueError):
                Expansion(basis, degree, {(): 1})
        with pytest.raises(ValueError):
            Expansion(basis, 0, {(0,): 1})

    def test_subtraction(self):
        a = Expansion("s", 2, {(2,): 1})
        b = Expansion("s", 2, {(2,): 1, (1, 1): 1})
        assert (a - b) == Expansion("s", 2, {(1, 1): -1})


def reference_words(alpha, nvars):
    """Every weakly increasing word over 1..nvars, filtered by the strict-rise
    rule at the points of Set(alpha)."""
    rises = set_of_composition(alpha)
    return [
        word
        for word in itertools.combinations_with_replacement(range(1, nvars + 1), sum(alpha))
        if all(word[i - 1] < word[i] for i in rises)
    ]


class TestFundamental:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_words_match_filtered_reference(self, n):
        for alpha in compositions_of(n):
            for nvars in range(n + 3):
                words = list(fundamental_words(alpha, nvars))
                assert words == reference_words(alpha, nvars), (alpha, nvars)
                poly = fundamental(alpha, nvars)
                assert len(poly.terms()) == len(words)
                assert all(c == 1 for _, c in poly.terms())

    def test_strict_pair(self):
        assert fundamental((1, 1), 2) == monomial(2, (1, 1))

    def test_negative_variable_count_rejected(self):
        with pytest.raises(ValueError, match="variable count must be non-negative"):
            fundamental((2, 1), -1)

    def test_one_word_to_exponent_count(self):
        # the monomials of fundamental and the gammas of elw come from one count
        assert elw._exponents is _exponents
        assert _exponents((1, 1, 3), 4) == (2, 0, 1, 0)
        assert _exponents((), 2) == (0, 0)

    def test_weak_pairs(self):
        expected = (
            monomial(2, (2, 0))
            + monomial(2, (1, 1))
            + monomial(2, (0, 2))
        )
        assert fundamental((2,), 2) == expected

    def test_forced_sequence(self):
        assert fundamental((2, 1), 2) == monomial(2, (2, 1))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_variable_stability(self, n):
        for alpha in compositions_of(n):
            wide = set_variable_to_zero(fundamental(alpha, n + 1), n + 1)
            assert wide == fundamental(alpha, n)


class TestExtract:
    def test_round_trip_single_fundamental(self):
        e = extract_f_expansion(fundamental((2, 1), 3))
        assert e == Expansion("F", 3, {(2, 1): 1})

    def test_schur_21(self):
        e = extract_f_expansion(schur_ssyt((2, 1), 3))
        assert e == Expansion("F", 3, {(2, 1): 1, (1, 2): 1})

    @pytest.mark.parametrize("n", range(1, 6))
    def test_h_n_is_single_fundamental(self, n):
        e = extract_f_expansion(schur_ssyt((n,), n))
        assert e == Expansion("F", n, {(n,): 1})

    def test_too_few_variables(self):
        with pytest.raises(ValueError):
            extract_f_expansion(schur_ssyt((2, 1), 2))

    def test_non_quasisymmetric_rejected(self):
        p = monomial(3, (2, 1, 0))
        with pytest.raises(ValueError):
            extract_f_expansion(p)

    @pytest.mark.parametrize("nvars", [0, 1, 4])
    def test_constant_is_degree_zero(self, nvars):
        p = scalar_mul(one(nvars), Q - 2)
        assert extract_f_expansion(p) == Expansion("F", 0, {(): Q - 2})
        assert expansion_to_poly(extract_f_expansion(p), nvars) == p

    def test_inhomogeneous_rejected(self):
        p = monomial(2, (1, 0)) + one(2)
        with pytest.raises(ValueError):
            extract_f_expansion(p)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 6),
        data=st.data(),
    )
    def test_random_round_trip(self, n, data):
        terms = {}
        for alpha in compositions_of(n):
            c = data.draw(st.integers(-4, 4))
            if c:
                terms[tuple(alpha)] = c
        e = Expansion("F", n, terms)
        recovered = extract_f_expansion(expansion_to_poly(e, n))
        if e.is_zero():
            assert recovered.is_zero()
        else:
            assert recovered == e

    @pytest.mark.parametrize("n", range(1, 6))
    def test_linear_independence(self, n):
        # an exhaustive integer combination with distinct prime-ish weights
        terms = {
            tuple(alpha): 2 * i + 1 for i, alpha in enumerate(compositions_of(n))
        }
        e = Expansion("F", n, terms)
        assert extract_f_expansion(expansion_to_poly(e, n)) == e


def reference_f_expansion(p: SparsePoly) -> Expansion:
    """The oracle: a_alpha as the signed sum of c_beta over Set(beta) <=
    Set(alpha), one composition alpha at a time."""
    if p.is_zero():
        return Expansion("F", 0)
    n = p.degree()
    by_set = {set_of_composition(b): c for b, c in monomial_qs_coefficients(p).items()}
    terms = {}
    for alpha in compositions_of(n):
        sa = set_of_composition(alpha)
        total = QT_ZERO
        for other_set, coeff in by_set.items():
            if other_set <= sa:
                total = total + coeff * (-1 if (len(sa) - len(other_set)) % 2 else 1)
        terms[tuple(alpha)] = total
    return Expansion("F", n, terms)


class TestExtractMatchesReference:
    @pytest.mark.parametrize("n", range(1, 4))
    def test_every_small_sign_vector(self, n):
        alphas = [tuple(a) for a in compositions_of(n)]
        for coeffs in itertools.product((-1, 0, 1), repeat=len(alphas)):
            e = Expansion("F", n, dict(zip(alphas, coeffs)))
            p = expansion_to_poly(e, n)
            assert extract_f_expansion(p) == reference_f_expansion(p)

    @pytest.mark.parametrize("n", [4, 5])
    def test_random_qt_combinations(self, n):
        rng = random.Random(2000 + n)
        alphas = [tuple(a) for a in compositions_of(n)]
        for _ in range(20):
            picked = rng.sample(alphas, rng.randint(1, len(alphas)))
            e = Expansion("F", n, {
                alpha: QT({(rng.randint(0, 2), rng.randint(0, 2)): rng.choice((-3, -1, 1, 2))
                           for _ in range(rng.randint(1, 3))})
                for alpha in picked
            })
            assert not e.is_zero()
            p = expansion_to_poly(e, n)
            assert extract_f_expansion(p) == reference_f_expansion(p) == e

    @pytest.mark.parametrize("n", range(1, 7))
    def test_schur_functions(self, n):
        for lam in partitions_of(n):
            p = schur_ssyt(lam, n)
            assert extract_f_expansion(p) == reference_f_expansion(p), lam


class TestExpansionToPoly:
    def test_f_basis(self):
        e = Expansion("F", 2, {(2,): 1})
        assert expansion_to_poly(e, 2) == fundamental((2,), 2)

    def test_empty(self):
        assert expansion_to_poly(Expansion("F", 3), 3).is_zero()

    def test_s_basis_with_coefficient(self):
        e = Expansion("s", 2, {(1, 1): T})
        assert expansion_to_poly(e, 2) == monomial(2, (1, 1), T)

    def test_m_basis(self):
        e = Expansion("M", 3, {(2, 1): 1})
        assert expansion_to_poly(e, 2) == monomial_quasisym((2, 1), 2)


def test_fundamental_is_m_sum_over_refinements():
    from quasischur.combinatorics import set_of_composition

    for n in range(1, 6):
        for alpha in compositions_of(n):
            sa = set_of_composition(alpha)
            total = zero(n)
            for beta in compositions_of(n):
                if sa <= set_of_composition(beta):
                    total = total + monomial_quasisym(beta, n)
            assert total == fundamental(alpha, n)


def polynomial_is_symmetric(e: Expansion) -> bool:
    """The oracle: expand e in degree-many variables and swap them."""
    return is_symmetric(expansion_to_poly(e, e.degree))


def schur_f_expansion(lam) -> Expansion:
    return extract_f_expansion(schur_ssyt(lam, sum(lam)))


class TestIsSymmetricExpansion:
    @pytest.mark.parametrize("n", range(1, 4))
    def test_every_small_sign_vector(self, n):
        alphas = [tuple(a) for a in compositions_of(n)]
        verdicts = set()
        for coeffs in itertools.product((-1, 0, 1), repeat=len(alphas)):
            e = Expansion("F", n, dict(zip(alphas, coeffs)))
            verdict = is_symmetric_expansion(e)
            assert verdict == polynomial_is_symmetric(e), e
            verdicts.add(verdict)
        # n <= 2: every F_alpha is h_n or e_n, so everything is symmetric
        assert verdicts == ({True, False} if n == 3 else {True})

    @pytest.mark.parametrize("n", [4, 5])
    def test_random_qt_combinations(self, n):
        rng = random.Random(1000 + n)
        alphas = [tuple(a) for a in compositions_of(n)]
        schurs = [schur_f_expansion(lam) for lam in partitions_of(n)]

        def draw() -> QT:
            return QT({(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(-3, 3)
                       for _ in range(rng.randint(1, 3))})

        verdicts = []
        for _ in range(40):
            # a Z[q,t] combination of fundamentals: almost never symmetric
            picked = rng.sample(alphas, rng.randint(1, len(alphas)))
            e = Expansion("F", n, {alpha: draw() for alpha in picked})
            verdicts.append(is_symmetric_expansion(e))
            assert verdicts[-1] == polynomial_is_symmetric(e), e
            # a Z[q,t] combination of Schur functions: symmetric
            e = Expansion("F", n)
            for f in rng.sample(schurs, rng.randint(1, len(schurs))):
                c = draw()
                e = e + Expansion("F", n, {i: a * c for i, a in f.terms()})
            verdicts.append(is_symmetric_expansion(e))
            assert verdicts[-1] == polynomial_is_symmetric(e), e
        assert set(verdicts) == {True, False}

    @pytest.mark.parametrize("n", range(1, 7))
    def test_schur_functions_accepted(self, n):
        for lam in partitions_of(n):
            e = schur_f_expansion(lam)
            assert is_symmetric_expansion(e), lam
            assert polynomial_is_symmetric(e), lam

    @pytest.mark.parametrize("n", range(3, 7))
    def test_schur_function_shifted_by_q_rejected(self, n):
        # F_(1,n-1) is not symmetric for n >= 3, so s_lambda + q F_(1,n-1) is not
        shifted = (1, n - 1)
        for lam in partitions_of(n):
            e = schur_f_expansion(lam) + Expansion("F", n, {shifted: Q})
            assert not is_symmetric_expansion(e), lam
            assert not polynomial_is_symmetric(e), lam

    def test_degree_zero_and_zero_expansion(self):
        assert is_symmetric_expansion(Expansion("F", 0))
        assert is_symmetric_expansion(Expansion("F", 5))
        # degrees 0 and 1 have a one-slot lattice
        assert is_symmetric_expansion(Expansion("F", 0, {(): 3}))
        assert is_symmetric_expansion(Expansion("F", 1, {(1,): T}))

    def test_other_bases_rejected(self):
        with pytest.raises(ValueError):
            is_symmetric_expansion(Expansion("s", 2, {(2,): 1}))
