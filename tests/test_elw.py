from collections import Counter
from operator import add

import pytest

import quasischur.elw as elw
from quasischur.combinatorics import (
    Composition,
    _composition_of_mask,
    pad,
    partitions_of,
    set_of_composition,
)
from quasischur.elw import (
    constrained_monomials,
    elw_to_schur,
    involution,
    locate_block,
    verify_involution,
)
from quasischur.hall_littlewood import _standard_tableaux
from quasischur.polynomial import SparsePoly, staircase
from quasischur.quasisym import Expansion, extract_f_expansion
from quasischur.schur import schur_ssyt, straighten

from oracles import antisymmetrize, compositions_of, expansion_to_poly, monomial
from test_quasisym import reference_words


def reference_involution(alpha, word):
    """The involution read off the word itself: None on the fixed point,
    otherwise the image word, checked letter by letter to be constrained."""
    n = sum(alpha)
    gamma = [word.count(letter) for letter in range(1, n + 1)]
    if gamma == list(pad(alpha, n)):
        return None
    s = 0
    while gamma[s] == alpha[s]:
        s += 1
    acc = 0
    for end in range(s, n):
        acc += gamma[end]
        if acc == alpha[s] and gamma[end] > 0:
            break
    gamma[end - 1], gamma[end] = gamma[end] - 1, gamma[end - 1] + 1
    image = tuple(letter for letter in range(1, n + 1) for _ in range(gamma[letter - 1]))
    strict = set_of_composition(alpha)
    for i in range(n - 1):
        assert image[i] <= image[i + 1]
        assert (i + 1) not in strict or image[i] < image[i + 1]
    return image


def alternants_agree(alpha, words):
    """The involution's polynomial clause through the n! expansion: the
    antisymmetrized sum of x^(gamma + delta) over the words against the
    antisymmetrized x^(alpha + delta)."""
    n = sum(alpha)
    delta = staircase(n)
    summed = Counter(tuple(map(add, elw._exponents(w, len(w)), delta)) for w in words)
    lhs = antisymmetrize(SparsePoly(n, summed))
    rhs = antisymmetrize(monomial(n, tuple(map(add, pad(alpha, n), delta))))
    return lhs == rhs


def without_words(monkeypatch, dropped):
    """Make verify_involution enumerate every word except those in dropped."""
    full = elw.constrained_monomials
    monkeypatch.setattr(
        elw,
        "constrained_monomials",
        lambda alpha: (w for w in full(alpha) if w not in dropped),
    )


class TestElwToSchur:
    def test_h_n(self):
        e = Expansion("F", 4, {(4,): 1})
        assert elw_to_schur(e) == Expansion("s", 4, {(4,): 1})

    def test_schur_21(self):
        e = Expansion("F", 3, {(2, 1): 1, (1, 2): 1})
        result = elw_to_schur(e)
        assert result == Expansion("s", 3, {(2, 1): 1})
        # brute-force oracle: both sides expand to the same polynomial
        assert expansion_to_poly(e, 3) == expansion_to_poly(result, 3)

    def test_e2(self):
        e = Expansion("F", 2, {(1, 1): 1})
        assert elw_to_schur(e) == Expansion("s", 2, {(1, 1): 1})

    def test_rejects_wrong_basis(self):
        with pytest.raises(ValueError):
            elw_to_schur(Expansion("s", 2, {(2,): 1}))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_theorem_round_trip(self, n):
        for lam in partitions_of(n):
            e = extract_f_expansion(schur_ssyt(lam, n))
            assert elw_to_schur(e) == Expansion("s", n, {tuple(lam): 1})


def gessel_expansion(lam) -> Expansion:
    """s_lambda as the sum over its standard tableaux T of F_Des(T), i a
    descent of T when i + 1 lies in a strictly lower row (Gessel 1984;
    Stanley, EC2 Thm. 7.19.7)."""
    n = sum(lam)
    masks = Counter(mask for mask, _ in _standard_tableaux(lam))
    return Expansion("F", n, {_composition_of_mask(mask, n): c for mask, c in masks.items()})


class TestReplacementTheorem:
    """The paper's theorem by the Schur basis: the s_lambda span the symmetric
    functions of degree n and the replacement is linear, so it holds at
    degree n exactly when it sends Gessel's expansion of every s_lambda,
    lambda a partition of n, to s_lambda.  Tier-1 checks every degree up to
    12 (140,152 tableaux at 12), the slow tier 13 and 14."""

    @pytest.mark.parametrize(
        "n", list(range(13)) + [pytest.param(n, marks=pytest.mark.slow) for n in (13, 14)]
    )
    def test_every_schur_function_is_fixed(self, n):
        for lam in partitions_of(n):
            assert elw_to_schur(gessel_expansion(lam)) == Expansion("s", n, {tuple(lam): 1}), lam

    @pytest.mark.parametrize("n", range(1, 8))
    def test_gessel_expansion_matches_the_tableau_polynomial(self, n):
        for lam in partitions_of(n):
            assert gessel_expansion(lam) == extract_f_expansion(schur_ssyt(lam, n)), lam


class TestConstrainedMonomials:
    def test_alpha_2(self):
        words = list(constrained_monomials((2,)))
        assert words == [(1, 1), (1, 2), (2, 2)]

    def test_alpha_11(self):
        words = list(constrained_monomials((1, 1)))
        assert words == [(1, 2)]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_words_are_fundamental_monomials_in_n_variables(self, n):
        for alpha in compositions_of(n):
            words = list(constrained_monomials(alpha))
            assert words == reference_words(alpha, n)

    def test_paper_word_appears(self):
        words = set(constrained_monomials((2, 3, 3)))
        assert (1, 1, 2, 2, 2, 3, 5, 5) in words

    def test_gamma(self):
        w = (1, 1, 2, 2, 2, 3, 5, 5)
        assert elw._exponents(w, len(w)) == (2, 3, 1, 0, 2, 0, 0, 0)


class TestInvolution:
    def test_fixed_point(self):
        assert involution((2, 1), (1, 1, 2)) is None

    def test_paper_block_structure(self):
        step = locate_block((2, 3, 3), (1, 1, 2, 2, 2, 3, 5, 5))
        assert (step.s, step.r) == (2, 3)
        assert step.before == (0, 2)
        assert step.after == (1, 1)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_involutive_and_closed(self, n):
        for alpha in compositions_of(n):
            for w in constrained_monomials(alpha):
                image = involution(alpha, w)
                if image is None:
                    assert elw._exponents(w, len(w)) == tuple(pad(alpha, n))
                    continue
                # closure re-validated inside involution; also block data
                assert locate_block(alpha, image).s == locate_block(alpha, w).s
                assert locate_block(alpha, image).r == locate_block(alpha, w).r
                back = involution(alpha, image)
                assert back is not None
                assert back == w

    @pytest.mark.parametrize("n", range(1, 7))
    def test_kernel_matches_wrappers_and_reference(self, n):
        for alpha in compositions_of(n):
            strict = set_of_composition(alpha)
            for w in constrained_monomials(alpha):
                step = elw._exchange(alpha, strict, elw._exponents(w, len(w)))
                expected = reference_involution(alpha, w)
                image = involution(alpha, w)
                if step is None:
                    assert expected is None
                    assert image is None
                    continue
                s, r, gamma = step
                assert elw._word_from_gamma(gamma) == expected == image
                block = locate_block(alpha, w)
                assert (block.s, block.r) == (s, r)
                assert block.after == gamma[s + r - 2 : s + r]

    @pytest.mark.parametrize(
        "alpha, word, error, message",
        [
            ((1, 1), (1, 1), AssertionError, "block sum overshot"),
            ((3,), (1, 2), AssertionError, "expected a split block, got r=0"),
            ((1, 1, 1), (2, 3, 3), ValueError, "left the constrained family"),
            ((2,), (1, 2, 3), ValueError, "left the constrained family"),
            # matches alpha, then one letter too many: not the fixed point
            ((1, 1), (1, 2, 3), ValueError, "is not in the constrained family"),
        ],
    )
    def test_kernel_checks_raise(self, alpha, word, error, message):
        # words outside the family: each check of the kernel fires, and
        # the public wrappers refuse the word before the kernel sees it
        with pytest.raises(ValueError, match="not a constrained monomial"):
            involution(alpha, word)
        with pytest.raises(error, match=message):
            elw._exchange(alpha, set_of_composition(alpha), elw._exponents(word, len(word)))

    @pytest.mark.parametrize(
        "alpha, word",
        [
            ((1, 1, 1), (1, 2)),  # fewer letters than alpha has parts
            ((2,), (1, 3)),  # a letter beyond the word's length
            ((2,), (0, 1)),  # a letter below 1
            ((2,), (1, 1.5)),  # a letter that is not an integer
            ((2,), (2, 1)),  # not weakly increasing
            ((1, 1), (2, 2)),  # no strict rise at the point of Set(alpha)
            ((2, 1), (1, 1, 2, 3)),  # more letters than the weight
        ],
    )
    def test_wrappers_refuse_a_word_outside_the_family(self, alpha, word):
        with pytest.raises(ValueError, match="not a constrained monomial"):
            involution(alpha, word)
        with pytest.raises(ValueError, match="not a constrained monomial"):
            locate_block(alpha, word)

    def test_locate_block_refuses_the_fixed_point(self):
        with pytest.raises(ValueError, match="fixed point"):
            locate_block((2, 1), (1, 1, 2))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_pairs_cancel(self, n):
        for alpha in compositions_of(n):
            for w in constrained_monomials(alpha):
                image = involution(alpha, w)
                if image is None:
                    continue
                a = straighten(elw._exponents(w, len(w)))
                b = straighten(elw._exponents(image, len(image)))
                if a.is_zero():
                    assert b.is_zero()
                else:
                    assert b.shape == a.shape and b.sign == -a.sign


class TestVerify:
    def test_single_part(self):
        assert verify_involution((4,)).passed()

    def test_2_1(self):
        report = verify_involution((2, 1))
        assert report.passed()
        assert report.fixed_points == [(1, 1, 2)]

    def test_all_compositions_of_8(self):
        for alpha in compositions_of(8):
            assert verify_involution(alpha).passed(), alpha

    @pytest.mark.slow
    def test_all_compositions_of_9(self):
        for alpha in compositions_of(9):
            assert verify_involution(alpha).passed(), alpha

    @pytest.mark.parametrize("n", range(1, 8))
    def test_polynomial_clause_matches_antisymmetrize(self, n):
        for alpha in compositions_of(n):
            words = list(constrained_monomials(alpha))
            report = verify_involution(alpha)
            assert report.polynomial_check == alternants_agree(alpha, words), alpha

    @pytest.mark.parametrize("n", range(1, 5))
    def test_polynomial_clause_matches_antisymmetrize_with_a_word_dropped(
        self, n, monkeypatch
    ):
        verdicts = set()
        for alpha in compositions_of(n):
            words = list(constrained_monomials(alpha))
            for dropped in words:
                with monkeypatch.context() as m:
                    without_words(m, {dropped})
                    report = verify_involution(alpha)
                kept = [w for w in words if w != dropped]
                verdict = alternants_agree(alpha, kept)
                assert report.polynomial_check == verdict, (alpha, dropped)
                verdicts.add(verdict)
        assert False in verdicts

    def test_polynomial_clause_with_an_empty_right_side(self, monkeypatch):
        # alpha + delta = (3, 3, 0) for (1, 2), so the alternant of
        # x^(alpha + delta) is zero and its class map is empty
        assert verify_involution((1, 2)).polynomial_check
        with monkeypatch.context() as m:
            # the fixed point has the same repeated exponents: dropping it
            # leaves the alternant unchanged, and only the fixed-point clause
            # sees it
            without_words(m, {(1, 2, 2)})
            report = verify_involution((1, 2))
        assert report.polynomial_check
        assert not report.unique_fixed_point
        with monkeypatch.context() as m:
            # x^(3,2,1) and x^(3,1,2) cancel in the alternant; without the
            # first, the left side's class map is {(3, 2, 1): -1}
            without_words(m, {(1, 2, 3)})
            report = verify_involution((1, 2))
        assert report.polynomial_check is False
        assert not report.passed()

    def test_sign_clause_detects_a_map_that_is_not_an_involution(self, monkeypatch):
        # the first moved word and the word it is sent to both straighten to
        # zero, so the pair cancels and only the round trip back can fail
        alpha = Composition((3, 1))
        strict = set_of_composition(alpha)
        gammas = [elw._exponents(w, len(w)) for w in constrained_monomials(alpha)]
        moved = [g for g in gammas if elw._exchange(alpha, strict, g) is not None]
        first, partner = moved[0], elw._exchange(alpha, strict, moved[0])[2]
        elsewhere = next(
            g for g in moved if g not in (first, partner) and straighten(g).is_zero()
        )
        assert straighten(first).is_zero()
        real = elw._exchange

        def send_first_elsewhere(alpha, strict, gamma):
            step = real(alpha, strict, gamma)
            return step[:2] + (elsewhere,) if gamma == first else step

        monkeypatch.setattr(elw, "_exchange", send_first_elsewhere)
        report = verify_involution(alpha)
        assert report.sign_reversing is False
        assert report.witness == elw._word_from_gamma(first)

    def test_sign_clause_detects_a_pair_that_does_not_cancel(self, monkeypatch):
        # the first moved word of nonzero value comes before its partner, so
        # the pair is checked, and its failure reported, at the first word
        alpha = Composition((2, 2))
        strict = set_of_composition(alpha)
        gammas = [elw._exponents(w, len(w)) for w in constrained_monomials(alpha)]
        first = next(
            g for g in gammas
            if elw._exchange(alpha, strict, g) is not None and not straighten(g).is_zero()
        )
        partner = elw._exchange(alpha, strict, first)[2]
        real = elw.straighten
        value, partner_value = real(first), real(partner)
        assert (value.shape, value.sign) == (partner_value.shape, -partner_value.sign)
        assert gammas.index(first) < gammas.index(partner)

        def straighten_partner_like_first(gamma):
            return real(first if gamma == partner else gamma)

        monkeypatch.setattr(elw, "straighten", straighten_partner_like_first)
        report = verify_involution(alpha)
        assert report.sign_reversing is False
        assert report.witness == elw._word_from_gamma(first)

    def test_each_word_is_exchanged_once(self, monkeypatch):
        calls = []
        real = elw._exchange

        def counting_exchange(alpha, strict, gamma):
            calls.append(gamma)
            return real(alpha, strict, gamma)

        monkeypatch.setattr(elw, "_exchange", counting_exchange)
        alphas = [a for n in range(1, 6) for a in compositions_of(n)] + [(2, 3, 3)]
        for alpha in alphas:
            calls.clear()
            report = verify_involution(alpha)
            assert report.passed(), alpha
            assert len(calls) == report.monomial_count, alpha

    def test_paper_case_2_3_3(self):
        report = verify_involution((2, 3, 3))
        assert report.passed()
        assert report.monomial_count == 1287

    def test_report_json_shape(self):
        doc = verify_involution((2, 1)).to_json_dict()
        assert doc["passed"] is True
        assert set(doc["clauses"]) == {
            "unique_fixed_point",
            "sign_reversing",
            "telescopes",
            "polynomial_check",
        }
        assert (
            doc["pairs"] * 2 + doc["self_cancelling"] + len(doc["fixed_points"])
            == doc["monomials"]
        )

    def test_polynomial_clause_detects_missing_monomial(self, monkeypatch):
        # without the fixed point (1,1,2) the remaining words of (2,1)
        # antisymmetrize to zero, not to the alternant of x^(alpha + delta)
        full = elw.constrained_monomials
        monkeypatch.setattr(
            elw,
            "constrained_monomials",
            lambda alpha: (w for w in full(alpha) if w != (1, 1, 2)),
        )
        report = verify_involution((2, 1))
        assert report.monomial_count == 3
        assert report.polynomial_check is False
        assert not report.passed()
