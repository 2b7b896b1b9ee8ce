import pytest

import quasischur.elw as elw
from quasischur.combinatorics import Composition, compositions_of, pad, partitions_of
from quasischur.elw import (
    ConstrainedMonomial,
    FixedPoint,
    constrained_monomials,
    elw_to_schur,
    involution,
    locate_block,
    verify_involution,
)
from quasischur.quasisym import Expansion, expansion_to_poly, extract_f_expansion
from quasischur.schur import schur_ssyt, straighten

from test_quasisym import reference_words


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


class TestConstrainedMonomials:
    def test_alpha_2(self):
        words = [u.word for u in constrained_monomials((2,))]
        assert words == [(1, 1), (1, 2), (2, 2)]

    def test_alpha_11(self):
        words = [u.word for u in constrained_monomials((1, 1))]
        assert words == [(1, 2)]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_words_are_fundamental_monomials_in_n_variables(self, n):
        for alpha in compositions_of(n):
            words = [u.word for u in constrained_monomials(alpha)]
            assert words == reference_words(alpha, n)

    def test_paper_word_appears(self):
        words = {u.word for u in constrained_monomials((2, 3, 3))}
        assert (1, 1, 2, 2, 2, 3, 5, 5) in words

    def test_gamma(self):
        u = ConstrainedMonomial(Composition((2, 3, 3)), (1, 1, 2, 2, 2, 3, 5, 5))
        assert tuple(u.gamma) == (2, 3, 1, 0, 2, 0, 0, 0)

    def test_full_exponent_adds_staircase(self):
        u = ConstrainedMonomial(Composition((2,)), (1, 2))
        assert u.full_exponent == (2, 1)


class TestInvolution:
    def test_fixed_point(self):
        alpha = Composition((2, 1))
        fixed = ConstrainedMonomial(alpha, (1, 1, 2))
        assert isinstance(involution(fixed), FixedPoint)

    def test_paper_block_structure(self):
        u = ConstrainedMonomial(Composition((2, 3, 3)), (1, 1, 2, 2, 2, 3, 5, 5))
        step = locate_block(u)
        assert (step.s, step.r) == (2, 3)
        assert step.before == (0, 2)
        assert step.after == (1, 1)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_involutive_and_closed(self, n):
        for alpha in compositions_of(n):
            for u in constrained_monomials(alpha):
                image = involution(u)
                if isinstance(image, FixedPoint):
                    assert tuple(u.gamma) == tuple(pad(alpha, n))
                    continue
                # closure re-validated inside involution; also block data
                assert locate_block(image).s == locate_block(u).s
                assert locate_block(image).r == locate_block(u).r
                back = involution(image)
                assert not isinstance(back, FixedPoint)
                assert back.word == u.word

    @pytest.mark.parametrize("n", range(1, 7))
    def test_pairs_cancel(self, n):
        for alpha in compositions_of(n):
            for u in constrained_monomials(alpha):
                image = involution(u)
                if isinstance(image, FixedPoint):
                    continue
                a = straighten(u.gamma)
                b = straighten(image.gamma)
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
            lambda alpha: (u for u in full(alpha) if u.word != (1, 1, 2)),
        )
        report = verify_involution((2, 1))
        assert report.monomial_count == 3
        assert report.polynomial_check is False
        assert not report.passed()
