from itertools import islice, permutations
from math import factorial

import pytest

from quasischur.combinatorics import (
    Composition,
    Partition,
    _composition_of_mask,
    pad,
    partitions_of,
    rsk_shape,
)
from quasischur import hall_littlewood
from quasischur.hall_littlewood import (
    ExperimentReport,
    _census,
    _force_row,
    _tail_table,
    hl_fundamental_expansion,
    hll_expansion,
    inv_zero_fillings,
    is_schur_positive,
    leftover_experiment,
)
from quasischur.elw import elw_to_schur
from quasischur.polynomial import QT, QT_ZERO
from quasischur.quasisym import Expansion
from quasischur.schur import straighten

from oracles import (
    Filling,
    Q,
    T,
    _counterclockwise,
    all_fillings,
    charge,
    cocharge_expansion,
    composition_of_set,
    decomposition_count,
    decompositions,
    descent_set,
    haglund_expansion,
    inv_stat,
    inverse_permutation,
    maj_stat,
    pides,
    reference_census,
    rsk_insert,
    symmetry_check,
)

# every shape of weight <= 7, and the weight-9 counterexample shape
ORACLE_SHAPES = [mu for n in range(1, 8) for mu in partitions_of(n)] + [
    Partition((3, 3, 3))
]
# the slow tier adds every shape of weight 8, and for the experiment the
# shapes whose fillings come mostly from the one-cell-row permutation tail:
# 8!, 8!/2 and 8!/4 fillings
WEIGHT_EIGHT = [pytest.param(mu, marks=pytest.mark.slow) for mu in partitions_of(8)]
TAIL_SHAPES = [
    pytest.param(Partition(mu), marks=pytest.mark.slow)
    for mu in [(1,) * 8, (2,) + (1,) * 6, (2, 2) + (1,) * 4]
]


def shape_id(mu):
    return ",".join(map(str, mu))


def filling(shape, *rows):
    return Filling(Partition(shape), tuple(tuple(r) for r in rows))


def reference_inv_zero_fillings(mu):
    """The inversion-free fillings from each ordered set decomposition, every
    row forced from scratch: the walk that inv_zero_fillings replaces."""
    mu = Partition(mu)
    for blocks in decompositions(mu):
        rows = [tuple(sorted(blocks[0]))]
        for block in blocks[1:]:
            rows.append(_force_row(rows[-1], block))
        yield Filling(mu, tuple(rows))


def reference_hl_fundamental_expansion(mu):
    """The sum of t^maj F_pides over reference_inv_zero_fillings, each filling
    read through maj_stat and pides: the reference for the package's census."""
    mu = Partition(mu)
    terms = {}
    for f in reference_inv_zero_fillings(mu):
        index = tuple(pides(f.reading_word))
        terms[index] = terms.get(index, QT_ZERO) + QT({(0, maj_stat(f)): 1})
    return Expansion("F", mu.weight, terms)


def reference_leftover_experiment(mu):
    """The leftover experiment with every statistic computed per filling
    through pides, maj_stat and straighten."""
    mu = Partition(mu)
    n = mu.weight
    counts = {"zero": 0, "minus": 0, "plus": 0}
    kept_terms = {}
    kept = total = 0
    for f in reference_inv_zero_fillings(mu):
        total += 1
        sigma = f.reading_word
        index = tuple(pides(sigma))
        t_maj = QT({(0, maj_stat(f)): 1})
        normal = straighten(pad(index, n))
        if normal.is_zero():
            counts["zero"] += 1
            continue
        if normal.sign < 0:
            counts["minus"] += 1
            continue
        counts["plus"] += 1
        if rsk_shape(sigma) != normal.shape:
            continue
        kept += 1
        key = tuple(normal.shape)
        kept_terms[key] = kept_terms.get(key, QT_ZERO) + t_maj
    conjectured = Expansion("s", n, kept_terms)
    true_expansion = elw_to_schur(reference_hl_fundamental_expansion(mu))
    return ExperimentReport(
        mu=mu,
        filling_count=total,
        zero_count=counts["zero"],
        minus_count=counts["minus"],
        plus_count=counts["plus"],
        kept_count=kept,
        conjectured=conjectured,
        true_expansion=true_expansion,
        discrepancy=true_expansion - conjectured,
    )


class TestFilling:
    def test_reading_word_top_down(self):
        f = filling((2, 1), (1, 3), (2,))
        assert f.reading_word == (2, 1, 3)

    def test_from_reading_word_round_trip(self):
        f = Filling.from_reading_word((2, 1), (2, 1, 3))
        assert f.rows == ((1, 3), (2,))

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            filling((2,), (1, 1))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            filling((2, 1), (1, 2, 3))

    def test_column_reads_top_to_bottom(self):
        f = filling((2, 2), (1, 2), (3, 4))
        assert f.column(1) == (3, 1)
        assert f.column(2) == (4, 2)

    @pytest.mark.parametrize("j", [0, 3, 7])
    def test_column_refuses_an_index_off_the_shape(self, j):
        # column(0) would read rows[i][-1], the last cell of each row, which
        # are cells of different columns; a column past the bottom row's
        # length would read as empty
        f = Filling.from_reading_word((2, 1), (3, 1, 2))
        with pytest.raises(ValueError, match="numbered from 1"):
            f.column(j)


class TestMaj:
    def test_descent_column(self):
        f = filling((1, 1), (1,), (2,))
        assert maj_stat(f) == 1

    def test_ascent_column(self):
        f = filling((1, 1), (2,), (1,))
        assert maj_stat(f) == 0

    def test_single_row_is_zero(self):
        for f in all_fillings((4,)):
            assert maj_stat(f) == 0


class TestInv:
    def test_decreasing_bottom_row(self):
        f = filling((2,), (2, 1))
        assert inv_stat(f) == 1

    def test_increasing_bottom_row(self):
        f = filling((2,), (1, 2))
        assert inv_stat(f) == 0

    def test_single_column_never_inverts(self):
        for f in all_fillings((1, 1)):
            assert inv_stat(f) == 0


class TestPides:
    def test_identity(self):
        assert pides((1, 2, 3, 4)) == Composition((4,))

    def test_hand_example(self):
        assert pides((3, 1, 2)) == Composition((2, 1))

    def test_reverse(self):
        assert pides((4, 3, 2, 1)) == Composition((1, 1, 1, 1))

    @pytest.mark.parametrize("word", [(1, 1), (0, 1), (1, 3), (2, 2, 1)])
    def test_refuses_a_word_that_is_not_a_permutation(self, word):
        with pytest.raises(ValueError, match="not a permutation"):
            pides(word)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_is_the_descent_composition_of_p(self, n):
        # Des(sigma^-1) = Des(P(sigma)), where i is a descent of a standard
        # tableau when i + 1 sits in a lower row (Stanley, EC2 7.23)
        for sigma in permutations(range(1, n + 1)):
            p, _ = rsk_insert(sigma)
            row_of = {value: r for r, row in enumerate(p) for value in row}
            p_descents = frozenset(i for i in range(1, n) if row_of[i + 1] > row_of[i])
            assert descent_set(inverse_permutation(sigma)) == p_descents, sigma
            assert pides(sigma) == composition_of_set(p_descents, n), sigma


def inversion_free_orderings(row_below, entries):
    """Every ordering of entries that makes no inversion triple with the row
    below: the exhaustive search that _force_row's rule replaces."""
    return [
        candidate
        for candidate in permutations(sorted(entries))
        if not any(
            _counterclockwise(candidate[a], candidate[b], row_below[a])
            for a in range(len(candidate))
            for b in range(a + 1, len(candidate))
        )
    ]


class TestForceRow:
    def test_rule_is_the_unique_inversion_free_ordering(self):
        # every relative order of a row of k <= 4 cells and the 4 cells below
        cases = 0
        for k in range(1, 5):
            for values in permutations(range(1, k + 5), 4):
                entries = frozenset(range(1, k + 5)) - set(values)
                assert inversion_free_orderings(values, entries) == [
                    _force_row(values, entries)
                ], (values, entries)
                cases += 1
        assert cases == 3000


class TestInvZeroFillings:
    def test_column_shape(self):
        fillings = list(inv_zero_fillings((1, 1)))
        assert len(fillings) == 2

    def test_row_shape(self):
        assert list(inv_zero_fillings((2,))) == [(1, 2)]

    def test_333_count(self):
        assert sum(1 for _ in inv_zero_fillings((3, 3, 3))) == 1680

    @pytest.mark.parametrize("n", range(1, 9))
    def test_census_and_inversion_free(self, n):
        for mu in partitions_of(n):
            count = 0
            for word in inv_zero_fillings(mu):
                assert type(word) is tuple
                assert sorted(word) == list(range(1, n + 1))
                assert inv_stat(Filling.from_reading_word(mu, word)) == 0
                count += 1
            assert count == decomposition_count(mu)

    @pytest.mark.parametrize("n", range(8))
    def test_words_of_a_lower_part_are_consecutive(self, n):
        # the order _census reads in chunks: k! words per lower part, sharing
        # their last n - k letters, their tails the increasing free values
        # in itertools.permutations order
        for mu in partitions_of(n):
            k = mu.count(1)
            words = inv_zero_fillings(mu)
            lower_parts = set()
            while chunk := list(islice(words, factorial(k))):
                lower = chunk[0][k:]
                assert lower not in lower_parts, (mu, lower)
                lower_parts.add(lower)
                assert [word[k:] for word in chunk] == [lower] * factorial(k), mu
                free = sorted(set(range(1, n + 1)) - set(lower))
                assert [word[:k] for word in chunk] == list(permutations(free)), mu
            assert len(lower_parts) * factorial(k) == decomposition_count(mu)

    @pytest.mark.parametrize("mu", ORACLE_SHAPES + WEIGHT_EIGHT, ids=shape_id)
    def test_matches_reference_walk(self, mu):
        words = list(inv_zero_fillings(mu))
        assert len(words) == len(set(words))
        assert set(words) == {f.reading_word for f in reference_inv_zero_fillings(mu)}

    @pytest.mark.parametrize(
        "fault",
        [
            lambda row: row[:-1],  # drops an entry
            lambda row: row[:-1] + row[:1],  # repeats an entry
        ],
        ids=["drop", "repeat"],
    )
    @pytest.mark.parametrize("mu", [(2, 2), (3, 2, 1), (2, 2, 2, 1, 1)], ids=shape_id)
    def test_faulty_forced_row_is_rejected(self, monkeypatch, fault, mu):
        # the walk checks each lower part once, before any word built on it
        force_row = hall_littlewood._force_row
        monkeypatch.setattr(
            hall_littlewood, "_force_row", lambda below, entries: fault(force_row(below, entries))
        )
        with pytest.raises(ValueError, match="not a bijective filling"):
            next(inv_zero_fillings(mu))


class TestExpansions:
    def test_hll_column(self):
        assert hll_expansion((1, 1)) == Expansion("s", 2, {(2,): 1, (1, 1): T})

    def test_hll_row(self):
        assert hll_expansion((2,)) == Expansion("s", 2, {(2,): 1})

    @pytest.mark.parametrize("n", range(1, 7))
    def test_hll_single_row(self, n):
        assert hll_expansion((n,)) == Expansion("s", n, {(n,): 1})

    @pytest.mark.parametrize("mu", ORACLE_SHAPES + WEIGHT_EIGHT, ids=shape_id)
    def test_matches_reference_filling_sum(self, mu):
        assert hl_fundamental_expansion(mu) == reference_hl_fundamental_expansion(mu)

    @pytest.mark.parametrize("mu", ORACLE_SHAPES, ids=shape_id)
    def test_census_reads_each_word_as_maj_stat_and_pides(self, mu):
        # per word, since the sum cannot see a census that reverses every
        # mask: the coefficients of F_alpha and F_reverse(alpha) in a
        # symmetric function agree
        mu = Partition(mu)
        for mask, maj, word in _census(mu):
            assert _composition_of_mask(mask, mu.weight) == tuple(pides(word)), word
            assert maj == maj_stat(Filling.from_reading_word(mu, word)), word

    @pytest.mark.parametrize(
        "n", list(range(9)) + [pytest.param(9, marks=pytest.mark.slow)]
    )
    def test_census_matches_reference_census(self, n):
        for mu in partitions_of(n):
            census, reference = _census(mu), reference_census(mu)
            for read, expected in zip(census, reference):
                assert read == expected, mu
            # both end together
            assert next(census, None) is None and next(reference, None) is None, mu

    @pytest.mark.parametrize("k", range(2, 8))
    def test_tail_table_reads_permutations(self, k):
        def inverse_bits(perm):
            # bit a when the letter a sits after a + 1
            word = tuple(v + 1 for v in perm)
            return sum(1 << (a - 1) for a in descent_set(inverse_permutation(word)))

        idesc, majdes, des, ends, shifts = _tail_table(k)
        sigmas = list(permutations(range(k - 1)))
        assert len(idesc) == len(majdes) == len(des) == len(ends) == len(sigmas)
        for i, sigma in enumerate(sigmas):
            descents = descent_set(sigma)
            assert idesc[i] == inverse_bits(sigma), sigma
            assert (majdes[i], des[i]) == (sum(descents) + len(descents), len(descents)), sigma
            assert ends[i] == sigma[0] * (k - 1) + sigma[-1], sigma
        # block p of the k-letter tails is p followed by sigma relabelled
        for p, shift in enumerate(shifts):
            for i, sigma in enumerate(sigmas):
                tail = (p,) + tuple(v + (v >= p) for v in sigma)
                assert shift[idesc[i]] == inverse_bits(tail), tail

    def test_one_row_haglund_anchor(self):
        # forces the inversion-triple orientation: inv(21) = 1, inv(12) = 0
        assert haglund_expansion((2,)) == Expansion("F", 2, {(2,): 1, (1, 1): Q})

    def test_q_zero_specialization_matches_inv_zero_sum(self):
        for n in range(1, 6):
            for mu in partitions_of(n):
                full = haglund_expansion(mu)
                specialized = {}
                for index, coeff in full.terms():
                    q_free = QT(
                        {(qe, te): c for (qe, te), c in coeff.terms() if qe == 0}
                    )
                    if q_free:
                        specialized[index] = q_free
                assert Expansion("F", n, specialized) == hl_fundamental_expansion(mu)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_schur_positive(self, n):
        for mu in partitions_of(n):
            e = hll_expansion(mu)
            assert is_schur_positive(e), (mu, e)
            assert dict(e.terms()).get((n,)) == QT.integer(1)

    def test_schur_positive_refuses_a_q_term(self):
        e = Expansion("s", 2, {(2,): T + T, (1, 1): Q * T})
        assert not is_schur_positive(e)

    def test_schur_positive_refuses_a_negative_coefficient(self):
        e = Expansion("s", 3, {(3,): 1 + T, (2, 1): T * T - T})
        assert not is_schur_positive(e)

    def test_schur_positive_refuses_the_f_basis(self):
        with pytest.raises(ValueError, match="s basis"):
            is_schur_positive(hl_fundamental_expansion((2, 1)))


class TestCocharge:
    def test_charge_of_standard_words(self):
        # the index goes up each time i + 1 sits right of i
        assert [charge(w) for w in [(1, 2), (2, 1), (1, 2, 3), (3, 1, 2)]] == [1, 0, 3, 2]

    def test_charge_of_a_word_with_repeated_letters(self):
        # the standard subwords are 2 1 _ 3 _ and _ _ 1 _ 2
        assert charge((2, 1, 1, 3, 2)) == charge((2, 1, 3)) + charge((1, 2))

    @pytest.mark.parametrize(
        "n", list(range(1, 9)) + [pytest.param(9, marks=pytest.mark.slow)]
    )
    def test_matches_hll_expansion(self, n):
        for mu in partitions_of(n):
            assert hll_expansion(mu) == cocharge_expansion(mu), mu

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "mu, discrepancy",
        [
            ((4, 3, 3), {(6, 2, 2): QT({(0, 5): -1})}),
            (
                (3, 3, 3, 1),
                {
                    (5, 2, 2, 1): QT({(0, 8): -1}),
                    (5, 3, 2): QT({(0, 7): -1}),
                    (6, 2, 2): QT({(0, 7): -1}),
                },
            ),
        ],
        ids=["4,3,3", "3,3,3,1"],
    )
    def test_weight_ten_experiment(self, mu, discrepancy):
        report = leftover_experiment(mu)
        assert report.true_expansion == cocharge_expansion(mu)
        assert report.discrepancy == Expansion("s", 10, discrepancy)


class TestSymmetry:
    @pytest.mark.parametrize("mu", [(1, 1), (2,), (2, 1)])
    def test_small_shapes(self, mu):
        assert symmetry_check(mu)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_all_shapes(self, n):
        for mu in partitions_of(n):
            assert symmetry_check(mu)


class TestEmptyShape:
    # the empty shape has one filling, the empty word, and H~ = 1 = s[]
    def test_expansions(self):
        assert hl_fundamental_expansion(()) == Expansion("F", 0, {(): 1})
        assert hll_expansion(()) == Expansion("s", 0, {(): 1})
        assert hll_expansion(()) == cocharge_expansion(())
        assert symmetry_check(())

    def test_experiment(self):
        report = leftover_experiment(())
        assert (report.filling_count, report.plus_count, report.kept_count) == (1, 1, 1)
        assert report.zero_count == report.minus_count == 0
        assert report.conjectured == report.true_expansion == Expansion("s", 0, {(): 1})
        assert report.discrepancy.is_zero()


class TestLeftoverExperiment:
    def test_column_keeps_both(self):
        report = leftover_experiment((1, 1))
        assert report.kept_count == 2
        assert report.discrepancy.is_zero()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_empty_discrepancy_up_to_six(self, n):
        for mu in partitions_of(n):
            report = leftover_experiment(mu)
            assert report.discrepancy.is_zero(), (mu, report.discrepancy)
            assert report.true_expansion == elw_to_schur(
                reference_hl_fundamental_expansion(mu)
            )

    def test_counterexample_shape(self):
        report = leftover_experiment((3, 3, 3))
        assert report.filling_count == 1680
        assert len(list(report.discrepancy.terms())) == 1
        assert report.true_expansion == elw_to_schur(
            reference_hl_fundamental_expansion((3, 3, 3))
        )

    def test_report_identity(self):
        report = leftover_experiment((2, 2))
        assert report.conjectured + report.discrepancy == report.true_expansion
        assert (
            report.zero_count + report.minus_count + report.plus_count
            == report.filling_count
        )

    @pytest.mark.parametrize("mu", ORACLE_SHAPES + TAIL_SHAPES, ids=shape_id)
    def test_matches_reference_experiment(self, mu):
        assert (
            leftover_experiment(mu).to_json_dict()
            == reference_leftover_experiment(mu).to_json_dict()
        )

    def test_report_json_keys(self):
        doc = leftover_experiment((2, 1)).to_json_dict()
        assert set(doc) == {
            "mu", "fillings", "zero", "minus", "plus", "kept",
            "conjectured", "true", "discrepancy",
        }

