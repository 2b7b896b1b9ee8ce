from collections import Counter
from itertools import chain, islice, permutations
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
    _MIN_TABLE_TAIL,
    _census,
    _force_row,
    _lower_part,
    _schensted_kept,
    _schensted_table,
    _standard_tableaux,
    _tail_block,
    _tail_counts,
    _tally,
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
    hook_lengths,
    inv_stat,
    inverse_permutation,
    maj_stat,
    pides,
    reference_census,
    rsk_insert,
    standard_tableau_count,
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


def plain(table):
    """A _tally as plain dicts, for comparison."""
    return {mask: dict(majs) for mask, majs in table.items()}


def inverse_bits(perm):
    """The inverse-descent bits of a permutation of range(k): bit a when a
    sits after a + 1."""
    word = tuple(v + 1 for v in perm)
    return sum(1 << (a - 1) for a in descent_set(inverse_permutation(word)))


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
        # symmetric function agree.  The census reads every word of a short
        # tail, and the first word of each lower part of a long one.
        mu = Partition(mu)
        k = mu.count(1)
        chunk = factorial(k) if k >= _MIN_TABLE_TAIL else 1
        read = []
        for mask, maj, word, part in _census(mu, _tally()):
            assert _composition_of_mask(mask, mu.weight) == tuple(pides(word)), word
            assert maj == maj_stat(Filling.from_reading_word(mu, word)), word
            assert part == (_lower_part(mask, maj, word, k) if chunk > 1 else None), word
            read.append(word)
        assert read == list(islice(inv_zero_fillings(mu), 0, None, chunk)), mu

    @pytest.mark.parametrize(
        "n", list(range(9)) + [pytest.param(9, marks=pytest.mark.slow)]
    )
    def test_census_matches_reference_census(self, n):
        # lower part by lower part: what the census tallies for each word it
        # reads, the whole chunk when the tail is long, against the
        # reference's words read one at a time
        for mu in partitions_of(n):
            k = mu.count(1)
            chunk = factorial(k) if k >= _MIN_TABLE_TAIL else 1
            reference = reference_census(mu)
            table, expected_table = _tally(), _tally()
            for mask, maj, word, part in _census(mu, table):
                words = list(islice(reference, chunk))
                assert (mask, maj, word) == words[0], mu
                block, expected = _tally(), _tally()
                if chunk > 1:
                    _tail_block(block, part, k)
                else:
                    block[mask][maj] += 1
                for read_mask, read_maj, _ in words:
                    expected[read_mask][read_maj] += 1
                    expected_table[read_mask][read_maj] += 1
                assert plain(block) == plain(expected), (mu, word)
            # both end together, and the census tallied every word
            assert next(reference, None) is None, mu
            assert plain(table) == plain(expected_table), mu

    @pytest.mark.parametrize(
        "fault",
        [
            lambda words, chunk: words[:2] + words[3:],
            lambda words, chunk: words[:chunk] + words[chunk + 1 :],
            lambda words, chunk: words[:-3] + words[-2:],
            lambda words, chunk: words[:-1],
            lambda words, chunk: words[:2] + words[1:],
            lambda words, chunk: words + words[-1:],
        ],
        ids=[
            "drop-in-the-first-lower-part",
            "drop-the-first-word-of-the-second",
            "drop-in-the-last-lower-part",
            "drop-the-last-word",
            "repeat-a-word",
            "repeat-the-last-word",
        ],
    )
    @pytest.mark.parametrize("mu", [(2, 1, 1, 1), (2, 1, 1, 1, 1)], ids=shape_id)
    def test_census_refuses_a_misaligned_walk(self, monkeypatch, fault, mu):
        # the census counts the words it drains: a lower part of more or
        # fewer than k! words raises, rather than tallying every chunk after
        # it out of line
        real = hall_littlewood.inv_zero_fillings
        chunk = factorial(mu.count(1))
        monkeypatch.setattr(
            hall_littlewood, "inv_zero_fillings", lambda shape: iter(fault(list(real(shape)), chunk))
        )
        with pytest.raises(ValueError, match="did not yield"):
            hl_fundamental_expansion(mu)
        with pytest.raises(ValueError, match="did not yield"):
            leftover_experiment(mu)

    @pytest.mark.parametrize(
        "k", list(range(1, 8)) + [pytest.param(8, marks=pytest.mark.slow)]
    )
    def test_tail_counts_count_permutations(self, k):
        # for every r, against a count over itertools.permutations: m is maj
        # plus k when the last letter is at least r
        for r in range(k + 1):
            expected = Counter(
                (inverse_bits(tail), sum(descent_set(tail)) + (k if tail[-1] >= r else 0))
                for tail in permutations(range(k))
            )
            xs, ms, counts = _tail_counts(k, r)
            assert len(xs) == len(ms) == len(counts) == len(expected), r
            assert dict(zip(zip(xs, ms), counts)) == expected, r

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


def t_product(a, b):
    """The product of two polynomials in t given as coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestStandardTableaux:
    @pytest.mark.parametrize("k", range(11))
    def test_count_is_the_hook_length_formula(self, k):
        for nu in partitions_of(k):
            tableaux = list(_standard_tableaux(nu))
            assert len(tableaux) == len(set(tableaux)) == standard_tableau_count(nu), nu

    @pytest.mark.parametrize("k", range(8))
    def test_each_is_a_standard_tableau_with_its_descents(self, k):
        for nu in partitions_of(k):
            for mask, word in _standard_tableaux(nu):
                rows = [[a + 1 for a in range(k) if word[a] == r] for r in range(len(nu))]
                assert tuple(map(len, rows)) == nu, word
                # rows increase by construction; columns must increase too
                for upper, lower in zip(rows, rows[1:]):
                    assert all(x < y for x, y in zip(upper, lower)), rows
                descents = {a + 1 for a in range(k - 1) if word[a + 1] > word[a]}
                assert mask == sum(1 << (i - 1) for i in descents), rows

    @pytest.mark.parametrize("k", range(8))
    def test_table_lists_each_tableau_as_its_rows(self, k):
        for nu, (masks, entries, bounds, _) in zip(partitions_of(k), _schensted_table(k)):
            tableaux = list(_standard_tableaux(nu))
            assert list(masks) == [mask for mask, _ in tableaux], nu
            assert len(entries) == k * len(tableaux), nu
            for i, (_, word) in enumerate(tableaux):
                block = entries[i * k:(i + 1) * k]
                rows = [list(block[start:end]) for start, end in bounds]
                assert rows == [[a for a in range(k) if word[a] == r] for r in range(len(nu))]

    @pytest.mark.parametrize("k", range(1, 9))
    def test_q_counts_follow_the_q_hook_formula(self, k):
        # sum over Q of t^maj(Q) = t^b(nu) [k]_t! / prod over the cells of
        # [hook]_t (Stanley, EC2 Cor. 7.21.5), checked multiplied out
        for nu, (*_, q_counts) in zip(partitions_of(k), _schensted_table(k)):
            maj_sum = [0] * (k * (k - 1) // 2 + 1)
            for (maj, _), count in q_counts:
                maj_sum[maj] += count
            for hook in hook_lengths(nu):
                maj_sum = t_product(maj_sum, [1] * hook)
            expected = [0] * sum(i * part for i, part in enumerate(nu)) + [1]
            for i in range(1, k + 1):
                expected = t_product(expected, [1] * i)
            while maj_sum[-1] == 0:
                maj_sum.pop()
            assert maj_sum == expected, nu

    @pytest.mark.parametrize("k", range(1, 9))
    def test_q_counts_place_k_at_each_corner(self, k):
        # k sits at the end of row r in as many tableaux Q as nu less that
        # cell has standard tableaux, when that cell is a corner
        for nu, (*_, q_counts) in zip(partitions_of(k), _schensted_table(k)):
            for r in range(len(nu)):
                corner = r == len(nu) - 1 or nu[r] > nu[r + 1]
                smaller = tuple(part - (i == r) for i, part in enumerate(nu) if part - (i == r))
                expected = standard_tableau_count(smaller) if corner else 0
                assert sum(c for (_, row), c in q_counts if row == r) == expected, (nu, r)


class TestSchenstedKept:
    @pytest.mark.parametrize(
        "n", list(range(9)) + [pytest.param(9, marks=pytest.mark.slow)]
    )
    def test_matches_rsk_per_word(self, n):
        # every lower part of every shape, whatever the tail length: the
        # kept tally by Schensted pairs against rsk_shape on each word
        normals = {}

        def normal_of(mask):
            if mask not in normals:
                normals[mask] = straighten(_composition_of_mask(mask, n))
            return normals[mask]

        for mu in partitions_of(n):
            k = mu.count(1)
            reference = reference_census(mu)
            for first in reference:
                expected = _tally()
                for mask, maj, word in chain((first,), islice(reference, factorial(k) - 1)):
                    normal = normal_of(mask)
                    if normal.sign > 0 and rsk_shape(word) == normal.shape:
                        expected[mask][maj] += 1
                kept = _tally()
                _schensted_kept(kept, normal_of, _lower_part(*first, k), first[2], k)
                assert plain(kept) == plain(expected), (mu, first)


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

