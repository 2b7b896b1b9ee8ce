from itertools import permutations

import pytest
from hypothesis import given, strategies as st

from quasischur.combinatorics import (
    Composition,
    Partition,
    WeakComposition,
    _composition_of_mask,
    _mask_of_composition,
    composition_of_set,
    compositions_of,
    pad,
    partitions_of,
    permutation_sign,
    rsk_shape,
    set_of_composition,
)

from oracles import decomposition_count, decompositions, inverse_permutation, rsk_insert

compositions = st.integers(1, 7).flatmap(
    lambda n: st.sampled_from(list(compositions_of(n)))
)


class TestTypes:
    @pytest.mark.parametrize(
        "kind, parts",
        [(Composition, [1.5, 2]), (WeakComposition, ["3", 0]), (Partition, [2.9, True])],
        ids=["Composition", "WeakComposition", "Partition"],
    )
    def test_non_integer_parts_are_refused(self, kind, parts):
        with pytest.raises(TypeError):
            kind(parts)

    def test_bool_part_is_an_int(self):
        parts = Partition([2, True])
        assert parts == (2, 1) and all(type(p) is int for p in parts)

    def test_composition_rejects_zero_parts(self):
        with pytest.raises(ValueError):
            Composition((2, 0, 1))

    def test_composition_rejects_empty(self):
        with pytest.raises(ValueError):
            Composition(())

    def test_weak_composition_allows_zeros(self):
        assert WeakComposition((0, 2, 0)).weight == 2

    def test_weak_composition_rejects_negative(self):
        with pytest.raises(ValueError):
            WeakComposition((1, -1))

    def test_partition_must_decrease(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_empty_partition(self):
        assert Partition(()).weight == 0


class TestSetCorrespondence:
    def test_paper_example(self):
        assert set_of_composition((2, 3, 2, 1)) == {2, 5, 7}

    def test_single_part_is_empty(self):
        assert set_of_composition((5,)) == frozenset()

    def test_all_ones(self):
        assert set_of_composition((1, 1, 1)) == {1, 2}

    def test_inverse_of_paper_example(self):
        assert composition_of_set({2, 5, 7}, 8) == Composition((2, 3, 2, 1))

    def test_empty_set(self):
        assert composition_of_set(set(), 5) == Composition((5,))

    def test_full_set(self):
        assert composition_of_set({1, 2, 3}, 4) == Composition((1, 1, 1, 1))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            composition_of_set({4}, 4)

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError, match="n must be positive"):
            composition_of_set(set(), 0)

    @given(compositions)
    def test_round_trip(self, alpha):
        n = alpha.weight
        assert composition_of_set(set_of_composition(alpha), n) == alpha

    @given(compositions)
    def test_set_size(self, alpha):
        assert len(set_of_composition(alpha)) == len(alpha) - 1

    def test_reverse_round_trip_on_subsets(self):
        n = 6
        for mask in range(1 << (n - 1)):
            s = frozenset(i + 1 for i in range(n - 1) if mask >> i & 1)
            assert set_of_composition(composition_of_set(s, n)) == s


class TestPad:
    def test_paper_example(self):
        assert pad((2, 3, 2, 1), 8) == WeakComposition((2, 3, 2, 1, 0, 0, 0, 0))

    def test_no_padding_needed(self):
        assert pad((1,), 1) == WeakComposition((1,))

    def test_two_zeros(self):
        assert pad((1, 1), 4) == WeakComposition((1, 1, 0, 0))

    def test_overflow(self):
        with pytest.raises(ValueError):
            pad((1, 1, 1), 2)


class TestDecompositions:
    def test_two_singletons(self):
        result = list(decompositions((1, 1)))
        assert result == [
            (frozenset({1}), frozenset({2})),
            (frozenset({2}), frozenset({1})),
        ]

    def test_single_block(self):
        assert list(decompositions((2,))) == [(frozenset({1, 2}),)]

    def test_333_count(self):
        assert sum(1 for _ in decompositions((3, 3, 3))) == 1680

    @pytest.mark.parametrize("n", range(1, 9))
    def test_multinomial_count(self, n):
        for mu in partitions_of(n):
            blocks = list(decompositions(mu))
            assert len(blocks) == decomposition_count(mu)
            assert len(set(blocks)) == len(blocks)

    def test_block_sizes(self):
        for blocks in decompositions((3, 2, 1)):
            assert [len(b) for b in blocks] == [3, 2, 1]
            assert frozenset().union(*blocks) == frozenset(range(1, 7))


class TestRsk:
    def test_increasing_word(self):
        p, q = rsk_insert((1, 2, 3))
        assert p == q == ((1, 2, 3),)

    def test_hand_example(self):
        p, q = rsk_insert((3, 1, 2))
        assert p == ((1, 2), (3,))
        assert rsk_shape((3, 1, 2)) == Partition((2, 1))

    def test_decreasing_word_gives_column(self):
        assert rsk_shape((2, 1)) == Partition((1, 1))

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            rsk_insert((1, 1, 2))

    def test_tableaux_are_standard(self):
        for sigma in permutations(range(1, 6)):
            p, q = rsk_insert(sigma)
            for t in (p, q):
                for row in t:
                    assert all(row[i] < row[i + 1] for i in range(len(row) - 1))
                for i in range(len(t) - 1):
                    assert all(t[i][j] < t[i + 1][j] for j in range(len(t[i + 1])))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_first_row_is_longest_increasing_subsequence(self, n):
        # Schensted's theorem
        for sigma in permutations(range(1, n + 1)):
            longest = []
            for i, value in enumerate(sigma):
                before = [longest[j] for j in range(i) if sigma[j] < value]
                longest.append(1 + max(before, default=0))
            assert rsk_shape(sigma)[0] == max(longest)

    def test_shape_rejects_non_permutation(self):
        for word in [(1, 1, 2), (0, 1, 2), (1, 2, 4), (2,)]:
            with pytest.raises(ValueError):
                rsk_shape(word)

    @pytest.mark.parametrize("n", range(0, 8))
    def test_shape_is_the_shape_of_p(self, n):
        # rsk_insert, with both tableaux, is the oracle for the P-only shape
        for sigma in permutations(range(1, n + 1)):
            p, _ = rsk_insert(sigma)
            shape = rsk_shape(sigma)
            assert type(shape) is Partition, sigma
            assert shape == Partition(map(len, p)), sigma

    @pytest.mark.parametrize("n", range(1, 7))
    def test_inverse_swaps_tableaux(self, n):
        for sigma in permutations(range(1, n + 1)):
            p, q = rsk_insert(sigma)
            pi, qi = rsk_insert(inverse_permutation(sigma))
            assert (pi, qi) == (q, p)


class TestInversePermutation:
    def test_hand_example(self):
        assert inverse_permutation((2, 3, 1)) == (3, 1, 2)

    @pytest.mark.parametrize("word", [(0, 1), (1, 1), (1, 3), (3, 1, 1), (2,)])
    def test_refuses_a_word_that_is_not_a_permutation(self, word):
        with pytest.raises(ValueError, match="not a permutation"):
            inverse_permutation(word)


def test_compositions_of_counts():
    for n in range(1, 9):
        comps = list(compositions_of(n))
        assert len(comps) == 2 ** (n - 1)
        assert len(set(comps)) == len(comps)
        assert all(c.weight == n for c in comps)


@pytest.mark.parametrize("n", range(1, 11))
def test_compositions_of_follow_the_descent_set_bitmask(n):
    def bits(mask):
        return {i + 1 for i in range(n - 1) if mask >> i & 1}

    comps = list(compositions_of(n))
    assert comps == [composition_of_set(bits(mask), n) for mask in range(1 << (n - 1))]
    assert all(type(c) is Composition and all(type(p) is int for p in c) for c in comps)


@pytest.mark.parametrize("n", range(1, 9))
def test_descent_masks_round_trip_in_the_order_of_compositions_of(n):
    comps = list(compositions_of(n))
    masks = [_mask_of_composition(alpha) for alpha in comps]
    assert masks == list(range(1 << (n - 1)))
    assert masks == [sum(1 << (i - 1) for i in set_of_composition(a)) for a in comps]
    assert [_composition_of_mask(mask, n) for mask in masks] == [tuple(a) for a in comps]


def test_degree_zero_has_the_one_mask_of_the_empty_composition():
    assert (_mask_of_composition(()), _composition_of_mask(0, 0)) == (0, ())


@pytest.mark.parametrize("n", [0, -1])
def test_compositions_of_non_positive_is_refused(n):
    with pytest.raises(ValueError):
        next(compositions_of(n))


def test_partitions_of_counts():
    counts = [len(list(partitions_of(n))) for n in range(9)]
    assert counts == [1, 1, 2, 3, 5, 7, 11, 15, 22]


def inversion_sign(perm):
    """The sign as the parity of the inversion count, the O(n^2) oracle."""
    inversions = sum(
        perm[i] > perm[j] for i in range(len(perm)) for j in range(i + 1, len(perm))
    )
    return -1 if inversions % 2 else 1


@pytest.mark.parametrize("n", range(0, 8))
def test_permutation_sign_matches_inversion_parity(n):
    for perm in permutations(range(n)):
        expected = inversion_sign(perm)
        assert permutation_sign(perm) == expected, perm
        assert permutation_sign(tuple(v + 1 for v in perm)) == expected, perm
