"""Diagram filling statistics and the modified Hall-Littlewood experiment."""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, combinations, compress, permutations, repeat
from operator import add, gt, itemgetter
from typing import Iterable, Iterator

from .combinatorics import Partition, _composition_of_mask, rsk_shape
from .elw import elw_to_schur
from .polynomial import QT
from .quasisym import Expansion
from .schur import straighten


def _force_row(row_below: tuple[int, ...], entries: Iterable[int]) -> tuple[int, ...]:
    """The unique ordering of a row making every triple with the row below a
    non-inversion.  Left to right, over a cell holding c put the smallest
    remaining entry greater than c, or the smallest remaining entry if none is."""
    remaining = sorted(entries)
    row = []
    for c in row_below[: len(remaining)]:
        i = bisect_right(remaining, c)
        row.append(remaining.pop(i if i < len(remaining) else 0))
    return tuple(row)


def inv_zero_fillings(mu) -> Iterator[tuple[int, ...]]:
    """The reading word of one inversion-free filling per ordered set
    decomposition of {1..n}: a plain tuple listing the rows top to bottom,
    each left to right.

    A depth-first walk from the bottom row up: level i picks row i's entries
    from the values not yet used.  The bottom row holds its entries in
    increasing order; each higher row of two or more cells is the forced
    inversion-free ordering of its entries over the row already chosen below
    it, so a forced row is computed once per shared lower part of the
    filling.  From the first one-cell row up every row has one cell, and a
    one-cell row makes no inversion triple, so those rows take the remaining
    values in every order: one permutation of them, prefixed to the word of
    the lower part.  Once per lower part the walk checks that its rows have
    the lengths of the shape and that they and the remaining values hold
    1..n once each, and raises ValueError otherwise; each permutation of the
    remaining values then makes the word a bijective filling of mu.  The
    order in which the words are yielded is not part of this contract.
    """
    mu = Partition(mu)
    values = list(range(1, mu.weight + 1))
    # rows from index tail on have one cell
    tail = next((i for i, part in enumerate(mu) if part == 1), len(mu))
    lengths = tuple(mu[:tail])
    parts = [((), tuple(values))]
    for length in lengths:
        parts = _add_row(parts, length)
    for rows, free in parts:
        if tuple(map(len, rows)) != lengths or sorted(chain(free, *rows)) != values:
            raise ValueError(
                f"rows {rows} over {free} are not a bijective filling of {mu}"
            )
        lower_word = tuple(chain.from_iterable(reversed(rows)))
        yield from map(add, permutations(free), repeat(lower_word))


def _add_row(parts, length: int) -> Iterator[tuple[tuple, tuple[int, ...]]]:
    """Each (rows, free) of parts, rows listed bottom up and free the values
    not in them, extended by every row of the given length over the top row.

    One generator per level, each reading the level below it: a lower part
    passes through no generator above its own level, and a walk leaves no
    reference cycle for the cyclic GC to free."""
    for rows, free in parts:
        # combinations are increasing, which is the bottom row's order
        for block in combinations(free, length):
            row = _force_row(rows[-1], block) if rows else block
            yield rows + (row,), tuple(v for v in free if v not in block)


def _picker(positions: list[int]):
    """itemgetter for positions that returns a tuple for any count."""
    if len(positions) >= 2:
        return itemgetter(*positions)
    return lambda word: tuple(word[p] for p in positions)


def _census(mu: Partition) -> Iterator[tuple[int, int, tuple]]:
    """(mask, maj, word) for each reading word of inv_zero_fillings(mu), the
    one reading of the filling statistics behind every expansion here.

    mask is the descent set of word^-1 as an int, bit i standing for the
    point i + 1, so the descent composition of word^-1 (pides) is
    _composition_of_mask(mask, n); maj is the sum over the columns of the
    major index of each column read top to bottom.  Each is read off the word
    in one pass: the mask from the positions of i and i + 1, maj from the
    positions of the vertically adjacent cells."""
    # the cell in column j of row r (0 = bottom) sits at position
    # starts[r] + j of the reading word, which lists the rows top down, and a
    # descent between rows r + 1 and r in column j sits at position
    # height(j) - r - 1 of the column's top-to-bottom word
    starts = [sum(mu[r + 1 :]) for r in range(len(mu))]
    ups, downs, weights = [], [], []
    for r in range(len(mu) - 1):
        for j in range(mu[r + 1]):
            ups.append(starts[r + 1] + j)
            downs.append(starts[r] + j)
            weights.append(sum(1 for part in mu if part > j) - r - 1)
    up, down = _picker(ups), _picker(downs)
    positions = range(mu.weight)
    bits = [1 << i for i in range(mu.weight - 1)]
    for word in inv_zero_fillings(mu):
        # where[v - 1] is the position of v in word; i is a descent of
        # word^-1 exactly when i sits after i + 1
        where = sorted(positions, key=word.__getitem__)
        maj = sum(compress(weights, map(gt, up(word), down(word))))
        yield sum(compress(bits, map(gt, where, where[1:]))), maj, word


def _tally() -> defaultdict:
    """An empty tally of fillings, descent mask -> maj -> filling count: the
    one table shape here, incremented as table[mask][maj] += count."""
    return defaultdict(lambda: defaultdict(int))


def _f_expansion(n: int, table) -> Expansion:
    """The sum of count * t^maj F_pides over a _tally of fillings of weight n."""
    return Expansion("F", n, {
        _composition_of_mask(mask, n): QT({(0, maj): count for maj, count in majs.items()})
        for mask, majs in table.items()
    })


def hl_fundamental_expansion(mu) -> Expansion:
    """F-expansion of the modified Hall-Littlewood polynomial: the q = 0
    specialization, i.e. the sum over inversion-free fillings of t^maj F_pides.

    The fillings of _census are counted into a _tally, and _f_expansion
    reads the sum off it, as in leftover_experiment.  The tests check this
    sum against their reference maj_stat and pides over an independent walk,
    and against cocharge through hll_expansion."""
    mu = Partition(mu)
    table = _tally()
    for mask, maj, _ in _census(mu):
        table[mask][maj] += 1
    return _f_expansion(mu.weight, table)


def hll_expansion(mu) -> Expansion:
    """Schur expansion of the modified Hall-Littlewood polynomial, obtained by
    the F-to-s replacement applied to the inversion-free filling sum."""
    return elw_to_schur(hl_fundamental_expansion(mu))


@dataclass
class ExperimentReport:
    """Result of the Schensted leftover experiment for one shape."""

    mu: Partition
    filling_count: int
    zero_count: int
    minus_count: int
    plus_count: int
    kept_count: int
    conjectured: Expansion
    true_expansion: Expansion
    discrepancy: Expansion

    def to_json_dict(self) -> dict:
        return {
            "mu": list(self.mu),
            "fillings": self.filling_count,
            "zero": self.zero_count,
            "minus": self.minus_count,
            "plus": self.plus_count,
            "kept": self.kept_count,
            "conjectured": self.conjectured.to_json_dict(),
            "true": self.true_expansion.to_json_dict(),
            "discrepancy": self.discrepancy.to_json_dict(),
        }


def leftover_experiment(mu) -> ExperimentReport:
    """Classify each inversion-free filling by the sign of its straightened
    descent-composition Schur value, keep the plus-class fillings whose
    Schensted shape matches the straightened shape, and compare the resulting
    sum against the true expansion, built from the same walk.

    The fillings of _census are counted as in hl_fundamental_expansion,
    every filling into the _tally table and the kept ones also into kept;
    each descent mask is straightened once.  The class counts are read off
    table after the walk, and the true and conjectured Schur sides are
    elw_to_schur of _f_expansion of table and of kept: the kept fillings'
    F_pides each straighten to plus the Schur function of their Schensted
    shape."""
    mu = Partition(mu)
    n = mu.weight
    table, kept = _tally(), _tally()
    normals = {}  # mask -> straightened Schur value of its pides
    for mask, maj, sigma in _census(mu):
        table[mask][maj] += 1
        normal = normals.get(mask)
        if normal is None:
            normal = normals[mask] = straighten(_composition_of_mask(mask, n))
        if normal.sign > 0 and rsk_shape(sigma) == normal.shape:
            kept[mask][maj] += 1
    counts = Counter()  # sign of the straightened value -> filling count
    for mask, majs in table.items():
        counts[normals[mask].sign] += sum(majs.values())
    # the F-to-s replacement is linear, so this walk's F-expansion gives the
    # true expansion without walking the fillings again in hll_expansion
    true_expansion = elw_to_schur(_f_expansion(n, table))
    conjectured = elw_to_schur(_f_expansion(n, kept))
    return ExperimentReport(
        mu=mu,
        filling_count=counts.total(),
        zero_count=counts[0],
        minus_count=counts[-1],
        plus_count=counts[1],
        kept_count=sum(sum(majs.values()) for majs in kept.values()),
        conjectured=conjectured,
        true_expansion=true_expansion,
        discrepancy=true_expansion - conjectured,
    )


def is_schur_positive(e: Expansion) -> bool:
    """True when every coefficient of the Schur expansion e is a polynomial
    in t with coefficients >= 0."""
    if e.basis != "s":
        raise ValueError("input expansion must be over the s basis")
    for _, coeff in e.terms():
        if not coeff.is_q_free():
            return False
        for (_, _), c in coeff.terms():
            if c < 0:
                return False
    return True
