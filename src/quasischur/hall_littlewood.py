"""Diagram filling statistics and the modified Hall-Littlewood experiment."""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import chain, combinations, compress, permutations, repeat
from operator import add, gt, itemgetter
from typing import Iterable, Iterator

from .combinatorics import (
    Composition,
    Partition,
    composition_of_set,
    descent_set,
    inverse_permutation,
    rsk_shape,
)
from .elw import elw_to_schur
from .polynomial import QT
from .quasisym import Expansion, is_symmetric_expansion
from .schur import straighten

@dataclass(frozen=True)
class Filling:
    """Bijective filling of the French Ferrers diagram of a partition.

    rows[0] is the bottom row (the longest); rows shrink upward.  The reading
    word lists rows top to bottom, each left to right.
    """

    shape: Partition
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if tuple(map(len, self.rows)) != tuple(self.shape):
            raise ValueError("row lengths do not match the shape")
        n = self.shape.weight
        if sorted(chain.from_iterable(self.rows)) != list(range(1, n + 1)):
            raise ValueError("entries must be a bijection onto 1..n")

    @classmethod
    def from_reading_word(cls, shape, word) -> "Filling":
        shape = Partition(shape)
        word = tuple(word)
        rows: list[tuple[int, ...]] = []
        pos = 0
        for length in reversed(shape):  # reading starts at the top row
            rows.append(word[pos : pos + length])
            pos += length
        return cls(shape, tuple(reversed(rows)))

    @property
    def reading_word(self) -> tuple[int, ...]:
        return tuple(chain.from_iterable(reversed(self.rows)))

    def column(self, j: int) -> tuple[int, ...]:
        """Entries of column j (1-based), read top to bottom."""
        return tuple(
            self.rows[i][j - 1]
            for i in range(len(self.rows) - 1, -1, -1)
            if self.shape[i] >= j
        )


def maj_stat(f: Filling) -> int:
    """Sum over columns of the major index of the top-to-bottom column word."""
    width = f.shape[0] if f.shape else 0
    return sum(sum(descent_set(f.column(j))) for j in range(1, width + 1))


def pides(sigma) -> Composition:
    """Descent composition of the inverse permutation."""
    sigma = tuple(sigma)
    return composition_of_set(descent_set(inverse_permutation(sigma)), len(sigma))


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
    each left to right, as Filling.reading_word does.

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
    rows: list[tuple[int, ...]] = [()] * tail

    def place(level: int, free: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        if level == tail:
            if (
                tuple(map(len, rows)) != lengths
                or sorted(chain(free, *rows)) != values
            ):
                raise ValueError(
                    f"rows {rows} over {free} are not a bijective filling of {mu}"
                )
            lower_word = tuple(chain.from_iterable(reversed(rows)))
            yield from map(add, permutations(free), repeat(lower_word))
            return
        # combinations are increasing, which is the bottom row's order
        forced = level > 0
        for block in combinations(free, mu[level]):
            rows[level] = _force_row(rows[level - 1], block) if forced else block
            yield from place(level + 1, tuple(v for v in free if v not in block))

    yield from place(0, tuple(values))


def _t_polynomial(census: dict[int, int]) -> QT:
    """The sum of count * t^texp over a census mapping texp -> count."""
    return QT({(0, texp): count for texp, count in census.items()})


def _picker(positions: list[int]):
    """itemgetter for positions that returns a tuple for any count."""
    if len(positions) >= 2:
        return itemgetter(*positions)
    return lambda word: tuple(word[p] for p in positions)


def _census(mu: Partition) -> Iterator[tuple[tuple[bool, ...], int, tuple]]:
    """(mask, maj, word) for each reading word of inv_zero_fillings(mu), the
    one reading of the filling statistics behind every expansion here.

    mask[i] is whether i + 1 is a descent of word^-1, so the pides of word is
    _mask_composition(mask, n); maj is maj_stat of the filling.  Each is read
    off the word in one pass: the mask from the positions of i and i + 1, maj
    from the positions of the vertically adjacent cells."""
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
    for word in inv_zero_fillings(mu):
        # where[v - 1] is the position of v in word; i is a descent of
        # word^-1 exactly when i sits after i + 1
        where = sorted(positions, key=word.__getitem__)
        maj = sum(compress(weights, map(gt, up(word), down(word))))
        yield tuple(map(gt, where, where[1:])), maj, word


def _mask_composition(mask: tuple[bool, ...], n: int) -> tuple[int, ...]:
    """The composition of n whose descent set is {i + 1 : mask[i]}, and ()
    for n = 0, the index of the degree-0 basis element."""
    if not n:
        return ()
    return tuple(composition_of_set({i + 1 for i, d in enumerate(mask) if d}, n))


def hl_fundamental_expansion(mu) -> Expansion:
    """F-expansion of the modified Hall-Littlewood polynomial: the q = 0
    specialization, i.e. the sum over inversion-free fillings of t^maj F_pides.

    The fillings are counted per descent mask and maj off _census, as in
    leftover_experiment.  The tests check this sum against maj_stat and pides
    over an independent walk, and against cocharge through hll_expansion."""
    mu = Partition(mu)
    n = mu.weight
    census: dict = defaultdict(Counter)  # mask -> maj -> filling count
    for mask, maj, _ in _census(mu):
        census[mask][maj] += 1
    terms = {_mask_composition(mask, n): _t_polynomial(majs) for mask, majs in census.items()}
    return Expansion("F", n, terms)


def hll_expansion(mu) -> Expansion:
    """Schur expansion of the modified Hall-Littlewood polynomial, obtained by
    the F-to-s replacement applied to the inversion-free filling sum."""
    return elw_to_schur(hl_fundamental_expansion(mu))


def symmetry_check(mu) -> bool:
    """Whether the inversion-free filling sum is symmetric in n variables
    (coefficientwise in t, so per t-degree)."""
    return is_symmetric_expansion(hl_fundamental_expansion(mu))


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

    The fillings come from _census, as in hl_fundamental_expansion.  Each
    descent mask is straightened once, and the fillings are counted per mask
    and maj; the class counts and both expansions are read off that census
    after the walk."""
    mu = Partition(mu)
    n = mu.weight
    # mask -> (pides, straightened Schur value, maj -> filling count,
    # maj -> kept filling count, or None off the plus class)
    by_mask: dict[tuple[bool, ...], tuple] = {}
    for mask, maj, sigma in _census(mu):
        entry = by_mask.get(mask)
        if entry is None:
            index = _mask_composition(mask, n)
            normal = straighten(index)
            entry = by_mask[mask] = (index, normal, {}, {} if normal.sign > 0 else None)
        _, normal, majs, kept_majs = entry
        majs[maj] = majs.get(maj, 0) + 1
        if kept_majs is not None and rsk_shape(sigma) == normal.shape:
            kept_majs[maj] = kept_majs.get(maj, 0) + 1
    counts = {"zero": 0, "minus": 0, "plus": 0}
    # shape -> maj -> kept filling count
    kept_census: dict[tuple[int, ...], Counter] = {}
    for _, normal, majs, kept_majs in by_mask.values():
        sign_class = "zero" if normal.is_zero() else "minus" if normal.sign < 0 else "plus"
        counts[sign_class] += sum(majs.values())
        if kept_majs:
            kept_census.setdefault(tuple(normal.shape), Counter()).update(kept_majs)
    conjectured = Expansion("s", n, {shape: _t_polynomial(m) for shape, m in kept_census.items()})
    # the F-to-s replacement is linear, so this walk's F-expansion gives the
    # true expansion without walking the fillings again in hll_expansion
    f_terms = {index: _t_polynomial(m) for index, _, m, _ in by_mask.values()}
    true_expansion = elw_to_schur(Expansion("F", n, f_terms))
    return ExperimentReport(
        mu=mu,
        filling_count=sum(counts.values()),
        zero_count=counts["zero"],
        minus_count=counts["minus"],
        plus_count=counts["plus"],
        kept_count=sum(sum(m.values()) for m in kept_census.values()),
        conjectured=conjectured,
        true_expansion=true_expansion,
        discrepancy=true_expansion - conjectured,
    )


def is_schur_positive(e: Expansion) -> bool:
    """True when every coefficient is a polynomial in t with coefficients >= 0."""
    for _, coeff in e.terms():
        if not coeff.is_q_free():
            return False
        for (_, _), c in coeff.terms():
            if c < 0:
                return False
    return True
