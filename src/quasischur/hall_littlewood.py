"""Diagram filling statistics and the modified Hall-Littlewood experiment."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import chain, combinations, compress, permutations
from operator import gt
from typing import Iterable, Iterator

from .combinatorics import (
    Composition,
    Partition,
    composition_of_set,
    descent_set,
    inverse_permutation,
    pad,
    rsk_shape,
)
from .elw import elw_to_schur
from .polynomial import QT, QT_ZERO
from .quasisym import Expansion, is_symmetric_expansion
from .schur import SignedSchur, straighten

DEFAULT_MAX_N = 9


class SizeBoundError(ValueError):
    """Raised when an enumeration would exceed the configured size bound."""


def _check_bound(n: int, max_n: int) -> None:
    if n > max_n:
        raise SizeBoundError(
            f"weight {n} exceeds the configured bound {max_n}; raise the bound "
            "explicitly to run larger enumerations"
        )


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


def _word_maj(word) -> int:
    return sum(i + 1 for i in range(len(word) - 1) if word[i] > word[i + 1])


def maj_stat(f: Filling) -> int:
    """Sum over columns of the major index of the top-to-bottom column word."""
    width = f.shape[0] if f.shape else 0
    return sum(_word_maj(f.column(j)) for j in range(1, width + 1))


def _counterclockwise(a: int, b: int, c: float) -> bool:
    return (a > b > c) or (b > c > a) or (c > a > b)


def inv_stat(f: Filling) -> int:
    """Count of inversion triples: cells u left of v in a row, with the cell
    directly below u (or a virtual +infinity below the bottom row)."""
    total = 0
    for i, row in enumerate(f.rows):
        below = f.rows[i - 1] if i > 0 else None
        for a_pos in range(len(row)):
            c = below[a_pos] if below is not None else float("inf")
            for b_pos in range(a_pos + 1, len(row)):
                if _counterclockwise(row[a_pos], row[b_pos], c):
                    total += 1
    return total


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


def inv_zero_fillings(mu, max_n: int = DEFAULT_MAX_N) -> Iterator[Filling]:
    """One inversion-free filling per ordered set decomposition of {1..n}.

    A depth-first walk from the bottom row up: level i picks row i's entries
    from the values not yet used.  The bottom row holds its entries in
    increasing order; each higher row is the forced inversion-free ordering
    of its entries over the row already chosen below it, so a forced row is
    computed once per shared lower part of the filling.  The order in which
    the fillings are yielded is not part of this contract.
    """
    mu = Partition(mu)
    _check_bound(mu.weight, max_n)
    k = len(mu)
    rows: list[tuple[int, ...]] = [()] * k

    def place(level: int, free: tuple[int, ...]) -> Iterator[Filling]:
        if level == k:
            yield Filling(mu, tuple(rows))
            return
        # combinations are increasing, which is the bottom row's order, and a
        # one-cell row has a single ordering
        forced = level > 0 and mu[level] > 1
        for block in combinations(free, mu[level]):
            rows[level] = _force_row(rows[level - 1], block) if forced else block
            yield from place(level + 1, tuple(v for v in free if v not in block))

    yield from place(0, tuple(range(1, mu.weight + 1)))


def all_fillings(mu) -> Iterator[Filling]:
    """All n! bijective fillings of mu."""
    mu = Partition(mu)
    for word in permutations(range(1, mu.weight + 1)):
        yield Filling.from_reading_word(mu, word)


def haglund_expansion(mu) -> Expansion:
    """F-expansion of the modified Macdonald polynomial via filling statistics:
    sum over all fillings of q^inv t^maj F_pides."""
    mu = Partition(mu)
    terms: dict[tuple[int, ...], QT] = {}
    for f in all_fillings(mu):
        coeff = QT.term(1, qexp=inv_stat(f), texp=maj_stat(f))
        index = tuple(pides(f.reading_word))
        new = terms.get(index, QT_ZERO) + coeff
        if new:
            terms[index] = new
        else:
            terms.pop(index, None)
    return Expansion("F", mu.weight, terms)


def hl_fundamental_expansion(mu, max_n: int = DEFAULT_MAX_N) -> Expansion:
    """F-expansion of the modified Hall-Littlewood polynomial: the q = 0
    specialization, i.e. the sum over inversion-free fillings of t^maj F_pides.

    It reads each filling through maj_stat and pides, independently of the
    inline statistics in leftover_experiment, so hll_expansion is the
    independent check of that experiment's true side."""
    mu = Partition(mu)
    terms: dict[tuple[int, ...], QT] = {}
    for f in inv_zero_fillings(mu, max_n=max_n):
        coeff = QT.term(1, texp=maj_stat(f))
        index = tuple(pides(f.reading_word))
        terms[index] = terms.get(index, QT_ZERO) + coeff
    return Expansion("F", mu.weight, terms)


def hll_expansion(mu, max_n: int = DEFAULT_MAX_N) -> Expansion:
    """Schur expansion of the modified Hall-Littlewood polynomial, obtained by
    the F-to-s replacement applied to the inversion-free filling sum."""
    return elw_to_schur(hl_fundamental_expansion(mu, max_n=max_n))


def symmetry_check(mu, max_n: int = DEFAULT_MAX_N) -> bool:
    """Whether the inversion-free filling sum is symmetric in n variables
    (coefficientwise in t, so per t-degree)."""
    return is_symmetric_expansion(hl_fundamental_expansion(mu, max_n=max_n))


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


def _t_polynomial(census: dict[int, int]) -> QT:
    """The sum of count * t^texp over a census mapping texp -> count."""
    return QT({(0, texp): count for texp, count in census.items()})


def leftover_experiment(mu, max_n: int = DEFAULT_MAX_N) -> ExperimentReport:
    """Classify each inversion-free filling by the sign of its straightened
    descent-composition Schur value, keep the plus-class fillings whose
    Schensted shape matches the straightened shape, and compare the resulting
    sum against the true expansion, built from the same walk.

    The statistics are read off the rows directly: pides from the positions
    of i and i + 1 in the reading word, maj from vertically adjacent cells.
    Each descent mask is straightened once."""
    mu = Partition(mu)
    n = mu.weight
    # row_weights[r][j]: the position in column j's top-to-bottom word of a
    # descent between rows r + 1 and r, which is the column's height less r + 1
    row_weights = [
        [sum(1 for part in mu if part > j) - r - 1 for j in range(mu[r + 1])]
        for r in range(len(mu) - 1)
    ]
    # mask -> (pides, its straightened Schur value, maj -> filling count)
    by_mask: dict[tuple[bool, ...], tuple[tuple[int, ...], SignedSchur, dict]] = {}
    counts = {"zero": 0, "minus": 0, "plus": 0}
    # shape -> maj -> kept filling count
    kept_census: dict[tuple[int, ...], dict[int, int]] = {}
    kept = 0
    total_fillings = 0
    for f in inv_zero_fillings(mu, max_n=max_n):
        total_fillings += 1
        rows = f.rows
        sigma = f.reading_word
        # where[v - 1] is the position of v in sigma; i is a descent of
        # sigma^-1 exactly when i sits after i + 1
        where = sorted(range(n), key=sigma.__getitem__)
        mask = tuple(map(gt, where, where[1:]))
        maj = 0
        for r, weights in enumerate(row_weights):
            maj += sum(compress(weights, map(gt, rows[r + 1], rows[r])))
        entry = by_mask.get(mask)
        if entry is None:
            descents = {i + 1 for i, d in enumerate(mask) if d}
            index = tuple(composition_of_set(descents, n))
            entry = by_mask[mask] = (index, straighten(pad(index, n)), {})
        _, normal, majs = entry
        majs[maj] = majs.get(maj, 0) + 1
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
        kept_majs = kept_census.setdefault(tuple(normal.shape), {})
        kept_majs[maj] = kept_majs.get(maj, 0) + 1
    conjectured = Expansion(
        "s", n, {shape: _t_polynomial(m) for shape, m in kept_census.items()}
    )
    # the F-to-s replacement is linear, so this walk's F-expansion gives the
    # true expansion without walking the fillings again in hll_expansion
    f_terms = {index: _t_polynomial(m) for index, _, m in by_mask.values()}
    true_expansion = elw_to_schur(Expansion("F", n, f_terms))
    return ExperimentReport(
        mu=mu,
        filling_count=total_fillings,
        zero_count=counts["zero"],
        minus_count=counts["minus"],
        plus_count=counts["plus"],
        kept_count=kept,
        conjectured=conjectured,
        true_expansion=true_expansion,
        discrepancy=true_expansion - conjectured,
    )


def is_schur_positive(e: Expansion) -> bool:
    """True when every coefficient is a polynomial in t with coefficients >= 0."""
    for _, coeff in e.terms():
        if not coeff.is_q_free():
            return False
        for (_, _), c in coeff.items():
            if c < 0:
                return False
    return True
