"""Diagram filling statistics and the modified Hall-Littlewood experiment."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import permutations
from typing import Iterator

from .combinatorics import (
    Composition,
    Partition,
    composition_of_set,
    decompositions,
    descent_set,
    inverse_permutation,
    pad,
    rsk_shape,
)
from .elw import elw_to_schur
from .polynomial import QT, QT_ZERO
from .quasisym import Expansion, is_symmetric_expansion
from .schur import straighten

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
        if tuple(len(r) for r in self.rows) != tuple(self.shape):
            raise ValueError("row lengths do not match the shape")
        n = self.shape.weight
        if sorted(v for row in self.rows for v in row) != list(range(1, n + 1)):
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
        out: list[int] = []
        for row in reversed(self.rows):
            out.extend(row)
        return tuple(out)

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


def _force_row(row_below: tuple[int, ...], entries: frozenset[int]) -> tuple[int, ...]:
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

    The bottom row is its block in increasing order; each higher row is the
    forced inversion-free ordering of its block.
    """
    mu = Partition(mu)
    _check_bound(mu.weight, max_n)
    for blocks in decompositions(mu):
        rows: list[tuple[int, ...]] = [tuple(sorted(blocks[0]))]
        for block in blocks[1:]:
            rows.append(_force_row(rows[-1], block))
        yield Filling(mu, tuple(rows))


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
    specialization, i.e. the sum over inversion-free fillings of t^maj F_pides."""
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


def leftover_experiment(mu, max_n: int = DEFAULT_MAX_N) -> ExperimentReport:
    """Classify each inversion-free filling by the sign of its straightened
    descent-composition Schur value, keep the plus-class fillings whose
    Schensted shape matches the straightened shape, and compare the resulting
    sum against the true expansion, built from the same walk."""
    mu = Partition(mu)
    n = mu.weight
    counts = {"zero": 0, "minus": 0, "plus": 0}
    f_terms: dict[tuple[int, ...], QT] = {}
    kept_terms: dict[tuple[int, ...], QT] = {}
    kept = 0
    total_fillings = 0
    for f in inv_zero_fillings(mu, max_n=max_n):
        total_fillings += 1
        sigma = f.reading_word
        index = tuple(pides(sigma))
        t_maj = QT.term(1, texp=maj_stat(f))
        f_terms[index] = f_terms.get(index, QT_ZERO) + t_maj
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
    # the F-to-s replacement is linear, so this walk's F-expansion gives the
    # true expansion without walking the fillings again in hll_expansion
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
