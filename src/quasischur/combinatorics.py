"""Compositions, partitions, descent sets and Schensted insertion."""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate
from operator import sub
from typing import Iterator

_INT_ONLY = frozenset((int,))


def _ints(values) -> tuple[int, ...]:
    """values as a tuple of plain ints: the one integer rule of the package's
    constructors.  A bool is read as its int value; anything else that is
    not an int, such as a float or a string, raises TypeError rather than
    being read through int()."""
    values = tuple(values)
    if not _INT_ONLY.issuperset(map(type, values)):
        if not all(isinstance(value, int) for value in values):
            raise TypeError(f"expected integers, got {values!r}")
        values = tuple(map(int, values))
    return values


class _Parts(tuple):
    """A sequence of integer parts; each subclass checks its parts in __new__."""

    @property
    def weight(self) -> int:
        return sum(self)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({tuple(self)})"


class Composition(_Parts):
    """Finite sequence of strictly positive integers."""

    def __new__(cls, parts) -> "Composition":
        parts = _ints(parts)
        if not parts:
            raise ValueError("composition must have at least one part")
        if any(p < 1 for p in parts):
            raise ValueError(f"composition parts must be >= 1, got {parts}")
        return super().__new__(cls, parts)


class WeakComposition(_Parts):
    """Fixed-length sequence of non-negative integers."""

    def __new__(cls, parts) -> "WeakComposition":
        parts = _ints(parts)
        if parts and min(parts) < 0:
            raise ValueError(f"weak composition parts must be >= 0, got {parts}")
        return super().__new__(cls, parts)


class Partition(_Parts):
    """Weakly decreasing sequence of positive integers.  May be empty."""

    def __new__(cls, parts) -> "Partition":
        parts = _ints(parts)
        if any(p < 1 for p in parts):
            raise ValueError(f"partition parts must be >= 1, got {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"partition parts must be weakly decreasing, got {parts}")
        return super().__new__(cls, parts)


def set_of_composition(alpha: Composition) -> frozenset[int]:
    """Partial sums of alpha excluding the total, a subset of {1..n-1}."""
    alpha = Composition(alpha)
    return frozenset(accumulate(alpha[:-1]))


def pad(alpha, n: int) -> WeakComposition:
    """Append zeros until alpha has n parts."""
    alpha = tuple(alpha)
    if len(alpha) > n:
        raise ValueError(f"cannot pad {len(alpha)} parts down to {n}")
    return WeakComposition(alpha + (0,) * (n - len(alpha)))


def _mask_of_composition(alpha) -> int:
    """Set(alpha) as a bitmask, bit i-1 standing for the point i, read off the
    partial sums of alpha; () has mask 0.  This is the one descent-mask
    encoding of the package, and _composition_of_mask its inverse."""
    return sum(1 << (point - 1) for point in accumulate(alpha[:-1]))


def _composition_of_mask(mask: int, n: int) -> tuple[int, ...]:
    """The composition of n whose descent set is {i : bit i-1 of mask is set},
    as a plain tuple of the gaps between its points; () for n = 0, the index
    of the degree-0 basis element."""
    if not n:
        return ()
    bounds = [0, *(i for i in range(1, n) if mask >> (i - 1) & 1), n]
    return tuple(map(sub, bounds[1:], bounds))


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """All partitions of n, largest part first within each."""
    if max_part is None:
        max_part = n
    if n == 0:
        yield Partition(())
        return
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            yield Partition((first,) + tuple(rest))


def _row_insert(rows: list[list[int]], value: int) -> int:
    """Schensted row insertion of value into the tableau rows, top row
    first, in place: value bumps the least entry of a row greater than it
    into the next row, until an entry lands at the end of a row.  Returns
    the index of the row that grew."""
    r = 0
    for row in rows:
        bump = bisect_right(row, value)
        if bump == len(row):
            row.append(value)
            return r
        row[bump], value = value, row[bump]
        r += 1
    rows.append([value])
    return r


def rsk_shape(sigma) -> Partition:
    """Shape of the Schensted tableaux of a permutation word.

    Row insertion builds only the insertion tableau P, as lists, since the
    shape needs neither the recording tableau Q nor frozen rows; the tests
    compare it with the full insertion of both tableaux.
    """
    sigma = tuple(sigma)
    n = len(sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError(f"{sigma} is not a permutation of 1..{n}")
    rows: list[list[int]] = []
    for value in sigma:
        _row_insert(rows, value)
    # row insertion keeps the row lengths weakly decreasing, so the shape
    # needs none of Partition's checks
    return tuple.__new__(Partition, map(len, rows))


def permutation_sign(perm) -> int:
    """Sign of a permutation given as a word over 0..n-1 or 1..n.

    One pass over the cycles: the sign is (-1)^(n - number of cycles).
    """
    base = min(perm, default=0)
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if seen[start]:
            continue
        cycles += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j] - base
    return -1 if (len(perm) - cycles) % 2 else 1
