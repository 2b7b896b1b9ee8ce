"""Compositions, partitions, descent sets and Schensted insertion."""

from __future__ import annotations

from bisect import bisect_right
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
        if any(p < 0 for p in parts):
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
    acc = 0
    out = []
    for part in alpha[:-1]:
        acc += part
        out.append(acc)
    return frozenset(out)


def composition_of_set(s, n: int) -> Composition:
    """Inverse of set_of_composition for subsets of {1..n-1}."""
    if n < 1:
        raise ValueError("n must be positive")
    points = sorted(s)
    if any(not 1 <= p <= n - 1 for p in points):
        raise ValueError(f"descent set {points} not contained in 1..{n - 1}")
    bounds = [0] + points + [n]
    return Composition(bounds[i + 1] - bounds[i] for i in range(len(bounds) - 1))


def pad(alpha, n: int) -> WeakComposition:
    """Append zeros until alpha has n parts."""
    alpha = tuple(alpha)
    if len(alpha) > n:
        raise ValueError(f"cannot pad {len(alpha)} parts down to {n}")
    return WeakComposition(alpha + (0,) * (n - len(alpha)))


def compositions_of(n: int) -> Iterator[Composition]:
    """All 2^(n-1) compositions of n, lexicographic on the descent set: the
    composition at position mask has Set = {i : bit i-1 of mask is set}, and
    is built straight from the bits, each point closing a part."""
    if n < 1:
        raise ValueError("n must be positive")
    for mask in range(1 << (n - 1)):
        parts = [1]
        for i in range(n - 1):
            if mask >> i & 1:
                parts.append(1)
            else:
                parts[-1] += 1
        yield Composition(parts)


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


def inverse_permutation(sigma) -> tuple[int, ...]:
    """Inverse of a one-line permutation word over {1..n}."""
    inv = [0] * len(sigma)
    for pos, value in enumerate(sigma, start=1):
        inv[value - 1] = pos
    return tuple(inv)


def descent_set(word) -> frozenset[int]:
    """Positions i with word[i] > word[i+1] (1-indexed)."""
    return frozenset(i + 1 for i in range(len(word) - 1) if word[i] > word[i + 1])


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
        for row in rows:
            bump = bisect_right(row, value)
            if bump == len(row):
                row.append(value)
                break
            row[bump], value = value, row[bump]
        else:
            rows.append([value])
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
