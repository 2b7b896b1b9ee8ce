"""Composition-indexed Schur functions: straightening, and Schur polynomials
by semistandard tableaux."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add

from .combinatorics import Partition, WeakComposition
from .polynomial import QT, SparsePoly, _sort_sign


@dataclass(frozen=True)
class SignedSchur:
    """Normal form of a composition-indexed Schur function: 0 or +/- s_shape."""

    sign: int
    shape: Partition | None

    def is_zero(self) -> bool:
        return self.sign == 0

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        body = ",".join(str(p) for p in self.shape)
        return f"{'+' if self.sign > 0 else '-'}s[{body}]"

    def to_json_dict(self) -> dict:
        if self.is_zero():
            return {"zero": True}
        return {"sign": self.sign, "shape": list(self.shape)}

    @classmethod
    def of(cls, sign: int, shape) -> "SignedSchur":
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return cls(sign, Partition(shape))


# the value of every s_gamma that straightens to zero, shared: SignedSchur is
# frozen
_ZERO = SignedSchur(0, None)


def straighten(gamma) -> SignedSchur:
    """Normal form of s_gamma for a weak composition gamma.

    The shifted vector (gamma_j + n - j) determines everything: a repeated
    entry gives zero, otherwise the sign of the sorting permutation and the
    sorted vector minus the staircase give the signed partition.
    """
    gamma = WeakComposition(gamma)
    n = len(gamma)
    shifted = tuple(map(add, gamma, range(n - 1, -1, -1)))
    if len(set(shifted)) != n:
        return _ZERO
    sorted_shifted, sign = _sort_sign(shifted)
    shape = list(map(add, sorted_shifted, range(1 - n, 1)))
    while shape and shape[-1] == 0:
        shape.pop()
    return SignedSchur.of(sign, shape)


@lru_cache(maxsize=None)
def schur_ssyt(shape, nvars: int) -> SparsePoly:
    """s_shape by direct enumeration of semistandard tableaux with entries
    at most nvars, filled top row first, left to right, from an explicit
    stack of (cell, value) choices, which leaves no reference cycle.
    Independent of straightening and of the alternants."""
    shape = Partition(shape)
    cells = [(r, c) for r, part in enumerate(shape) for c in range(part)]
    size = len(cells)
    # per cell, the flat indices of its left and upper neighbours; index
    # size is a sentinel entry 0, and the extra pair is the finished tableau's
    neighbours = [
        (k - 1 if c else size, k - shape[r - 1] if r else size)
        for k, (r, c) in enumerate(cells)
    ] + [(size, size)]
    entries = [0] * (size + 1)
    content = [0] * nvars
    counts: dict[tuple[int, ...], int] = {}
    stack = [(0, 1)]
    while stack:
        k, value = stack.pop()
        if k == size:
            key = tuple(content)
            counts[key] = counts.get(key, 0) + 1
            continue
        if entries[k]:
            content[entries[k] - 1] -= 1
        if value > nvars:
            entries[k] = 0
            continue
        entries[k] = value
        content[value - 1] += 1
        stack.append((k, value + 1))
        # weak increase along rows, strict increase down columns
        left, up = neighbours[k + 1]
        stack.append((k + 1, max(entries[left], entries[up] + 1)))
    # one coefficient per distinct count, shared by every monomial with it,
    # so the checked constructor builds no QT per monomial
    coeffs = {count: QT.integer(count) for count in set(counts.values())}
    return SparsePoly(nvars, {exps: coeffs[count] for exps, count in counts.items()})
