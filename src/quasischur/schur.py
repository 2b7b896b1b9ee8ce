"""Composition-indexed Schur functions: straightening, and Schur polynomials
by semistandard tableaux."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
    def zero(cls) -> "SignedSchur":
        return cls(0, None)

    @classmethod
    def of(cls, sign: int, shape) -> "SignedSchur":
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return cls(sign, Partition(shape))


def straighten(gamma) -> SignedSchur:
    """Normal form of s_gamma for a weak composition gamma.

    The shifted vector (gamma_j + n - j) determines everything: a repeated
    entry gives zero, otherwise the sign of the sorting permutation and the
    sorted vector minus the staircase give the signed partition.
    """
    gamma = WeakComposition(gamma)
    n = len(gamma)
    shifted = tuple(gamma[j] + n - 1 - j for j in range(n))
    if len(set(shifted)) != n:
        return SignedSchur.zero()
    sorted_shifted, sign = _sort_sign(shifted)
    shape = [sorted_shifted[j] - (n - 1 - j) for j in range(n)]
    while shape and shape[-1] == 0:
        shape.pop()
    return SignedSchur.of(sign, shape)


@lru_cache(maxsize=None)
def schur_ssyt(shape, nvars: int) -> SparsePoly:
    """s_shape by direct enumeration of semistandard tableaux with entries
    at most nvars.  Independent of straightening and of the alternants."""
    shape = Partition(shape)
    rows = len(shape)
    counts: dict[tuple[int, ...], int] = {}
    content = [0] * nvars
    tableau: list[list[int]] = [[] for _ in range(rows)]

    def fill(row: int, col: int) -> None:
        if row == rows:
            key = tuple(content)
            counts[key] = counts.get(key, 0) + 1
            return
        if col == shape[row]:
            fill(row + 1, 0)
            return
        lo = 1
        if col > 0:
            lo = max(lo, tableau[row][col - 1])  # weak increase along rows
        if row > 0:
            lo = max(lo, tableau[row - 1][col] + 1)  # strict increase down columns
        for value in range(lo, nvars + 1):
            tableau[row].append(value)
            content[value - 1] += 1
            fill(row, col + 1)
            content[value - 1] -= 1
            tableau[row].pop()

    fill(0, 0)
    # one coefficient per distinct count, shared by every monomial with it,
    # so the checked constructor builds no QT per monomial
    coeffs = {count: QT.integer(count) for count in set(counts.values())}
    return SparsePoly(nvars, {exps: coeffs[count] for exps, count in counts.items()})
