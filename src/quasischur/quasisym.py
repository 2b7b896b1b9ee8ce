"""Gessel fundamental quasisymmetric polynomials and F-expansion extraction."""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb
from operator import add
from typing import Iterator, Mapping

from .combinatorics import (
    Composition,
    Partition,
    _composition_of_mask,
    _ints,
    _mask_of_composition,
)
from .polynomial import (
    QT,
    QT_ONE,
    QT_ZERO,
    SparsePoly,
    _as_qt,
    _factor,
    _json_int,
    _json_terms,
    _SparseMap,
)

BASES = ("F", "M", "s")


class Expansion(_SparseMap):
    """Homogeneous linear combination over a named basis.

    Indices are compositions for the F and M bases and partitions for the
    s basis; coefficients live in Z[q,t].
    """

    __slots__ = ("basis", "degree")
    _SPACE = ("basis", "degree")

    def __init__(self, basis: str, degree: int, terms: Mapping | None = None):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        (degree,) = _ints((degree,))
        if degree < 0:
            raise ValueError(f"degree must be non-negative, got {degree}")
        self.basis = basis
        self.degree = degree
        super().__init__(terms)

    def _key(self, index) -> tuple[int, ...]:
        # the empty index is the degree-0 basis element F_() = M_() = s_() = 1
        if self.basis == "s":
            index = tuple(Partition(index))
        elif index:
            index = tuple(Composition(index))
        else:
            index = ()
        if sum(index) != self.degree:
            raise ValueError(
                f"index {index} has weight {sum(index)}, expected {self.degree}"
            )
        return index

    _coeff = staticmethod(_as_qt)

    def coefficient(self, index) -> QT:
        return self._terms.get(tuple(index), QT_ZERO)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], QT]]:
        return sorted(self._terms.items())

    def to_json_dict(self) -> dict:
        return {
            "basis": self.basis,
            "degree": self.degree,
            "terms": [
                {"index": list(index), "coeff": coeff.triples()}
                for index, coeff in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "Expansion":
        """Read the serialized form in one pass that checks every number.
        Entries with equal index are added; terms that cancel are dropped,
        after their index is checked."""
        sums = _json_terms(doc["terms"], "index")
        empty = cls(doc["basis"], _json_int(doc["degree"]))
        terms: dict[tuple[int, ...], QT] = {}
        for index, acc in sums.items():
            index = empty._key(index)
            if acc:
                terms[index] = QT_ZERO._wrap(acc)
        return empty._wrap(terms)

    def _str_term(self, term) -> str:
        index, coeff = term
        return f"{_factor(coeff)}*{self.basis}[{','.join(map(str, index))}]"


def fundamental_words(alpha, nvars: int) -> Iterator[tuple[int, ...]]:
    """The monomials of F_alpha(x_1..x_nvars) as words 1 <= a_1 <= ... <= a_n
    <= nvars with a strict rise a_i < a_{i+1} at each i in Set(alpha), in
    lexicographic order.

    Lowering each letter by the number of points of Set(alpha) before it is
    a bijection onto the weakly increasing words over 1..nvars-len(alpha)+1.
    """
    alpha = Composition(alpha)
    raise_by = [i for i, part in enumerate(alpha) for _ in range(part)]
    letters = range(1, nvars - len(alpha) + 2)
    for word in combinations_with_replacement(letters, alpha.weight):
        yield tuple(map(add, word, raise_by))


def _exponents(word, nvars: int) -> tuple[int, ...]:
    """The exponent vector of a word in the letters 1..nvars."""
    counts = [0] * nvars
    for a in word:
        counts[a - 1] += 1
    return tuple(counts)


def fundamental(alpha, nvars: int) -> SparsePoly:
    """F_alpha(x_1..x_nvars), one monomial per word of fundamental_words."""
    words = fundamental_words(alpha, nvars)
    return SparsePoly(nvars, {_exponents(word, nvars): QT_ONE for word in words})


def monomial_qs_coefficients(p: SparsePoly) -> dict[tuple[int, ...], QT]:
    """Coefficients c_beta of the monomial quasisymmetric expansion of p,
    keyed by Composition, and by () for the constant term.

    Verifies, in one pass over the monomials, homogeneity (every pattern has
    the same sum) and then quasisymmetry: every monomial with the same
    support-composition must carry the same coefficient, and each pattern
    must occur on every choice of support.
    """
    first: dict[tuple[int, ...], QT] = {}
    count: dict[tuple[int, ...], int] = {}
    agree = True
    for exps, coeff in p.terms():
        pattern = tuple(filter(None, exps))
        seen = first.get(pattern)
        if seen is None:
            first[pattern] = coeff
            count[pattern] = 1
        else:
            count[pattern] += 1
            if seen._terms != coeff._terms:
                agree = False
    if len(set(map(sum, first))) > 1:
        raise ValueError("polynomial is not homogeneous")
    nvars = p.nvars
    if not agree or any(k != comb(nvars, len(b)) for b, k in count.items()):
        raise ValueError("polynomial is not quasisymmetric")
    return {
        Composition(pattern) if pattern else (): coeff
        for pattern, coeff in first.items()
    }


def _subset_sums(terms, n: int, sign: int) -> list[tuple[tuple[int, ...], QT]]:
    """Every composition of n with its coefficient after one pass per descent
    position over the subsets S of {1..n-1}, in mask order.

    Each (alpha, coeff) of terms is placed at the bitmask c[Set(alpha)]; then
    c[S] becomes the sum of c[T] over T <= S for sign 1 (the zeta transform),
    or of (-1)^(|S|-|T|) c[T] for sign -1 (its Moebius inverse).  At degrees 0
    and 1 the lattice has the one slot of the empty set."""
    c = [QT_ZERO] * (1 << max(n - 1, 0))
    for alpha, coeff in terms:
        c[_mask_of_composition(alpha)] = coeff
    combine = QT.__add__ if sign > 0 else QT.__sub__
    bit = 1
    while bit < len(c):
        for mask in range(len(c)):
            if mask & bit and c[mask ^ bit]:
                c[mask] = combine(c[mask], c[mask ^ bit])
        bit <<= 1
    return [(_composition_of_mask(mask, n), coeff) for mask, coeff in enumerate(c)]


def extract_f_expansion(p: SparsePoly) -> Expansion:
    """The unique F-basis coefficients of a quasisymmetric polynomial.

    Works through monomial quasisymmetric coefficients and inclusion-exclusion
    on the descent-set lattice.  Since c_beta = sum of a_alpha over coarsenings
    alpha of beta, the inverse is a_alpha = sum over Set(beta) <= Set(alpha) of
    (-1)^(|Set(alpha)| - |Set(beta)|) c_beta.
    """
    if p.is_zero():
        return Expansion("F", 0)
    n = p.degree()
    if p.nvars < n:
        raise ValueError(
            f"need at least {n} variables to separate degree-{n} fundamentals"
        )
    by_beta = monomial_qs_coefficients(p)
    # a coefficient can be nonzero even where the monomial coefficient
    # cancels to zero, so read off every composition of n; a constant c is
    # c*M_() = c*F_()
    terms = {alpha: a for alpha, a in _subset_sums(by_beta.items(), n, -1) if a}
    return Expansion("F", n, terms)


def is_symmetric_expansion(e: Expansion) -> bool:
    """Whether an F-expansion of degree n is symmetric in n variables.

    Its monomial quasisymmetric coefficients are c_beta = sum of a_alpha over
    Set(alpha) <= Set(beta), summed over the subset lattice of {1..n-1} in one
    pass per descent position.  The M_beta(x_1..x_n), beta a composition of
    n, are linearly independent, and x^e has coefficient c_beta for beta the
    nonzero parts of e, so the polynomial is symmetric exactly when c_beta is
    the same for every rearrangement of beta.  This is the exact answer of
    expanding the polynomial and swapping its variables, without the
    expansion.
    """
    if e.basis != "F":
        raise ValueError(f"expected an F-basis expansion, got basis {e.basis!r}")
    by_parts: dict[tuple[int, ...], QT] = {}
    for beta, coeff in _subset_sums(e.terms(), e.degree, 1):
        if by_parts.setdefault(tuple(sorted(beta)), coeff) != coeff:
            return False
    return True
