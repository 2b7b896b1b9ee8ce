"""Gessel fundamental quasisymmetric polynomials and F-expansion extraction."""

from __future__ import annotations

from collections import Counter
from itertools import chain, combinations_with_replacement, repeat
from math import comb
from operator import add, eq, itemgetter
from typing import Iterator, Mapping

from .combinatorics import (
    _INT_ONLY,
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
    _add_triples,
    _as_qt,
    _factor,
    _json_int,
    _json_terms,
    _poly_document,
    _SparseMap,
    _variable_count,
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


def _pattern_census(terms) -> tuple[dict, dict[tuple[int, ...], int], bool]:
    """The support patterns of terms, pairs (exponent vector, coefficient map),
    read in one pass that raises nothing: the first map of each pattern
    tuple(filter(None, exps)), the number of terms of each pattern, and
    whether every map equals the first of its pattern.  An empty map, a sum
    that cancelled, is skipped."""
    first: dict[tuple[int, ...], dict] = {}
    count: dict[tuple[int, ...], int] = {}
    agree = True
    for exps, coeff in terms:
        if not coeff:
            continue
        pattern = tuple(filter(None, exps))
        seen = first.get(pattern)
        if seen is None:
            first[pattern] = coeff
            count[pattern] = 1
        else:
            count[pattern] += 1
            if seen != coeff:
                agree = False
    return first, count, agree


_LIST_ONLY = frozenset((list,))


def _uniform_census(nvars: int, terms):
    """The census of a terms array in which no exps repeats and every array
    equals the first array of its pattern, or None when the array is not so.

    A quasisymmetric document gives every monomial of a pattern the same
    coefficient, so the tests run over the whole array at once: every entry
    has an exps and a coeff array, every exps holds integers, has length
    nvars and no negative entry, and no two are equal; the first array of
    each pattern reads through _add_triples to a map that does not cancel;
    every array is == that first one and holds only integers, since == also
    takes true and 1.0 for 1.  Only the first arrays are read into maps.
    They are read before any comparison or flattening: _add_triples refuses
    a first array that is not an array of integer triples, and an array ==
    to one that it took is an array of triples too, so the flattening of
    the int test meets nothing else."""
    try:
        exps = list(map(itemgetter("exps"), terms))
        arrays = list(map(itemgetter("coeff"), terms))
    except (KeyError, TypeError):
        return None
    if not (_LIST_ONLY.issuperset(map(type, exps))
            and _INT_ONLY.issuperset(map(type, chain.from_iterable(exps)))):
        return None
    vectors = list(map(tuple, exps))
    if set(map(len, vectors)) != {nvars} or nvars and min(map(min, vectors)) < 0:
        return None
    if len(set(vectors)) != len(vectors):
        return None
    patterns = list(map(tuple, map(filter, repeat(None), vectors)))
    count = Counter(patterns)
    # read backwards, the array stored last for a pattern is its first
    first_array = dict(zip(reversed(patterns), reversed(arrays)))
    first: dict[tuple[int, ...], dict] = {}
    try:
        for pattern in count:
            acc = first[pattern] = {}
            _add_triples(acc, first_array[pattern])
            if not acc:
                return None
    except (TypeError, ValueError):
        return None
    if not all(map(eq, arrays, map(first_array.__getitem__, patterns))):
        return None
    if not _INT_ONLY.issuperset(map(type, chain.from_iterable(chain.from_iterable(arrays)))):
        return None
    return first, dict(count), True


def _document_census(doc: Mapping) -> tuple[int, tuple]:
    """The variable count of a polynomial document and the census of its
    terms, equal to those of _pattern_census(_poly_document(doc)[1].items()).

    vars is read as _poly_document reads it, then terms goes through
    _uniform_census, which settles the documents that to_json_dict writes
    for a quasisymmetric polynomial.  A document that it does not settle,
    with a repeated exps, arrays that differ or are reordered within a
    pattern, a first array that cancels or any malformed node, falls back
    to _poly_document and _pattern_census: they add the repeated entries,
    or raise the first error of the document, so the errors and their order
    are those of that route."""
    nvars = _variable_count(_json_int(doc["vars"]))
    census = _uniform_census(nvars, doc["terms"])
    if census is None:
        census = _pattern_census(_poly_document(doc)[1].items())
    return nvars, census


def _census_degree(census) -> int:
    """The degree of the polynomial of a census, the largest pattern sum;
    the zero polynomial has degree 0."""
    return max(map(sum, census[0]), default=0)


def _check_quasisymmetric(nvars: int, census) -> None:
    """Refuse the polynomial in nvars variables of a census unless it is
    homogeneous (every pattern has the same sum) and then quasisymmetric:
    every monomial with the same support-composition carries the same
    coefficient, and each pattern occurs on every choice of support."""
    first, count, agree = census
    if len(set(map(sum, first))) > 1:
        raise ValueError("polynomial is not homogeneous")
    if not agree or any(k != comb(nvars, len(b)) for b, k in count.items()):
        raise ValueError("polynomial is not quasisymmetric")


def _qt_census(p: SparsePoly):
    """The census of p's terms, read through their coefficient maps."""
    return _pattern_census((exps, coeff._terms) for exps, coeff in p.terms())


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
    for i in range(n - 1):
        bit = 1 << i
        for mask in range(len(c)):
            if mask & bit and c[mask ^ bit]:
                c[mask] = combine(c[mask], c[mask ^ bit])
    return [(_composition_of_mask(mask, n), coeff) for mask, coeff in enumerate(c)]


def _census_f_expansion(nvars: int, degree: int, census) -> Expansion:
    """The F-expansion of the polynomial in nvars variables, of the given
    degree, whose census this is.  It raises, in this order, when there are
    fewer variables than the degree, when the polynomial is not homogeneous,
    and when it is not quasisymmetric; then it wraps one QT per pattern.

    Through the monomial quasisymmetric coefficients and inclusion-exclusion
    on the descent-set lattice: since c_beta = sum of a_alpha over
    coarsenings alpha of beta, the inverse is a_alpha = sum over Set(beta) <=
    Set(alpha) of (-1)^(|Set(alpha)| - |Set(beta)|) c_beta."""
    first = census[0]
    if not first:
        return Expansion("F", 0)
    if nvars < degree:
        raise ValueError(
            f"need at least {degree} variables to separate degree-{degree} fundamentals"
        )
    _check_quasisymmetric(nvars, census)
    by_beta = [(pattern, QT_ZERO._wrap(coeff)) for pattern, coeff in first.items()]
    # a coefficient can be nonzero even where the monomial coefficient
    # cancels to zero, so read off every composition of the degree; a
    # constant c is c*M_() = c*F_().  Each index is a composition of the
    # degree, so the terms are wrapped unchecked
    terms = {alpha: a for alpha, a in _subset_sums(by_beta, degree, -1) if a}
    return Expansion("F", degree)._wrap(terms)


def extract_f_expansion(p: SparsePoly) -> Expansion:
    """The unique F-basis coefficients of a quasisymmetric polynomial, by
    _census_f_expansion."""
    return _census_f_expansion(p.nvars, p.degree(), _qt_census(p))


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
