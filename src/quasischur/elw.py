"""The fundamental-to-Schur replacement and its sign-reversing involution."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from operator import add
from typing import Iterator

from .combinatorics import Composition, WeakComposition, pad, set_of_composition
from .polynomial import _accumulate, class_map, staircase
from .quasisym import Expansion, _exponents, fundamental_words
from .schur import straighten


def elw_to_schur(e: Expansion) -> Expansion:
    """Replace each F_alpha by s_alpha and straighten.

    For a symmetric input this yields its Schur expansion; for any input it
    is a well-defined formal signed result.
    """
    if e.basis != "F":
        raise ValueError("input expansion must be over the F basis")
    n = e.degree
    terms: dict[tuple[int, ...], object] = {}
    for alpha, coeff in e.terms():
        # alpha has positive parts, so padding it with zeros to n parts only
        # appends a staircase tail below its shifted entries: unpadded, it
        # straightens to the same value without touching n entries
        normal = straighten(alpha)
        if normal.is_zero():
            continue
        _accumulate(terms, tuple(normal.shape), coeff * normal.sign)
    return Expansion("s", n, terms)


@dataclass(frozen=True)
class ConstrainedMonomial:
    """A weakly increasing word 1 <= a_1 <= ... <= a_n <= n with strict rises
    at the descent positions of alpha, together with its exponent data."""

    alpha: Composition
    word: tuple[int, ...]

    @property
    def gamma(self) -> WeakComposition:
        return WeakComposition(_exponents(self.word, len(self.word)))

    @property
    def full_exponent(self) -> tuple[int, ...]:
        n = len(self.word)
        return tuple(map(add, _exponents(self.word, n), staircase(n)))


class FixedPoint:
    """Sentinel returned by the involution on its unique fixed point."""

    def __repr__(self) -> str:
        return "FixedPoint"


FIXED_POINT = FixedPoint()


@dataclass(frozen=True)
class InvolutionStep:
    """Block data of one involution move."""

    s: int
    r: int
    before: tuple[int, int]
    after: tuple[int, int]


def constrained_monomials(alpha) -> Iterator[ConstrainedMonomial]:
    """All words for alpha, in lexicographic order: the monomials of F_alpha
    in n variables."""
    alpha = Composition(alpha)
    for word in fundamental_words(alpha, alpha.weight):
        yield ConstrainedMonomial(alpha, word)


def _word_from_gamma(gamma) -> tuple[int, ...]:
    out: list[int] = []
    for letter, count in enumerate(gamma, start=1):
        out.extend([letter] * count)
    return tuple(out)


def _exchange(alpha, strict, gamma) -> tuple[int, int, tuple[int, ...]] | None:
    """The involution on the exponent vector gamma of a constrained word:
    None on the fixed point, otherwise (s, r, image).

    s is the longest prefix on which gamma matches alpha exactly; the next
    letter block then spans positions s+1..s+r with exponent sum alpha_{s+1}
    and a positive final exponent, and the image replaces the pair at
    positions s+r-1, s+r by (b_{s+r} - 1, b_{s+r-1} + 1).  strict is
    Set(alpha); the image is checked to stay in the constrained family.
    """
    k = len(alpha)
    s = 0
    while s < k and gamma[s] == alpha[s]:
        s += 1
    if s == k:
        if any(gamma[k:]):
            raise ValueError("monomial is the fixed point; no block to move")
        return None
    target = alpha[s]
    acc = 0
    r = 0
    for offset in range(s, len(gamma)):
        acc += gamma[offset]
        if acc == target and gamma[offset] > 0:
            r = offset - s + 1
            break
        if acc > target:
            raise AssertionError("block sum overshot alpha; word not constrained")
    if r < 2:
        raise AssertionError(f"expected a split block, got r={r}")
    i = s + r - 2
    image = list(gamma)
    image[i], image[i + 1] = gamma[i + 1] - 1, gamma[i] + 1
    # the word of an exponent vector is weakly increasing, and it rises
    # strictly after position p exactly when p is a partial sum of the vector;
    # its letters stay within 1..n when no exponent past the n-th is positive
    if any(image[sum(alpha):]) or not strict.issubset(accumulate(image)):
        raise ValueError("involution image left the constrained family")
    return s, r, tuple(image)


def _checked_exponents(u: ConstrainedMonomial) -> tuple[frozenset[int], tuple[int, ...]]:
    """Set(alpha) and the exponent vector of u's word, after checking that
    the word is in the constrained family: n = |alpha| letters in 1..n,
    weakly increasing, with a strict rise at each point of Set(alpha).

    ConstrainedMonomial does not check its word, since constrained_monomials
    builds one per word of the family; a word built by hand is checked here,
    before the kernel, which assumes the family."""
    alpha, word = u.alpha, u.word
    n = sum(alpha)
    strict = set_of_composition(alpha)
    if (
        len(word) != n
        or not all(type(a) is int and 1 <= a <= n for a in word)
        or any(
            word[i] > word[i + 1] or (word[i] == word[i + 1] and i + 1 in strict)
            for i in range(n - 1)
        )
    ):
        raise ValueError(
            f"word {word} is not a constrained monomial of {tuple(alpha)}: it needs "
            f"{n} weakly increasing letters in 1..{n}, rising strictly at "
            f"{sorted(strict)}"
        )
    return strict, _exponents(word, n)


def locate_block(u: ConstrainedMonomial) -> InvolutionStep:
    """Find s(u), r(u) and the exponent pair the involution exchanges.

    s is the longest prefix on which the exponents match alpha exactly; the
    next letter block then spans positions s+1..s+r with exponent sum
    alpha_{s+1} and a positive final exponent.  Raises ValueError on the
    fixed point and on a word outside the constrained family.
    """
    strict, gamma = _checked_exponents(u)
    step = _exchange(u.alpha, strict, gamma)
    if step is None:
        raise ValueError("monomial is the fixed point; no block to move")
    s, r, image = step
    i = s + r - 2
    return InvolutionStep(
        s=s, r=r, before=(gamma[i], gamma[i + 1]), after=(image[i], image[i + 1])
    )


def involution(u: ConstrainedMonomial) -> ConstrainedMonomial | FixedPoint:
    """The sign-reversing pairing on constrained monomials.

    The fixed point is the word whose exponent vector is alpha padded; every
    other word has the exponent pair at positions s+r-1, s+r replaced by
    (b_{s+r} - 1, b_{s+r-1} + 1), the exchange that flips the sign of the
    straightened Schur value.  Raises ValueError on a word outside the
    constrained family.
    """
    step = _exchange(u.alpha, *_checked_exponents(u))
    if step is None:
        return FIXED_POINT
    return ConstrainedMonomial(u.alpha, _word_from_gamma(step[2]))


@dataclass
class VerificationReport:
    """Outcome of the four involution checks for one composition."""

    alpha: Composition
    monomial_count: int = 0
    fixed_points: list[tuple[int, ...]] = field(default_factory=list)
    pair_count: int = 0
    self_cancelling: int = 0
    unique_fixed_point: bool = False
    sign_reversing: bool = False
    telescopes: bool = False
    polynomial_check: bool = False
    witness: tuple[int, ...] | None = None

    def passed(self) -> bool:
        return (
            self.unique_fixed_point
            and self.sign_reversing
            and self.telescopes
            and self.polynomial_check
        )

    def to_json_dict(self) -> dict:
        return {
            "alpha": list(self.alpha),
            "monomials": self.monomial_count,
            "fixed_points": [list(w) for w in self.fixed_points],
            "pairs": self.pair_count,
            "self_cancelling": self.self_cancelling,
            "clauses": {
                "unique_fixed_point": self.unique_fixed_point,
                "sign_reversing": self.sign_reversing,
                "telescopes": self.telescopes,
                "polynomial_check": self.polynomial_check,
            },
            "passed": self.passed(),
            "witness": list(self.witness) if self.witness else None,
        }


def verify_involution(alpha) -> VerificationReport:
    """Run all four checks: unique fixed point, sign-reversing pairing,
    telescoping of the signed Schur sum, and the alternant cross-check.

    Each word is read once into its exponent vector gamma, a plain tuple,
    which keys every check after that: a weakly increasing word and its
    exponent vector determine each other.  Words are still what the report
    lists.  The alternant clause compares class maps (`class_map`): the
    alternant of the sum of x^(gamma + delta) against that of
    x^(alpha + delta).  The class map and `schur.straighten`, behind the
    telescoping clause, sort with a sign through the same
    `polynomial._sort_sign`, so the two clauses share that sort; the
    independent n! expansion of both alternants (`antisymmetrize`) is kept
    in the tests.
    """
    alpha = Composition(alpha)
    n = alpha.weight
    strict = set_of_composition(alpha)
    report = VerificationReport(alpha=alpha)
    words = [u.word for u in constrained_monomials(alpha)]
    report.monomial_count = len(words)
    gammas = [_exponents(word, n) for word in words]
    alpha_padded = tuple(pad(alpha, n))

    normals = {gamma: straighten(gamma) for gamma in gammas}
    seen_pairs: set[frozenset] = set()
    signed_total: dict[tuple[int, ...], int] = {}
    sign_ok = True
    witness = None
    for word, gamma in zip(words, gammas):
        a = normals[gamma]
        if not a.is_zero():
            _accumulate(signed_total, tuple(a.shape), a.sign)
        step = _exchange(alpha, strict, gamma)
        if step is None:
            report.fixed_points.append(word)
            continue
        image = step[2]
        back = _exchange(alpha, strict, image) if image in normals else None
        if back is None or back[2] != gamma:
            sign_ok = False
            witness = witness or word
            continue
        pair = frozenset({gamma, image})
        if pair in seen_pairs:
            continue
        seen_pairs.add(pair)
        b = normals[image]
        cancels = (a.is_zero() and b.is_zero()) or (
            not a.is_zero()
            and not b.is_zero()
            and a.shape == b.shape
            and a.sign == -b.sign
        )
        if not cancels:
            sign_ok = False
            witness = witness or word

    report.pair_count = sum(1 for pair in seen_pairs if len(pair) == 2)
    # a monomial can be exchanged onto itself; its straightened value is then
    # forced to zero and it cancels alone
    report.self_cancelling = sum(1 for pair in seen_pairs if len(pair) == 1)
    report.unique_fixed_point = (
        len(report.fixed_points) == 1
        and _exponents(report.fixed_points[0], n) == alpha_padded
    )
    report.sign_reversing = sign_ok

    target = straighten(alpha_padded)
    if target.is_zero():
        report.telescopes = not signed_total
    else:
        report.telescopes = signed_total == {tuple(target.shape): target.sign}

    # polynomial route, through class maps rather than the straightened
    # values: the alternant of the monomial sum must be s_alpha * a_delta, the
    # alternant of x^(alpha + delta); a_delta is a nonzerodivisor, so comparing
    # the two alternants needs no division
    delta = staircase(n)
    lhs = class_map((tuple(map(add, gamma, delta)), 1) for gamma in gammas)
    rhs = class_map([(tuple(map(add, alpha_padded, delta)), 1)])
    report.polynomial_check = lhs == rhs

    if not report.passed() and witness:
        report.witness = witness
    return report
