"""The fundamental-to-Schur replacement and its sign-reversing involution."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from operator import add
from typing import Iterator

from .combinatorics import Composition, pad, set_of_composition
from .polynomial import _accumulate, class_map, staircase
from .quasisym import Expansion, _exponents, fundamental_words
from .schur import SignedSchur, straighten


@lru_cache(maxsize=None)
def _straightened(alpha: tuple[int, ...]) -> SignedSchur:
    """straighten(alpha) for a composition alpha, a plain tuple, once per
    process: the F indices of every expansion here are compositions of a
    few degrees, read over and over.  straighten itself stays uncached, for
    the weak compositions that verify_involution reads once each."""
    return straighten(alpha)


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
        normal = _straightened(alpha)
        if normal.is_zero():
            continue
        _accumulate(terms, tuple(normal.shape), coeff * normal.sign)
    return Expansion("s", n, terms)


@dataclass(frozen=True)
class InvolutionStep:
    """Block data of one involution move."""

    s: int
    r: int
    before: tuple[int, int]
    after: tuple[int, int]


def constrained_monomials(alpha) -> Iterator[tuple[int, ...]]:
    """The constrained monomials of alpha, as their words, in lexicographic
    order: 1 <= a_1 <= ... <= a_n <= n with n = |alpha|, rising strictly at
    each point of Set(alpha).  These are the monomials of F_alpha in n
    variables."""
    alpha = Composition(alpha)
    yield from fundamental_words(alpha, alpha.weight)


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
            # gamma matches alpha on its first k exponents, so any letter
            # past k makes its weight exceed |alpha|
            raise ValueError(
                f"exponent vector {tuple(gamma)} is not in the constrained family "
                f"of {tuple(alpha)}"
            )
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


def _checked_exponents(alpha: Composition, word) -> tuple[frozenset[int], tuple[int, ...]]:
    """Set(alpha) and the exponent vector of word, after checking that word
    is a constrained monomial of alpha: n = |alpha| letters in 1..n, weakly
    increasing, with a strict rise at each point of Set(alpha).

    involution and locate_block take any word, so they check it here, before
    the kernel, which assumes the family."""
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


def locate_block(alpha, word) -> InvolutionStep:
    """Find s, r and the exponent pair the involution exchanges on word.

    s is the longest prefix on which the exponents match alpha exactly; the
    next letter block then spans positions s+1..s+r with exponent sum
    alpha_{s+1} and a positive final exponent.  Raises ValueError on the
    fixed point and on a word outside the constrained family.
    """
    alpha = Composition(alpha)
    strict, gamma = _checked_exponents(alpha, word)
    step = _exchange(alpha, strict, gamma)
    if step is None:
        raise ValueError("monomial is the fixed point; no block to move")
    s, r, image = step
    i = s + r - 2
    return InvolutionStep(
        s=s, r=r, before=(gamma[i], gamma[i + 1]), after=(image[i], image[i + 1])
    )


def involution(alpha, word) -> tuple[int, ...] | None:
    """The sign-reversing pairing on the constrained monomials of alpha:
    the partner word of word, or None on the fixed point.

    The fixed point is the word whose exponent vector is alpha padded; every
    other word has the exponent pair at positions s+r-1, s+r replaced by
    (b_{s+r} - 1, b_{s+r-1} + 1), the exchange that flips the sign of the
    straightened Schur value.  Raises ValueError on a word outside the
    constrained family.
    """
    alpha = Composition(alpha)
    step = _exchange(alpha, *_checked_exponents(alpha, word))
    return None if step is None else _word_from_gamma(step[2])


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
    """Run the four checks on the constrained monomials of alpha:

    - unique_fixed_point: the only word the involution fixes is the one with
      exponent vector alpha padded;
    - sign_reversing: the involution is an involution, and each pair, or
      self-cancelling word, has straightened values of opposite sign and equal
      shape, or both zero;
    - telescopes: the straightened values sum to that of alpha padded;
    - polynomial_check: the alternant of the sum of x^(gamma + delta) equals
      that of x^(alpha + delta), compared as class maps (`class_map`).

    The witness is the first word at which the sign_reversing clause fails.
    """
    alpha = Composition(alpha)
    n = alpha.weight
    strict = set_of_composition(alpha)
    report = VerificationReport(alpha=alpha)
    words = list(constrained_monomials(alpha))
    report.monomial_count = len(words)
    # a weakly increasing word and its exponent vector determine each other,
    # so the exponent vectors key every check after this
    gammas = [_exponents(word, n) for word in words]
    alpha_padded = tuple(pad(alpha, n))

    normals = {gamma: straighten(gamma) for gamma in gammas}
    steps = {gamma: _exchange(alpha, strict, gamma) for gamma in gammas}
    signed_total: dict[tuple[int, ...], int] = {}
    for word, gamma in zip(words, gammas):
        a = normals[gamma]
        if not a.is_zero():
            _accumulate(signed_total, tuple(a.shape), a.sign)
        step = steps[gamma]
        if step is None:
            report.fixed_points.append(word)
            continue
        image = step[2]
        back = steps.get(image)
        if back is None or back[2] != gamma:
            report.witness = report.witness or word
        elif image <= gamma:
            # words come in lexicographic order, so their exponent vectors
            # decrease: a pair is checked at its earlier word, and a word
            # exchanged onto itself, whose value is then forced to zero,
            # cancels alone
            if image == gamma:
                report.self_cancelling += 1
            else:
                report.pair_count += 1
            b = normals[image]
            if (b.sign, b.shape) != (-a.sign, a.shape):
                report.witness = report.witness or word

    report.unique_fixed_point = [_exponents(w, n) for w in report.fixed_points] == [alpha_padded]
    report.sign_reversing = report.witness is None
    target = straighten(alpha_padded)
    expected = {} if target.is_zero() else {tuple(target.shape): target.sign}
    report.telescopes = signed_total == expected

    # a_delta is a nonzerodivisor, so comparing the two alternants needs no
    # division by it
    delta = staircase(n)
    lhs = class_map((tuple(map(add, gamma, delta)), 1) for gamma in gammas)
    rhs = class_map([(tuple(map(add, alpha_padded, delta)), 1)])
    report.polynomial_check = lhs == rhs
    return report
