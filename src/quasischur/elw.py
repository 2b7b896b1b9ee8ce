"""The fundamental-to-Schur replacement and its sign-reversing involution."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .combinatorics import Composition, WeakComposition, pad, set_of_composition
from .polynomial import QT_ZERO, SparsePoly, antisymmetrize, staircase
from .quasisym import Expansion, fundamental_words
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
        key = tuple(normal.shape)
        new = terms.get(key, QT_ZERO) + coeff * normal.sign
        if new:
            terms[key] = new
        else:
            terms.pop(key, None)
    return Expansion("s", n, terms)


@dataclass(frozen=True)
class ConstrainedMonomial:
    """A weakly increasing word 1 <= a_1 <= ... <= a_n <= n with strict rises
    at the descent positions of alpha, together with its exponent data."""

    alpha: Composition
    word: tuple[int, ...]

    @property
    def gamma(self) -> WeakComposition:
        n = len(self.word)
        counts = [0] * n
        for a in self.word:
            counts[a - 1] += 1
        return WeakComposition(counts)

    @property
    def full_exponent(self) -> tuple[int, ...]:
        n = len(self.word)
        delta = staircase(n)
        return tuple(g + d for g, d in zip(self.gamma, delta))


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


def _word_is_constrained(word, alpha: Composition) -> bool:
    n = alpha.weight
    strict_after = set_of_composition(alpha)
    if any(not 1 <= a <= n for a in word):
        return False
    for i in range(len(word) - 1):
        if word[i] > word[i + 1]:
            return False
        if (i + 1) in strict_after and word[i] >= word[i + 1]:
            return False
    return True


def locate_block(u: ConstrainedMonomial) -> InvolutionStep:
    """Find s(u), r(u) and the exponent pair the involution exchanges.

    s is the longest prefix on which the exponents match alpha exactly; the
    next letter block then spans positions s+1..s+r with exponent sum
    alpha_{s+1} and a positive final exponent.
    """
    alpha = u.alpha
    gamma = u.gamma
    s = 0
    while s < len(alpha) and gamma[s] == alpha[s]:
        s += 1
    if s == len(alpha):
        raise ValueError("monomial is the fixed point; no block to move")
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
    before = (gamma[s + r - 2], gamma[s + r - 1])
    after = (before[1] - 1, before[0] + 1)
    return InvolutionStep(s=s, r=r, before=before, after=after)


def involution(u: ConstrainedMonomial) -> ConstrainedMonomial | FixedPoint:
    """The sign-reversing pairing on constrained monomials.

    The fixed point is the word whose exponent vector is alpha padded; every
    other word has the exponent pair at positions s+r-1, s+r replaced by
    (b_{s+r} - 1, b_{s+r-1} + 1), the exchange that flips the sign of the
    straightened Schur value.
    """
    alpha = u.alpha
    gamma = u.gamma
    if gamma == pad(alpha, len(gamma)):
        return FIXED_POINT
    step = locate_block(u)
    new_gamma = list(gamma)
    new_gamma[step.s + step.r - 2] = step.after[0]
    new_gamma[step.s + step.r - 1] = step.after[1]
    word = _word_from_gamma(new_gamma)
    if not _word_is_constrained(word, alpha):
        raise ValueError("involution image left the constrained family")
    return ConstrainedMonomial(alpha, word)


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
    telescoping of the signed Schur sum, and the alternant cross-check."""
    alpha = Composition(alpha)
    n = alpha.weight
    report = VerificationReport(alpha=alpha)
    monomials = list(constrained_monomials(alpha))
    report.monomial_count = len(monomials)
    alpha_padded = pad(alpha, n)

    normals = {u.word: straighten(u.gamma) for u in monomials}
    seen_pairs: set[frozenset] = set()
    signed_total: dict[tuple[int, ...], int] = {}
    sign_ok = True
    witness = None
    for u in monomials:
        a = normals[u.word]
        if not a.is_zero():
            key = tuple(a.shape)
            signed_total[key] = signed_total.get(key, 0) + a.sign
            if not signed_total[key]:
                del signed_total[key]
        image = involution(u)
        if isinstance(image, FixedPoint):
            report.fixed_points.append(u.word)
            continue
        back = involution(image) if image.word in normals else None
        if not isinstance(back, ConstrainedMonomial) or back.word != u.word:
            sign_ok = False
            witness = witness or u.word
            continue
        pair = frozenset({u.word, image.word})
        if pair in seen_pairs:
            continue
        seen_pairs.add(pair)
        b = normals[image.word]
        cancels = (a.is_zero() and b.is_zero()) or (
            not a.is_zero()
            and not b.is_zero()
            and a.shape == b.shape
            and a.sign == -b.sign
        )
        if not cancels:
            sign_ok = False
            witness = witness or u.word

    report.pair_count = sum(1 for pair in seen_pairs if len(pair) == 2)
    # a monomial can be exchanged onto itself; its straightened value is then
    # forced to zero and it cancels alone
    report.self_cancelling = sum(1 for pair in seen_pairs if len(pair) == 1)
    report.unique_fixed_point = (
        len(report.fixed_points) == 1
        and ConstrainedMonomial(alpha, report.fixed_points[0]).gamma == alpha_padded
    )
    report.sign_reversing = sign_ok

    target = straighten(alpha_padded)
    if target.is_zero():
        report.telescopes = not signed_total
    else:
        report.telescopes = signed_total == {tuple(target.shape): target.sign}

    # independent polynomial route, bypassing the straightening closed form:
    # the antisymmetrized monomial sum must be s_alpha * a_delta, which is the
    # alternant of x^(alpha + delta); a_delta is a nonzerodivisor, so comparing
    # the two alternants needs no division
    summed: dict[tuple[int, ...], int] = {}
    for u in monomials:
        exps = u.full_exponent
        summed[exps] = summed.get(exps, 0) + 1
    lhs = antisymmetrize(SparsePoly(n, summed))
    fixed = tuple(a + d for a, d in zip(alpha_padded, staircase(n)))
    rhs = antisymmetrize(SparsePoly.monomial(n, fixed))
    report.polynomial_check = lhs == rhs

    if not report.passed() and witness:
        report.witness = witness
    return report
