"""Reference implementations that only the tests use.

Each is a slow, direct evaluation that a faster or division-free route in the
package is compared against: the n!-expanding antisymmetrizer, ordered set
decompositions, Robinson-Schensted insertion with both tableaux, the hook
length formula, one step of the exchange rule, monomial quasisymmetric
polynomials and the M-coefficients of a polynomial read off the package's
census, expansions evaluated as polynomials, symmetry by swapping
variables, the textbook filling statistics (Filling, maj_stat and pides, with
inverse_permutation and descent_set) that the package's census is read
against, the census read word by word, the symmetry of the inversion-free
filling sum, the full Haglund filling sum, and the Hall-Littlewood Schur
expansion by cocharge.

The ring operations that build the tests' polynomials live here too, since
no route in the package needs them: the variables q and t of the coefficient
ring, the constants zero and one, monomials and variables, the product and
the product by a scalar.  So do the enumerators that only the tests walk:
every composition of n, and the composition of a descent set.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, compress, permutations
from math import factorial, prod
from operator import add, gt
from typing import Iterator

from quasischur.combinatorics import (
    Composition,
    Partition,
    WeakComposition,
    _composition_of_mask,
)
from quasischur.hall_littlewood import hl_fundamental_expansion, inv_zero_fillings
from quasischur.polynomial import QT, QT_ONE, QT_ZERO, SparsePoly, _accumulate, _as_qt
from quasischur.quasisym import (
    Expansion,
    _check_quasisymmetric,
    _qt_census,
    fundamental,
    is_symmetric_expansion,
)
from quasischur.schur import schur_ssyt


# the polynomial ring

Q = QT({(1, 0): 1})
T = QT({(0, 1): 1})


def zero(nvars: int) -> SparsePoly:
    return SparsePoly(nvars)


def one(nvars: int) -> SparsePoly:
    return SparsePoly(nvars, {(0,) * nvars: QT_ONE})


def monomial(nvars: int, exps, coeff=QT_ONE) -> SparsePoly:
    return SparsePoly(nvars, {tuple(exps): coeff})


def variable(nvars: int, index: int) -> SparsePoly:
    """The variable x_index (1-based)."""
    exps = [0] * nvars
    exps[index - 1] = 1
    return monomial(nvars, exps)


def mul(p: SparsePoly, r: SparsePoly) -> SparsePoly:
    """The product of two polynomials in the same variables: the exponent
    vectors add entrywise and the coefficients multiply."""
    r = p._compatible(r)
    out: dict[tuple[int, ...], QT] = {}
    for e1, c1 in p.terms():
        for e2, c2 in r.terms():
            _accumulate(out, tuple(map(add, e1, e2)), c1 * c2)
    return SparsePoly(p.nvars, out)


def scalar_mul(p: SparsePoly, scalar) -> SparsePoly:
    """The product of p by an element of Z[q,t] or an int."""
    scalar = _as_qt(scalar)
    return SparsePoly(p.nvars, {e: c * scalar for e, c in p.terms()})


# compositions


def composition_of_set(s, n: int) -> Composition:
    """Inverse of set_of_composition for subsets of {1..n-1}."""
    if n < 1:
        raise ValueError("n must be positive")
    points = sorted(s)
    if any(not 1 <= p <= n - 1 for p in points):
        raise ValueError(f"descent set {points} not contained in 1..{n - 1}")
    bounds = [0] + points + [n]
    return Composition(bounds[i + 1] - bounds[i] for i in range(len(bounds) - 1))


def compositions_of(n: int) -> Iterator[Composition]:
    """All 2^(n-1) compositions of n in the order of their descent masks: the
    composition at position mask is _composition_of_mask(mask, n)."""
    if n < 1:
        raise ValueError("n must be positive")
    for mask in range(1 << (n - 1)):
        yield Composition(_composition_of_mask(mask, n))


# polynomials


def _inversion_sign(seq) -> int:
    """(-1) to the number of pairs i < j with seq[i] > seq[j]."""
    inversions = sum(a > b for a, b in combinations(seq, 2))
    return -1 if inversions % 2 else 1


@lru_cache(maxsize=16)
def _signed_permutations(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    return tuple((perm, _inversion_sign(perm)) for perm in permutations(range(n)))


def antisymmetrize(p: SparsePoly) -> SparsePoly:
    """Signed sum over all variable permutations sigma of sgn(sigma)*sigma(p).

    Monomials with a repeated exponent vanish and are skipped; the rest are
    grouped by decreasingly sorted exponent vector before the n! expansion.
    Both signs are counted here, as inversion parities, so the expansion
    shares no signed sort with the package routes it is compared against.
    """
    n = p.nvars
    classes: dict[tuple[int, ...], QT] = {}
    for exps, coeff in p.terms():
        if len(set(exps)) != n:
            continue
        # sorting into decreasing order undoes the pairs that rise, so its
        # sign is the inversion parity of the negated vector
        key, sign = tuple(sorted(exps, reverse=True)), _inversion_sign([-e for e in exps])
        new = classes.get(key, QT_ZERO) + coeff * sign
        if new:
            classes[key] = new
        else:
            classes.pop(key, None)
    out: dict[tuple[int, ...], QT] = {}
    for exps, coeff in classes.items():
        for perm, sign in _signed_permutations(n):
            out[tuple(exps[i] for i in perm)] = coeff * sign
    return SparsePoly(n, out)


def swap_variables(p: SparsePoly, i: int, j: int) -> SparsePoly:
    """Exchange x_i and x_j (1-based)."""
    out: dict[tuple[int, ...], QT] = {}
    for exps, coeff in p.terms():
        new = list(exps)
        new[i - 1], new[j - 1] = new[j - 1], new[i - 1]
        out[tuple(new)] = coeff
    return p._wrap(out)


def is_symmetric(p: SparsePoly) -> bool:
    """Invariance under adjacent transpositions, which generate S_n."""
    for i in range(1, p.nvars):
        if swap_variables(p, i, i + 1) != p:
            return False
    return True


def set_variable_to_zero(p: SparsePoly, index: int) -> SparsePoly:
    """Substitute x_index = 0 and drop the slot (1-based index)."""
    out: dict[tuple[int, ...], QT] = {}
    for exps, coeff in p.terms():
        if exps[index - 1]:
            continue
        out[exps[: index - 1] + exps[index:]] = coeff
    return SparsePoly(p.nvars - 1, out)


# combinatorics


def decompositions(mu: Partition) -> Iterator[tuple[frozenset[int], ...]]:
    """Ordered decompositions T_1..T_k of {1..n} with |T_i| = mu_i.

    Enumerated in lexicographic order of the block-membership word
    (block index of 1, block index of 2, ...).
    """
    mu = Partition(mu)
    n = mu.weight
    k = len(mu)
    blocks: list[list[int]] = [[] for _ in range(k)]

    def fill(value: int) -> Iterator[tuple[frozenset[int], ...]]:
        if value > n:
            yield tuple(frozenset(b) for b in blocks)
            return
        for i in range(k):
            if len(blocks[i]) < mu[i]:
                blocks[i].append(value)
                yield from fill(value + 1)
                blocks[i].pop()

    yield from fill(1)


def decomposition_count(mu: Partition) -> int:
    mu = Partition(mu)
    count = factorial(mu.weight)
    for part in mu:
        count //= factorial(part)
    return count


def rsk_insert(sigma) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Robinson-Schensted row insertion of a permutation word.

    Returns the pair (P, Q) of standard tableaux as tuples of rows.
    """
    sigma = tuple(sigma)
    n = len(sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError(f"{sigma} is not a permutation of 1..{n}")
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for step, value in enumerate(sigma, start=1):
        row = 0
        while True:
            if row == len(p_rows):
                p_rows.append([value])
                q_rows.append([step])
                break
            current = p_rows[row]
            # rows increase, so the leftmost entry larger than value is here
            bump = bisect_right(current, value)
            if bump == len(current):
                current.append(value)
                q_rows[row].append(step)
                break
            current[bump], value = value, current[bump]
            row += 1
    freeze = lambda rows: tuple(tuple(r) for r in rows)
    return freeze(p_rows), freeze(q_rows)


def inverse_permutation(sigma) -> tuple[int, ...]:
    """Inverse of a one-line permutation word over {1..n}.  Raises ValueError
    unless sigma holds each of 1..n once, checked as the inverse is filled."""
    n = len(sigma)
    inv = [0] * n
    for pos, value in enumerate(sigma, start=1):
        if not 1 <= value <= n or inv[value - 1]:
            raise ValueError(f"{tuple(sigma)} is not a permutation of 1..{n}")
        inv[value - 1] = pos
    return tuple(inv)


def descent_set(word) -> frozenset[int]:
    """Positions i with word[i] > word[i+1] (1-indexed)."""
    return frozenset(i + 1 for i in range(len(word) - 1) if word[i] > word[i + 1])


def hook_lengths(shape) -> list[int]:
    """The hook length of each cell of a partition's diagram: the cells to
    its right in its row, below it in its column, and itself."""
    shape = tuple(shape)
    columns = [sum(1 for part in shape if part > j) for j in range(shape[0] if shape else 0)]
    return [
        (part - j - 1) + (columns[j] - i - 1) + 1
        for i, part in enumerate(shape)
        for j in range(part)
    ]


def standard_tableau_count(shape) -> int:
    """The number of standard Young tableaux of a partition shape, by the
    hook length formula of Frame, Robinson and Thrall (EC2 Cor. 7.21.6)."""
    return factorial(sum(shape)) // prod(hook_lengths(shape))


# Schur functions and quasisymmetric expansions


def straighten_once(gamma, i: int) -> WeakComposition:
    """One application of the exchange rule at positions i, i+1 (1-based)."""
    gamma = WeakComposition(gamma)
    if gamma[i] == 0:
        raise ValueError("exchange requires a positive entry on the right")
    out = list(gamma)
    out[i - 1], out[i] = gamma[i] - 1, gamma[i - 1] + 1
    return WeakComposition(out)


def monomial_quasisym(beta, nvars: int) -> SparsePoly:
    """M_beta: sum of x_{i_1}^{beta_1} ... x_{i_l}^{beta_l} over i_1 < ... < i_l."""
    beta = Composition(beta)
    terms: dict[tuple[int, ...], int] = {}
    for support in combinations(range(nvars), len(beta)):
        exps = [0] * nvars
        for i, part in zip(support, beta):
            exps[i] = part
        terms[tuple(exps)] = 1
    return SparsePoly(nvars, terms)


def monomial_qs_coefficients(p: SparsePoly) -> dict[tuple[int, ...], QT]:
    """Coefficients c_beta of the monomial quasisymmetric expansion of p,
    keyed by Composition, and by () for the constant term: the first map of
    each pattern of p's census, after the package's homogeneity and
    quasisymmetry check."""
    census = _qt_census(p)
    _check_quasisymmetric(p.nvars, census)
    return {
        Composition(pattern) if pattern else (): QT_ZERO._wrap(coeff)
        for pattern, coeff in census[0].items()
    }


def expansion_to_poly(e: Expansion, nvars: int) -> SparsePoly:
    """Evaluate an expansion as a polynomial in nvars variables."""
    builders = {
        "F": fundamental,
        "M": monomial_quasisym,
        "s": schur_ssyt,
    }
    build = builders[e.basis]
    total = zero(nvars)
    for index, coeff in e.terms():
        poly = build(index, nvars) if index else one(nvars)
        total = total + scalar_mul(poly, coeff)
    return total


# diagram fillings


@dataclass(frozen=True)
class Filling:
    """Bijective filling of the French Ferrers diagram of a partition.

    rows[0] is the bottom row (the longest); rows shrink upward.  The reading
    word lists rows top to bottom, each left to right.
    """

    shape: Partition
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if tuple(map(len, self.rows)) != tuple(self.shape):
            raise ValueError("row lengths do not match the shape")
        n = self.shape.weight
        if sorted(chain.from_iterable(self.rows)) != list(range(1, n + 1)):
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
        return tuple(chain.from_iterable(reversed(self.rows)))

    def column(self, j: int) -> tuple[int, ...]:
        """Entries of column j (1-based), read top to bottom.  Raises
        ValueError unless the bottom row has a cell in column j."""
        width = self.shape[0] if self.shape else 0
        if not 1 <= j <= width:
            raise ValueError(f"columns are numbered from 1 to {width}, got {j}")
        return tuple(
            self.rows[i][j - 1]
            for i in range(len(self.rows) - 1, -1, -1)
            if self.shape[i] >= j
        )


def maj_stat(f: Filling) -> int:
    """Sum over columns of the major index of the top-to-bottom column word."""
    width = f.shape[0] if f.shape else 0
    return sum(sum(descent_set(f.column(j))) for j in range(1, width + 1))


def pides(sigma) -> Composition:
    """Descent composition of the inverse permutation."""
    sigma = tuple(sigma)
    return composition_of_set(descent_set(inverse_permutation(sigma)), len(sigma))


def reference_census(mu) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """(mask, maj, word) for each word of inv_zero_fillings(mu), every word
    read on its own: the reading that the package's census replaces by one
    reading per lower part.  mask has bit i set when i + 1 sits after i + 2
    in word, i.e. when i + 1 is a descent of word^-1; maj sums the weights
    of the column descents between vertically adjacent cells."""
    mu = Partition(mu)
    # the cell in column j of row r (0 = bottom) sits at position
    # starts[r] + j of the reading word, and a descent between rows r + 1
    # and r in column j has weight height(j) - r - 1
    starts = [sum(mu[r + 1 :]) for r in range(len(mu))]
    ups, downs, weights = [], [], []
    for r in range(len(mu) - 1):
        for j in range(mu[r + 1]):
            ups.append(starts[r + 1] + j)
            downs.append(starts[r] + j)
            weights.append(sum(1 for part in mu if part > j) - r - 1)
    positions = range(mu.weight)
    bits = [1 << i for i in range(mu.weight - 1)]
    for word in inv_zero_fillings(mu):
        where = sorted(positions, key=word.__getitem__)
        maj = sum(compress(weights, [word[u] > word[d] for u, d in zip(ups, downs)]))
        yield sum(compress(bits, map(gt, where, where[1:]))), maj, word


def symmetry_check(mu) -> bool:
    """Whether the inversion-free filling sum is symmetric in n variables
    (coefficientwise in t, so per t-degree)."""
    return is_symmetric_expansion(hl_fundamental_expansion(mu))


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
        coeff = QT({(inv_stat(f), maj_stat(f)): 1})
        index = tuple(pides(f.reading_word))
        new = terms.get(index, QT_ZERO) + coeff
        if new:
            terms[index] = new
        else:
            terms.pop(index, None)
    return Expansion("F", mu.weight, terms)



# Kostka-Foulkes polynomials


def _horizontal_strips(shape: tuple[int, ...], count: int) -> Iterator[tuple[int, ...]]:
    """The shapes nu with nu / shape a horizontal strip of count cells:
    shape[r] <= nu[r] <= shape[r - 1] for every row r, one new row allowed."""
    rows = shape + (0,)

    def grow(r: int, left: int) -> Iterator[tuple[int, ...]]:
        if r == len(rows):
            if left == 0:
                yield ()
            return
        room = left if r == 0 else min(left, rows[r - 1] - rows[r])
        for k in range(room + 1):
            for rest in grow(r + 1, left - k):
                yield (rows[r] + k,) + rest

    for nu in grow(0, count):
        yield nu if nu[-1] else nu[:-1]


def semistandard_tableaux(mu) -> list[tuple[tuple[int, ...], ...]]:
    """Every semistandard tableau of content mu, of any shape, as a tuple of
    rows in English notation (top row first): the cells of letter i form a
    horizontal strip of mu_i cells on the tableau of the letters below i."""
    tableaux: list[tuple[tuple[int, ...], ...]] = [()]
    for letter, count in enumerate(Partition(mu), start=1):
        tableaux = [
            tuple(
                (tableau[r] if r < len(tableau) else ())
                + (letter,) * (length - (len(tableau[r]) if r < len(tableau) else 0))
                for r, length in enumerate(nu)
            )
            for tableau in tableaux
            for nu in _horizontal_strips(tuple(map(len, tableau)), count)
        ]
    return tableaux


def charge(word) -> int:
    """Lascoux-Schutzenberger charge of a word of partition content.

    Split off standard subwords: read right to left, cyclically, take the
    first 1, then the next 2, and so on while the letter occurs; the index
    starts at 0 and goes up by one each time the reading wraps round, and the
    charge adds up the indices of every standard subword."""
    letters = list(word)
    total = 0
    while letters:
        picked: set[int] = set()
        pos = len(letters)
        index = 0
        letter = 1
        while True:
            found = next((p for p in range(pos - 1, -1, -1) if letters[p] == letter), None)
            if found is None:
                # wrap round: the rightmost occurrence, right of pos
                found = next(
                    (p for p in range(len(letters) - 1, pos, -1) if letters[p] == letter),
                    None,
                )
                if found is None:
                    break
                index += 1
            total += index
            picked.add(found)
            pos = found
            letter += 1
        letters = [v for p, v in enumerate(letters) if p not in picked]
    return total


def cocharge_expansion(mu) -> Expansion:
    """Schur expansion of the modified Hall-Littlewood polynomial by the
    cocharge Kostka-Foulkes polynomials (Lascoux-Schutzenberger 1978):
    the sum over semistandard tableaux T of content mu of
    t^(n(mu) - charge(T)) s_shape(T), the charge taken of the reading word,
    bottom row first.  It reads no filling."""
    mu = Partition(mu)
    n_mu = sum(i * part for i, part in enumerate(mu))
    terms: dict[tuple[int, ...], QT] = {}
    for tableau in semistandard_tableaux(mu):
        shape = tuple(map(len, tableau))
        cocharge = n_mu - charge(chain.from_iterable(reversed(tableau)))
        terms[shape] = terms.get(shape, QT_ZERO) + QT({(0, cocharge): 1})
    return Expansion("s", mu.weight, terms)
