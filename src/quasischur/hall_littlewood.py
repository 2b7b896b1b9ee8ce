"""Diagram filling statistics and the modified Hall-Littlewood experiment."""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, combinations, compress, islice, permutations, repeat
from math import factorial
from operator import add, gt, itemgetter
from typing import Iterable, Iterator

from .combinatorics import (
    Partition,
    _composition_of_mask,
    _row_insert,
    partitions_of,
    rsk_shape,
)
from .elw import _straightened, elw_to_schur
from .polynomial import QT
from .quasisym import Expansion

# _census reads the one-cell tails of at least _MIN_TABLE_TAIL letters off
# _tail_table, and shorter ones word by word; leftover_experiment counts the
# kept fillings of the tails of at least _MIN_SCHENSTED_TAIL letters by
# Schensted pairs, and inserts each plus-class word of the shorter ones.
# Each is the shortest tail on which its faster route won when the two were
# timed per tail length on the partitions of 8 and 9.
_MIN_TABLE_TAIL = 3
_MIN_SCHENSTED_TAIL = 4


def _force_row(row_below: tuple[int, ...], entries: Iterable[int]) -> tuple[int, ...]:
    """The unique ordering of a row making every triple with the row below a
    non-inversion.  Left to right, over a cell holding c put the smallest
    remaining entry greater than c, or the smallest remaining entry if none is."""
    remaining = sorted(entries)
    row = []
    for c in row_below[: len(remaining)]:
        i = bisect_right(remaining, c)
        row.append(remaining.pop(i if i < len(remaining) else 0))
    return tuple(row)


def inv_zero_fillings(mu) -> Iterator[tuple[int, ...]]:
    """The reading word of one inversion-free filling per ordered set
    decomposition of {1..n}: a plain tuple listing the rows top to bottom,
    each left to right.

    A depth-first walk from the bottom row up: level i picks row i's entries
    from the values not yet used.  The bottom row holds its entries in
    increasing order; each higher row of two or more cells is the forced
    inversion-free ordering of its entries over the row already chosen below
    it, so a forced row is computed once per shared lower part of the
    filling.  From the first one-cell row up every row has one cell, and a
    one-cell row makes no inversion triple, so those rows take the remaining
    values in every order: one permutation of them, prefixed to the word of
    the lower part.  Once per lower part the walk checks that its rows have
    the lengths of the shape and that they and the remaining values hold
    1..n once each, and raises ValueError otherwise; each permutation of the
    remaining values then makes the word a bijective filling of mu.

    The order is part of this contract, and _census reads it: with k =
    mu.count(1), the k! words of one lower part come consecutively, share
    their last n - k letters, and their first k letters run through
    itertools.permutations of the remaining values in increasing order.
    """
    mu = Partition(mu)
    values = list(range(1, mu.weight + 1))
    # rows from index tail on have one cell
    tail = next((i for i, part in enumerate(mu) if part == 1), len(mu))
    lengths = tuple(mu[:tail])
    parts = [((), tuple(values))]
    for length in lengths:
        parts = _add_row(parts, length)
    for rows, free in parts:
        if tuple(map(len, rows)) != lengths or sorted(chain(free, *rows)) != values:
            raise ValueError(
                f"rows {rows} over {free} are not a bijective filling of {mu}"
            )
        lower_word = tuple(chain.from_iterable(reversed(rows)))
        yield from map(add, permutations(free), repeat(lower_word))


def _add_row(parts, length: int) -> Iterator[tuple[tuple, tuple[int, ...]]]:
    """Each (rows, free) of parts, rows listed bottom up and free the values
    not in them, extended by every row of the given length over the top row.

    One generator per level, each reading the level below it: a lower part
    passes through no generator above its own level, and a walk leaves no
    reference cycle for the cyclic GC to free."""
    for rows, free in parts:
        # combinations are increasing, which is the bottom row's order
        for block in combinations(free, length):
            row = _force_row(rows[-1], block) if rows else block
            yield rows + (row,), tuple(v for v in free if v not in block)


def _picker(positions: list[int]):
    """itemgetter for positions that returns a tuple for any count."""
    if len(positions) >= 2:
        return itemgetter(*positions)
    return lambda word: tuple(word[p] for p in positions)


def _census(mu: Partition) -> Iterator[tuple[int, int, tuple]]:
    """(mask, maj, word) for each reading word of inv_zero_fillings(mu), the
    one reading of the filling statistics behind every expansion here.

    mask is the descent set of word^-1 as an int, bit i standing for the
    point i + 1, so the descent composition of word^-1 (pides) is
    _composition_of_mask(mask, n); maj is the sum over the columns of the
    major index of each column read top to bottom.

    The walk yields one chunk of k! words per lower part (k = mu.count(1)),
    which differ only in their tail, the first k letters.  The chunk's first
    word is read in one pass: the mask from the positions of i and i + 1,
    maj from the positions of the vertically adjacent cells.  From k =
    _MIN_TABLE_TAIL letters on, the other words of the chunk take their mask
    and maj from _tail_table(k) and _lower_part's reading of the first
    word: a pair of free values i, i + 1 is a descent when the tail puts i
    after i + 1, the tail's column-1 descents add the tail's maj, and its
    last letter adds k when it exceeds the column-1 cell of the top lower
    row, which it sits on.  Shorter tails read each word in the one pass,
    which is faster than the table's lookups for k = 2."""
    # the cell in column j of row r (0 = bottom) sits at position
    # starts[r] + j of the reading word, which lists the rows top down, and a
    # descent between rows r + 1 and r in column j sits at position
    # height(j) - r - 1 of the column's top-to-bottom word
    starts = [sum(mu[r + 1 :]) for r in range(len(mu))]
    ups, downs, weights = [], [], []
    for r in range(len(mu) - 1):
        for j in range(mu[r + 1]):
            ups.append(starts[r + 1] + j)
            downs.append(starts[r] + j)
            weights.append(sum(1 for part in mu if part > j) - r - 1)
    up, down = _picker(ups), _picker(downs)
    n, k = mu.weight, mu.count(1)
    positions = range(n)
    bits = [1 << i for i in range(n - 1)]
    if k >= _MIN_TABLE_TAIL:
        idesc, majdes, _, ends, shifts = _tail_table(k)
    words = inv_zero_fillings(mu)
    for word in words:
        # where[v - 1] is the position of v in word; i is a descent of
        # word^-1 exactly when i sits after i + 1
        where = sorted(positions, key=word.__getitem__)
        maj = sum(compress(weights, map(gt, up(word), down(word))))
        mask = sum(compress(bits, map(gt, where, where[1:])))
        if k < _MIN_TABLE_TAIL:
            yield mask, maj, word
            continue
        r, lower, spread = _lower_part(mask, maj, word, k)
        # junction[a]: maj of the chunk's word whose tail ends in free[a],
        # less the tail's own maj; free[a] exceeds the cell below it when
        # a >= r
        junction = [lower + (k if a >= r else 0) for a in range(k)]
        for p, shift in enumerate(shifts):
            # block p: the tails p.sigma', for which p is a descent at
            # position 1 over the first p * (k - 2)! sigmas, those with
            # sigma[0] < p; lookup[ends[i]] is junction at the tail's last
            # letter, plus that descent
            ends_p = junction[:p] + junction[p + 1 :]
            lookup = [m + 1 for m in ends_p] * p + ends_p * (k - 1 - p)
            # zip pulls left to right, so it takes one word per column entry,
            # and block 0 starts with the word read above
            yield from zip(
                map(list(map(spread.__getitem__, shift)).__getitem__, idesc),
                map(add, map(lookup.__getitem__, ends), majdes),
                chain((word,), words) if p == 0 else words,
            )


def _lower_part(
    mask: int, maj: int, word: tuple[int, ...], k: int
) -> tuple[int, int, list[int]]:
    """What the k! words of one lower part share, read off the first of
    them, (mask, maj, word) of _census, whose tail word[:k] is the free
    values in increasing order.

    Returns (r, lower, spread).  r is the number of free values below c =
    word[k], the column-1 cell of the top lower row, and k when there is no
    lower row.  lower is the word's maj less its junction term, k when the
    tail's last letter exceeds c.  spread[x] is the mask with the bits of
    the free pairs i, i + 1 whose tail inverse-descent bits are x, bit a
    standing for free[a], free[a + 1]: the first word's mask holds exactly
    the bits that no tail changes, as a pair i, i + 1 with i free and i + 1
    in the lower part is never a descent, and one with i in the lower part
    and i + 1 free always is."""
    free = word[:k]
    r = bisect_right(free, word[k]) if k < len(word) else k
    lower = maj - (k if r < k else 0)
    spread = [mask]
    for a in range(k - 1):
        s = free[a]
        bit = 1 << (s - 1) if free[a + 1] == s + 1 else 0
        spread += [m | bit for m in spread]
    return r, lower, spread


@lru_cache(maxsize=None)
def _tail_table(k: int) -> tuple[array, array, array, array, list[list[int]]]:
    """The one-cell tails of k >= 2 letters, read block by block off columns
    over the (k - 1)! permutations sigma of range(k - 1), in
    itertools.permutations order.  Block p, p in range(k), is the tails
    p.sigma', sigma' being sigma relabelled onto range(k) without p; the
    blocks in order are the k! tails in itertools.permutations order.

    Returns (idesc, majdes, des, ends, shifts): idesc[i] the inverse-descent
    bits of sigma (bit a when a sits after a + 1), majdes[i] = maj(sigma) +
    des(sigma), des[i] = des(sigma), ends[i] = sigma[0] * (k - 1) +
    sigma[-1], and shifts[p][x] the inverse-descent bits of p.sigma' for
    those x of sigma: the bits below p - 1 stay, bit p - 1 is set (p - 1
    sits after p), sigma's bit p - 1 is dropped and its bits from p on move
    up one.  The columns for k are those for k - 1 read the same way, block
    by block: p.sigma' has a descent at position 1 when p > sigma[0], and
    its other descents are sigma's, one position further down.  The cache
    hands the same arrays and lists to every caller, which only read them."""
    j = k - 1
    patterns = range(1 << (j - 1))  # sigma's inverse-descent bits
    shifts = [[x << 1 for x in patterns]]
    for p in range(1, k):
        low, bit = (1 << (p - 1)) - 1, 1 << (p - 1)
        shifts.append([x & low | bit | x >> p << (p + 1) for x in patterns])
    if k == 2:
        return array("I", [0]), array("I", [0]), array("B", [0]), array("H", [0]), shifts
    # sigma = q.tau' for the permutations tau of range(m), the level below
    m = j - 1
    tau_idesc, tau_majdes, tau_des, tau_ends, tau_shifts = _tail_table(j)
    idesc, majdes, des, ends = array("I"), array("I"), array("B"), array("H")
    for q, shift in enumerate(tau_shifts):
        # q > tau[0] for the first q * (m - 1)! taus
        first = q * factorial(m - 1)
        idesc.extend(map(shift.__getitem__, tau_idesc))
        majdes.extend(map(add, map(add, tau_majdes, tau_des), chain(repeat(2, first), repeat(0))))
        des.extend(map(add, tau_des, chain(repeat(1, first), repeat(0))))
        relabel = [q * j + last + (last >= q) for last in range(m)] * m
        ends.extend(map(relabel.__getitem__, tau_ends))
    return idesc, majdes, des, ends, shifts


def _standard_tableaux(shape) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(mask, word) for each standard Young tableau of the partition shape,
    the package's one walk over standard tableaux.  word[a] is the row, 0
    the top, of the entry a + 1, and mask the descent set, bit a set when
    a + 2 lies in a strictly lower row than a + 1.

    A depth-first walk from an explicit stack of (entry, first row to try),
    as in schur_ssyt, which leaves no reference cycle: it places 1, 2, ...
    in turn at the end of a row shorter than its part and than the row above
    it, so the words come in increasing lexicographic order."""
    shape = tuple(shape)
    n, height = sum(shape), len(shape)
    lengths = [0] * height
    word = [-1] * n  # -1 while the entry is not placed
    masks = [0] * (n + 1)  # masks[a]: the descents among 1..a
    stack = [(0, 0)]
    while stack:
        a, r = stack.pop()
        if a == n:
            yield masks[n], tuple(word)
            continue
        if word[a] >= 0:  # the walk is back from the entry's last row
            lengths[word[a]] -= 1
        while r < height and (lengths[r] == shape[r] or r and lengths[r - 1] == lengths[r]):
            r += 1
        if r == height:
            word[a] = -1
            continue
        lengths[r] += 1
        word[a] = r
        masks[a + 1] = masks[a] | (1 << (a - 1) if a and r > word[a - 1] else 0)
        stack.append((a, r + 1))
        stack.append((a + 1, 0))


@lru_cache(maxsize=None)
def _schensted_table(k: int) -> tuple[tuple[array, bytes, list, tuple], ...]:
    """The Schensted pairs of the tails of k letters, one (masks, entries,
    bounds, q_counts) per shape nu of k, in partitions_of order, over the
    standard tableaux of nu in _standard_tableaux order.

    Read as insertion tableaux P: masks[i] is the i-th tableau's descent
    mask, and entries[i * k:(i + 1) * k] its entries less one, row by row
    from the top, each row increasing; bounds holds the (start, end) slice
    of each row within them.  Read as recording tableaux Q: q_counts lists
    ((maj, row of k), count), maj the sum of Q's descents.  The columns are
    compact, as _tail_table's are: a list of row lists per tableau raised
    the peak memory of a weight-8 sweep by 0.6 MB, 3%.  Built once per
    process and k; the cache hands the same objects to every caller, which
    only read them."""
    table = []
    for nu in partitions_of(k):
        masks, entries, q_counts = array("I"), bytearray(), Counter()
        for x, word in _standard_tableaux(nu):
            masks.append(x)
            # sorted is stable: by row, and increasing along each row
            entries.extend(sorted(range(k), key=word.__getitem__))
            # with no tail the junction adds k = 0, whatever the row of k
            q_counts[sum(a + 1 for a in range(k - 1) if x >> a & 1), word[k - 1] if k else 0] += 1
        bounds = list(zip(accumulate(nu, initial=0), accumulate(nu)))
        table.append((masks, bytes(entries), bounds, tuple(q_counts.items())))
    return tuple(table)


def _schensted_kept(kept, normal_of, mask: int, maj: int, word: tuple[int, ...], k: int) -> None:
    """Tally into kept the kept words of one lower part, from the first of
    its k! words, (mask, maj, word) of _census: those words pi.L, pi an
    ordering of the free values and L = word[k:] the lower word, whose mask
    straightens, by normal_of, to +s_lambda with lambda the Schensted shape
    of pi.L.

    Everything this reads of pi factors through its Schensted pair (P, Q)
    (Schensted 1961; Stanley, EC2 7.11-7.23): the free pairs' bits are
    spread[Des P], the Schensted tableau of pi.L is P <- L, maj(pi) =
    maj(Q), and pi's last letter exceeds c = L[0] exactly when the box that
    inserting c adds to P lies in a strictly lower row than k in Q.  So it
    walks the standard tableaux P on the free values, inserts L into each
    whose mask is in the plus class, and when the shape matches adds the
    count of each (maj(Q), row of k) of P's shape.  With no lower row,
    mu = 1^n, there is no junction term."""
    _, lower, spread = _lower_part(mask, maj, word, k)
    free, lower_word = word[:k], word[k:]
    for masks, entries, bounds, q_counts in _schensted_table(k):
        for i, x in enumerate(masks):
            p_mask = spread[x]
            normal = normal_of(p_mask)
            if normal.sign <= 0:
                continue
            # P relabelled onto the free values, then P <- L; c_row is the
            # row of the box that c adds, or -1, above every row, when there
            # is no lower word and so no junction term
            relabelled = [free[a] for a in entries[i * k:(i + 1) * k]]
            p = [relabelled[start:end] for start, end in bounds]
            c_row = _row_insert(p, lower_word[0]) if lower_word else -1
            for value in lower_word[1:]:
                _row_insert(p, value)
            if tuple(map(len, p)) != normal.shape:
                continue
            majs = kept[p_mask]
            for (q_maj, k_row), count in q_counts:
                majs[lower + q_maj + (k if c_row > k_row else 0)] += count


def _tally() -> defaultdict:
    """An empty tally of fillings, descent mask -> maj -> filling count: the
    one table shape here, incremented as table[mask][maj] += count."""
    return defaultdict(lambda: defaultdict(int))


def _f_expansion(n: int, table) -> Expansion:
    """The sum of count * t^maj F_pides over a _tally of fillings of weight n."""
    return Expansion("F", n, {
        _composition_of_mask(mask, n): QT({(0, maj): count for maj, count in majs.items()})
        for mask, majs in table.items()
    })


def hl_fundamental_expansion(mu) -> Expansion:
    """F-expansion of the modified Hall-Littlewood polynomial: the q = 0
    specialization, i.e. the sum over inversion-free fillings of t^maj F_pides.

    The fillings of _census are counted into a _tally, and _f_expansion
    reads the sum off it, as in leftover_experiment.  The tests check this
    sum against their reference maj_stat and pides over an independent walk,
    and against cocharge through hll_expansion."""
    mu = Partition(mu)
    table = _tally()
    for mask, maj, _ in _census(mu):
        table[mask][maj] += 1
    return _f_expansion(mu.weight, table)


def hll_expansion(mu) -> Expansion:
    """Schur expansion of the modified Hall-Littlewood polynomial, obtained by
    the F-to-s replacement applied to the inversion-free filling sum."""
    return elw_to_schur(hl_fundamental_expansion(mu))


@dataclass
class ExperimentReport:
    """Result of the Schensted leftover experiment for one shape."""

    mu: Partition
    filling_count: int
    zero_count: int
    minus_count: int
    plus_count: int
    kept_count: int
    conjectured: Expansion
    true_expansion: Expansion
    discrepancy: Expansion

    def to_json_dict(self) -> dict:
        return {
            "mu": list(self.mu),
            "fillings": self.filling_count,
            "zero": self.zero_count,
            "minus": self.minus_count,
            "plus": self.plus_count,
            "kept": self.kept_count,
            "conjectured": self.conjectured.to_json_dict(),
            "true": self.true_expansion.to_json_dict(),
            "discrepancy": self.discrepancy.to_json_dict(),
        }


def leftover_experiment(mu) -> ExperimentReport:
    """Classify each inversion-free filling by the sign of its straightened
    descent-composition Schur value, keep the plus-class fillings whose
    Schensted shape matches the straightened shape, and compare the resulting
    sum against the true expansion, built from the same walk.

    The fillings of _census are counted as in hl_fundamental_expansion,
    every filling into the _tally table and the kept ones also into kept;
    each descent mask is straightened once.  With a one-cell tail of k >=
    _MIN_SCHENSTED_TAIL letters, _schensted_kept counts each lower part's
    kept fillings from its first word, by the Schensted pairs of the tails;
    otherwise each plus-class word's Schensted shape is found by rsk_shape.
    The class counts are read off table after the walk, and the true and
    conjectured Schur sides are elw_to_schur of _f_expansion of table and
    of kept: the kept fillings' F_pides each straighten to plus the Schur
    function of their Schensted shape."""
    mu = Partition(mu)
    n, k = mu.weight, mu.count(1)
    table, kept = _tally(), _tally()
    # mask -> straightened Schur value of its pides
    normal_of = lru_cache(maxsize=None)(lambda mask: _straightened(_composition_of_mask(mask, n)))
    census = _census(mu)
    if k >= _MIN_SCHENSTED_TAIL:
        # the k! words of a lower part come consecutively, the first with
        # its tail increasing
        for first in census:
            for mask, maj, _ in chain((first,), islice(census, factorial(k) - 1)):
                table[mask][maj] += 1
            _schensted_kept(kept, normal_of, *first, k)
    else:
        for mask, maj, sigma in census:
            table[mask][maj] += 1
            normal = normal_of(mask)
            if normal.sign > 0 and rsk_shape(sigma) == normal.shape:
                kept[mask][maj] += 1
    counts = Counter()  # sign of the straightened value -> filling count
    for mask, majs in table.items():
        counts[normal_of(mask).sign] += sum(majs.values())
    # the F-to-s replacement is linear, so this walk's F-expansion gives the
    # true expansion without walking the fillings again in hll_expansion
    true_expansion = elw_to_schur(_f_expansion(n, table))
    conjectured = elw_to_schur(_f_expansion(n, kept))
    return ExperimentReport(
        mu=mu,
        filling_count=counts.total(),
        zero_count=counts[0],
        minus_count=counts[-1],
        plus_count=counts[1],
        kept_count=sum(sum(majs.values()) for majs in kept.values()),
        conjectured=conjectured,
        true_expansion=true_expansion,
        discrepancy=true_expansion - conjectured,
    )


def is_schur_positive(e: Expansion) -> bool:
    """True when every coefficient of the Schur expansion e is a polynomial
    in t with coefficients >= 0."""
    if e.basis != "s":
        raise ValueError("input expansion must be over the s basis")
    for _, coeff in e.terms():
        if not coeff.is_q_free():
            return False
        for (_, _), c in coeff.terms():
            if c < 0:
                return False
    return True
