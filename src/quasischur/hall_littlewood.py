"""Diagram filling statistics and the modified Hall-Littlewood experiment."""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import Counter, defaultdict, deque
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
from .polynomial import QT_ZERO
from .quasisym import Expansion

# A one-cell tail of at least _MIN_TABLE_TAIL letters is counted per lower
# part: _census tallies its words from _tail_counts, and leftover_experiment
# counts its kept fillings by Schensted pairs.  Shorter tails are read, and
# their plus-class words inserted, word by word.  It is the shortest tail on
# which the per-lower-part route won when the two were timed per tail
# length on the partitions of 8 and 9.
_MIN_TABLE_TAIL = 3


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
    from the values not yet used, by the index pickers of _splits.  The
    bottom row holds its entries in increasing order; each higher row of two
    or more cells is the forced inversion-free ordering of its entries over
    the row already chosen below it, so a forced row is computed once per
    shared lower part of the filling.  From the first one-cell row up every row has one cell, and a
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
    From k = _MIN_TABLE_TAIL on, _census reads only the first word of each
    lower part and drains the other k! - 1 unread, so every word is still
    yielded, one walk per shape; it counts the words it drains, and raises
    ValueError when a lower part's words do not come k! in a row.
    """
    mu = Partition(mu)
    values = list(range(1, mu.weight + 1))
    # rows from index tail on have one cell
    tail = next((i for i, part in enumerate(mu) if part == 1), len(mu))
    lengths = tuple(mu[:tail])
    parts = [((), tuple(values))]
    size = mu.weight  # every part of one level has as many free values
    for length in lengths:
        parts = _add_row(parts, _splits(size, length))
        size -= length
    for rows, free in parts:
        if tuple(map(len, rows)) != lengths or sorted(chain(free, *rows)) != values:
            raise ValueError(
                f"rows {rows} over {free} are not a bijective filling of {mu}"
            )
        lower_word = tuple(chain.from_iterable(reversed(rows)))
        yield from map(add, permutations(free), repeat(lower_word))


def _add_row(parts, splits: list[tuple]) -> Iterator[tuple[tuple, tuple[int, ...]]]:
    """Each (rows, free) of parts, rows listed bottom up and free the values
    not in them, extended over the top row by every row that the splits of
    _splits pick from free.

    One generator per level, each reading the level below it: a lower part
    passes through no generator above its own level, and a walk leaves no
    reference cycle for the cyclic GC to free."""
    for rows, free in parts:
        for pick, rest in splits:
            # the picked values are increasing, which is the bottom row's order
            block = pick(free)
            row = _force_row(rows[-1], block) if rows else block
            yield rows + (row,), rest(free)


def _splits(size: int, length: int) -> list[tuple]:
    """(pick, rest) for each choice of length of size positions, in
    itertools.combinations order: pick takes a tuple's values at the chosen
    positions and rest its values at the others, each as a tuple in
    increasing position.  Built once per level of a walk, so that the level
    splits its free values by two C-level reads per row; a cache of them
    per process held 130 KB after a weight-8 sweep."""
    positions = range(size)
    return [
        (_picker(chosen), _picker([i for i in positions if i not in chosen]))
        for chosen in combinations(positions, length)
    ]


def _picker(positions: list[int]):
    """itemgetter for positions that returns a tuple for any count."""
    if len(positions) >= 2:
        return itemgetter(*positions)
    return lambda word: tuple(map(word.__getitem__, positions))


def _census(mu: Partition, table) -> Iterator[tuple[int, int, tuple, tuple | None]]:
    """Tally every reading word of inv_zero_fillings(mu) into table, a
    _tally, by its descent mask and maj; yield (mask, maj, word, part) for
    each word read on its own.  This is the one reading of the filling
    statistics behind every expansion here.

    mask is the descent set of word^-1 as an int, bit i standing for the
    point i + 1, so the descent composition of word^-1 (pides) is
    _composition_of_mask(mask, n); maj is the sum over the columns of the
    major index of each column read top to bottom.

    A word is read in one pass: the mask from the positions of i and i + 1,
    maj from the positions of the vertically adjacent cells.  With a
    one-cell tail of k = mu.count(1) < _MIN_TABLE_TAIL letters every word
    is read so, tallied and yielded.  From k = _MIN_TABLE_TAIL letters on,
    the walk yields one chunk of k! words per lower part, which differ only
    in their tail, the first k letters.  Only the chunk's first word is
    read, with _lower_part's part, what the chunk's words share;
    _tail_block tallies the whole chunk from part, and the census yields
    that first word and part once the other k! - 1 have been drained
    unread.  Shorter tails yield part None.  The drain counts the words,
    and raises ValueError when the walk yields more or fewer than k! words
    for one lower part, which would misalign every chunk after it."""
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
    rest = factorial(k) - 1  # the words of a chunk after its first
    previous = part = None  # the lower word and part of the chunk before
    words = inv_zero_fillings(mu)
    for word in words:
        # where[v - 1] is the position of v in word; i is a descent of
        # word^-1 exactly when i sits after i + 1
        where = sorted(positions, key=word.__getitem__)
        maj = sum(compress(weights, map(gt, up(word), down(word))))
        mask = sum(compress(bits, map(gt, where, where[1:])))
        if k >= _MIN_TABLE_TAIL:
            # the last of the chunk's other words, and its number from 1
            last = deque(zip(islice(words, rest), range(1, rest + 1)), maxlen=1)
            drained, number = last[0] if last else ((), 0)
            lower_word = word[k:]
            if number != rest or drained[k:] != lower_word or lower_word == previous:
                raise ValueError(
                    f"the walk of {mu} did not yield {rest + 1} words in a row "
                    f"for the lower word {lower_word}"
                )
            previous = lower_word
            part = _lower_part(mask, maj, word, k)
            _tail_block(table, part, k)
        else:
            table[mask][maj] += 1
        yield mask, maj, word, part


def _tail_block(table, part: tuple[int, int, list[int]], k: int) -> None:
    """Tally into table the k! words pi.L of one lower part, pi an ordering
    of its k free values and L the lower word, from part, _lower_part's (r,
    lower, spread) of them.  A pair of free values i, i + 1 is a descent
    when pi puts i after i + 1, so the word's mask is spread[x] for x pi's
    inverse-descent bits; pi's column-1 descents add maj(pi), and its last
    letter adds k when it exceeds the column-1 cell of the top lower row,
    which it sits on.  So the chunk is one read of _tail_counts(k, r)."""
    r, lower, spread = part
    xs, ms, counts = _tail_counts(k, r)
    for x, m, tails in zip(xs, ms, counts):
        table[spread[x]][lower + m] += tails


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
    compact, as _tail_counts's are: a list of row lists per tableau raised
    the peak memory of a weight-8 sweep by 0.6 MB, 3%.  Built once per
    process and k; the cache hands the same objects to every caller, which
    only read them."""
    majs = [0]  # majs[x]: the sum of the descents of the mask x
    for a in range(k - 1):
        majs += [m + a + 1 for m in majs]
    table = []
    for nu in partitions_of(k):
        masks, entries, q_counts = array("I"), bytearray(), Counter()
        for x, word in _standard_tableaux(nu):
            masks.append(x)
            # sorted is stable: by row, and increasing along each row
            entries.extend(sorted(range(k), key=word.__getitem__))
            # with no tail the junction adds k = 0, whatever the row of k
            q_counts[majs[x], word[k - 1] if k else 0] += 1
        bounds = list(zip(accumulate(nu, initial=0), accumulate(nu)))
        table.append((masks, bytes(entries), bounds, tuple(q_counts.items())))
    return tuple(table)


@lru_cache(maxsize=None)
def _tail_counts(k: int, r: int) -> tuple[array, array, array]:
    """The k! one-cell tails pi of k letters, range(k) in every order,
    counted by (x, m): x is pi's inverse-descent bits, bit a when a sits
    after a + 1, and m is maj(pi) plus the junction term, k when pi's last
    letter is at least r: the columns (xs, ms, counts) over the distinct
    pairs, a marginal of _schensted_table(k).  By the rule of
    _schensted_kept, x is Des P, maj(pi) = maj(Q), and pi's last letter is
    at least r exactly when the box that inserting r - 1/2 adds to P lies
    in a strictly lower row than k in Q.  So each tableau P adds to x =
    Des P the counts of the Q of its shape by m, read for the row of P's
    box.  Built once per process and (k, r); the cache hands the same
    arrays to every caller, which only read them."""
    width = k * (k + 1) // 2 + 1  # m <= maj(pi) + k
    tally = defaultdict(lambda: [0] * width)  # x -> tails by m
    for masks, entries, bounds, q_counts in _schensted_table(k):
        # by_row[b][m]: the tableaux Q of m = maj(Q) + junction, box in row b
        by_row = [[0] * width for _ in range(len(bounds) + 1)]
        for (q_maj, k_row), count in q_counts:
            for b, q_tally in enumerate(by_row):
                q_tally[q_maj + (k if b > k_row else 0)] += count
        for i, x in enumerate(masks):
            # r - 1/2 bumps the least entry of the top row that is at least
            # r, and each bumped entry the least entry above it in the next
            # row: the entries are distinct, so bisect_left finds both
            value, base = r, i * k
            for row, (start, end) in enumerate(bounds):
                j = bisect_left(entries, value, base + start, base + end)
                if j == base + end:
                    break
                value = entries[j]
            else:
                row = len(bounds)
            tally[x] = list(map(add, tally[x], by_row[row]))
    xs, ms, counts = zip(*(
        (x, m, tails) for x, m_tally in tally.items() for m, tails in enumerate(m_tally) if tails
    ))
    return array("I", xs), array("H", ms), array("Q", counts)


def _schensted_kept(kept, normal_of, part: tuple, word: tuple[int, ...], k: int) -> None:
    """Tally into kept the kept words of one lower part, from the first of
    its k! words and its part, word and part of _census: those words pi.L,
    pi an ordering of the free values and L = word[k:] the lower word, whose
    mask straightens, by normal_of, to +s_lambda with lambda the Schensted
    shape of pi.L.

    Everything this reads of pi factors through its Schensted pair (P, Q)
    (Schensted 1961; Stanley, EC2 7.11-7.23): the free pairs' bits are
    spread[Des P], the Schensted tableau of pi.L is P <- L, maj(pi) =
    maj(Q), and pi's last letter exceeds c = L[0] exactly when the box that
    inserting c adds to P lies in a strictly lower row than k in Q.  So it
    walks the standard tableaux P on the free values, inserts L into each
    whose mask is in the plus class, and when the shape matches adds the
    count of each (maj(Q), row of k) of P's shape.  With no lower row,
    mu = 1^n, there is no junction term."""
    _, lower, spread = part
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
    """The sum of count * t^maj F_pides over a _tally of fillings of weight
    n, built by _wrap unchecked: the census made every index and count."""
    return Expansion("F", n)._wrap({
        _composition_of_mask(mask, n): QT_ZERO._wrap({(0, maj): count for maj, count in majs.items()})
        for mask, majs in table.items()
    })


def hl_fundamental_expansion(mu) -> Expansion:
    """F-expansion of the modified Hall-Littlewood polynomial: the q = 0
    specialization, i.e. the sum over inversion-free fillings of t^maj F_pides.

    _census counts the fillings into a _tally, and _f_expansion reads the
    sum off it, as in leftover_experiment.  The tests check this
    sum against their reference maj_stat and pides over an independent walk,
    and against cocharge through hll_expansion."""
    mu = Partition(mu)
    table = _tally()
    deque(_census(mu, table), maxlen=0)
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

    _census counts every filling into the _tally table, as in
    hl_fundamental_expansion, and the kept ones go into kept; each descent
    mask is straightened once.  With a one-cell tail of k >= _MIN_TABLE_TAIL
    letters, _census yields the first word of each lower part, and
    _schensted_kept counts the lower part's kept fillings from it, by the
    Schensted pairs of the tails; otherwise _census yields every word, and
    each plus-class word's Schensted shape is found by rsk_shape.
    The class counts are read off table after the walk, and the true and
    conjectured Schur sides are elw_to_schur of _f_expansion of table and
    of kept: the kept fillings' F_pides each straighten to plus the Schur
    function of their Schensted shape."""
    mu = Partition(mu)
    n, k = mu.weight, mu.count(1)
    table, kept = _tally(), _tally()
    # mask -> straightened Schur value of its pides
    normal_of = lru_cache(maxsize=None)(lambda mask: _straightened(_composition_of_mask(mask, n)))
    for mask, maj, word, part in _census(mu, table):
        if part is not None:
            _schensted_kept(kept, normal_of, part, word, k)
            continue
        normal = normal_of(mask)
        if normal.sign > 0 and rsk_shape(word) == normal.shape:
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
