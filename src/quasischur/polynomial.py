"""Sparse exact polynomials in x_1..x_N over the coefficient ring Z[q,t]."""

from __future__ import annotations

from typing import Iterable, Mapping

from .combinatorics import _INT_ONLY, _ints, permutation_sign


def _json_int(value) -> int:
    """An integer field of a JSON document, refusing bools, floats and strings
    rather than reading them as integers."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def _json_list(value) -> list:
    """An array field of a JSON document, refusing objects and strings rather
    than reading them as sequences."""
    if type(value) is not list:
        raise TypeError(f"expected an array, got {type(value).__name__}")
    return value


def _json_ints(values) -> tuple[int, ...]:
    """An array of integers of a JSON document, as a tuple."""
    if type(values) is not list:
        _json_list(values)
    if not _INT_ONLY.issuperset(map(type, values)):
        for value in values:
            _json_int(value)
    return tuple(values)


def _accumulate(out: dict, key, c) -> None:
    """Add c into out[key], dropping the key when the sum is zero.

    This is the one cancellation rule of the package: a sparse map never
    stores a zero coefficient, and a sum drops every key that cancels.  The
    coefficients may be ints or `QT`s."""
    if key in out:
        c = out[key] + c
    if c:
        out[key] = c
    else:
        out.pop(key, None)


def _add_triples(out: dict[tuple[int, int], int], triples) -> None:
    """Add a JSON coefficient [[qexp, texp, coeff], ...] into out, a map
    (qexp, texp) -> nonzero int, checking each number once."""
    if type(triples) is not list:
        _json_list(triples)
    for qe, te, c in triples:
        if type(qe) is not int or type(te) is not int or type(c) is not int:
            for value in (qe, te, c):
                _json_int(value)
        if qe < 0 or te < 0:
            raise ValueError("negative q/t exponent")
        _accumulate(out, (qe, te), c)


def _json_terms(entries, field: str) -> dict[tuple[int, ...], dict[tuple[int, int], int]]:
    """The terms array of a JSON document, read in one pass: each entry's
    field, an array of integers, maps to the sum of the coefficients of all
    entries that carry it.  A sum that cancels is left as an empty map."""
    if type(entries) is not list:
        _json_list(entries)
    sums: dict[tuple[int, ...], dict[tuple[int, int], int]] = {}
    for entry in entries:
        key = _json_ints(entry[field])
        acc = sums.get(key)
        if acc is None:
            acc = sums[key] = {}
        _add_triples(acc, entry["coeff"])
    return sums


def _factor(coeff) -> str:
    """The text of a coefficient as a factor of a product, in parentheses
    when it is a sum."""
    text = str(coeff)
    return f"({text})" if "+" in text else text


class _SparseMap:
    """A sparse map from keys to nonzero coefficients, treated as immutable:
    the one store and arithmetic of `QT`, `SparsePoly` and `Expansion`.

    A subclass's _SPACE names the attributes that fix its space: the
    variable count, or the basis and degree.  Two operands of + and - must
    agree on them, maps in different spaces are unequal, and a result built
    here copies them, and no other attribute, from self.
    The constructor is the one loop that checks terms: a subclass sets its
    space and then reads each key through its _key and each coefficient
    through its _coeff, which raise on a term outside the space; two keys
    read as the same key are added, like equal keys of a document.  _wrap is
    the one unchecked path: every result built here comes from maps already
    checked, and each JSON reader checks its keys in its own pass.
    A subclass prints through its sorted_terms and _str_term.
    """

    __slots__ = ("_terms",)
    _SPACE: tuple[str, ...] = ()

    def __init__(self, terms: Mapping | None = None):
        cleaned = {}
        if terms:
            key_of, coeff_of = self._key, self._coeff
            for key, c in terms.items():
                _accumulate(cleaned, key_of(key), coeff_of(c))
        self._terms = cleaned

    def _wrap(self, terms: dict) -> "_SparseMap":
        """A map of the same class and space as self over terms, a dict
        already free of zero coefficients, taken without copying."""
        result = object.__new__(type(self))
        for name in self._SPACE:
            setattr(result, name, getattr(self, name))
        result._terms = terms
        return result

    def _operand(self, other):
        """other read as a map of this class, or None when it is not one."""
        return other if isinstance(other, type(self)) else None

    def _same_space(self, other) -> bool:
        """Whether other agrees with self on every attribute named by _SPACE."""
        for name in self._SPACE:
            if getattr(self, name) != getattr(other, name):
                return False
        return True

    def _compatible(self, other):
        """other read as a map of this class in the same space as self, or
        None when it is not a map of this class."""
        other = self._operand(other)
        if other is not None and not self._same_space(other):
            names = "/".join(self._SPACE)
            raise ValueError(f"cannot combine {type(self).__name__}s of different {names}")
        return other

    def terms(self):
        return self._terms.items()

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        other = self._operand(other)
        if other is None:
            return NotImplemented
        return self._same_space(other) and self._terms == other._terms

    def __add__(self, other):
        other = self._compatible(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for key, c in other._terms.items():
            _accumulate(out, key, c)
        return self._wrap(out)

    def __neg__(self):
        return self._wrap({key: -c for key, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __str__(self) -> str:
        return " + ".join(map(self._str_term, self.sorted_terms())) or "0"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class QT(_SparseMap):
    """Element of Z[q,t] stored as a sparse map (q-exp, t-exp) -> nonzero int.
    An int operand of +, -, * and == is read as a constant."""

    __slots__ = ()

    @staticmethod
    def _key(key) -> tuple[int, int]:
        key = _ints(key)
        qe, te = key
        if qe < 0 or te < 0:
            raise ValueError("negative q/t exponent")
        return key

    @staticmethod
    def _coeff(c) -> int:
        (c,) = _ints((c,))
        return c

    @classmethod
    def integer(cls, n: int) -> "QT":
        return cls({(0, 0): n})

    @classmethod
    def term(cls, coeff: int, qexp: int = 0, texp: int = 0) -> "QT":
        return cls({(qexp, texp): coeff})

    def _operand(self, other):
        if isinstance(other, int):
            return QT.integer(other)
        return other if isinstance(other, QT) else None

    def is_q_free(self) -> bool:
        return all(qe == 0 for qe, _ in self._terms)

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __mul__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (q1, t1), c1 in self._terms.items():
            for (q2, t2), c2 in other._terms.items():
                _accumulate(out, (q1 + q2, t1 + t2), c1 * c2)
        return self._wrap(out)

    __rmul__ = __mul__
    __radd__ = _SparseMap.__add__

    def __rsub__(self, other):
        return (-self).__add__(other)

    def sorted_terms(self) -> list[tuple[tuple[int, int], int]]:
        return sorted(self._terms.items())

    def triples(self) -> list[list[int]]:
        """Serialized form: [[qexp, texp, coeff], ...] sorted by (qexp, texp)."""
        return [[qe, te, c] for (qe, te), c in self.sorted_terms()]

    @classmethod
    def from_triples(cls, triples: Iterable[Iterable[int]]) -> "QT":
        """Read the serialized form; equal (qexp, texp) pairs are added."""
        out: dict[tuple[int, int], int] = {}
        _add_triples(out, triples)
        return QT_ZERO._wrap(out)

    @staticmethod
    def _str_term(term) -> str:
        (qe, te), c = term
        factors = []
        if c != 1 or (qe == 0 and te == 0):
            factors.append(str(c))
        if qe:
            factors.append("q" if qe == 1 else f"q^{qe}")
        if te:
            factors.append("t" if te == 1 else f"t^{te}")
        return "*".join(factors)


QT_ZERO = QT()
QT_ONE = QT.integer(1)
Q = QT.term(1, qexp=1)
T = QT.term(1, texp=1)


def _as_qt(value) -> QT:
    if isinstance(value, QT):
        return value
    if isinstance(value, int):
        return QT.integer(value)
    raise TypeError(f"cannot use {type(value).__name__} as a Z[q,t] coefficient")


def _check_exponent_vector(exps: tuple[int, ...], nvars: int) -> None:
    """Refuse an integer exponent vector of the wrong length or with a
    negative entry."""
    if len(exps) != nvars:
        raise ValueError(f"exponent vector {exps} does not match {nvars} variables")
    if exps and min(exps) < 0:
        raise ValueError(f"negative exponent in {exps}")


class SparsePoly(_SparseMap):
    """Polynomial in x_1..x_N with Z[q,t] coefficients, stored sparsely.

    Treated as immutable; all operations return new values.
    """

    __slots__ = ("nvars",)
    _SPACE = ("nvars",)

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], QT] | None = None):
        (nvars,) = _ints((nvars,))
        if nvars < 0:
            raise ValueError("variable count must be non-negative")
        self.nvars = nvars
        super().__init__(terms)

    def _key(self, exps) -> tuple[int, ...]:
        exps = _ints(exps)
        _check_exponent_vector(exps, self.nvars)
        return exps

    _coeff = staticmethod(_as_qt)

    def degree(self) -> int:
        """Total degree in the x variables; zero polynomial has degree 0."""
        return max(map(sum, self._terms), default=0)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], QT]]:
        """Terms in ascending graded-lexicographic order of exponents."""
        return sorted(self._terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def to_json_dict(self) -> dict:
        return {
            "vars": self.nvars,
            "terms": [
                {"exps": list(exps), "coeff": coeff.triples()}
                for exps, coeff in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: Mapping) -> "SparsePoly":
        """Read the serialized form in one pass that checks every number.
        Entries with equal exps are added; terms that cancel are dropped."""
        empty = cls(_json_int(doc["vars"]))
        sums = _json_terms(doc["terms"], "exps")
        for exps in sums:
            _check_exponent_vector(exps, empty.nvars)
        return empty._wrap({exps: QT_ZERO._wrap(acc) for exps, acc in sums.items() if acc})

    @staticmethod
    def _str_term(term) -> str:
        exps, coeff = term
        mono = "*".join(
            f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}"
            for i, e in enumerate(exps)
            if e
        )
        c = _factor(coeff)
        return f"{c}*{mono}" if mono else c

    def __repr__(self) -> str:
        return f"SparsePoly({self.nvars}, {self})"


def _sort_sign(exps: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """Sort an exponent vector into decreasing order, tracking the sign.

    This is the one signed sort of the package: `class_map` sorts exponent
    vectors with it, and `schur.straighten` its shifted vector.  The tests'
    n!-expanding antisymmetrizer counts its signs without it.
    """
    order = sorted(range(len(exps)), key=lambda i: -exps[i])
    return tuple(exps[i] for i in order), permutation_sign(order)


def class_map(terms) -> dict[tuple[int, ...], object]:
    """The alternant of the sum of c * x^e over the pairs (e, c) of terms, as a
    map from strictly decreasing exponent vector to nonzero signed coefficient.

    The alternant of x^e is zero when e has a repeated entry, and otherwise
    sgn(w) times the alternant of x^sort(e), where w sorts e.  Distinct
    strictly decreasing vectors have disjoint orbits, so two alternants are
    equal exactly when their class maps are equal, without writing out the
    n! permuted terms of each class.  Coefficients may be ints or `QT`s.
    """
    classes: dict[tuple[int, ...], object] = {}
    for exps, coeff in terms:
        if len(set(exps)) != len(exps):
            continue
        key, sign = _sort_sign(exps)
        _accumulate(classes, key, coeff * sign)
    return classes


def staircase(n: int) -> tuple[int, ...]:
    """The exponent vector (n-1, n-2, ..., 0)."""
    return tuple(range(n - 1, -1, -1))
