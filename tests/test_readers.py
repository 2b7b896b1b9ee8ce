"""The one-pass JSON readers and the one-pass monomial grouping against the
readers and the grouping they replaced, kept here as oracles."""

import itertools
import json
import random
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from quasischur.combinatorics import Composition, compositions_of, partitions_of
from quasischur.polynomial import QT, QT_ZERO, SparsePoly, _json_int, _json_list
from quasischur.quasisym import Expansion, extract_f_expansion, monomial_qs_coefficients
from quasischur.schur import schur_ssyt

from oracles import expansion_to_poly

READ_ERRORS = (ValueError, TypeError, KeyError)


# The oracles: the readers and the grouping as they were before the one-pass
# rewrite, verbatim except for the names and for `p.is_homogeneous()`, whose
# one-line body is written out.

def reference_from_triples(triples) -> QT:
    out: dict[tuple[int, int], int] = {}
    for qe, te, c in _json_list(triples):
        key = (_json_int(qe), _json_int(te))
        out[key] = out.get(key, 0) + _json_int(c)
    return QT(out)


def reference_poly_from_json_dict(doc) -> SparsePoly:
    nvars = _json_int(doc["vars"])
    terms: dict[tuple[int, ...], QT] = {}
    for entry in _json_list(doc["terms"]):
        exps = tuple(_json_int(e) for e in _json_list(entry["exps"]))
        coeff = reference_from_triples(entry["coeff"])
        terms[exps] = terms.get(exps, QT_ZERO) + coeff
    return SparsePoly(nvars, terms)


def reference_expansion_from_json_dict(doc) -> Expansion:
    terms: dict[tuple[int, ...], QT] = {}
    for entry in _json_list(doc["terms"]):
        index = tuple(_json_int(i) for i in _json_list(entry["index"]))
        coeff = reference_from_triples(entry["coeff"])
        terms[index] = terms.get(index, QT_ZERO) + coeff
    return Expansion(doc["basis"], _json_int(doc["degree"]), terms)


def reference_monomial_qs_coefficients(p: SparsePoly) -> dict[Composition, QT]:
    if len({sum(e) for e, _ in p.terms()}) > 1:
        raise ValueError("polynomial is not homogeneous")
    groups: dict[tuple[int, ...], list[QT]] = {}
    for exps, coeff in p.terms():
        pattern = tuple(e for e in exps if e)
        groups.setdefault(pattern, []).append(coeff)
    out: dict[Composition, QT] = {}
    for pattern, coeffs in groups.items():
        expected = comb(p.nvars, len(pattern))
        if len(coeffs) != expected or any(c != coeffs[0] for c in coeffs):
            raise ValueError("polynomial is not quasisymmetric")
        out[Composition(pattern)] = coeffs[0]
    return out


def outcome(function, *args):
    """The value of function(*args), or the exception it raised."""
    try:
        return function(*args)
    except Exception as exc:  # the exception is the outcome
        return exc


def assert_qs_agree(p: SparsePoly) -> None:
    """The grouping agrees with its oracle: the same M-coefficients, or an
    error, for the same reason where the oracle named homogeneity or
    quasisymmetry."""
    old = outcome(reference_monomial_qs_coefficients, p)
    new = outcome(monomial_qs_coefficients, p)
    if not isinstance(old, Exception):
        assert new == old, p
    elif isinstance(new, dict):
        # a nonzero constant c is c*M_(), which the oracle refused as an
        # empty composition
        assert str(old) == "composition must have at least one part", p
        assert list(new) == [()] and dict(p.terms()) == {(0,) * p.nvars: new[()]}, p
    else:
        assert isinstance(new, ValueError), (p, new)
        if str(old) in ("polynomial is not homogeneous", "polynomial is not quasisymmetric"):
            assert str(new) == str(old), p


def assert_readers_agree(new_reader, old_reader, doc) -> None:
    old = outcome(old_reader, doc)
    new = outcome(new_reader, doc)
    if isinstance(old, Exception):
        assert isinstance(new, READ_ERRORS), (doc, new)
    else:
        assert new == old, doc


def shuffled_document(p: SparsePoly, rng: random.Random) -> dict:
    """A document for p whose coefficients are split over duplicate exps
    entries, padded with q/t-terms and whole entries that cancel, in random
    order."""
    entries = []
    for exps, coeff in p.terms():
        for qe, te, c in coeff.triples():
            part = rng.randint(-3, 3)
            entries.append({"exps": list(exps), "coeff": [[qe, te, c - part]]})
            entries.append({"exps": list(exps), "coeff": [[qe, te, part], [5, 0, 1]]})
            entries.append({"exps": list(exps), "coeff": [[5, 0, -1]]})
    for _ in range(3):
        exps = [rng.randint(0, 2) for _ in range(p.nvars)]
        entries.append({"exps": exps, "coeff": [[1, 1, 2], [0, 2, 1]]})
        entries.append({"exps": exps, "coeff": [[0, 2, -1], [1, 1, -2]]})
    rng.shuffle(entries)
    return {"vars": p.nvars, "terms": entries}


class TestSchurDocuments:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_every_schur_polynomial(self, n):
        for lam in partitions_of(n):
            doc = schur_ssyt(tuple(lam), n).to_json_dict()
            p = SparsePoly.from_json_dict(doc)
            assert p == reference_poly_from_json_dict(doc) == schur_ssyt(tuple(lam), n)
            assert monomial_qs_coefficients(p) == reference_monomial_qs_coefficients(p)
            e = extract_f_expansion(p).to_json_dict()
            assert Expansion.from_json_dict(e) == reference_expansion_from_json_dict(e)


class TestSeededDocuments:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_duplicates_and_cancellation(self, n):
        rng = random.Random(800 + n)
        alphas = [tuple(a) for a in compositions_of(n)]
        for _ in range(8):
            e = Expansion("F", n, {
                alpha: QT({(rng.randint(0, 2), rng.randint(0, 2)): rng.choice((-2, -1, 1, 3))
                           for _ in range(rng.randint(1, 3))})
                for alpha in rng.sample(alphas, rng.randint(1, len(alphas)))
            })
            nvars = n + rng.randint(0, 1)
            p = expansion_to_poly(e, nvars)
            doc = shuffled_document(p, rng)
            # the padding exps entries cancel, so the document reads as p
            read = SparsePoly.from_json_dict(doc)
            assert read == reference_poly_from_json_dict(doc) == p
            assert monomial_qs_coefficients(read) == reference_monomial_qs_coefficients(read)
            assert extract_f_expansion(read) == e
            e_doc = e.to_json_dict()
            indices = [t["index"] for t in e_doc["terms"]]
            e_doc["terms"] += [{"index": i, "coeff": [[4, 4, c]]} for c in (1, -1) for i in indices]
            assert Expansion.from_json_dict(e_doc) == reference_expansion_from_json_dict(e_doc) == e

    def test_cancelled_entry_still_validated(self):
        # the whole coefficient cancels, but the index is no partition
        doc = {"basis": "s", "degree": 3, "terms": [
            {"index": [1, 2], "coeff": [[0, 0, 1]]},
            {"index": [1, 2], "coeff": [[0, 0, -1]]},
        ]}
        with pytest.raises(ValueError):
            reference_expansion_from_json_dict(doc)
        with pytest.raises(ValueError):
            Expansion.from_json_dict(doc)


# Entries whose coefficient arrays are equal: a reader that reused the map of
# an array it has read for an equal one would skip checks and share sums.

# an array equal to [[0, 0, 1]] as a Python key, but not all ints
NOT_ALL_INTS = [[[0, 0, True]], [[0, 0, 1.0]], [[0.0, 0, 1]]]


class TestEqualCoefficientArrays:
    @pytest.mark.parametrize("spoiled", NOT_ALL_INTS, ids=["bool", "float-coeff", "float-exp"])
    def test_array_equal_to_a_read_one_is_still_checked(self, spoiled):
        poly = {"vars": 2, "terms": [{"exps": [1, 0], "coeff": [[0, 0, 1]]},
                                     {"exps": [0, 1], "coeff": spoiled}]}
        expansion = {"basis": "F", "degree": 2, "terms": [{"index": [2], "coeff": [[0, 0, 1]]},
                                                          {"index": [1, 1], "coeff": spoiled}]}
        with pytest.raises(TypeError):
            SparsePoly.from_json_dict(poly)
        with pytest.raises(TypeError):
            Expansion.from_json_dict(expansion)

    def test_repeated_exps_sums_only_into_its_own_term(self):
        # x1 and x2 carry equal arrays; the second x1 entry adds to x1 alone
        for extra in ([[0, 0, 1]], [[1, 0, 1]]):
            doc = {"vars": 2, "terms": [{"exps": [1, 0], "coeff": [[0, 0, 1]]},
                                        {"exps": [0, 1], "coeff": [[0, 0, 1]]},
                                        {"exps": [1, 0], "coeff": extra}]}
            p = SparsePoly.from_json_dict(doc)
            assert p == reference_poly_from_json_dict(doc)
            assert dict(p.terms()) == {(1, 0): QT.integer(1) + QT.from_triples(extra),
                                       (0, 1): QT.integer(1)}

    def test_repeated_index_sums_only_into_its_own_term(self):
        doc = {"basis": "F", "degree": 2, "terms": [{"index": [2], "coeff": [[0, 0, 1]]},
                                                    {"index": [1, 1], "coeff": [[0, 0, 1]]},
                                                    {"index": [2], "coeff": [[0, 0, -1]]}]}
        e = Expansion.from_json_dict(doc)
        assert e == reference_expansion_from_json_dict(doc)
        assert dict(e.terms()) == {(1, 1): QT.integer(1)}


class TestNegativeQtExponents:
    # the readers wrap the maps they read unchecked, so each one refuses a
    # negative q or t exponent itself, as the constructors do
    @pytest.mark.parametrize("triple", [[-1, 0, 1], [0, -1, 1], [2, -3, -1]],
                             ids=["q", "t", "both-signs"])
    def test_refused_by_every_reader(self, triple):
        coeff = [[0, 0, 1], triple]
        poly = {"vars": 1, "terms": [{"exps": [1], "coeff": coeff}]}
        expansion = {"basis": "F", "degree": 1, "terms": [{"index": [1], "coeff": coeff}]}
        for read, doc in [(QT.from_triples, coeff), (SparsePoly.from_json_dict, poly),
                          (Expansion.from_json_dict, expansion)]:
            with pytest.raises(ValueError, match="negative q/t exponent"):
                read(doc)
        with pytest.raises(ValueError):
            reference_from_triples(coeff)


# Valid documents, with small numbers so that entries repeat and cancel, and
# malformed ones: a valid document with one node replaced by a bool, a float,
# a string, null, an object, an array or a negative number, with one array
# lengthened or shortened (wrong-length exps, triples of length 2 or 4), or
# with one key deleted.
JUNK = st.one_of(
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=2),
    st.none(),
    st.just({}),
    st.just([]),
    st.just([1]),
    st.just(-1),
)


def triples():
    triple = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(-2, 2)).map(list)
    return st.lists(triple, max_size=3)


@st.composite
def valid_poly_documents(draw):
    nvars = draw(st.integers(0, 3))
    exps = st.lists(st.sampled_from([0, 1, 2, 0, 1, 2, -1]), min_size=nvars, max_size=nvars)
    entry = st.fixed_dictionaries({"exps": exps, "coeff": triples()})
    return {"vars": nvars, "terms": draw(st.lists(entry, max_size=6))}


@st.composite
def valid_expansion_documents(draw):
    degree = draw(st.integers(0, 4))
    compositions = [list(a) for a in compositions_of(degree)] if degree else [[]]
    # mostly indices of the right weight, so that some documents are valid
    index = st.one_of(*[st.sampled_from(compositions)] * 5, st.lists(st.integers(0, 3), max_size=3))
    entry = st.fixed_dictionaries({"index": index, "coeff": triples()})
    return {"basis": draw(st.sampled_from(["F", "M", "F", "M", "s", "X"])), "degree": degree,
            "terms": draw(st.lists(entry, max_size=4))}


def nodes(doc, path=()):
    yield path
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in children:
        yield from nodes(child, path + (key,))


@st.composite
def spoiled(draw, documents):
    doc = draw(documents)
    if draw(st.booleans()):
        return doc
    path = draw(st.sampled_from(list(nodes(doc))))
    if not path:
        return draw(JUNK)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    node = parent[path[-1]]
    how = draw(st.sampled_from(["replace", "lengthen", "shorten", "delete"]))
    if how == "lengthen" and isinstance(node, list):
        node.append(draw(st.integers(0, 2)))
    elif how == "shorten" and isinstance(node, list) and node:
        node.pop()
    elif how == "delete" and isinstance(parent, dict):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(JUNK)
    return doc


class TestReadersAgree:
    @settings(max_examples=200, deadline=None)
    @given(doc=spoiled(valid_poly_documents()))
    def test_polynomial_documents(self, doc):
        assert_readers_agree(SparsePoly.from_json_dict, reference_poly_from_json_dict, doc)
        p = outcome(SparsePoly.from_json_dict, doc)
        if isinstance(p, SparsePoly):
            assert_qs_agree(p)

    @settings(max_examples=200, deadline=None)
    @given(doc=spoiled(valid_expansion_documents()))
    def test_expansion_documents(self, doc):
        assert_readers_agree(Expansion.from_json_dict, reference_expansion_from_json_dict, doc)

    @settings(max_examples=200, deadline=None)
    @given(coeff=spoiled(triples()))
    def test_coefficients(self, coeff):
        assert_readers_agree(QT.from_triples, reference_from_triples, coeff)


class TestGrouping:
    @pytest.mark.parametrize("n", range(1, 4))
    def test_every_small_pattern_set(self, n):
        # every set of monomials of degree n in n variables, each with
        # coefficient 1 or q: quasisymmetric or not, for every reason
        monos = [
            tuple(word.count(i) for i in range(1, n + 1))
            for word in itertools.combinations_with_replacement(range(1, n + 1), n)
        ]
        rng = random.Random(n)
        for mask in range(1 << len(monos)):
            chosen = [m for i, m in enumerate(monos) if mask >> i & 1]
            q_marked = {m for m in chosen if rng.random() < 0.1}
            p = SparsePoly(n, {m: QT.term(1, qexp=1) if m in q_marked else 1 for m in chosen})
            assert_qs_agree(p)

    def test_inhomogeneous_is_reported_first(self):
        # not quasisymmetric (x1^2 without x2^2, x1 without x2) and not homogeneous
        p = SparsePoly(2, {(2, 0): 1, (1, 0): 1})
        for grouping in (monomial_qs_coefficients, reference_monomial_qs_coefficients):
            with pytest.raises(ValueError, match="not homogeneous"):
                grouping(p)

    def test_constant(self):
        assert monomial_qs_coefficients(SparsePoly(3, {(0, 0, 0): 5})) == {(): QT.integer(5)}
        assert monomial_qs_coefficients(SparsePoly(3)) == {}


# The constructors' integer rule: a bool key entry, coefficient or space
# attribute is stored as its int value, so what the writers print the
# readers take back.

def int_or_bool(n: int):
    """n, or for 0 and 1 possibly the bool of the same value."""
    return st.sampled_from([n, bool(n)]) if n in (0, 1) else st.just(n)


def mixed(values):
    return st.tuples(*map(int_or_bool, values))


@st.composite
def mixed_qts(draw) -> QT:
    terms = draw(st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                                 st.integers(-2, 2), max_size=3))
    return QT({draw(mixed(key)): draw(int_or_bool(c)) for key, c in terms.items()})


MIXED_COEFFS = st.integers(-2, 2).flatmap(int_or_bool) | mixed_qts()


def is_plain_qt(value: QT) -> bool:
    return all(type(n) is int for (qe, te), c in value.terms() for n in (qe, te, c))


def is_plain_map(value) -> bool:
    """Whether every key entry of a SparsePoly or Expansion is an int and
    every coefficient a QT of ints."""
    return all(
        all(type(n) is int for n in key) and is_plain_qt(c) for key, c in value.terms()
    )


def json_round_trip(doc):
    return json.loads(json.dumps(doc))


class TestIntRule:
    @settings(max_examples=100, deadline=None)
    @given(value=mixed_qts())
    def test_qt(self, value):
        assert is_plain_qt(value)
        assert QT.from_triples(json_round_trip(value.triples())) == value

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_sparse_poly(self, data):
        n = data.draw(st.integers(0, 3))
        terms = data.draw(st.dictionaries(st.tuples(*[st.integers(0, 2)] * n),
                                          MIXED_COEFFS, max_size=4))
        p = SparsePoly(data.draw(int_or_bool(n)),
                       {data.draw(mixed(exps)): c for exps, c in terms.items()})
        assert type(p.nvars) is int and is_plain_map(p)
        assert SparsePoly.from_json_dict(json_round_trip(p.to_json_dict())) == p

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_expansion(self, data):
        basis = data.draw(st.sampled_from(["F", "M", "s"]))
        n = data.draw(st.integers(0, 4))
        if n == 0:
            indices = [()]
        else:
            indices = list(partitions_of(n) if basis == "s" else compositions_of(n))
        chosen = data.draw(st.lists(st.sampled_from(indices), unique=True, max_size=4))
        terms = {data.draw(mixed(index)): data.draw(MIXED_COEFFS) for index in chosen}
        e = Expansion(basis, data.draw(int_or_bool(n)), terms)
        assert type(e.degree) is int and is_plain_map(e)
        assert Expansion.from_json_dict(json_round_trip(e.to_json_dict())) == e
