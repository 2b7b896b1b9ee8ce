"""The package's public names: exactly the documented API, with the test-only
oracles, the deleted division stack, the deleted involution wrapper types,
the filling statistics and composition enumerators that moved to the tests,
and the coefficient constructors and readers that only the tests used,
absent."""

import quasischur

PUBLIC = [
    "Composition",
    "Partition",
    "WeakComposition",
    "pad",
    "partitions_of",
    "rsk_shape",
    "set_of_composition",
    "VerificationReport",
    "constrained_monomials",
    "elw_to_schur",
    "involution",
    "verify_involution",
    "ExperimentReport",
    "hl_fundamental_expansion",
    "hll_expansion",
    "inv_zero_fillings",
    "is_schur_positive",
    "leftover_experiment",
    "QT",
    "SparsePoly",
    "Expansion",
    "extract_f_expansion",
    "fundamental",
    "is_symmetric_expansion",
    "SignedSchur",
    "schur_ssyt",
    "straighten",
]

DELETED = [
    "exact_divide",
    "vandermonde",
    "schur_bialternant",
    "ExactDivisionError",
    "FIXED_POINT",
    "ConstrainedMonomial",
    "FixedPoint",
    "Filling",
    "maj_stat",
    "pides",
]

# code only the tests use: free functions and constants in tests/oracles.py,
# or gone where the tests build the value through what the package keeps
MOVED = {
    quasischur: ["symmetry_check", "compositions_of", "composition_of_set"],
    quasischur.hall_littlewood: ["symmetry_check", "Filling", "maj_stat", "pides"],
    quasischur.combinatorics: [
        "inverse_permutation", "descent_set", "compositions_of", "composition_of_set"
    ],
    quasischur.SparsePoly: [
        "scalar_mul", "monomial", "variable", "zero", "one", "__mul__", "__rmul__"
    ],
    quasischur.polynomial: ["Q", "T"],
    quasischur.quasisym: ["monomial_qs_coefficients"],
    quasischur.polynomial._SparseMap: ["_product"],
    quasischur.QT: ["term", "from_triples"],
    quasischur.Expansion: ["coefficient"],
}


def test_all_is_the_documented_api():
    assert quasischur.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in quasischur.__all__:
        assert getattr(quasischur, name) is not None, name


def test_division_stack_is_gone():
    for name in DELETED:
        assert not hasattr(quasischur, name), name
        assert not hasattr(quasischur.elw, name), name
    assert not hasattr(quasischur.polynomial, "exact_divide")
    assert not hasattr(quasischur.schur, "schur_bialternant")


def test_test_only_code_is_gone():
    for owner, names in MOVED.items():
        for name in names:
            assert not hasattr(owner, name), (owner.__name__, name)
