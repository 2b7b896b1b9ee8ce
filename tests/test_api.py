"""The package's public names: exactly the documented API, with the test-only
oracles and the deleted division stack absent."""

import quasischur

PUBLIC = [
    "Composition",
    "Partition",
    "WeakComposition",
    "composition_of_set",
    "compositions_of",
    "pad",
    "partitions_of",
    "rsk_shape",
    "set_of_composition",
    "FIXED_POINT",
    "ConstrainedMonomial",
    "FixedPoint",
    "VerificationReport",
    "constrained_monomials",
    "elw_to_schur",
    "involution",
    "verify_involution",
    "ExperimentReport",
    "Filling",
    "hl_fundamental_expansion",
    "hll_expansion",
    "inv_zero_fillings",
    "is_schur_positive",
    "leftover_experiment",
    "maj_stat",
    "pides",
    "symmetry_check",
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

DELETED = ["exact_divide", "vandermonde", "schur_bialternant", "ExactDivisionError"]


def test_all_is_the_documented_api():
    assert quasischur.__all__ == PUBLIC


def test_every_public_name_resolves():
    for name in quasischur.__all__:
        assert getattr(quasischur, name) is not None, name


def test_division_stack_is_gone():
    for name in DELETED:
        assert not hasattr(quasischur, name), name
    assert not hasattr(quasischur.polynomial, "exact_divide")
    assert not hasattr(quasischur.schur, "schur_bialternant")
