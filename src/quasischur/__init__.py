"""Exact conversion of quasisymmetric F-expansions into Schur expansions,
with an executable sign-reversing involution and a modified Hall-Littlewood
application."""

from .combinatorics import (
    Composition,
    Partition,
    WeakComposition,
    pad,
    partitions_of,
    rsk_shape,
    set_of_composition,
)
from .elw import (
    VerificationReport,
    constrained_monomials,
    elw_to_schur,
    involution,
    verify_involution,
)
from .hall_littlewood import (
    ExperimentReport,
    hl_fundamental_expansion,
    hll_expansion,
    inv_zero_fillings,
    is_schur_positive,
    leftover_experiment,
)
from .polynomial import QT, SparsePoly
from .quasisym import (
    Expansion,
    extract_f_expansion,
    fundamental,
    is_symmetric_expansion,
)
from .schur import SignedSchur, schur_ssyt, straighten

__version__ = "0.1.0"

__all__ = [
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
