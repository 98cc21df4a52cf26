"""Exact-arithmetic analysis of hypergeometric monodromy pairs.

A pair of monic coprime integer polynomials f, g of equal degree with
f(0) = -1 and g(0) = 1 generates a reflection group through its companion
matrices.  This package constructs the group, computes the invariant
quadratic form from remainder coefficients and certifies it against the
generators, certifies its rational isotropy rank, and hunts for the
unipotent elements that witness arithmeticity.  Everything is computed
over Z, with Q only for values that are not integers; no floats
anywhere.
"""
from .monodromy import (HyperPair, PairType, PairValidationError, build_pair,
                        classify_type, companion, scalar_shift)
from .padding import PaddedPair, embed_vector, isometry_check, pad_pair, \
    remainder_coeff_check
from .parsing import PolyParseError, parse_poly
from .polynomials import (CycloFactorization, IntPoly, cyclo_factor,
                          cyclotomic, render, root_arguments)
from .quadform import (Obstruction, OracleMismatchError, QuadSpace,
                       RankCertificate, anisotropy_certificate,
                       invariant_space, q_rank, signature, signature_interlace,
                       witt_decompose)
from .witness import (GroupElement, WitnessReport, arithmeticity_report,
                      in_unipotent_radical, reflection_matrix,
                      span_rank_witness)

__version__ = "0.1.0"

__all__ = [
    "CycloFactorization", "GroupElement", "HyperPair", "IntPoly",
    "Obstruction", "OracleMismatchError", "PaddedPair",
    "PairType", "PairValidationError", "PolyParseError", "QuadSpace",
    "RankCertificate", "WitnessReport", "anisotropy_certificate",
    "arithmeticity_report", "build_pair", "classify_type", "companion",
    "cyclo_factor", "cyclotomic", "embed_vector", "in_unipotent_radical",
    "invariant_space", "isometry_check", "pad_pair",
    "parse_poly", "q_rank", "reflection_matrix", "remainder_coeff_check",
    "render", "root_arguments", "scalar_shift", "signature",
    "signature_interlace", "span_rank_witness", "witt_decompose",
]
