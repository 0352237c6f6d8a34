"""Exact computational toolkit for standard Artinian Gorenstein algebras.

Construct algebras from a single form (annihilator presentation) or from a
regular sequence, probe weak and strong Lefschetz properties with exact
certificates, compute symbolic hessians, and verify power/kernel identities
on sampled incidence pairs.  All arithmetic is exact (rationals or prime
fields); all randomized operations are seeded and reproducible.
"""

from .algebra import (AlgebraElement, AlgebraError, DegreeOverflowError,
                      GradedAlgebra, NotRegularSequence, from_inverse_system,
                      from_regular_sequence)
from .apolarity import annihilator_piece, catalecticant, contract, is_cone
from .exactla import Matrix, MatrixError, det_ff
from .gnlab import (DegenerateAlgebra, DegeneratePair, ExperimentReport,
                    GammaSample, SLPEvidence, check_ggn, check_k1_bound,
                    check_ker_coker, degenerate_pair_search, gn_map_check,
                    perazzo_algebra, perazzo_fixture, perazzo_form,
                    sample_gamma, tangent_kernel_check, theorem_c_experiment)
from .lefschetz import (HessianReport, ProbeReport, SLP, WLP, hessian,
                        hessian_slp_crosscheck, lefschetz_probe)
from .polyring import (FieldMismatchError, FieldSpec, PolyError,
                       PolyParseError, Polynomial, RATIONAL, monomial_basis,
                       parse_poly)
from .seeding import DEFAULT_SEED

__version__ = "0.1.0"

__all__ = [
    "AlgebraElement", "AlgebraError", "DEFAULT_SEED",
    "DegenerateAlgebra", "DegeneratePair", "DegreeOverflowError",
    "ExperimentReport", "FieldMismatchError", "FieldSpec", "GammaSample",
    "GradedAlgebra", "HessianReport", "Matrix", "MatrixError",
    "NotRegularSequence", "PolyError", "PolyParseError",
    "Polynomial", "ProbeReport", "RATIONAL", "SLP", "SLPEvidence", "WLP",
    "annihilator_piece", "catalecticant", "check_ggn", "check_k1_bound",
    "check_ker_coker", "contract", "degenerate_pair_search",
    "det_ff", "from_inverse_system", "from_regular_sequence",
    "gn_map_check", "hessian", "hessian_slp_crosscheck", "is_cone",
    "lefschetz_probe", "monomial_basis", "parse_poly", "perazzo_algebra",
    "perazzo_fixture", "perazzo_form",
    "sample_gamma", "tangent_kernel_check", "theorem_c_experiment",
]
