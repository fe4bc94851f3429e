"""Exact-at-desk-scale computation in finite-dimensional model spaces.

Finite Blaschke products, their Clark bases, truncated multiplication
(Toeplitz-type) operators between two model spaces, membership tests for the
operator class, witness recovery, and the complete rank-one classification.
"""

from .blaschke import (BlaschkeProduct, ClarkPointSet, PoleProximityError,
                       RootCollisionError, ToleranceBreakdown, evaluate,
                       mobius_target, monomial)
from .config import DEFAULT, Tolerances
from .membership import (ClarkDissent, ClarkPairing, IndeterminateError,
                         MembershipVerdict, MethodDisagreement, Witness,
                         clark_pairing, match_clark_points,
                         recover_chi_psi_clark, run_all,
                         shift_domain_basis, test_clark_recurrence,
                         test_conjugate_residual, test_rank_two_residual,
                         test_shift_invariance)
from .modelspace import (ModelBasis, ModelVector, QuadratureError,
                         boundary_solve, build_basis, change_of_basis,
                         circle_nodes, clark_basis, clark_points, conj_kernel,
                         conjugation, inner_product, kernel, multiply_by_z,
                         project, tm_values, tm_vector)
from .operators import (IDENTITY_SYMBOL, OperatorMatrix, RationalSymbol,
                        SymbolSpec, atto_matrix, clark_coefficient,
                        clark_unitary, compressed_shift, conjugate_operator,
                        modified_shift, rank_one, standard_rank_one,
                        symbol_family, symbol_span_dimension)
from .rankone import (RankOneDecomposition, VectorClassification,
                      boundary_kernel_identity_check, classify_vector,
                      decompose_rank_one, example_4_1, example_4_1_candidates)

__version__ = "0.1.0"
