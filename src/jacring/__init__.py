"""Exact computations with the differential-form complex of a homogeneous
polynomial system: hypothesis certificates, bigraded cohomology dimensions,
wedge-division solvers, and the closed-form Hilbert series of the primitive
dimension table.
"""
from .certify import (Certificate, ideal_membership, jacobian_determinant,
                      jacobian_minors, m_primary_certificate,
                      no_common_zero_certificate, smooth_ci_certificate)
from .errors import (CertificateRequired, HypothesisViolation, InputError,
                     JacringError, SliceMismatch)
from .fields import PrimeField, Rationals
from .forms import (BasisSlice, DiffForm, assemble, basis, boundary, dF_of,
                    df_form, theta, theta_matrix, theta_preimage, xi)
from .hilbert import (HodgeTable, Poly, H_at_one, closed_form_H, coeff_a,
                      euler_series, eulerian_p, g_poly, hodge_table,
                      omega_slice_dim, product_hilbert_series, symmetry_check)
from .homology import (MODE_CI, MODE_NCZ, Check, VerificationReport,
                       WedgeDivisionSolution, boundary_matrix, cohomology_dim,
                       cohomology_report, joint_wedge_kernel,
                       koszul_cohomology_dim, reduce_form_mod_ideal,
                       verify_predictions, wedge_division_solve)
from .linalg import SparseMatrix, in_column_span, kernel_basis, rank, solve
from .polynomials import MultiPoly, monomials_of_degree, parse_poly
from .problem import Bidegree, ProblemInput, problem_from_strings
from .quotients import QuotientSlice, quotient_dim, quotient_slice

__version__ = "0.1.0"

__all__ = [
    "Bidegree", "BasisSlice", "Certificate", "CertificateRequired", "Check",
    "DiffForm", "HodgeTable", "HypothesisViolation", "InputError",
    "JacringError", "MODE_CI", "MODE_NCZ", "MultiPoly", "Poly", "PrimeField",
    "ProblemInput", "QuotientSlice", "Rationals", "SliceMismatch",
    "SparseMatrix", "VerificationReport", "WedgeDivisionSolution",
    "H_at_one", "assemble", "basis", "boundary", "boundary_matrix",
    "closed_form_H", "coeff_a", "cohomology_dim", "cohomology_report",
    "dF_of", "df_form", "euler_series", "eulerian_p", "g_poly",
    "hodge_table", "ideal_membership", "in_column_span",
    "jacobian_determinant", "jacobian_minors",
    "joint_wedge_kernel", "kernel_basis", "koszul_cohomology_dim",
    "m_primary_certificate", "monomials_of_degree",
    "no_common_zero_certificate", "omega_slice_dim", "parse_poly",
    "problem_from_strings", "product_hilbert_series", "quotient_dim",
    "quotient_slice", "rank", "reduce_form_mod_ideal",
    "smooth_ci_certificate", "solve", "symmetry_check", "theta",
    "theta_matrix", "theta_preimage", "verify_predictions",
    "wedge_division_solve", "xi",
]
