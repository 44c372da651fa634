"""Exact computations with the differential-form complex of a homogeneous
polynomial system: hypothesis certificates, bigraded cohomology dimensions,
the wedge-division check of `verify --m-max`, and the closed-form Hilbert
series of the primitive dimension table.
"""
from .certify import (Certificate, ideal_membership, jacobian_determinant,
                      jacobian_minors, m_primary_certificate,
                      no_common_zero_certificate, smooth_ci_certificate)
from .errors import (CertificateRequired, HypothesisViolation, InputError,
                     JacringError, SliceMismatch)
from .fields import PrimeField, Rationals
from .forms import (DiffForm, SliceLayout, assemble, basis, boundary, dF_of,
                    df_form, xi)
from .hilbert import (HodgeTable, Poly, closed_form_H, euler_series,
                      eulerian_p, hodge_table, omega_slice_dim,
                      symmetry_check)
from .homology import (MODE_CI, MODE_NCZ, Check, VerificationReport,
                       boundary_matrix, cohomology_dim, cohomology_report,
                       joint_wedge_kernel, verify_predictions,
                       wedge_division_solve)
from .linalg import SparseMatrix, in_column_span, kernel_basis, rank
from .polynomials import MultiPoly, monomials_of_degree, parse_poly
from .problem import ProblemInput, problem_from_strings
from .quotients import QuotientSlice, quotient_dim, quotient_slice

__version__ = "0.1.0"

__all__ = [
    "Certificate", "CertificateRequired", "Check",
    "DiffForm", "HodgeTable", "HypothesisViolation", "InputError",
    "JacringError", "MODE_CI", "MODE_NCZ", "MultiPoly", "Poly", "PrimeField",
    "ProblemInput", "QuotientSlice", "Rationals", "SliceLayout",
    "SliceMismatch", "SparseMatrix", "VerificationReport",
    "assemble", "basis", "boundary", "boundary_matrix",
    "closed_form_H", "cohomology_dim", "cohomology_report",
    "dF_of", "df_form", "euler_series", "eulerian_p",
    "hodge_table", "ideal_membership", "in_column_span",
    "jacobian_determinant", "jacobian_minors",
    "joint_wedge_kernel", "kernel_basis",
    "m_primary_certificate", "monomials_of_degree",
    "no_common_zero_certificate", "omega_slice_dim", "parse_poly",
    "problem_from_strings", "quotient_dim",
    "quotient_slice", "rank",
    "smooth_ci_certificate", "symmetry_check", "verify_predictions",
    "wedge_division_solve", "xi",
]
