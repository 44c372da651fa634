"""Graded slices of quotients K[x]/(gens), no Groebner bases.

In a fixed degree N the ideal is spanned by the rows m*g of the Macaulay
matrix, one for each generator g and monomial m with deg(m*g) = N. The
dimension of the quotient slice is the number of degree-N monomials minus
the rank of that matrix, taken by the sparse rank engines of `linalg` with
no row reduction. `quotient_slice` row reduces the same rows once, exactly
at every prime: the non-pivot monomials form a basis of the slice, and the
reduced pivot rows give each pivot monomial's normal form, which wedge
division needs.
"""
from __future__ import annotations

from .errors import InputError
from .linalg import SparseMatrix, rank, rref_rows
from .polynomials import MultiPoly, monomials_of_degree


class QuotientSlice:
    """Degree-N slice of K[x1..xn]/(gens)."""

    __slots__ = ("field", "nvars", "degree", "monomials", "index",
                 "pivots", "rows", "complement", "_pivot_forms")

    def __init__(self, field, nvars, degree, monomials, pivots, rows):
        self.field = field
        self.nvars = nvars
        self.degree = degree
        self.monomials = monomials
        self.index = {m: i for i, m in enumerate(monomials)}
        self.pivots = pivots
        self.rows = rows
        pivset = set(pivots)
        self.complement = [m for i, m in enumerate(monomials) if i not in pivset]
        self._pivot_forms = None

    def pivot_normal_forms(self) -> dict:
        """Normal form of each pivot monomial as (complement monomial,
        coefficient) pairs: minus its reduced row on the complement. A
        complement monomial is its own normal form. Built on first use."""
        if self._pivot_forms is None:
            f = self.field
            cols = [(self.index[m], m) for m in self.complement]
            self._pivot_forms = {
                self.monomials[pc]: [(m, f.neg(f.of(row[j]))) for j, m in cols
                                     if not f.is_zero(row[j])]
                for pc, row in zip(self.pivots, self.rows)}
        return self._pivot_forms


def check_generators(gens: list[MultiPoly]) -> None:
    """Raise InputError unless gens are nonzero homogeneous polynomials of
    one polynomial ring, at least one of them."""
    if not gens:
        raise InputError("need at least one generator")
    f0 = gens[0].field
    n0 = gens[0].nvars
    for g in gens:
        if g.field != f0 or g.nvars != n0:
            raise InputError("generators must live in one polynomial ring")
        if g.is_zero():
            raise InputError("generators must be nonzero")
        if g.homogeneous_degree() is None:
            raise InputError("generators must be homogeneous")


def _macaulay_matrix(gens: list[MultiPoly],
                     degree: int) -> tuple[list, SparseMatrix]:
    """The Macaulay matrix of (gens) in one degree: the degree's monomials,
    one per column, and the sparse matrix with one row per product m*g of a
    monomial m and a generator g with deg(m*g) = degree."""
    check_generators(gens)
    nvars = gens[0].nvars
    monomials = monomials_of_degree(nvars, degree)
    index = {m: i for i, m in enumerate(monomials)}
    products = [(m, g) for g in gens for m in
                monomials_of_degree(nvars, degree - g.homogeneous_degree())]
    mat = SparseMatrix(len(products), len(index), gens[0].field)
    mat.rows = [{index[tuple(a + b for a, b in zip(m, exp))]: c
                 for exp, c in g.terms.items()} for m, g in products]
    return monomials, mat


def quotient_slice(gens: list[MultiPoly], degree: int) -> QuotientSlice:
    """Row-reduce the degree-`degree` slice of the ideal (gens)."""
    monomials, mat = _macaulay_matrix(gens, degree)
    pivots, red = rref_rows(mat.to_dense_rows(), mat.field)
    return QuotientSlice(mat.field, gens[0].nvars, degree, monomials, pivots,
                         red)


def quotient_dim(gens: list[MultiPoly], degree: int) -> int:
    """Hilbert-function value of K[x]/(gens) at the given degree: the
    number of monomials minus the rank of the Macaulay matrix."""
    if degree < 0:
        return 0
    monomials, mat = _macaulay_matrix(gens, degree)
    return len(monomials) - rank(mat)
