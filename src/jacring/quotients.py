"""Graded slices of quotients K[x]/(gens) by normal forms, no Groebner bases.

For a fixed degree N the span of {m*g : g in gens, deg(m*g) = N} is row
reduced once; the non-pivot monomials form a basis of the quotient slice and
arbitrary degree-N polynomials reduce to it by a single elimination pass.
"""
from __future__ import annotations

from .errors import InputError
from .linalg import rref_rows
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

    @property
    def dim(self) -> int:
        """Dimension of the quotient slice."""
        return len(self.complement)

    def vector_of(self, poly: MultiPoly) -> list:
        f = self.field
        v = [f.zero] * len(self.monomials)
        for exp, c in poly.terms.items():
            if sum(exp) != self.degree:
                raise InputError(f"term of degree {sum(exp)} in degree-{self.degree} slice")
            v[self.index[exp]] = c
        return v

    def normal_form_vector(self, v: list) -> list:
        """Reduce a coefficient vector modulo the ideal slice; the result is
        supported on the complement monomials."""
        f = self.field
        v = list(v)
        for row, pc in zip(self.rows, self.pivots):
            c = v[pc]
            if f.is_zero(c):
                continue
            for j, w in enumerate(row):
                if not f.is_zero(w):
                    v[j] = f.sub(v[j], f.mul(c, f.of(w)))
        return v

    def normal_form(self, poly: MultiPoly) -> MultiPoly:
        v = self.normal_form_vector(self.vector_of(poly))
        return MultiPoly(self.field, self.nvars,
                         {m: v[self.index[m]] for m in self.complement})

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


def quotient_slice(gens: list[MultiPoly], degree: int) -> QuotientSlice:
    """Row-reduce the degree-`degree` slice of the ideal (gens)."""
    check_generators(gens)
    field = gens[0].field
    nvars = gens[0].nvars
    monomials = monomials_of_degree(nvars, degree)
    index = {m: i for i, m in enumerate(monomials)}
    rows = []
    z = field.zero
    for g in gens:
        d = g.homogeneous_degree()
        if d > degree:
            continue
        for m in monomials_of_degree(nvars, degree - d):
            row = [z] * len(monomials)
            for exp, c in g.terms.items():
                prod = tuple(a + b for a, b in zip(m, exp))
                row[index[prod]] = c
            rows.append(row)
    pivots, red = rref_rows(rows, field)
    return QuotientSlice(field, nvars, degree, monomials, pivots, red)


def quotient_dim(gens: list[MultiPoly], degree: int) -> int:
    """Hilbert-function value of K[x]/(gens) at the given degree."""
    if degree < 0:
        return 0
    return quotient_slice(gens, degree).dim
