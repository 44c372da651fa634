"""Problem statement: a homogeneous polynomial system over an exact field.

The bigrading used everywhere downstream: the x-variables and their
differentials have weight (1, 0); the auxiliary y-variable attached to the
j-th polynomial and its differential have weight (-d_j, 1).
"""
from __future__ import annotations

import hashlib
from typing import NamedTuple

from .errors import InputError
from .polynomials import MultiPoly, grlex_key


class Bidegree(NamedTuple):
    q: int
    p: int


class ProblemInput:
    """n x-variables, r homogeneous polynomials f_j of degrees d_j >= 1."""

    __slots__ = ("field", "n", "r", "degrees", "polys", "partials", "_cache")

    def __init__(self, field, polys):
        polys = tuple(polys)
        if not polys:
            raise InputError("need at least one polynomial")
        n = polys[0].nvars
        if n < 1:
            raise InputError("need at least one variable")
        degrees = []
        for f in polys:
            if f.field != field or f.nvars != n:
                raise InputError("polynomials live in different rings")
            d = f.homogeneous_degree()
            if d is None:
                raise InputError(f"polynomial {f!r} is zero or not homogeneous")
            if d < 1:
                raise InputError("constant polynomials are not allowed")
            degrees.append(d)
        self.field = field
        self.n = n
        self.r = len(polys)
        self.degrees = tuple(degrees)
        self.polys = polys
        self.partials = tuple(
            tuple(f.partial_derivative(i) for i in range(n)) for f in polys
        )
        self._cache = {}

    def bidegree_of(self, xexp, yexp, dxs, dys) -> Bidegree:
        d = self.degrees
        q = (sum(xexp) - sum(b * d[j] for j, b in enumerate(yexp))
             + len(dxs) - sum(d[j] for j in dys))
        p = sum(yexp) + len(dys)
        return Bidegree(q, p)

    def degree_product_in_field(self):
        c = self.field.one
        for d in self.degrees:
            c = self.field.mul(c, self.field.of(d))
        return c

    def canonical_text(self) -> str:
        lines = [f"field {self.field!r}", f"n {self.n}", f"r {self.r}",
                 "degrees " + " ".join(map(str, self.degrees))]
        for f in self.polys:
            terms = [f"{exp}:{f.terms[exp]}" for exp in sorted(f.terms, key=grlex_key)]
            lines.append("poly " + ";".join(terms))
        return "\n".join(lines)

    @property
    def input_hash(self) -> str:
        h = self._cache.get("hash")
        if h is None:
            h = hashlib.sha256(self.canonical_text().encode()).hexdigest()
            self._cache["hash"] = h
        return h

    def __eq__(self, other):
        return (isinstance(other, ProblemInput)
                and self.field == other.field
                and self.polys == other.polys)

    def __hash__(self):
        return hash((self.field, self.polys))

    def __repr__(self):
        return (f"ProblemInput(field={self.field!r}, n={self.n}, r={self.r}, "
                f"degrees={self.degrees})")


def problem_from_strings(field, names, exprs) -> ProblemInput:
    """Build a problem from variable names and polynomial expression
    strings (used by tests and the CLI)."""
    from .polynomials import parse_poly
    if isinstance(names, int):
        names = [f"x{i+1}" for i in range(names)]
    polys = [parse_poly(field, names, e) for e in exprs]
    return ProblemInput(field, polys)
