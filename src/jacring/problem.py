"""Problem statement: a homogeneous polynomial system over an exact field.

The bigrading used everywhere downstream: the x-variables and their
differentials have weight (1, 0); the auxiliary y-variable attached to the
j-th polynomial and its differential have weight (-d_j, 1). `slice_blocks`
is the one place that turns it into the terms of a (k, q, p) slice: the
slice bases of `forms` and the count of `hilbert.omega_slice_dim` read it,
and cohomology takes each slice's size from that count.
"""
from __future__ import annotations

import hashlib
from itertools import combinations

from .errors import InputError
from .polynomials import grlex_key, monomials_of_degree, parse_poly


def slice_blocks(n: int, degrees, k: int, q: int, p: int):
    """The blocks of the (k, q, p) slice of the forms x^a y^b dx_I dy_J in
    n x-variables, one y per degree: yields (l, J, b, xdeg) for each dy word
    J and y exponent b with sum(b) + |J| = p whose first grading q forces
    sum(a) = xdeg >= 0, l = |I| = k - |J|. Each dx word of length l and
    x-monomial of degree xdeg complete a term. Ordered by |J|, J, b."""
    r = len(degrees)
    for m in range(max(0, k - n), min(k, r) + 1):
        for dys in combinations(range(r), m):
            dy_weight = sum(degrees[j] for j in dys)
            for yexp in monomials_of_degree(r, p - m):
                xdeg = (q + sum(b * d for b, d in zip(yexp, degrees))
                        + dy_weight - (k - m))
                if xdeg >= 0:
                    yield k - m, dys, yexp, xdeg


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

    def memo(self, key, build, *args):
        """The value cached on the problem under key, built as build(*args)
        when the key is missing; a cached None counts as a hit."""
        cache = self._cache
        if key not in cache:
            cache[key] = build(*args)
        return cache[key]

    def canonical_text(self) -> str:
        lines = [f"field {self.field!r}", f"n {self.n}", f"r {self.r}",
                 "degrees " + " ".join(map(str, self.degrees))]
        for f in self.polys:
            terms = [f"{exp}:{f.terms[exp]}" for exp in sorted(f.terms, key=grlex_key)]
            lines.append("poly " + ";".join(terms))
        return "\n".join(lines)

    @property
    def input_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()

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
    """Build a problem from variable names (or their count n, for
    x1..xn) and polynomial expression strings (used by the tests and the
    README's library example)."""
    if isinstance(names, int):
        names = [f"x{i+1}" for i in range(names)]
    polys = [parse_poly(field, names, e) for e in exprs]
    return ProblemInput(field, polys)
