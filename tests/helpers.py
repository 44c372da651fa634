"""Shared fixtures: the fixed input systems used across the suite and
seeded random generators for forms and polynomial systems."""
from __future__ import annotations

import random
from itertools import combinations

from jacring.errors import InputError, SliceMismatch
from jacring.fields import PrimeField, Rationals
from jacring.forms import BasisSlice, DiffForm
from jacring.linalg import SparseMatrix
from jacring.polynomials import MultiPoly, monomials_of_degree, parse_poly
from jacring.problem import ProblemInput, problem_from_strings

Q = Rationals()
F2 = PrimeField(2)
F3 = PrimeField(3)
F7 = PrimeField(7)
F32003 = PrimeField(32003)


def fermat_cubic(field=Q) -> ProblemInput:
    """n=3, r=1, d=3: the Fermat cubic curve."""
    return problem_from_strings(field, 3, ["x1^3 + x2^3 + x3^3"])


def fermat_quintic(field=F32003) -> ProblemInput:
    """n=5, r=1, d=5: the Fermat quintic threefold."""
    return problem_from_strings(
        field, 5, ["x1^5 + x2^5 + x3^5 + x4^5 + x5^5"])


def two_quadrics(field=Q) -> ProblemInput:
    """n=4, r=2: a smooth intersection of two quadrics in P^3."""
    return problem_from_strings(field, 4, [
        "x1^2 + x2^2 + x3^2 + x4^2",
        "x1^2 + 2*x2^2 + 3*x3^2 + 4*x4^2",
    ])


def two_conics(field=Q) -> ProblemInput:
    """n=3, r=2 = n-1: two smooth conics meeting in four points."""
    return problem_from_strings(field, 3, [
        "x1^2 + x2^2 - x3^2",
        "x1^2 - x2^2",
    ])


def square_pair(field=Q) -> ProblemInput:
    """n=2, r=2: f = (x1^2, x2^2), no common zero away from the origin."""
    return problem_from_strings(field, 2, ["x1^2", "x2^2"])


def conic_char2() -> ProblemInput:
    """n=3, r=1 over F_2: the smooth conic x1x2 + x3^2; n+r even and
    d = 2 = 0 in F_2, the exceptional configuration."""
    return problem_from_strings(F2, 3, ["x1*x2 + x3^2"])


def exceptional_pair_char2() -> ProblemInput:
    """n=4, r=2 over F_2, degrees (2,1): product of degrees = 0 in F_2 and
    n+r = 6 even."""
    return problem_from_strings(F2, 4, ["x1*x2 + x3^2", "x4"])


def singular_cubic_curve() -> ProblemInput:
    """n=3, r=1: f = x1·x2·x3 is singular, so no smooth-CI certificate."""
    return problem_from_strings(Q, 3, ["x1*x2*x3"])


def sympy_quotient_dim(gens, degree):
    """Oracle: count standard monomials of a Groebner basis in one degree."""
    import pytest
    sympy = pytest.importorskip("sympy")
    names = sympy.symbols(f"x1:{gens[0].nvars + 1}")
    polys = []
    for g in gens:
        expr = sympy.Integer(0)
        for exp, c in g.terms.items():
            term = sympy.Rational(c) if g.field.kind == "Q" else sympy.Integer(int(c))
            for x, e in zip(names, exp):
                term *= x**e
            expr += term
        polys.append(expr)
    modulus = {} if gens[0].field.kind == "Q" else {"modulus": gens[0].field.p}
    gb = sympy.groebner(polys, *names, order="grevlex", **modulus)
    lead_exps = [sympy.Poly(p, *names, **modulus).monoms(order="grevlex")[0]
                 for p in gb.exprs]

    def divisible(m, l):
        return all(a >= b for a, b in zip(m, l))

    count = 0
    for m in monomials_of_degree(gens[0].nvars, degree):
        if not any(divisible(m, l) for l in lead_exps):
            count += 1
    return count


def slice_vector(qs, poly: MultiPoly) -> list:
    """Coefficient vector of a degree-N polynomial over the monomials of a
    degree-N QuotientSlice; a term of another degree raises InputError."""
    f = qs.field
    v = [f.zero] * len(qs.monomials)
    for exp, c in poly.terms.items():
        if sum(exp) != qs.degree:
            raise InputError(f"term of degree {sum(exp)} in degree-{qs.degree} slice")
        v[qs.index[exp]] = c
    return v


def normal_form_vector(qs, v: list) -> list:
    """Oracle: reduce a coefficient vector modulo the ideal slice by the
    row-reduced pivot rows of a QuotientSlice; the result is supported on
    the complement monomials."""
    f = qs.field
    v = list(v)
    for row, pc in zip(qs.rows, qs.pivots):
        c = v[pc]
        if f.is_zero(c):
            continue
        for j, w in enumerate(row):
            if not f.is_zero(w):
                v[j] = f.sub(v[j], f.mul(c, f.of(w)))
    return v


def normal_form(qs, poly: MultiPoly) -> MultiPoly:
    """Oracle: the normal form of a degree-N polynomial in a QuotientSlice,
    on the complement monomials."""
    v = normal_form_vector(qs, slice_vector(qs, poly))
    return MultiPoly(qs.field, qs.nvars,
                     {m: v[qs.index[m]] for m in qs.complement})


def random_homogeneous(rng: random.Random, field, nvars: int, degree: int) -> MultiPoly:
    """A random nonzero homogeneous polynomial with small coefficients."""
    monos = monomials_of_degree(nvars, degree)
    while True:
        terms = {}
        for exp in monos:
            if rng.random() < 0.6:
                c = rng.randint(-3, 3)
                if c:
                    terms[exp] = c
        poly = MultiPoly(field, nvars, terms)
        if not poly.is_zero():
            return poly


def random_problem(rng: random.Random, field, n: int, r: int,
                   dmax: int = 3) -> ProblemInput:
    polys = [random_homogeneous(rng, field, n, rng.randint(1, dmax))
             for _ in range(r)]
    return ProblemInput(field, polys)


def random_form(rng: random.Random, problem: ProblemInput, k: int,
                max_terms: int = 4, max_deg: int = 2) -> DiffForm:
    """A random k-form with small exponents; may be zero."""
    n, r = problem.n, problem.r
    form = DiffForm.zero(problem, k)
    words = [(dxs, dys)
             for l in range(max(0, k - r), min(k, n) + 1)
             for dxs in combinations(range(n), l)
             for dys in combinations(range(r), k - l)]
    if not words:
        return form
    for _ in range(rng.randint(1, max_terms)):
        dxs, dys = rng.choice(words)
        xexp = tuple(rng.randint(0, max_deg) for _ in range(n))
        yexp = tuple(rng.randint(0, 1) for _ in range(r))
        c = rng.randint(-3, 3)
        if c:
            form = form + DiffForm.term(problem, xexp, yexp, dxs, dys,
                                        problem.field.of(c))
    return form


def matrix_of(op, source: BasisSlice, target: BasisSlice) -> SparseMatrix:
    """Reference oracle for the term-level assembler: the matrix of a
    form-level operator between two slice bases, one DiffForm per column.
    Column j is the image of the j-th source basis form; a term landing
    outside the target slice raises SliceMismatch."""
    prob = source.problem
    mat = SparseMatrix(target.dim, source.dim, prob.field)
    for col, key in enumerate(source.keys):
        img = op(DiffForm(prob, source.k, {key: prob.field.one}))
        for ikey, c in img.terms.items():
            row = target.index.get(ikey)
            if row is None:
                raise SliceMismatch(
                    f"image term {ikey} outside the (k={target.k}, "
                    f"q={target.q}, p={target.p}) slice")
            mat.add_at(row, col, c)
    return mat


def quotient_wedge_matrix(mult: DiffForm, source: BasisSlice,
                          target: BasisSlice) -> SparseMatrix:
    """Reference oracle for a wedge block into a quotient form space: wedge
    each source basis form with mult by DiffForm.wedge, then reduce each
    word's coefficient with normal_form_vector."""
    prob = source.problem
    f = prob.field
    qs = target.quotient
    zy = (0,) * prob.r
    mat = SparseMatrix(target.dim, source.dim, f)
    for col, key in enumerate(source.keys):
        img = mult.wedge(DiffForm(prob, source.k, {key: f.one}))
        per_word = {}
        for (xexp, _, dxs, _), c in img.terms.items():
            vec = per_word.setdefault(dxs, [f.zero] * len(qs.monomials))
            vec[qs.index[xexp]] = c
        for word, vec in per_word.items():
            red = normal_form_vector(qs, vec)
            for m in qs.complement:
                mat.add_at(target.index[(m, zy, word, ())], col,
                           red[qs.index[m]])
    return mat
