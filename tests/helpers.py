"""Shared fixtures: the fixed input systems used across the suite, seeded
random generators for forms and polynomial systems, and the reference
oracles that the production paths are cross-checked against."""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from fractions import Fraction
from itertools import combinations
from math import comb, factorial, prod
from operator import add
from typing import NamedTuple

from jacring.errors import HypothesisViolation, InputError, SliceMismatch
from jacring.fields import PrimeField, Rationals, add_term
from jacring import forms
from jacring.forms import (DiffForm, SliceLayout, _merge_words, _quotient,
                           dF_of, df_form)
from jacring.hilbert import Poly, eulerian_p
from jacring.homology import boundary_matrix
from jacring.linalg import SparseMatrix, in_column_span, rank, solve
from jacring.polynomials import MultiPoly, monomials_of_degree
from jacring.problem import ProblemInput, problem_from_strings
from jacring.quotients import check_generators, quotient_slice

Q = Rationals()
F2 = PrimeField(2)
F3 = PrimeField(3)
F7 = PrimeField(7)
F32003 = PrimeField(32003)
# the fields of the row-reduction tests: Q, small primes, primes on both
# sides of linalg._NUMPY_P_LIMIT, and two far beyond int64 products
RREF_FIELDS = [Q, F2, PrimeField(5), F32003, PrimeField(2**31 + 11),
               PrimeField(3037000493), PrimeField(2**61 - 1),
               PrimeField(2**89 - 1)]


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


@cache
def cached_problem(make) -> ProblemInput:
    """One problem per fixture maker for the whole session, so the ranks
    and multiplication tables cached on it are computed once for every test
    that reads it. A test that counts what gets built either makes its own
    problem or counts only what its own calls add."""
    return make()


def record_table_builds(monkeypatch) -> list:
    """The list that (id(problem), g, a, quotient) of every multiplication
    table `forms` builds from now on is appended to."""
    built = []
    original = forms._mult_table

    def counting(problem, g, a, quotient):
        built.append((id(problem), g, a, quotient))
        return original(problem, g, a, quotient)
    monkeypatch.setattr(forms, "_mult_table", counting)
    return built


def cached_tables(problems) -> set:
    """(id(problem), g, a, quotient) of the tables cached on the problems."""
    return {(id(problem), *key[1:]) for problem in problems
            for key in problem._cache if key[0] == "table"}


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


def macaulay_oracle(gens, degree) -> tuple[list, SparseMatrix]:
    """The Macaulay matrix as `quotients._macaulay_matrix` promises it,
    built by adding exponent tuples: one row per generator g and monomial m
    of degree `degree - deg g`, generator by generator, m in
    `monomials_of_degree` order, each row's entries in g's term order."""
    check_generators(gens)
    nvars = gens[0].nvars
    monomials = monomials_of_degree(nvars, degree)
    index = {m: i for i, m in enumerate(monomials)}
    rows = [{index[tuple(a + b for a, b in zip(m, exp))]: c
             for exp, c in g.terms.items()}
            for g in gens for m in
            monomials_of_degree(nvars, degree - g.homogeneous_degree())]
    mat = SparseMatrix(len(rows), len(monomials), gens[0].field)
    mat.rows = rows
    return monomials, mat


def monomial_index(qs) -> dict:
    """Monomial -> column of a QuotientSlice's Macaulay matrix."""
    return {m: i for i, m in enumerate(qs.monomials)}


def slice_vector(qs, poly: MultiPoly) -> list:
    """Coefficient vector of a degree-N polynomial over the monomials of a
    degree-N QuotientSlice; a term of another degree raises InputError."""
    f = qs.field
    index = monomial_index(qs)
    v = [f.zero] * len(qs.monomials)
    for exp, c in poly.terms.items():
        if sum(exp) != qs.degree:
            raise InputError(f"term of degree {sum(exp)} in degree-{qs.degree} slice")
        v[index[exp]] = c
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
        for j, w in row.items():
            v[j] = f.sub(v[j], f.mul(c, w))
    return v


def normal_form(qs, poly: MultiPoly) -> MultiPoly:
    """Oracle: the normal form of a degree-N polynomial in a QuotientSlice,
    on the complement monomials."""
    v = normal_form_vector(qs, slice_vector(qs, poly))
    index = monomial_index(qs)
    return MultiPoly(qs.field, qs.nvars,
                     {m: v[index[m]] for m in qs.complement})


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


def form_term(problem: ProblemInput, xexp, yexp, dxs, dys,
              c=1) -> DiffForm:
    """The one-term form c x^xexp y^yexp dx_dxs dy_dys; InputError when an
    exponent tuple has the wrong length or a word is not ascending."""
    xexp, yexp, dxs, dys = map(tuple, (xexp, yexp, dxs, dys))
    if len(xexp) != problem.n or len(yexp) != problem.r:
        raise InputError("exponent tuple lengths do not match the problem")
    return DiffForm(problem, len(dxs) + len(dys), {(xexp, yexp, dxs, dys): c})


def times_poly(form: DiffForm, poly: MultiPoly) -> DiffForm:
    """form multiplied by a polynomial in the x-variables."""
    return DiffForm.of_poly(form.problem, poly).wedge(form)


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
            form = form + form_term(problem, xexp, yexp, dxs, dys,
                                   problem.field.of(c))
    return form


# ---------------------------------------------------------------------------
# the key-index oracle: slices as term-key lists, and the per-term rules
# ---------------------------------------------------------------------------


def layout_keys(layout: SliceLayout) -> list:
    """The term keys (xexp, yexp, dxs, dys) of a layout in column order,
    read off its blocks."""
    return [(xexp, yexp, dxs, dys)
            for _, dys, yexp, _, _, words, monos in layout.blocks
            for dxs in words for xexp in monos]


class BasisSlice:
    """The term keys of a slice in column order, with a key -> position
    index: the key-index oracle for the coordinates of a form on a
    `SliceLayout`, and the slice of the per-term oracles. With a quotient
    slice attached, the coefficients live in K[x]/(gens) and the basis
    holds the complement monomials only; a pivot monomial's term maps to
    its normal form. A vector becomes a form by
    DiffForm(problem, k, zip(keys, vec))."""

    __slots__ = ("k", "q", "p", "keys", "index", "quotient")

    def __init__(self, k, q, p, keys, quotient=None):
        self.k, self.q, self.p = k, q, p
        self.keys = keys
        self.index = {key: i for i, key in enumerate(keys)}
        self.quotient = quotient

    @property
    def dim(self) -> int:
        return len(self.keys)

    def coords(self, key, c) -> list:
        """(position, coefficient) pairs of the term c * key; raises
        SliceMismatch for a term outside the space."""
        pos = self.index.get(key)
        if pos is not None:
            return [(pos, c)]
        xexp, yexp, dxs, dys = key
        nf = None
        if (self.quotient is not None and len(dxs) == self.k
                and not any(yexp) and not dys):
            nf = self.quotient.pivot_normal_forms().get(xexp)
        if nf is None:
            raise SliceMismatch(
                f"term {key} is not in the (k={self.k}, q={self.q}, "
                f"p={self.p}) slice")
        f = self.quotient.field
        return [(self.index[(m, yexp, dxs, dys)], f.mul(c, w)) for m, w in nf]

    def vector_of_form(self, form: DiffForm) -> list:
        f = form.problem.field
        v = [f.zero] * len(self.keys)
        for key, c in form.terms.items():
            for pos, w in self.coords(key, c):
                v[pos] = f.add(v[pos], w)
        return v

    def __repr__(self):
        return f"BasisSlice(k={self.k}, q={self.q}, p={self.p}, dim={self.dim})"


def key_basis(problem: ProblemInput, k: int, q: int, p: int) -> BasisSlice:
    """The (k, q, p) slice as the keys of its `SliceLayout`."""
    return BasisSlice(k, q, p, layout_keys(SliceLayout(problem, k, q, p)))


def quotient_basis(problem: ProblemInput, k: int, weight: int) -> BasisSlice:
    """dx-only k-forms of the given weight with coefficients in K[x]/(f),
    f the problem's polynomials: the keys of the quotient layout of the
    p = 0 slice, with that block's quotient slice attached."""
    layout = SliceLayout(problem, k, weight, 0, quotient=True)
    qs = _quotient(problem, layout.blocks[0][3]) if layout.blocks else None
    return BasisSlice(k, weight, 0, layout_keys(layout), qs)


def wedge_rule(mu_terms: dict, n: int, field):
    """Term rule of the left wedge with the form whose terms are mu_terms
    (dx letters 0..n-1): maps a term key to the (key, coefficient) pairs of
    its image. The word merge runs once per (mu word, source word) pair."""
    by_word = {}
    for (xa, ya, dxa, dya), c in mu_terms.items():
        by_word.setdefault((dxa, dya), []).append((xa, ya, c, field.neg(c)))
    merges = {}

    def rule(key):
        xb, yb, dxb, dyb = key
        merged = merges.get((dxb, dyb))
        if merged is None:
            merged = []
            for (dxa, dya), mono_terms in by_word.items():
                m = _merge_words(n, dxa, dya, dxb, dyb)
                if m is not None:
                    sign, dxs, dys = m
                    merged.append((dxs, dys, [(xa, ya, c if sign > 0 else nc)
                                              for xa, ya, c, nc in mono_terms]))
            merges[(dxb, dyb)] = merged
        for dxs, dys, mono_terms in merged:
            for xa, ya, c in mono_terms:
                yield ((tuple(map(add, xa, xb)), tuple(map(add, ya, yb)),
                        dxs, dys), c)
    return rule


def per_term_assemble(mat: SparseMatrix, rule, source: BasisSlice,
                      target: BasisSlice) -> SparseMatrix:
    """Reference oracle for `forms.assemble`, and the assembler of the
    oracles that need a general term rule: add into the rows of mat the
    matrix of the linear map with the given term rule: column j holds the
    image of the j-th source key, rule(key) yields (image key, coefficient)
    pairs, and the target maps each image term to its coordinates. An
    image term outside the target raises SliceMismatch."""
    f, rows = mat.field, mat.rows
    for col, key in enumerate(source.keys):
        for ikey, c in rule(key):
            for row, v in target.coords(ikey, c):
                add_term(rows[row], col, v, f)
    return mat


def matrix_of(prob: ProblemInput, op, source: BasisSlice,
              target: BasisSlice) -> SparseMatrix:
    """Reference oracle for both assemblers: the matrix of an operator
    between two slice bases of prob. op is a form-level operator, applied
    to one DiffForm per column, or a DiffForm mu for the left wedge with
    mu, applied to each column's key by wedge_rule(mu), which groups mu's
    terms by word once per matrix (test_forms checks the rule against
    DiffForm.wedge). Column j is the image of the j-th source basis form;
    a term landing outside the target slice raises SliceMismatch."""
    f = prob.field
    if isinstance(op, DiffForm):
        image = wedge_rule(op.terms, prob.n, f)
    else:
        def image(key):
            return op(DiffForm(prob, source.k, {key: f.one})).terms.items()
    mat = SparseMatrix(target.dim, source.dim, f)
    for col, key in enumerate(source.keys):
        for ikey, c in image(key):
            row = target.index.get(ikey)
            if row is None:
                raise SliceMismatch(
                    f"image term {ikey} outside the (k={target.k}, "
                    f"q={target.q}, p={target.p}) slice")
            mat.rows[row][col] = c   # the image's keys are distinct
    return mat


def quotient_wedge_matrix(mult: DiffForm, source: BasisSlice,
                          target: BasisSlice) -> SparseMatrix:
    """Reference oracle for a wedge block into a quotient form space: wedge
    each source basis form with mult by DiffForm.wedge, then reduce each
    word's coefficient with normal_form_vector."""
    prob = mult.problem
    f = prob.field
    qs = target.quotient
    index = monomial_index(qs)
    zy = (0,) * prob.r
    mat = SparseMatrix(target.dim, source.dim, f)
    for col, key in enumerate(source.keys):
        img = mult.wedge(DiffForm(prob, source.k, {key: f.one}))
        per_word = {}
        for (xexp, _, dxs, _), c in img.terms.items():
            vec = per_word.setdefault(dxs, [f.zero] * len(qs.monomials))
            vec[index[xexp]] = c
        for word, vec in per_word.items():
            red = normal_form_vector(qs, vec)
            for m in qs.complement:
                mat.add_at(target.index[(m, zy, word, ())], col,
                           red[index[m]])
    return mat


def reduced_boundary_oracle(problem: ProblemInput, k: int, q: int,
                            p: int) -> SparseMatrix:
    """Oracle for boundary_matrix(problem, k, q, p, reduced=True) on the
    reduced complex as first described, with no dy-free shift: its
    (k, q, p) slice holds the terms x^a y^b dx_I dy_1..dy_r of the full
    slice whose x^a is a complement monomial of K[x]/(f). Each term is
    wedged with dF through wedge_rule (the f_j dy_j terms meet the full dy
    word and vanish), and the image's coefficients at each y exponent and
    word are read through normal_form_vector."""
    f, top = problem.field, tuple(range(problem.r))
    slices = {}

    def quotient(xdeg):
        """The degree-xdeg quotient slice and its monomial index."""
        if xdeg not in slices:
            qs = quotient_slice(list(problem.polys), xdeg)
            slices[xdeg] = qs, monomial_index(qs)
        return slices[xdeg]

    def space(k, q, p):
        return BasisSlice(k, q, p, [
            key for key in layout_keys(SliceLayout(problem, k, q, p))
            if key[3] == top
            and key[0] in quotient(sum(key[0]))[0].complement])

    src, tgt = space(k, q, p), space(k + 1, q, p + 1)
    rule = wedge_rule(dF_of(problem).terms, problem.n, f)
    mat = SparseMatrix(tgt.dim, src.dim, f)
    for col, key in enumerate(src.keys):
        images = {}
        for (xexp, yexp, dxs, dys), c in rule(key):
            qs, index = quotient(sum(xexp))
            _, vec = images.setdefault((yexp, dxs, dys),
                                       (qs, [f.zero] * len(qs.monomials)))
            vec[index[xexp]] = f.add(vec[index[xexp]], c)
        for (yexp, dxs, dys), (qs, vec) in images.items():
            red = normal_form_vector(qs, vec)
            for m, c in zip(qs.monomials, red):
                if not f.is_zero(c):
                    mat.rows[tgt.index[(m, yexp, dxs, dys)]][col] = c
    return mat


# ---------------------------------------------------------------------------
# the full complex at the form level: the boundary, the product classes and
# the full-complex witness
# ---------------------------------------------------------------------------


def boundary(omega: DiffForm) -> DiffForm:
    """Left wedge with dF; raises the word length and the second grading by
    one, preserving the first."""
    return dF_of(omega.problem).wedge(omega)


def xi(problem: ProblemInput, k: int) -> DiffForm:
    """sum over k-subsets S of the polynomials of
    (prod of degrees outside S) * df_S wedge dy_S; bidegree (0, k)."""
    if not 1 <= k <= problem.r:
        raise InputError(f"k must be between 1 and r={problem.r}")
    f = problem.field
    acc = DiffForm.zero(problem, 2 * k)
    zx = (0,) * problem.n
    zy = (0,) * problem.r
    for subset in combinations(range(problem.r), k):
        coef = f.one
        for i in range(problem.r):
            if i not in subset:
                coef = f.mul(coef, f.of(problem.degrees[i]))
        if f.is_zero(coef):
            continue
        part = form_term(problem, zx, zy, (), ())
        for j in subset:
            part = part.wedge(df_form(problem, j))
        part = part.wedge(form_term(problem, zx, zy, (), subset))
        acc = acc + part.scale(coef)
    return acc


def full_witness_class_is_nonzero(problem: ProblemInput) -> bool:
    """Oracle for homology._witness_class_is_nonzero on the full complex:
    whether xi_r is closed and not in the image of the full boundary out
    of (2r-1, 0, r-1), by a rank comparison over the exact field."""
    r = problem.r
    w = xi(problem, r)
    if not boundary(w).is_zero():
        return False
    tgt = key_basis(problem, 2 * r, 0, r)
    bmat = boundary_matrix(problem, 2 * r - 1, 0, r - 1)
    return not in_column_span(bmat, [tgt.vector_of_form(w)])[0]


# ---------------------------------------------------------------------------
# Hilbert-series oracles: the paper's closed form term by term, one term per
# exponent vector, and two independent evaluations
# ---------------------------------------------------------------------------


def _elementary_symmetric(values, i: int):
    """s_i of the given integers (s_0 = 1)."""
    coeffs = [Fraction(1)] + [Fraction(0)] * len(values)
    for v in values:
        for j in range(len(values), 0, -1):
            coeffs[j] += v * coeffs[j - 1]
    return coeffs[i]


def coeff_a(n: int, d, e, l: int) -> Fraction:
    """The rational coefficient a^(l) attached to the exponent vector e:
    (-1)^(n-1-E) * E!/((n-1)! prod e_i!) * s_(n-1-E)(l-1, ..., l-(n-1))
    * prod d_i^(e_i), with E = sum(e)."""
    if len(d) != len(e):
        raise InputError("degree and exponent vectors must have equal length")
    E = sum(e)
    if E > n - 1:
        raise InputError(f"sum of exponents {E} exceeds n-1 = {n - 1}")
    sym = _elementary_symmetric([l - j for j in range(1, n)], n - 1 - E)
    sign = -1 if (n - 1 - E) % 2 else 1
    num = Fraction(sign * factorial(E), factorial(n - 1) * prod(factorial(ei) for ei in e))
    return num * sym * prod(di ** ei for di, ei in zip(d, e))


def g_poly(n: int, d, e) -> tuple[Poly, Poly]:
    """The polynomial g(t) = sum_l (-1)^(n-l) C(n,l) a^(l) t^(n-l) and its
    exact quotient by (1-t)^(E+1)."""
    if any(ei < 1 for ei in e):
        raise InputError("all exponents must be at least 1")
    E = sum(e)
    g = Poly.zero()
    for l in range(n + 1):
        sign = -1 if (n - l) % 2 else 1
        g = g + Poly.monomial(sign * comb(n, l) * coeff_a(n, d, e, l), n - l)
    div = Poly.one()
    for _ in range(E + 1):
        div = div * Poly({0: 1, 1: -1})
    return g, g.divide_exact(div)


def _exponent_vectors(r: int, bound: int):
    """All e in Z^r with e_i >= 1 and sum(e) <= bound, in a fixed order."""
    for E in range(r, bound + 1):
        for weak in monomials_of_degree(r, E - r):
            yield tuple(w + 1 for w in weak)


def closed_form_H_per_vector(n: int, d) -> Poly:
    """Oracle: H(t) as the paper writes it, (-1)^(n-r) sum_(p=r..n-1) t^p
    plus one term quot_e * prod_i p_(e_i) per exponent vector e. Needs
    1 <= r < n; asserts H is integral."""
    r = len(d)
    if not 1 <= r < n:
        raise HypothesisViolation(f"the closed form needs 1 <= r < n "
                                  f"(got r={r}, n={n})")
    if any(di < 1 for di in d):
        raise InputError("degrees must be at least 1")
    sign = -1 if (n - r) % 2 else 1
    H = Poly({p: sign for p in range(r, n)})
    for e in _exponent_vectors(r, n - 1):
        _, term = g_poly(n, d, e)
        for ei in e:
            term = term * eulerian_p(ei)
        H = H + term
    H.int_coefficients()   # integrality assertion
    return H


def H_at_one(n: int, d) -> int:
    """Oracle: sum_p h_p by the alternating composition sum
    (-1)^(n-r)(n-r) + (-1)^n sum_l (-1)^(l+1) C(n,l+1)
    sum_(compositions of l into r positive parts) prod d_i^(i_j)."""
    r = len(d)
    if not 1 <= r < n:
        raise HypothesisViolation(f"needs 1 <= r < n (got r={r}, n={n})")
    total = (n - r) if (n - r) % 2 == 0 else -(n - r)
    acc = 0
    for l in range(r, n):
        inner = 0
        for weak in monomials_of_degree(r, l - r):
            comp = tuple(w + 1 for w in weak)
            inner += prod(di ** ci for di, ci in zip(d, comp))
        acc += (comb(n, l + 1) * inner) if (l + 1) % 2 == 0 else -(comb(n, l + 1) * inner)
    total += acc if n % 2 == 0 else -acc
    return total


def product_hilbert_series(n: int, d, upto: int) -> list[int]:
    """Oracle: coefficients 0..upto of prod_j (1 - t^(d_j)) / (1-t)^n, the
    Hilbert series of the quotient by a length-r regular sequence of the
    given degrees."""
    if upto < 0:
        raise InputError("upto must be nonnegative")
    num = Poly.one()
    for dj in d:
        num = num * Poly({0: 1, dj: -1})
    coeffs = [int(num.coefficient(k)) for k in range(upto + 1)]
    for _ in range(n):
        # dividing by (1-t) = prefix sums
        for k in range(1, upto + 1):
            coeffs[k] += coeffs[k - 1]
    return coeffs


# ---------------------------------------------------------------------------
# independent rank oracle (deliberately naive)
# ---------------------------------------------------------------------------


def to_dense_rows(mat: SparseMatrix) -> list[list]:
    """The rows of mat as dense lists, zeros filled in."""
    out = [[mat.field.zero] * mat.ncols for _ in mat.rows]
    for dense, row in zip(out, mat.rows):
        for j, v in row.items():
            dense[j] = v
    return out


def rank_reference(mat: SparseMatrix) -> int:
    """Textbook Gaussian elimination on dense rows. Kept independent of the
    production engines so the two can cross-check each other."""
    if mat.field.kind == "Q":
        rows = [[Fraction(v) for v in row] for row in to_dense_rows(mat)]
        return _rank_dense_gauss(rows, lambda a: a == 0, lambda a: 1 / a,
                                 lambda a, b: a * b, lambda a, b: a - b)
    p = mat.field.p
    rows = [[int(v) % p for v in row] for row in to_dense_rows(mat)]
    return _rank_dense_gauss(rows, lambda a: a % p == 0,
                             lambda a: pow(a, -1, p),
                             lambda a, b: a * b % p,
                             lambda a, b: (a - b) % p)


def _rank_dense_gauss(rows, is_zero, inv, mul, sub) -> int:
    if not rows:
        return 0
    ncols = len(rows[0])
    rk = 0
    for col in range(ncols):
        sel = None
        for i in range(rk, len(rows)):
            if not is_zero(rows[i][col]):
                sel = i
                break
        if sel is None:
            continue
        rows[rk], rows[sel] = rows[sel], rows[rk]
        piv_inv = inv(rows[rk][col])
        rows[rk] = [mul(v, piv_inv) for v in rows[rk]]
        for i in range(rk + 1, len(rows)):
            fac = rows[i][col]
            if not is_zero(fac):
                rows[i] = [sub(v, mul(fac, w)) for v, w in zip(rows[i], rows[rk])]
        rk += 1
        if rk == len(rows):
            break
    return rk


def echelon_scan_oracle(rows, eliminate) -> tuple[list, list]:
    """`linalg._echelon`'s pivot rule by a scan of every remaining row per
    column: the shortest row holding the column, then the least |entry|,
    then the earliest row. Consumes the rows like `_echelon` does."""
    rows = [row for row in rows if row]
    pivots, prows = [], []
    for col in sorted(set().union(*rows)):
        holding = [(len(row), abs(row[col]), i)
                   for i, row in enumerate(rows) if col in row]
        if not holding:
            continue
        prow = rows.pop(min(holding)[2])
        rows = [eliminate(row, prow, col) if col in row else row
                for row in rows]
        rows = [row for row in rows if row]
        pivots.append(col)
        prows.append(prow)
    return pivots, prows


# ---------------------------------------------------------------------------
# Koszul complexes and normal forms of forms
# ---------------------------------------------------------------------------


def koszul_cohomology_dim(gens: list[MultiPoly], k: int,
                          internal_degree: int) -> int:
    """Cohomology dimension of the Koszul complex of (gens) at cochain
    position k and the given internal degree."""
    check_generators(gens)
    r = len(gens)
    if k < 0 or k > r:
        return 0
    field, n = gens[0].field, gens[0].nvars
    degs = [g.homogeneous_degree() for g in gens]

    def space(kk):
        keys = [(mono, (), S, ()) for S in combinations(range(r), kk)
                for mono in monomials_of_degree(
                    n, internal_degree + sum(degs[j] for j in S))]
        return BasisSlice(kk, internal_degree, 0, keys)

    # the differential is the left wedge with sum_j g_j e_j, where the
    # exterior generator e_j is the word (j,) over an alphabet of r letters
    rule = wedge_rule({(exp, (), (j,), ()): c for j, g in enumerate(gens)
                       for exp, c in g.terms.items()}, r, field)

    def diff_rank(kk):
        src, tgt = space(kk), space(kk + 1)
        return rank(per_term_assemble(SparseMatrix(tgt.dim, src.dim, field),
                                      rule, src, tgt))

    dim = space(k).dim
    if dim == 0:
        return 0
    out_rank = diff_rank(k) if k < r else 0
    in_rank = diff_rank(k - 1) if k > 0 else 0
    return dim - out_rank - in_rank


def reduce_form_mod_ideal(form: DiffForm) -> DiffForm:
    """Reduce every coefficient of a dx-only form to its normal form modulo
    the degree slices of (f), f the problem's polynomials."""
    if form.is_zero():
        return form
    prob = form.problem
    terms = []
    spaces = {}
    for key, c in form.terms.items():
        xexp, yexp, dxs, dys = key
        if any(yexp) or dys:
            raise InputError("only dx-only forms can be reduced")
        weight = sum(xexp) + form.k
        space = spaces.get(weight)
        if space is None:
            space = spaces[weight] = quotient_basis(prob, form.k, weight)
        terms.extend((space.keys[pos], v) for pos, v in space.coords(key, c))
    return DiffForm(prob, form.k, terms)


# ---------------------------------------------------------------------------
# the contraction theta and the bigrading of terms
# ---------------------------------------------------------------------------


class Bidegree(NamedTuple):
    q: int
    p: int


def bidegree_of(problem: ProblemInput, xexp, yexp, dxs, dys) -> Bidegree:
    """(q, p) of the term x^a y^b dx_I dy_J: x and dx weigh (1, 0), y_j and
    dy_j weigh (-d_j, 1)."""
    d = problem.degrees
    q = (sum(xexp) - sum(b * d[j] for j, b in enumerate(yexp))
         + len(dxs) - sum(d[j] for j in dys))
    p = sum(yexp) + len(dys)
    return Bidegree(q, p)


def bidegrees(form: DiffForm) -> set:
    """The bidegrees of the terms of a form."""
    return {bidegree_of(form.problem, *key) for key in form.terms}


def theta_rule(problem: ProblemInput):
    """Term rule of the contraction: maps a term key to the (key,
    coefficient) pairs of its image. dx_i goes to x_i and dy_j to -d_j y_j,
    with signs alternating through the word."""
    f = problem.field
    one, minus_one = f.one, f.neg(f.one)
    minus_d = [f.of(-dj) for dj in problem.degrees]

    def rule(key):
        xexp, yexp, dxs, dys = key
        l = len(dxs)
        for s, i in enumerate(dxs):
            nx = xexp[:i] + (xexp[i] + 1,) + xexp[i + 1:]
            yield ((nx, yexp, dxs[:s] + dxs[s + 1:], dys),
                   one if s % 2 == 0 else minus_one)
        for t, j in enumerate(dys):
            c = minus_d[j]
            if f.is_zero(c):
                continue
            ny = yexp[:j] + (yexp[j] + 1,) + yexp[j + 1:]
            yield ((xexp, ny, dxs, dys[:t] + dys[t + 1:]),
                   c if (l + t) % 2 == 0 else f.neg(c))
    return rule


def theta(omega: DiffForm) -> DiffForm:
    """The contraction: dx_i goes to x_i, dy_j goes to -d_j y_j, with signs
    alternating through the word; bidegree is preserved."""
    prob = omega.problem
    f = prob.field
    rule = theta_rule(prob)
    out = {}
    for key, c in omega.terms.items():
        for ikey, w in rule(key):
            add_term(out, ikey, f.mul(c, w), f)
    res = DiffForm(prob, omega.k - 1 if omega.k else 0)
    res.terms = out
    return res


def theta_matrix(problem: ProblemInput, k: int, q: int, p: int) -> SparseMatrix:
    """Matrix of the contraction out of the (k, q, p) slice into
    (k-1, q, p)."""
    src = key_basis(problem, k, q, p)
    tgt = key_basis(problem, k - 1, q, p)
    return per_term_assemble(SparseMatrix(tgt.dim, src.dim, problem.field),
                             theta_rule(problem), src, tgt)


def theta_preimage(eta: DiffForm, k: int, q: int, p: int):
    """A form zeta in the (k, q, p) slice with theta(zeta) = eta, or None.
    The solver's free coordinates are set to zero, so the result is
    deterministic but not canonical."""
    prob = eta.problem
    src = key_basis(prob, k, q, p)
    sol = solve(theta_matrix(prob, k, q, p),
                key_basis(prob, k - 1, q, p).vector_of_form(eta))
    if sol is None:
        return None
    return DiffForm(prob, src.k, zip(src.keys, sol))


# ---------------------------------------------------------------------------
# wedge division in every shape, with witnesses
# ---------------------------------------------------------------------------


def _form_spaces(problem, over: str):
    """space(k, weight): the dx-only k-forms of that weight with
    coefficients in K[x] ("polynomial-ring") or in K[x]/(f), f the
    problem's polynomials ("quotient-by-f")."""
    if over == "polynomial-ring":
        return lambda k, weight: key_basis(problem, k, weight, 0)
    if over == "quotient-by-f":
        return lambda k, weight: quotient_basis(problem, k, weight)
    raise InputError(f"unknown coefficient ring mode {over!r}")


def _dx_only_weight(form: DiffForm, what: str) -> int:
    """Common weight (monomial degree + word length) of a dx-only form."""
    if form.is_zero():
        raise InputError(f"{what} must be nonzero")
    weights = set()
    for (xexp, yexp, dxs, dys) in form.terms:
        if any(yexp) or dys:
            raise InputError(f"{what} must not involve the y-variables")
        weights.add(sum(xexp) + len(dxs))
    if len(weights) != 1:
        raise InputError(f"{what} must be homogeneous")
    return weights.pop()


@dataclass
class WedgeDivisionSolution:
    shape: object
    m: int
    labels: list
    alphas: list  # DiffForms, parallel to labels


def wedge_division_oracle(omega: DiffForm, multipliers: list[DiffForm],
                          shape, over: str = "polynomial-ring",
                          saturation=None):
    """Reference solver for the wedge-division shapes of omega in the
    forced graded slice, with witnesses:

    - "saito":            omega = sum_i  w_i /\\ alpha_i
    - "full-product":     omega = w_1 /\\ ... /\\ w_r /\\ alpha
    - ("generalized", s): omega = sum over (r-s+1)-subsets J of
                          (/\\_{j in J} w_j) /\\ alpha_J

    over "polynomial-ring" solves with coefficients in K[x]; over
    "quotient-by-f" with coefficients in K[x]/(f), f the problem's
    polynomials. With saturation=(g, m_max), tries g^m * omega for
    m = 0..m_max (m_max >= 0) and returns the least solvable m. Each m is
    one linalg.solve, so the witnesses alpha_J come with it. Returns a
    WedgeDivisionSolution or None.
    """
    prob = omega.problem
    f = prob.field
    if not multipliers:
        raise InputError("need at least one multiplier")
    r = len(multipliers)
    mult_weights = []
    for i, w in enumerate(multipliers):
        if w.k != 1:
            raise InputError("multipliers must be 1-forms")
        mult_weights.append(_dx_only_weight(w, f"multiplier {i}"))
    base_weight = _dx_only_weight(omega, "omega") if not omega.is_zero() else None
    k = omega.k

    # "saito" is ("generalized", r) and "full-product" is ("generalized", 1)
    if shape == "saito":
        s = r
    elif shape == "full-product":
        s = 1
    elif isinstance(shape, tuple) and shape and shape[0] == "generalized":
        s = shape[1]
        if not 1 <= s <= r:
            raise InputError(f"generalized shape needs 1 <= s <= {r}")
    else:
        raise InputError(f"unknown shape {shape!r}")
    subsets = list(combinations(range(r), r - s + 1))

    space = _form_spaces(prob, over)
    rules = {}
    for J in subsets:
        acc = multipliers[J[0]]
        for j in J[1:]:
            acc = acc.wedge(multipliers[j])
        rules[J] = wedge_rule(acc.terms, prob.n, f)

    if saturation is None:
        g, m_max = None, 0
    else:
        g, m_max = saturation
        if g.is_zero() or g.homogeneous_degree() is None:
            raise InputError("saturation multiplier must be nonzero homogeneous")
        if m_max < 0:
            raise InputError(f"saturation bound {m_max} is negative")

    def zero_solution(m):
        # alpha_J of word length k - |J|, or 0 where that is negative
        return WedgeDivisionSolution(
            shape=shape, m=m, labels=list(subsets),
            alphas=[DiffForm.zero(prob, max(k - len(J), 0)) for J in subsets])

    if omega.is_zero():
        # the zero form is divisible in every shape
        return zero_solution(0)
    for m in range(m_max + 1):
        # g^m * omega stays nonzero: K[x] is a domain
        target = times_poly(omega, g.pow(m)) if m else omega
        weight = base_weight + (m * g.homogeneous_degree() if m else 0)
        tgt = space(k, weight)
        rhs = tgt.vector_of_form(target)
        blocks = []
        offsets = [0]
        for J in subsets:
            kk = k - len(J)
            ww = weight - sum(mult_weights[j] for j in J)
            src = space(kk, ww) if kk >= 0 else None
            blocks.append((J, src))
            offsets.append(offsets[-1] + (src.dim if src is not None else 0))
        ncols = offsets[-1]
        if ncols == 0:
            if all(f.is_zero(v) for v in rhs):
                return zero_solution(m)
            continue
        mat = SparseMatrix(tgt.dim, ncols, f)
        for (J, src), col0 in zip(blocks, offsets):
            if src is not None:
                block = per_term_assemble(SparseMatrix(tgt.dim, src.dim, f),
                                          rules[J], src, tgt)
                for row, brow in zip(mat.rows, block.rows):
                    row.update((col0 + j, v) for j, v in brow.items())
        sol = solve(mat, rhs)
        if sol is None:
            continue
        labels = []
        alphas = []
        for bi, (J, src) in enumerate(blocks):
            labels.append(J)
            if src is None:
                alphas.append(DiffForm.zero(prob, 0))
            else:
                vec = sol[offsets[bi]:offsets[bi + 1]]
                alphas.append(DiffForm(prob, src.k, zip(src.keys, vec)))
        return WedgeDivisionSolution(shape=shape, m=m, labels=labels, alphas=alphas)
    return None
