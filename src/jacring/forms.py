"""Differential forms with polynomial coefficients in x- and y-variables.

A form is a sum of terms  c * x^a y^b dx_I dy_J  with I, J ascending index
tuples; the wedge factors are kept in the canonical order "all dx before all
dy". The operator of interest is the boundary, the left wedge with dF where
F = sum_j y_j f_j. Slice bases live here too, built block by block from
`problem.slice_blocks`, and so does the one term-level assembler that
builds every operator matrix from a term rule.
"""
from __future__ import annotations

from bisect import bisect_right
from itertools import combinations
from operator import add

from .errors import InputError, SliceMismatch
from .fields import add_term
from .linalg import SparseMatrix
from .polynomials import MultiPoly, monomials_of_degree
from .problem import ProblemInput, slice_blocks
from .quotients import quotient_slice


def _merge_words(n, dxs_a, dys_a, dxs_b, dys_b):
    """Merge two canonical wedge words; returns (sign, dxs, dys) or None when
    a factor repeats. The sign counts the transpositions needed to interleave
    the second word into the first."""
    wa = list(dxs_a) + [n + j for j in dys_a]
    wb = list(dxs_b) + [n + j for j in dys_b]
    inv = 0
    for v in wb:
        pos = bisect_right(wa, v)
        if pos > 0 and wa[pos - 1] == v:
            return None
        inv += len(wa) - pos
    merged = sorted(wa + wb)
    dxs = tuple(u for u in merged if u < n)
    dys = tuple(u - n for u in merged if u >= n)
    return (-1 if inv % 2 else 1), dxs, dys


class DiffForm:
    """Sum of wedge terms of a single word length k."""

    __slots__ = ("problem", "k", "terms")

    def __init__(self, problem: ProblemInput, k: int, terms=None):
        self.problem = problem
        self.k = k
        f = problem.field
        clean = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for key, c in items:
                xexp, yexp, dxs, dys = key
                if len(dxs) + len(dys) != k:
                    raise InputError(f"term word length {len(dxs)+len(dys)} != {k}")
                add_term(clean, key, f.of(c), f)
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, problem, k: int) -> "DiffForm":
        return cls(problem, k)

    @classmethod
    def term(cls, problem, xexp, yexp, dxs, dys, c=1) -> "DiffForm":
        xexp, yexp = tuple(xexp), tuple(yexp)
        dxs, dys = tuple(dxs), tuple(dys)
        if len(xexp) != problem.n or len(yexp) != problem.r:
            raise InputError("exponent tuple lengths do not match the problem")
        if list(dxs) != sorted(set(dxs)) or list(dys) != sorted(set(dys)):
            raise InputError("wedge indices must be strictly ascending")
        return cls(problem, len(dxs) + len(dys), {(xexp, yexp, dxs, dys): c})

    @classmethod
    def of_poly(cls, problem, poly: MultiPoly) -> "DiffForm":
        """A 0-form from a polynomial in the x-variables."""
        if poly.nvars != problem.n:
            raise InputError("polynomial variable count mismatch")
        zy = (0,) * problem.r
        return cls(problem, 0,
                   {(exp, zy, (), ()): c for exp, c in poly.terms.items()})

    # -- basic algebra -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def _assert_same_space(self, other):
        if self.problem is not other.problem and self.problem != other.problem:
            raise InputError("forms over different problems")
        if self.k != other.k:
            raise InputError("forms of different word length")

    def __add__(self, other):
        self._assert_same_space(other)
        f = self.problem.field
        out = dict(self.terms)
        for key, c in other.terms.items():
            add_term(out, key, c, f)
        res = DiffForm(self.problem, self.k)
        res.terms = out
        return res

    def __neg__(self):
        f = self.problem.field
        res = DiffForm(self.problem, self.k)
        res.terms = {key: f.neg(c) for key, c in self.terms.items()}
        return res

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "DiffForm":
        f = self.problem.field
        c = f.of(c)
        res = DiffForm(self.problem, self.k)
        if not f.is_zero(c):
            res.terms = {key: f.mul(v, c) for key, v in self.terms.items()}
        return res

    def __eq__(self, other):
        return (isinstance(other, DiffForm) and self.problem == other.problem
                and self.k == other.k and self.terms == other.terms)

    def __hash__(self):
        return hash((self.k, frozenset(self.terms.items())))

    def wedge(self, other: "DiffForm") -> "DiffForm":
        if self.problem != other.problem:
            raise InputError("forms over different problems")
        prob = self.problem
        f = prob.field
        rule = wedge_rule(self.terms, prob.n, f)
        out = {}
        for key, cb in other.terms.items():
            for ikey, c in rule(key):
                add_term(out, ikey, f.mul(c, cb), f)
        res = DiffForm(prob, self.k + other.k)
        res.terms = out
        return res

    def times_poly(self, poly: MultiPoly) -> "DiffForm":
        """Multiply by a polynomial in the x-variables."""
        return DiffForm.of_poly(self.problem, poly).wedge(self)

    def to_string(self) -> str:
        if not self.terms:
            return "0"
        prob = self.problem
        parts = []
        for key in sorted(self.terms, key=lambda t: (t[2], t[3], t[0], t[1])):
            xexp, yexp, dxs, dys = key
            c = self.terms[key]
            bits = []
            for i, e in enumerate(xexp):
                if e:
                    bits.append(f"x{i+1}" + (f"^{e}" if e > 1 else ""))
            for j, e in enumerate(yexp):
                if e:
                    bits.append(f"y{j+1}" + (f"^{e}" if e > 1 else ""))
            bits.extend(f"dx{i+1}" for i in dxs)
            bits.extend(f"dy{j+1}" for j in dys)
            mono = "*".join(bits) if bits else "1"
            parts.append(f"({c})*{mono}")
        return " + ".join(parts)

    def __repr__(self):
        return f"DiffForm({self.to_string()})"


# ---------------------------------------------------------------------------
# the operators
# ---------------------------------------------------------------------------


def df_form(problem: ProblemInput, j: int) -> DiffForm:
    """The 1-form sum_i (d f_j / d x_i) dx_i."""
    zy = (0,) * problem.r
    terms = {}
    for i in range(problem.n):
        for exp, c in problem.partials[j][i].terms.items():
            terms[(exp, zy, (i,), ())] = c
    return DiffForm(problem, 1, terms)


def dF_of(problem: ProblemInput) -> DiffForm:
    """dF for F = sum_j y_j f_j: the terms y_j df_j, then f_j dy_j. Every
    term has bidegree (0, 1)."""
    n, r = problem.n, problem.r
    terms = []
    for j in range(r):
        yexp = tuple(1 if t == j else 0 for t in range(r))
        for i in range(n):
            for exp, c in problem.partials[j][i].terms.items():
                terms.append(((exp, yexp, (i,), ()), c))
    zy = (0,) * r
    for j in range(r):
        for exp, c in problem.polys[j].terms.items():
            terms.append(((exp, zy, (), (j,)), c))
    return DiffForm(problem, 1, terms)


def boundary(omega: DiffForm) -> DiffForm:
    """Left wedge with dF; raises the word length and the second grading by
    one, preserving the first."""
    return dF_of(omega.problem).wedge(omega)


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
        part = DiffForm.term(problem, zx, zy, (), ())
        for j in subset:
            part = part.wedge(df_form(problem, j))
        part = part.wedge(DiffForm.term(problem, zx, zy, (), subset))
        acc = acc + part.scale(coef)
    return acc


# ---------------------------------------------------------------------------
# graded slices
# ---------------------------------------------------------------------------


class BasisSlice:
    """Ordered monomial-form basis of the (k, q, p) slice. With a quotient
    slice attached, the coefficients live in K[x]/(gens) and the basis holds
    the complement monomials only; a pivot monomial's term maps to its
    normal form. Its keys depend only on (n, degrees, k, q, p): it holds no
    problem or field, so a problem's cache never points back at it. A
    vector becomes a form by DiffForm(problem, k, zip(keys, vec))."""

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


def _block_keys(n: int, blocks, monomials) -> list:
    """The keys of the slice blocks in order, word by word, with
    monomials(xdeg) as the x-monomials of each block."""
    keys = []
    for l, dys, yexp, xdeg in blocks:
        xexps = monomials(xdeg)
        keys += [(xexp, yexp, dxs, dys) for dxs in combinations(range(n), l)
                 for xexp in xexps]
    return keys


def basis(problem: ProblemInput, k: int, q: int, p: int) -> BasisSlice:
    """Monomial basis x^a y^b dx_I dy_J of the (k, q, p) slice, every
    x-monomial of each block of `slice_blocks`. At p = 0 this is the space
    of dx-only k-forms of weight q over K[x]."""
    key = ("basis", k, q, p)
    slice_ = problem._cache.get(key)
    if slice_ is None:
        n = problem.n
        slice_ = problem._cache[key] = BasisSlice(k, q, p, _block_keys(
            n, slice_blocks(n, problem.degrees, k, q, p),
            lambda xdeg: monomials_of_degree(n, xdeg)))
    return slice_


def quotient_basis(problem: ProblemInput, k: int, weight: int) -> BasisSlice:
    """dx-only k-forms of the given weight with coefficients in K[x]/(f),
    f the problem's polynomials: the p = 0 slice of `basis`, one block at
    most (x degree weight - k), with the complement monomials of that
    degree's quotient slice as its x-monomials. Cached on the problem, as
    is each quotient slice."""
    key = ("quotient-basis", k, weight)
    if key not in problem._cache:
        blocks = list(slice_blocks(problem.n, problem.degrees, k, weight, 0))
        qs = None
        if blocks:
            qkey = ("quotient", blocks[0][3])
            if qkey not in problem._cache:
                problem._cache[qkey] = quotient_slice(list(problem.polys),
                                                      qkey[1])
            qs = problem._cache[qkey]
        problem._cache[key] = BasisSlice(k, weight, 0, _block_keys(
            problem.n, blocks, lambda _: qs.complement), qs)
    return problem._cache[key]


def assemble(mat: SparseMatrix, rule, source: BasisSlice, target: BasisSlice,
             row0: int = 0) -> SparseMatrix:
    """Add into the rows of mat from row0 on the matrix of the linear map
    with the given term rule: column j holds the image of the j-th source
    key, rule(key) yields (image key, coefficient) pairs, and the target
    maps each image term to its coordinates. An image term outside the
    target raises SliceMismatch. Every operator matrix is built here."""
    f = mat.field
    rows = mat.rows[row0:row0 + target.dim]
    for col, key in enumerate(source.keys):
        for ikey, c in rule(key):
            for row, v in target.coords(ikey, c):
                add_term(rows[row], col, v, f)
    return mat
