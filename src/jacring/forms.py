"""Differential forms with polynomial coefficients in x- and y-variables.

A form is a sum of terms  c * x^a y^b dx_I dy_J  with I, J ascending index
tuples; the wedge factors are kept in the canonical order "all dx before all
dy". The boundary of the complex is the left wedge with dF,
F = sum_j y_j f_j (`dF_of`); the r x r Jacobian minors are the
coefficients of df_1 /\\ ... /\\ df_r (`df_product`).

A slice is laid out block by block from `problem.slice_blocks`
(`SliceLayout`), over K[x] or, keeping its dy-free blocks, over K[x]/(f):
the one kind of quotient layout, which holds the forms of wedge division
and, shifted by the dy word dy_1..dy_r, the slices of the reduced complex
of `homology`. `assemble` builds every operator matrix on layouts:
the left wedge with a form, one block at a time, from multiplication
tables M(g, a) cached on the problem. Since (Omega, dF /\\ .) is a Koszul
complex, each block of a boundary is a signed dx/dy insertion tensored
with multiplication by a partial derivative d f_j / d x_i or by f_j. A
layout is the one slice object, and `assemble` the one way from forms to
coordinates: multiplication by a polynomial and the witness class of
`homology` are assembled too. `basis` caches the quotient layout that the
witness class lands in.
"""
from __future__ import annotations

from bisect import bisect_right
from itertools import combinations, count
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


def _ascending(word) -> bool:
    """Whether a wedge word's indices are strictly ascending."""
    return all(a < b for a, b in zip(word, word[1:]))


class DiffForm:
    """Sum of wedge terms of a single word length k. A term key's dx and dy
    words must be strictly ascending (InputError otherwise)."""

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
                if not (_ascending(dxs) and _ascending(dys)):
                    raise InputError(
                        "wedge indices must be strictly ascending")
                add_term(clean, key, f.of(c), f)
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, problem, k: int) -> "DiffForm":
        return cls(problem, k)

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
        """The wedge product self /\\ other. self's terms are grouped by
        word, and each word pair is merged once."""
        if self.problem != other.problem:
            raise InputError("forms over different problems")
        prob = self.problem
        n, f = prob.n, prob.field
        by_word = {}
        for (xa, ya, dxa, dya), c in self.terms.items():
            by_word.setdefault((dxa, dya), []).append((xa, ya, c))
        merges = {}
        out = {}
        for (xb, yb, dxb, dyb), cb in other.terms.items():
            merged = merges.get((dxb, dyb))
            if merged is None:
                merged = merges[(dxb, dyb)] = [
                    (m, terms) for (dxa, dya), terms in by_word.items()
                    if (m := _merge_words(n, dxa, dya, dxb, dyb)) is not None]
            for (sign, dxs, dys), terms in merged:
                for xa, ya, c in terms:
                    c = f.mul(c, cb)
                    add_term(out, (tuple(map(add, xa, xb)),
                                   tuple(map(add, ya, yb)), dxs, dys),
                             c if sign > 0 else f.neg(c), f)
        res = DiffForm(prob, self.k + other.k)
        res.terms = out
        return res

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


def df_product(problem: ProblemInput) -> DiffForm:
    """df_1 /\\ ... /\\ df_r, whose coefficient at the dx word I is the
    r x r Jacobian minor on the columns I. Wedged once per problem: every
    returned form shares the terms cached on it (a cached form would hold
    the problem, so the cache would point back at it)."""
    product = DiffForm(problem, problem.r)
    product.terms = problem.memo(("df_product",), _wedge_dfs, problem)
    return product


def _wedge_dfs(problem: ProblemInput) -> dict:
    """df_product's terms, built on a cache miss."""
    product = df_form(problem, 0)
    for j in range(1, problem.r):
        product = product.wedge(df_form(problem, j))
    return product.terms


# ---------------------------------------------------------------------------
# graded slices
# ---------------------------------------------------------------------------


def _words(problem: ProblemInput, l: int) -> tuple:
    """The ascending dx words of length l, in order, and the position of
    each word. Cached on the problem."""
    return problem.memo(("words", l), _index_words, problem.n, l)


def _index_words(n: int, l: int) -> tuple:
    """_words's value, built on a cache miss."""
    words = list(combinations(range(n), l))
    return words, {w: i for i, w in enumerate(words)}


def _quotient(problem: ProblemInput, xdeg: int):
    """The degree-xdeg quotient slice of K[x]/(f), f the problem's
    polynomials; cached on the problem."""
    return problem.memo(("quotient", xdeg), quotient_slice, problem.polys,
                        xdeg)


def _monomials(problem: ProblemInput, xdeg: int, quotient: bool) -> tuple:
    """The x-monomials of a block of degree xdeg and the position of each:
    every monomial of that degree, or over K[x]/(f) the complement
    monomials of its quotient slice. Cached on the problem."""
    return problem.memo(("monomials", xdeg, quotient), _index_monomials,
                        problem, xdeg, quotient)


def _index_monomials(problem: ProblemInput, xdeg: int,
                     quotient: bool) -> tuple:
    """_monomials's value, built on a cache miss."""
    monos = (_quotient(problem, xdeg).complement if quotient
             else monomials_of_degree(problem.n, xdeg))
    return monos, {m: i for i, m in enumerate(monos)}


def _coords(problem: ProblemInput, m: tuple, xdeg: int):
    """The x-monomial m of degree xdeg over K[x]/(f) as (position,
    coefficient) pairs over the complement monomials (see _monomials): its
    own position with coefficient one, or a pivot monomial's normal form."""
    index = _monomials(problem, xdeg, True)[1]
    t = index.get(m)
    if t is not None:
        return ((t, problem.field.one),)
    return [(index[cm], w)
            for cm, w in _quotient(problem, xdeg).pivot_normal_forms()[m]]


class SliceLayout:
    """The (k, q, p) slice as the ordered blocks of `slice_blocks`. A block
    (l, J, b, xdeg, offset, words, monomials) holds the terms
    x^a y^b dx_I dy_J with I in words (every dx word of length l) and a in
    monomials (every one of degree xdeg), term (I, a) at offset +
    pos(I) * len(monomials) + pos(a). With quotient set the coefficients
    live in K[x]/(f): the layout keeps only the dy-free blocks (J = ()),
    and a block's monomials are the complement of its degree's quotient
    slice. Wedge division lays out its dx-only forms that way (p = 0), and
    the reduced complex its slices, the dy-free slice (k - r, q + sum d,
    p - r) standing for (k, q, p) times dy_1..dy_r (see homology).
    Operator matrices are assembled on layouts (`assemble`), which is also
    how a form reaches coordinates. A layout holds no problem."""

    __slots__ = ("k", "q", "p", "quotient", "blocks", "dim", "_at")

    def __init__(self, problem: ProblemInput, k: int, q: int, p: int,
                 quotient: bool = False):
        self.k, self.q, self.p = k, q, p
        self.quotient = quotient
        n = problem.n
        self.blocks = []
        self._at = {}
        offset = 0
        for l, J, yexp, xdeg in slice_blocks(n, problem.degrees, k, q, p):
            if quotient and J:
                continue
            words = _words(problem, l)[0]
            monos = _monomials(problem, xdeg, quotient)[0]
            block = (l, J, yexp, xdeg, offset, words, monos)
            self.blocks.append(block)
            self._at[(J, yexp)] = block
            offset += len(words) * len(monos)
        self.dim = offset

    def __repr__(self):
        return (f"SliceLayout(k={self.k}, q={self.q}, p={self.p}, "
                f"dim={self.dim})")


def basis(problem: ProblemInput, k: int, q: int, p: int, *,
          quotient: bool = False) -> SliceLayout:
    """SliceLayout(problem, k, q, p, quotient), cached on the problem: the
    quotient layout that the witness class of homology lands in."""
    return problem.memo(("basis", k, q, p, quotient), SliceLayout, problem,
                        k, q, p, quotient)


# ---------------------------------------------------------------------------
# the assembler
# ---------------------------------------------------------------------------


def _mult_table(problem: ProblemInput, g: tuple, a: int,
                quotient: bool) -> tuple:
    """M(g, a): multiplication by the homogeneous x-polynomial g, a tuple
    of (exponent, coefficient) pairs of degree e, from the block monomials
    of degree a (see _monomials) to those of degree a + e. Returns three
    lists over the source monomials: the target positions of each product,
    their coefficients, and the negated coefficients. Over K[x]/(f) each
    product is read by _coords, a pivot monomial through its normal form,
    and each target position is summed once, so no position repeats and no
    coefficient is zero; over K[x] every product has g's coefficients,
    one tuple shared by every monomial."""
    f = problem.field
    src = _monomials(problem, a, quotient)[0]
    e = sum(g[0][0])
    if not quotient:
        index = _monomials(problem, a + e, False)[1]
        coeffs = tuple(c for _, c in g)
        negated = tuple(f.neg(c) for c in coeffs)
        return ([tuple([index[tuple(map(add, xa, m))] for xa, _ in g])
                 for m in src], [coeffs] * len(src), [negated] * len(src))
    positions, coeffs, negated = [], [], []
    for m in src:
        acc = {}
        for xa, c in g:
            for t, w in _coords(problem, tuple(map(add, xa, m)), a + e):
                add_term(acc, t, f.mul(c, w), f)
        positions.append(tuple(acc))
        coeffs.append(tuple(acc.values()))
        negated.append(tuple(f.neg(c) for c in acc.values()))
    return positions, coeffs, negated


def _table(problem: ProblemInput, g: tuple, a: int, quotient: bool) -> tuple:
    """_mult_table(problem, g, a, quotient), built once per problem."""
    return problem.memo(("table", g, a, quotient), _mult_table, problem, g,
                        a, quotient)


def assemble(mu: DiffForm, source: SliceLayout,
             target: SliceLayout) -> SparseMatrix:
    """The matrix of the left wedge with mu from source to target, two
    layouts over one coefficient ring (quotient set on both or on neither):
    column j holds the image of the j-th source term. mu's terms are
    grouped by dx word, dy word, y exponent and x degree into one
    x-polynomial g each. A source block and a group fix the target block;
    each source word is merged with the group's word once, and the block's
    rows are filled from the table M(g, a) of its x degree a, cached on
    the problem. Each cell is written once: the target's words and y
    exponent fix the group, and distinct terms of g give distinct products
    (summed in the table over a quotient). An image outside the target
    raises SliceMismatch. Every operator matrix is built here."""
    problem = mu.problem
    n = problem.n
    mat = SparseMatrix(target.dim, source.dim, problem.field)
    rows = mat.rows
    grouped = {}
    for (xa, ya, dxa, dya), c in mu.terms.items():
        grouped.setdefault((dxa, dya, ya, sum(xa)), []).append((xa, c))
    groups = [(dxa, dya, ya, tuple(sorted(g)))
              for (dxa, dya, ya, _), g in grouped.items()]
    merges = {}
    for l, dys, yexp, a, offset, words, monos in source.blocks:
        width = len(monos)
        if not width:
            continue
        pieces = []
        for dxa, dya, ya, g in groups:
            key = (dxa, dya, l, dys)
            merged = merges.get(key)
            if merged is None:
                merged = merges[key] = [_merge_words(n, dxa, dya, dxs, dys)
                                        for dxs in words]
            hit = next((m for m in merged if m is not None), None)
            if hit is None:
                continue
            block = target._at.get((hit[2], tuple(map(add, ya, yexp))))
            if (block is None or block[0] != len(hit[1])
                    or block[3] != a + sum(g[0][0])):
                raise SliceMismatch(
                    f"the image of the block (l={l}, J={dys}, b={yexp}) is "
                    f"not in the (k={target.k}, q={target.q}, "
                    f"p={target.p}) slice")
            tl, _, _, _, toffset, _, tmonos = block
            windex = _words(problem, tl)[1]
            positions, coeffs, negated = _table(problem, g, a,
                                                source.quotient)
            pieces.append([None if m is None else
                           (toffset + windex[m[1]] * len(tmonos), positions,
                            coeffs if m[0] > 0 else negated) for m in merged])
        for w in range(len(words)):
            col0 = offset + w * width
            for piece in pieces:
                hit = piece[w]
                if hit is None:
                    continue
                rbase, positions, values = hit
                for col, ts, cs in zip(count(col0), positions, values):
                    for t, c in zip(ts, cs):
                        rows[rbase + t][col] = c
    return mat
