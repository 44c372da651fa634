"""Exact cohomology of the boundary complex, Koszul slices, wedge-division
solvers, and the verification driver that compares brute-force dimensions
against the predicted patterns.

Everything here is slice-local: a cohomology dimension at (k, q, p) touches
only the three graded slices the boundary connects, so no global complex is
ever materialized.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import CertificateRequired, HypothesisViolation, InputError
from .forms import (BasisSlice, DiffForm, assemble, basis, boundary, dF_of,
                    df_form, quotient_basis, wedge_rule)
from .hilbert import hodge_table
from .linalg import SparseMatrix, in_column_span, kernel_basis, rank, solve
from .polynomials import MultiPoly, monomials_of_degree
from .problem import ProblemInput
from .quotients import check_generators


def boundary_matrix(problem: ProblemInput, k: int, q: int, p: int,
                    part: str = "full") -> SparseMatrix:
    """Matrix of the boundary out of the (k, q, p) slice into
    (k+1, q, p+1)."""
    src = basis(problem, k, q, p)
    tgt = basis(problem, k + 1, q, p + 1)
    rule = wedge_rule(dF_of(problem, part).terms, problem.n, problem.field)
    return assemble(SparseMatrix(tgt.dim, src.dim, problem.field), rule,
                    src, tgt)


def _boundary_rank(problem: ProblemInput, k: int, q: int, p: int) -> int:
    if k < 0 or p < 0 or k > problem.n + problem.r:
        return 0
    key = ("brank", k, q, p)
    cached = problem._cache.get(key)
    if cached is None:
        if basis(problem, k, q, p).dim == 0:
            cached = 0
        else:
            cached = rank(boundary_matrix(problem, k, q, p))
        problem._cache[key] = cached
    return cached


def cohomology_dim(problem: ProblemInput, k: int, q: int, p: int) -> int:
    """dim of the boundary cohomology at slice (k, q, p), computed as
    slice dim minus the ranks of the outgoing and incoming boundaries."""
    if k < 0 or k > problem.n + problem.r or p < 0:
        return 0
    d = basis(problem, k, q, p).dim
    if d == 0:
        return 0
    out_rank = _boundary_rank(problem, k, q, p)
    in_rank = _boundary_rank(problem, k - 1, q, p - 1)
    return d - out_rank - in_rank


def cohomology_report(problem: ProblemInput, slices) -> dict:
    """{(k, q, p): dim} for an iterable of (k, q, p) slices, in sorted
    order."""
    return {kqp: cohomology_dim(problem, *kqp) for kqp in sorted(set(slices))}


# ---------------------------------------------------------------------------
# Koszul complex of a polynomial family, graded by internal degree
# ---------------------------------------------------------------------------


def koszul_cohomology_dim(gens: list[MultiPoly], k: int, internal_degree: int) -> int:
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
        return BasisSlice(None, kk, internal_degree, 0, keys)

    # the differential is the left wedge with sum_j g_j e_j, where the
    # exterior generator e_j is the word (j,) over an alphabet of r letters
    rule = wedge_rule({(exp, (), (j,), ()): c for j, g in enumerate(gens)
                       for exp, c in g.terms.items()}, r, field)

    def diff_rank(kk):
        src, tgt = space(kk), space(kk + 1)
        return rank(assemble(SparseMatrix(tgt.dim, src.dim, field), rule,
                             src, tgt))

    dim = space(k).dim
    if dim == 0:
        return 0
    out_rank = diff_rank(k) if k < r else 0
    in_rank = diff_rank(k - 1) if k > 0 else 0
    return dim - out_rank - in_rank


# ---------------------------------------------------------------------------
# wedge-division solvers on dx-only forms
# ---------------------------------------------------------------------------


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


def _form_spaces(problem, over: str):
    """space(k, weight): the dx-only k-forms of that weight with
    coefficients in K[x] ("polynomial-ring") or in K[x]/(f), f the
    problem's polynomials ("quotient-by-f")."""
    if over == "polynomial-ring":
        return lambda k, weight: basis(problem, k, weight, 0)
    if over == "quotient-by-f":
        return lambda k, weight: quotient_basis(problem, k, weight,
                                                problem.polys)
    raise InputError(f"unknown coefficient ring mode {over!r}")


@dataclass
class WedgeDivisionSolution:
    shape: object
    m: int
    labels: list
    alphas: list  # DiffForms, parallel to labels


def wedge_division_solve(omega: DiffForm, multipliers: list[DiffForm],
                         shape, over: str = "polynomial-ring",
                         saturation=None):
    """Solve one of the wedge-division shapes for omega in the forced graded
    slice:

    - "saito":            omega = sum_i  w_i /\\ alpha_i
    - "full-product":     omega = w_1 /\\ ... /\\ w_r /\\ alpha
    - ("generalized", s): omega = sum over (r-s+1)-subsets J of
                          (/\\_{j in J} w_j) /\\ alpha_J

    over "polynomial-ring" solves with coefficients in K[x]; over
    "quotient-by-f" with coefficients in K[x]/(f), f the problem's
    polynomials. With saturation=(g, m_max), tries g^m * omega for
    m = 0..m_max and returns the least solvable m. Returns a
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

    if isinstance(shape, tuple) and shape and shape[0] == "generalized":
        s = shape[1]
        if not 1 <= s <= r:
            raise InputError(f"generalized shape needs 1 <= s <= {r}")
        subsets = list(combinations(range(r), r - s + 1))
    elif shape == "saito":
        subsets = [(i,) for i in range(r)]
    elif shape == "full-product":
        subsets = [tuple(range(r))]
    else:
        raise InputError(f"unknown shape {shape!r}")

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

    for m in range(m_max + 1):
        if m == 0 or omega.is_zero():
            target = omega
        else:
            target = omega.times_poly(g.pow(m))
        if target.is_zero():
            # the zero form is divisible in every shape
            labels = list(subsets)
            alphas = []
            for J in labels:
                kk = k - len(J)
                alphas.append(DiffForm.zero(prob, max(kk, 0)))
            return WedgeDivisionSolution(shape=shape, m=m, labels=labels, alphas=alphas)
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
                return WedgeDivisionSolution(shape=shape, m=m,
                                             labels=list(subsets),
                                             alphas=[DiffForm.zero(prob, 0)
                                                     for _ in subsets])
            continue
        mat = SparseMatrix(tgt.dim, ncols, f)
        for (J, src), col0 in zip(blocks, offsets):
            if src is not None:
                assemble(mat, rules[J], src, tgt, col0=col0)
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
                alphas.append(src.form_of_vector(
                    sol[offsets[bi]:offsets[bi + 1]]))
        return WedgeDivisionSolution(shape=shape, m=m, labels=labels, alphas=alphas)
    return None


def joint_wedge_kernel(problem: ProblemInput, multipliers: list[DiffForm],
                       k: int, weight: int, over: str = "polynomial-ring"
                       ) -> list[DiffForm]:
    """Basis of { omega of word length k and the given weight :
    w_i /\\ omega = 0 for every multiplier }, in the chosen coefficient
    ring."""
    space = _form_spaces(problem, over)
    src = space(k, weight)
    if src.dim == 0:
        return []
    f = problem.field
    tgts = [(w, space(k + 1, weight + _dx_only_weight(w, "multiplier")))
            for w in multipliers]
    mat = SparseMatrix(sum(t.dim for _, t in tgts), src.dim, f)
    row0 = 0
    for w, tgt in tgts:
        assemble(mat, wedge_rule(w.terms, problem.n, f), src, tgt, row0=row0)
        row0 += tgt.dim
    return [src.form_of_vector(vec) for vec in kernel_basis(mat)]


def reduce_form_mod_ideal(form: DiffForm, gens) -> DiffForm:
    """Reduce every coefficient of a dx-only form to its normal form modulo
    the degree slices of (gens)."""
    if form.is_zero():
        return form
    prob = form.problem
    terms = []
    for key, c in form.terms.items():
        xexp, yexp, dxs, dys = key
        if any(yexp) or dys:
            raise InputError("only dx-only forms can be reduced")
        space = quotient_basis(prob, form.k, sum(xexp) + form.k, gens)
        terms.extend((space.keys[pos], v) for pos, v in space.coords(key, c))
    return DiffForm(prob, form.k, terms)


# ---------------------------------------------------------------------------
# verification driver
# ---------------------------------------------------------------------------


MODE_CI = "complete-intersection"
MODE_NCZ = "no-common-zero"


@dataclass
class Check:
    name: str
    expected: object
    got: object

    @property
    def passed(self) -> bool:
        return self.expected == self.got


@dataclass
class VerificationReport:
    mode: str
    checks: list
    dims: dict            # (k, q, p) -> dim

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _witness_class_is_nonzero(problem: ProblemInput) -> bool:
    """Whether df_1 /\\ ... /\\ df_r /\\ dy_1 /\\ ... /\\ dy_r is closed and
    not a boundary in its slice."""
    r = problem.r
    zx = (0,) * problem.n
    zy = (0,) * problem.r
    w = DiffForm.term(problem, zx, zy, (), tuple(range(r)))
    for j in range(r - 1, -1, -1):
        w = df_form(problem, j).wedge(w)
    if not boundary(w).is_zero():
        return False
    tgt = basis(problem, 2 * r, 0, r)
    vec = tgt.vector_of_form(w)
    if all(problem.field.is_zero(v) for v in vec):
        return False
    bmat = boundary_matrix(problem, 2 * r - 1, 0, r - 1)
    return not in_column_span(bmat, vec)


def verify_predictions(problem: ProblemInput, mode: str, certificate,
                       p_max: int | None = None,
                       division_m_max: int | None = None) -> VerificationReport:
    """Brute-force the q = 0 cohomology dimensions over a (k, p) window and
    compare them with the predicted patterns for the chosen mode. Refuses to
    run without a successful certificate of the matching kind.

    With division_m_max set (complete-intersection mode only), also checks
    the wedge-division property: every form in the joint kernel of all the
    df_i∧ maps with word length k < n-1, over the quotient by the
    polynomials, factors through the full product df_1∧...∧df_r at
    saturation exponent 0."""
    n, r = problem.n, problem.r
    if mode == MODE_CI:
        if not r < n:
            raise HypothesisViolation(f"mode {mode} needs r < n (got r={r}, n={n})")
        want_kind = "smooth-ci"
    elif mode == MODE_NCZ:
        if not r >= n:
            raise HypothesisViolation(f"mode {mode} needs r >= n (got r={r}, n={n})")
        want_kind = "no-common-zero"
    else:
        raise InputError(f"unknown verification mode {mode!r}")
    if certificate is None or not getattr(certificate, "success", False):
        raise CertificateRequired(
            f"verification in mode {mode} requires a successful {want_kind} "
            f"certificate")
    if certificate.kind != want_kind:
        raise CertificateRequired(
            f"mode {mode} needs a {want_kind} certificate, got "
            f"{certificate.kind}")

    if p_max is None:
        p_max = n + 1
    top = n + r
    slices = [(k, 0, p) for k in range(top + 1) for p in range(p_max + 1)]
    dims = cohomology_report(problem, slices)

    # every row outside the live ones must vanish
    live_rows = {2 * r, top - 1, top} if mode == MODE_CI else {2 * n}
    checks: list[Check] = []
    for k in range(top + 1):
        if k in live_rows:
            continue
        bad = [(p, dims[(k, 0, p)]) for p in range(p_max + 1) if dims[(k, 0, p)]]
        got = "all zero" if not bad else f"dim {bad[0][1]} at p={bad[0][0]}"
        checks.append(Check(f"vanishing[k={k}]", "all zero", got))
    if mode == MODE_CI:
        for p in range(p_max + 1):
            if p < r or p >= n:
                checks.append(Check(f"top-vanishing[p={p}]", 0, dims[(top, 0, p)]))
        table = hodge_table(n, problem.degrees, problem.field)
        for p in range(p_max + 1):
            offset = table.dim_next.get(p, 0) - table.dim_top.get(p, 0)
            diff = dims[(top - 1, 0, p)] - dims[(top, 0, p)]
            checks.append(Check(f"middle-pair[p={p}]", offset, diff))
        if r < n - 1:
            for p in range(p_max + 1):
                checks.append(Check(f"low-corner[p={p}]",
                                    1 if p == r else 0, dims[(2 * r, 0, p)]))
            checks.append(Check("low-corner-witness", "nonzero",
                                "nonzero" if _witness_class_is_nonzero(problem)
                                else "boundary"))
    else:
        for p in range(p_max + 1):
            checks.append(Check(f"top-slice[p={p}]",
                                1 if p == n else 0, dims[(2 * n, 0, p)]))
        if r == n and not problem.field.is_zero(problem.degree_product_in_field()):
            from .certify import ideal_membership, jacobian_determinant
            det = jacobian_determinant(problem)
            member = ideal_membership(det, list(problem.polys))
            checks.append(Check("jacobian-det-outside-ideal", False, member))

    if division_m_max is not None and mode == MODE_CI:
        checks.extend(_division_checks(problem, division_m_max))

    return VerificationReport(mode=mode, checks=checks, dims=dims)


def _division_checks(problem: ProblemInput, m_max: int) -> list:
    """Wedge-division rows: each joint-kernel basis form of word length
    k < n-1 (over the quotient by the polynomials, weights up to
    k + max degree) must factor through the full product of the df's with
    saturation exponent 0."""
    from .certify import jacobian_minors
    n, r = problem.n, problem.r
    dfs = [df_form(problem, j) for j in range(r)]
    g = next((mnr for mnr in jacobian_minors(problem) if not mnr.is_zero()),
             None)
    checks = []
    for k in range(n - 1):
        for w in range(k, k + max(problem.degrees) + 1):
            kern = joint_wedge_kernel(problem, dfs, k, w,
                                      over="quotient-by-f")
            for i, omega in enumerate(kern):
                if omega.is_zero():
                    continue
                sol = wedge_division_solve(
                    omega, dfs, "full-product", over="quotient-by-f",
                    saturation=(g, m_max) if g is not None else None)
                got = "NONE" if sol is None else f"m={sol.m}"
                checks.append(Check(f"division[k={k},w={w},i={i}]",
                                    "m=0", got))
    return checks
