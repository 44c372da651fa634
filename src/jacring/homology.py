"""Exact cohomology of the boundary complex, the wedge-division question of
`verify --m-max`, and `verify_predictions`, which compares brute-force
dimensions against the predicted patterns.

Everything here is slice-local: a cohomology dimension at (k, q, p) touches
only the three graded slices the boundary connects, so no global complex is
ever materialized. A dimension is the slice's count
(`hilbert.omega_slice_dim`, 0 outside the complex) minus the ranks of the
two boundaries at the slice; a boundary with an empty source or target has
rank 0. Every matrix is assembled on slice layouts (`forms.assemble`), and
the same layouts read forms: the witness class
(`_witness_class_is_nonzero`) and the division vectors of
`wedge_division_solve` come from `SliceLayout.vector_of_form`, and term
keys are listed only for the kernel forms of `joint_wedge_kernel`.

Over Q a boundary rank comes first from a copy of the problem reduced mod
the prime _MODULAR_PRIME = 2^31 - 1: reduction never raises a rank, and
d∘d = 0 bounds the two ranks at a slice by its dimension, so where the
mod-P cohomology of the copy vanishes at either end of a boundary, its
mod-P rank is its Q rank. Every other boundary, and every boundary of a
problem with no reduction (P divides a denominator, or a polynomial
vanishes mod P), is ranked exactly over Q: the only boundaries a problem
over Q assembles to rank.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .certify import ideal_membership, jacobian_determinant, jacobian_minors
from .errors import CertificateRequired, InputError
from .fields import PrimeField
from .forms import (DiffForm, SliceLayout, assemble, basis, boundary, dF_of,
                    df_form, xi)
from .hilbert import hodge_table, omega_slice_dim
from .linalg import SparseMatrix, in_column_span, kernel_basis, rank
from .polynomials import MultiPoly
from .problem import ProblemInput


def boundary_matrix(problem: ProblemInput, k: int, q: int,
                    p: int) -> SparseMatrix:
    """Matrix of the boundary out of the (k, q, p) slice into
    (k+1, q, p+1), assembled on the two slice layouts."""
    src = SliceLayout(problem, k, q, p)
    tgt = SliceLayout(problem, k + 1, q, p + 1)
    return assemble(SparseMatrix(tgt.dim, src.dim, problem.field),
                    dF_of(problem), src, tgt)


# the prime of the modular copy of a problem over Q; rank's int64 dense tail
# runs mod it (2^31 - 1 < linalg._NUMPY_P_LIMIT)
_MODULAR_PRIME = 2**31 - 1


def _reduction(problem: ProblemInput) -> ProblemInput | None:
    """The problem over F_P, P = _MODULAR_PRIME, with the polynomials
    reduced mod P; None over F_p, or when P divides a denominator or a
    polynomial vanishes mod P (a nonzero homogeneous reduction keeps its
    degree, so the slices match). Built once, cached on the problem; it
    shares nothing with it."""
    if problem.field.kind != "Q":
        return None
    key = ("reduction",)
    if key not in problem._cache:
        field = PrimeField(_MODULAR_PRIME)
        try:
            reduced = ProblemInput(field, [MultiPoly(field, f.nvars, f.terms)
                                           for f in problem.polys])
        except (ZeroDivisionError, InputError):
            reduced = None
        problem._cache[key] = reduced
    return problem._cache[key]


def _proves_rank(reduced: ProblemInput, k: int, q: int, p: int) -> bool:
    """Whether the mod-P cohomology of the reduced problem vanishes at the
    source or the target of the boundary out of (k, q, p), which proves that
    boundary's Q rank equal to its mod-P rank (see the module docstring)."""
    return (cohomology_dim(reduced, k, q, p) == 0
            or cohomology_dim(reduced, k + 1, q, p + 1) == 0)


def _boundary_rank(problem: ProblemInput, k: int, q: int, p: int) -> int:
    """Rank of the boundary out of (k, q, p), cached on the problem: 0 when
    its source or target counts no term, else over Q the rank of the
    modular copy where a vanishing mod-P slice proves it, else the rank of
    the assembled boundary."""
    key = ("brank", k, q, p)
    cached = problem._cache.get(key)
    if cached is None:
        n, degrees = problem.n, problem.degrees
        reduced = _reduction(problem)
        if (omega_slice_dim(n, degrees, k, q, p) == 0
                or omega_slice_dim(n, degrees, k + 1, q, p + 1) == 0):
            cached = 0
        elif reduced is not None and _proves_rank(reduced, k, q, p):
            cached = _boundary_rank(reduced, k, q, p)
        else:
            cached = rank(boundary_matrix(problem, k, q, p))
        problem._cache[key] = cached
    return cached


def cohomology_dim(problem: ProblemInput, k: int, q: int, p: int) -> int:
    """dim of the boundary cohomology at slice (k, q, p), computed as the
    slice's count minus the ranks of the outgoing and incoming boundaries;
    the count is 0 outside the complex."""
    d = omega_slice_dim(problem.n, problem.degrees, k, q, p)
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
# wedge division on dx-only forms over K[x]/(f)
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


def wedge_division_solve(omega: DiffForm, multipliers: list[DiffForm],
                         g: MultiPoly | None, m_max: int) -> int | None:
    """The least m <= m_max such that g^m * omega lies in the image of
    w_1 /\\ ... /\\ w_r /\\ . on the dx-only forms with coefficients in
    K[x]/(f), f the problem's polynomials, or None when no m does. Each m is
    decided by one rank comparison (in_column_span); with g None only m = 0
    is tried."""
    prob = omega.problem
    f = prob.field
    if m_max < 0:
        raise InputError(f"saturation bound {m_max} is negative")
    if not multipliers:
        raise InputError("need at least one multiplier")
    product = None
    product_weight = 0
    for i, w in enumerate(multipliers):
        if w.k != 1:
            raise InputError("multipliers must be 1-forms")
        product_weight += _dx_only_weight(w, f"multiplier {i}")
        product = w if product is None else product.wedge(w)
    if g is None:
        m_max, g_degree = 0, 0
    else:
        g_degree = g.homogeneous_degree()
        if g.is_zero() or g_degree is None:
            raise InputError(
                "saturation multiplier must be nonzero homogeneous")
    if omega.is_zero():
        return 0
    weight = _dx_only_weight(omega, "omega")
    k = omega.k
    for m in range(m_max + 1):
        # g^m * omega stays nonzero: K[x] is a domain
        target = omega.times_poly(g.pow(m)) if m else omega
        target_weight = weight + m * g_degree
        tgt = SliceLayout(prob, k, target_weight, 0, quotient=True)
        src = SliceLayout(prob, k - len(multipliers),
                          target_weight - product_weight, 0, quotient=True)
        mat = assemble(SparseMatrix(tgt.dim, src.dim, f), product, src, tgt)
        if in_column_span(mat, tgt.vector_of_form(target)):
            return m
    return None


def joint_wedge_kernel(problem: ProblemInput, multipliers: list[DiffForm],
                       k: int, weight: int) -> list[DiffForm]:
    """Basis of { omega of word length k and the given weight :
    w_i /\\ omega = 0 for every multiplier } over K[x]/(f), f the
    problem's polynomials."""
    src = SliceLayout(problem, k, weight, 0, quotient=True)
    if src.dim == 0:
        return []
    tgts = [(w, SliceLayout(problem, k + 1,
                            weight + _dx_only_weight(w, "multiplier"), 0,
                            quotient=True))
            for w in multipliers]
    mat = SparseMatrix(sum(t.dim for _, t in tgts), src.dim, problem.field)
    row0 = 0
    for w, tgt in tgts:
        assemble(mat, w, src, tgt, row0=row0)
        row0 += tgt.dim
    keys = src.keys()
    return [DiffForm(problem, k, zip(keys, vec)) for vec in kernel_basis(mat)]


# ---------------------------------------------------------------------------
# verification driver
# ---------------------------------------------------------------------------


MODE_CI = "complete-intersection"
MODE_NCZ = "no-common-zero"
# the verification mode that each hypothesis certificate opens
MODE_OF_KIND = {"smooth-ci": MODE_CI, "no-common-zero": MODE_NCZ}


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
    """Whether xi_r = df_1 /\\ ... /\\ df_r /\\ dy_1 /\\ ... /\\ dy_r is
    closed and not a boundary in its slice."""
    r = problem.r
    w = xi(problem, r)
    if not boundary(w).is_zero():
        return False
    tgt = basis(problem, 2 * r, 0, r)
    bmat = boundary_matrix(problem, 2 * r - 1, 0, r - 1)
    return not in_column_span(bmat, tgt.vector_of_form(w))


def check_verify_bounds(problem: ProblemInput, p_max: int | None,
                        division_m_max: int | None) -> None:
    """Raise InputError on a negative p_max or division_m_max (None is no
    bound), and on division_m_max with r >= n: mode MODE_CI only."""
    if p_max is not None and p_max < 0:
        raise InputError(f"second-grading bound {p_max} is negative")
    if division_m_max is not None and division_m_max < 0:
        raise InputError(f"saturation bound {division_m_max} is negative")
    if division_m_max is not None and problem.r >= problem.n:
        raise InputError(f"wedge-division checks need r < n (mode {MODE_CI}),"
                         f" got r = {problem.r}, n = {problem.n}")


def verify_predictions(problem: ProblemInput, certificate,
                       p_max: int | None = None,
                       division_m_max: int | None = None) -> VerificationReport:
    """Brute-force the q = 0 cohomology dimensions over the window
    p = 0..p_max (default n+1) and compare them with the predicted patterns.
    The input fixes the mode: complete-intersection when r < n, which needs
    a successful smooth-ci certificate, else no-common-zero, which needs a
    successful no-common-zero certificate; without it CertificateRequired is
    raised; then check_verify_bounds checks the bounds.

    With division_m_max set (complete-intersection mode), also checks the
    wedge-division property: every form in the joint kernel of all the
    df_i∧ maps with word length k < n-1, over the quotient by the
    polynomials, factors through the full product df_1∧...∧df_r at
    saturation exponent 0. At r = n-1 every such k is below r, where the
    division property makes the joint kernel zero, so no row is added."""
    n, r = problem.n, problem.r
    want_kind = "smooth-ci" if r < n else "no-common-zero"
    mode = MODE_OF_KIND[want_kind]
    if certificate is None or not certificate.success:
        raise CertificateRequired(
            f"verification in mode {mode} requires a successful {want_kind} "
            f"certificate")
    if certificate.kind != want_kind:
        raise CertificateRequired(
            f"mode {mode} needs a {want_kind} certificate, got "
            f"{certificate.kind}")

    check_verify_bounds(problem, p_max, division_m_max)
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
        if r == n and not problem.field.is_zero(
                problem.field.of(prod(problem.degrees))):
            det = jacobian_determinant(problem)
            member = ideal_membership(det, list(problem.polys))
            checks.append(Check("jacobian-det-outside-ideal", False, member))

    if division_m_max is not None:
        checks.extend(_division_checks(problem, division_m_max))

    return VerificationReport(mode=mode, checks=checks, dims=dims)


def _division_checks(problem: ProblemInput, m_max: int) -> list:
    """Wedge-division rows: each joint-kernel basis form of word length
    k < n-1 (over the quotient by the polynomials, weights up to
    k + max degree) must factor through the full product of the df's with
    saturation exponent 0."""
    n, r = problem.n, problem.r
    dfs = [df_form(problem, j) for j in range(r)]
    g = next((mnr for mnr in jacobian_minors(problem) if not mnr.is_zero()),
             None)
    checks = []
    for k in range(n - 1):
        for w in range(k, k + max(problem.degrees) + 1):
            kern = joint_wedge_kernel(problem, dfs, k, w)
            for i, omega in enumerate(kern):
                m = wedge_division_solve(omega, dfs, g, m_max)
                got = "NONE" if m is None else f"m={m}"
                checks.append(Check(f"division[k={k},w={w},i={i}]",
                                    "m=0", got))
    return checks
