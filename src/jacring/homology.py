"""Exact cohomology of the boundary complex, the wedge-division question of
`verify --m-max`, and `verify_predictions`, which compares brute-force
dimensions against the predicted patterns.

Everything here is slice-local: a cohomology dimension at (k, q, p) touches
only the three graded slices the boundary connects, so no global complex is
ever materialized. A dimension is the slice's count
(`hilbert.omega_slice_dim`, 0 outside the complex) minus the ranks of the
two boundaries at the slice; a boundary with an empty source or target has
rank 0. Every matrix is assembled on slice layouts (`forms.assemble`), and
no form is read into coordinates any other way. The wedge division works
on the coordinate vectors of one dx-only layout over K[x]/(f):
`joint_wedge_kernel` returns the kernel of d_x on it as vectors,
`wedge_division_solve` tests them as they are at m = 0, and at m >= 1
applies the assembled multiplication by g^m.

`verify` at every r <= n takes its dimensions from the E_1 page instead.
dF = d_x + d_y, with d_x = (sum_j y_j df_j) /\\ . and
d_y = (sum_j f_j dy_j) /\\ . ; filtered by the dx word length, the E_0
differential is d_y, the Koszul complex of f_1..f_r. When f is a regular
sequence its cohomology is K[x]/(f) dy_1..dy_r and 0 at every shorter dy
word (Eisenbud, Commutative Algebra, Cor. 17.5), so the spectral sequence
stops at E_2 and dim H^k(q, p) is the cohomology of the reduced complex:
the forms c y^b dx_I dy_1..dy_r with c in K[x]/(f), |I| = k - r and
|b| = p - r, under d_x (`_d_x`). Wedging with dy_1..dy_r is a bijection
onto them from the dy-free forms over K[x]/(f) that commutes with d_x, so
the reduced slice (k, q, p) is laid out as the dy-free quotient layout
(k - r, q + sum d, p - r), the kind wedge division uses too. Its slice
sizes are counted by `hilbert.reduced_slice_dim`, which is 0 below k = r
or p = r. At r = 1, f != 0 is regular; at r >= 2 the proof is the
certificate that verify requires. A successful smooth-ci certificate
(r < n) proves (f, r x r minors) m-primary; on a component of V(f) of
dimension > n - r every minor would vanish (Jacobian criterion), so there
is no such component, and f is regular since K[x] is Cohen-Macaulay. A
successful no-common-zero certificate at r = n proves (f) m-primary.
Without such a proof the reduced complex gives wrong dimensions, so
`cohomology`, which certifies nothing, keeps the full complex, and so
does r > n. The witness class of verify is read on the E_1 page too
(`_witness_class_is_nonzero`): one assembled column, no rank.
`_boundary_rank` ranks the boundaries of both complexes.

Over Q a boundary rank comes first from a copy of the problem reduced
mod the prime _MODULAR_PRIME = P = 2^31 - 1, accepted only under a proof
(Abbott, Bronstein & Mulders, ISSAC '99). The copy exists when P divides
no denominator and no polynomial vanishes mod P; then, for the full and
the reduced complex alike, rank_P <= rank_Q on every boundary:
1. A full boundary of the copy is the entrywise reduction of the Q one,
   and reduction never raises a rank.
2. At r = 1, f and f mod P are regular, so each reduced complex has the
   cohomology h_j of its full complex (the E_1 argument above). The two
   reduced complexes have equal slice sizes (`reduced_slice_dim`), and so
   have the two full ones.
3. Along a chain (k + i, q, p + i), which is 0 for small i, the boundary
   d_i has rank sum_{j <= i} (-1)^(i-j) (dim C_j - h_j). So rank_P - rank_Q
   of a reduced boundary equals that of the full boundary with the same
   index, which is <= 0 by 1.
Then d∘d = 0 bounds the two ranks at a slice by its dimension, so where
the mod-P cohomology of the copy vanishes at either end of a boundary,
its mod-P rank is its Q rank (`_proves_rank`). At r >= 2 nothing proves
f mod P regular, so the reduced complex has no copy. Every other
boundary, and every boundary of a problem with no copy, is ranked
exactly over Q.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .certify import ideal_membership, jacobian_determinant, jacobian_minors
from .errors import CertificateRequired, InputError
from .fields import PrimeField
from .forms import DiffForm, SliceLayout, assemble, basis, dF_of, df_form
from .hilbert import hodge_table, omega_slice_dim, reduced_slice_dim
from .linalg import SparseMatrix, in_column_span, kernel_basis, rank
from .polynomials import MultiPoly
from .problem import ProblemInput


def _d_x(problem: ProblemInput) -> DiffForm:
    """d_x = sum_j y_j df_j: the terms of dF_of(problem) that carry no
    dy."""
    return DiffForm(problem, 1, [(key, c) for key, c in
                                 dF_of(problem).terms.items() if not key[3]])


def boundary_matrix(problem: ProblemInput, k: int, q: int, p: int,
                    reduced: bool = False) -> SparseMatrix:
    """Matrix of the boundary out of the (k, q, p) slice into
    (k+1, q, p+1), assembled on the two slice layouts. With reduced set it
    is the reduced complex's boundary (the module docstring): _d_x from the
    dy-free quotient layout (k - r, q + sum d, p - r) into
    (k - r + 1, q + sum d, p - r + 1). Wedging with dy_1..dy_r maps these
    onto the reduced slices block for block, in order, and commutes with
    d_x, whose merge sign ignores dy letters."""
    mu = dF_of(problem)
    if reduced:
        mu, r = _d_x(problem), problem.r
        k, q, p = k - r, q + sum(problem.degrees), p - r
    return assemble(mu, SliceLayout(problem, k, q, p, reduced),
                    SliceLayout(problem, k + 1, q, p + 1, reduced))


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
    return problem.memo(("reduction",), _reduce, problem.polys)


def _reduce(polys) -> ProblemInput | None:
    """_reduction's value, built on a cache miss."""
    field = PrimeField(_MODULAR_PRIME)
    try:
        return ProblemInput(field, [MultiPoly(field, f.nvars, f.terms)
                                    for f in polys])
    except (ZeroDivisionError, InputError):
        return None


def _proves_rank(modular: ProblemInput, k: int, q: int, p: int,
                 reduced: bool) -> bool:
    """Whether the mod-P cohomology of the modular copy's full or reduced
    complex vanishes at the source or the target of the boundary out of
    (k, q, p), which proves that boundary's Q rank equal to its mod-P rank
    (see the module docstring)."""
    return (cohomology_dim(modular, k, q, p, reduced) == 0
            or cohomology_dim(modular, k + 1, q, p + 1, reduced) == 0)


def _boundary_rank(problem: ProblemInput, k: int, q: int, p: int, *,
                   reduced: bool = False) -> int:
    """Rank of the boundary out of (k, q, p) of the full complex or, with
    reduced set, of the reduced one, cached on the problem: 0 when its
    source or target counts no term, else over Q the rank of the modular
    copy where a vanishing mod-P slice proves it (the reduced complex has
    no copy at r >= 2), else the rank of the assembled boundary."""
    return problem.memo(("rrank" if reduced else "brank", k, q, p),
                        _prove_or_rank, problem, k, q, p, reduced)


def _prove_or_rank(problem: ProblemInput, k: int, q: int, p: int,
                   reduced: bool) -> int:
    """_boundary_rank's value, computed on a cache miss."""
    if (not _count(problem, k, q, p, reduced)
            or not _count(problem, k + 1, q, p + 1, reduced)):
        return 0
    modular = None if reduced and problem.r > 1 else _reduction(problem)
    if modular is not None and _proves_rank(modular, k, q, p, reduced):
        return _boundary_rank(modular, k, q, p, reduced=reduced)
    return rank(boundary_matrix(problem, k, q, p, reduced))


def _count(problem: ProblemInput, k: int, q: int, p: int,
           reduced: bool) -> int:
    """The size of the (k, q, p) slice of the full or the reduced complex,
    counted without building it; 0 outside the complex."""
    count = reduced_slice_dim if reduced else omega_slice_dim
    return count(problem.n, problem.degrees, k, q, p)


def cohomology_dim(problem: ProblemInput, k: int, q: int, p: int,
                   reduced: bool = False) -> int:
    """dim of the boundary cohomology at slice (k, q, p), computed as the
    slice's count minus the ranks of the outgoing and incoming boundaries;
    the count is 0 outside the complex. With reduced set, the slice and
    its boundaries are the reduced complex's, which gives the same
    dimension only when f is a regular sequence (the module docstring)."""
    d = _count(problem, k, q, p, reduced)
    if d == 0:
        return 0
    return (d - _boundary_rank(problem, k, q, p, reduced=reduced)
            - _boundary_rank(problem, k - 1, q, p - 1, reduced=reduced))


def cohomology_report(problem: ProblemInput, slices,
                      reduced: bool = False) -> dict:
    """{(k, q, p): dim} for an iterable of (k, q, p) slices, in sorted
    order; reduced as in cohomology_dim."""
    return {kqp: cohomology_dim(problem, *kqp, reduced)
            for kqp in sorted(set(slices))}


# ---------------------------------------------------------------------------
# wedge division on dx-only forms over K[x]/(f)
# ---------------------------------------------------------------------------


def _df_product(problem: ProblemInput) -> DiffForm:
    """df_1 /\\ ... /\\ df_r."""
    product = df_form(problem, 0)
    for j in range(1, problem.r):
        product = product.wedge(df_form(problem, j))
    return product


def joint_wedge_kernel(problem: ProblemInput, k: int,
                       weight: int) -> tuple[SliceLayout, list]:
    """The dx-only layout of word length k and the given weight over
    K[x]/(f), f the problem's polynomials, and a basis of its joint kernel
    { omega : df_j /\\ omega = 0 for every j } as vectors on it: ker d_x
    from (k, weight, 0) into (k + 1, weight, 1), whose y_j block is
    df_j /\\ omega."""
    src = SliceLayout(problem, k, weight, 0, True)
    if src.dim == 0:
        return src, []
    tgt = SliceLayout(problem, k + 1, weight, 1, True)
    return src, kernel_basis(assemble(_d_x(problem), src, tgt))


def wedge_division_solve(problem: ProblemInput, layout: SliceLayout,
                         vectors: list, g: MultiPoly | None,
                         m_max: int) -> list[int | None]:
    """For each vector on the dx-only layout over K[x]/(f) (see
    joint_wedge_kernel), the least m <= m_max such that g^m times its form
    lies in the image of df_1 /\\ ... /\\ df_r /\\ . on the dx-only forms
    over K[x]/(f), or None when no m does; with g None only m = 0 is tried.
    Each m assembles the product's matrix once, into the layout at weight
    + m deg g, and decides the vectors still open in one in_column_span
    call: at m = 0 the vectors themselves, at m >= 1 their images under
    the assembled multiplication by g^m."""
    if m_max < 0:
        raise InputError(f"saturation bound {m_max} is negative")
    if g is None:
        m_max = 0
    elif g.is_zero() or g.homogeneous_degree() is None:
        raise InputError("saturation multiplier must be nonzero homogeneous")
    if not vectors:
        return []
    product = _df_product(problem)
    f, k = problem.field, layout.k
    found, todo = [None] * len(vectors), range(len(vectors))
    for m in range(m_max + 1):
        tgt, open_vectors = layout, [vectors[i] for i in todo]
        if m:
            tgt = SliceLayout(problem, k, layout.q + m * g.homogeneous_degree(),
                              0, True)
            gm = assemble(DiffForm.of_poly(problem, g.pow(m)), layout, tgt)
            open_vectors = [[f.of(sum(c * vec[j] for j, c in row.items()))
                             for row in gm.rows] for vec in open_vectors]
        src = SliceLayout(problem, k - problem.r, tgt.q - sum(problem.degrees),
                          0, True)
        mat = assemble(product, src, tgt)
        left = []
        for i, inside in zip(todo, in_column_span(mat, open_vectors)):
            if inside:
                found[i] = m
            else:
                left.append(i)
        if not left:
            break
        todo = left
    return found


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
    """Whether xi_r = df_1 /\\ ... /\\ df_r /\\ dy_1 /\\ ... /\\ dy_r, a
    closed form, is not a boundary, for f regular (verify's certificate).
    Filtered by dx word length, xi_r sits in filtration r, and E_1 lives
    only at the dy word dy_1..dy_r (the module docstring), so at total
    degree 2r only |I| = r is left. The E_1 term that could hit it comes
    from (2r-1, 0, r-1) of the reduced complex, which is 0 (p < r). So the
    class is nonzero exactly when xi_r's coordinates on the reduced slice
    (2r, 0, r) are, the dy-free quotient layout (r, sum d, 0): when some
    r x r Jacobian minor lies outside (f). They are the one column of the
    wedge with df_1 /\\ ... /\\ df_r from the unit layout (0, 0, 0)."""
    r = problem.r
    unit = SliceLayout(problem, 0, 0, 0, True)
    tgt = basis(problem, r, sum(problem.degrees), 0, quotient=True)
    return any(assemble(_df_product(problem), unit, tgt).rows)


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
    raised; then check_verify_bounds checks the bounds. At r <= n the
    dimensions come from the reduced complex: f is a regular sequence,
    proven by that certificate at r >= 2 and by f != 0 at r = 1 (the
    module docstring).

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
    dims = cohomology_report(problem, slices, r <= n)

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
    g = next((mnr for mnr in jacobian_minors(problem) if not mnr.is_zero()),
             None)
    checks = []
    for k in range(problem.n - 1):
        for w in range(k, k + max(problem.degrees) + 1):
            layout, vectors = joint_wedge_kernel(problem, k, w)
            for i, m in enumerate(wedge_division_solve(problem, layout,
                                                       vectors, g, m_max)):
                got = "NONE" if m is None else f"m={m}"
                checks.append(Check(f"division[k={k},w={w},i={i}]",
                                    "m=0", got))
    return checks
