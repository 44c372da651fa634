from __future__ import annotations

import gc
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacring.certify import no_common_zero_certificate, smooth_ci_certificate
from jacring.errors import CertificateRequired, InputError, SliceMismatch
from jacring.fields import PrimeField
from jacring.forms import (DiffForm, SliceLayout, assemble, basis, dF_of,
                           df_form)
from jacring.hilbert import omega_slice_dim, reduced_slice_dim
import jacring.homology as homology
from jacring.homology import (boundary_matrix, cohomology_dim,
                              cohomology_report, verify_predictions,
                              _witness_class_is_nonzero)
from jacring.linalg import SparseMatrix, in_column_span, rank
from jacring.polynomials import MultiPoly, parse_poly
from jacring.problem import problem_from_strings

from helpers import (F2, F3, F32003, Q, boundary, cached_tables, conic_char2,
                     exceptional_pair_char2, fermat_cubic, fermat_quintic,
                     form_term, full_witness_class_is_nonzero, key_basis,
                     koszul_cohomology_dim, matrix_of, per_term_assemble,
                     quotient_basis, quotient_wedge_matrix,
                     record_table_builds, singular_cubic_curve, square_pair,
                     theta, theta_matrix, theta_preimage, two_conics,
                     two_quadrics, wedge_rule, xi)


# ---------------------------------------------------------------------------
# matrices of the operators
# ---------------------------------------------------------------------------


def test_matrix_on_empty_source_slice():
    prob = fermat_cubic()
    src = basis(prob, 4, 0, 0)  # word length 4 needs p >= 1 here
    assert src.dim == 0
    m = boundary_matrix(prob, 4, 0, 0)
    assert m.ncols == 0 and rank(m) == 0


def test_theta_matrix_one_by_one():
    # single x-variable: contraction sends dx1 to x1, a 1x1 matrix (1)
    prob = problem_from_strings(Q, 1, ["x1^2"])
    src = key_basis(prob, 1, 1, 0)
    tgt = key_basis(prob, 0, 1, 0)
    assert src.dim == 1 and tgt.dim == 1
    m = matrix_of(prob, theta, src, tgt)
    assert m.rows == [{0: Q.one}]


def _same_matrix(got, want, where):
    assert (got.nrows, got.ncols) == (want.nrows, want.ncols), where
    assert got.rows == want.rows, where


def _same_rows(got, want, where):
    """Equal matrices, each row's entries in the same order too."""
    assert (got.nrows, got.ncols) == (want.nrows, want.ncols), where
    assert ([list(row.items()) for row in got.rows]
            == [list(row.items()) for row in want.rows]), where


# fixtures over Q, F_2, F_3 and F_32003
ASSEMBLER_FIXTURES = (fermat_cubic, two_conics, square_pair, two_quadrics,
                      conic_char2, lambda: fermat_cubic(F3),
                      lambda: two_conics(F3), lambda: fermat_cubic(F32003))


def test_assembler_matches_per_column_oracle():
    """Every operator matrix from the table assembler equals the per-term
    assembler and the per-column oracle entry for entry, on every slice
    from k = -1 to n+r+1 (empty ends and slices outside the complex
    included) and p = 0..4 (0..3 at n + r = 6, where the oracles' p = 4
    slices cost more than the rest of the test): the boundary, and the
    wedge blocks of the division solver into the polynomial and the
    quotient form spaces. The contraction's matrix (a test oracle itself)
    equals the per-column oracle too."""
    for make in ASSEMBLER_FIXTURES:
        prob = make()
        n, r, f = prob.n, prob.r, prob.field
        dF = dF_of(prob)
        rule = wedge_rule(dF.terms, n, f)
        for k in range(-1, n + r + 2):
            for q in range(-2, 3):
                for p in range(5 if n + r < 6 else 4):
                    src = key_basis(prob, k, q, p)
                    tgt = key_basis(prob, k + 1, q, p + 1)
                    where = (prob.degrees, f, k, q, p)
                    got = boundary_matrix(prob, k, q, p)
                    _same_rows(got, per_term_assemble(
                        SparseMatrix(tgt.dim, src.dim, f), rule, src, tgt),
                        where + ("boundary",))
                    _same_matrix(got, matrix_of(prob, dF, src, tgt),
                                 where + ("boundary",))
                    if 0 <= q < 2 and p < 4:
                        _same_matrix(theta_matrix(prob, k, q, p),
                                     matrix_of(prob, theta, src,
                                               key_basis(prob, k - 1, q, p)),
                                     where + ("theta",))
        mults = [(df_form(prob, j), prob.degrees[j]) for j in range(r)]
        if r > 1:
            full = mults[0][0]
            for w, _ in mults[1:]:
                full = full.wedge(w)
            mults.append((full, sum(prob.degrees)))
        for k in range(n):
            for weight in range(k, k + max(prob.degrees) + 2):
                for mult, d in mults:
                    rule = wedge_rule(mult.terms, n, f)
                    where = (prob.degrees, f, k, weight, mult.k)
                    for quotient in (False, True):
                        src = SliceLayout(prob, k, weight, 0, quotient)
                        tgt = SliceLayout(prob, k + mult.k, weight + d, 0,
                                          quotient)
                        got = assemble(mult, src, tgt)
                        if quotient:
                            src = quotient_basis(prob, k, weight)
                            tgt = quotient_basis(prob, k + mult.k,
                                                 weight + d)
                            if tgt.quotient is None:
                                continue
                            want = quotient_wedge_matrix(mult, src, tgt)
                        else:
                            src = key_basis(prob, k, weight, 0)
                            tgt = key_basis(prob, k + mult.k, weight + d, 0)
                            want = matrix_of(prob, mult, src, tgt)
                        _same_rows(got, per_term_assemble(
                            SparseMatrix(tgt.dim, src.dim, f), rule, src,
                            tgt), where + (quotient,))
                        _same_matrix(got, want, where + (quotient,))


def test_assemble_rejects_a_target_that_misses_the_image():
    prob = two_conics()
    src = SliceLayout(prob, 1, 0, 1)
    for k, q, p in [(2, 0, 1), (2, 1, 2), (1, 0, 2)]:
        tgt = SliceLayout(prob, k, q, p)
        assert src.dim and tgt.dim
        with pytest.raises(SliceMismatch):
            assemble(dF_of(prob), src, tgt)
    # a quotient layout, the dx-only 1-forms of weight 4 over
    # K[x]/(x1^3 + x2^3 + x3^3): the wedge with a term from the layout of
    # the unit reads the term's coordinates, a pivot monomial through its
    # normal form, and refuses a term outside the layout
    prob = fermat_cubic()
    unit = SliceLayout(prob, 0, 0, 0, quotient=True)
    layout = SliceLayout(prob, 1, 4, 0, quotient=True)
    oracle = quotient_basis(prob, 1, 4)
    pivot = next(iter(oracle.quotient.pivot_normal_forms()))
    inside = form_term(prob, pivot, (0,), (0,), ())
    mat = assemble(inside, unit, layout)
    assert unit.dim == 1
    assert [row.get(0, Q.zero) for row in mat.rows] == \
        oracle.vector_of_form(inside)
    strays = [form_term(prob, pivot, (1,), (0,), ()),        # a y
              form_term(prob, pivot, (0,), (), (0,)),        # a dy
              form_term(prob, (2, 0, 0), (0,), (0,), ()),    # x degree
              form_term(prob, (2, 0, 0), (0,), (0, 1), ())]  # word length
    for stray in strays:
        with pytest.raises(SliceMismatch):
            assemble(stray, unit, layout)
        with pytest.raises(SliceMismatch):
            oracle.vector_of_form(stray)


PROPERTY_PROBLEMS = [make() for make in ASSEMBLER_FIXTURES]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_boundary_matrix_acts_as_the_boundary(data):
    """boundary_matrix(k, q, p) maps the coordinates of a form of the
    (k, q, p) slice to those of its boundary: the layout's columns and
    rows follow the key order of helpers.layout_keys."""
    prob = data.draw(st.sampled_from(PROPERTY_PROBLEMS))
    f = prob.field
    k = data.draw(st.integers(0, prob.n + prob.r), label="k")
    q = data.draw(st.integers(-1, 1), label="q")
    p = data.draw(st.integers(0, 2), label="p")
    src = key_basis(prob, k, q, p)
    terms = {}
    if src.dim:
        terms = data.draw(st.dictionaries(
            st.integers(0, src.dim - 1), st.integers(-3, 3), max_size=6),
            label="terms")
    omega = DiffForm(prob, k, [(src.keys[i], c) for i, c in terms.items()])
    vec = src.vector_of_form(omega)
    image = []
    for row in boundary_matrix(prob, k, q, p).rows:
        acc = f.zero
        for j, v in row.items():
            acc = f.add(acc, f.mul(v, vec[j]))
        image.append(acc)
    assert image == key_basis(prob, k + 1, q, p + 1).vector_of_form(
        boundary(omega))


def test_report_builds_no_basis_and_each_table_once(monkeypatch):
    """cohomology_report assembles its boundaries on slice layouts: it
    caches no basis, on the problem or on its modular copy, and builds each
    multiplication table once per problem, (g, a) and ring. The two
    quadrics get the same check on their shared problem in
    test_reduced_complex, whose window contains this one."""
    built = record_table_builds(monkeypatch)
    cached = set()
    problems = []
    for prob in (fermat_cubic(), two_conics(F32003)):
        slices = [(k, q, p) for k in range(prob.n + prob.r + 1)
                  for q in (-1, 0, 1) for p in range(4)]
        cohomology_report(prob, slices)
        reduced = homology._reduction(prob)
        for problem in [prob] + ([reduced] if reduced else []):
            problems.append(problem)   # keeps each id() unique
            assert not [key for key in problem._cache if key[0] == "basis"]
            cached |= cached_tables([problem])
    assert cached
    assert sorted(built, key=repr) == sorted(cached, key=repr)


def test_boundary_matrices_compose_to_zero():
    for prob in (fermat_cubic(), two_conics(), square_pair()):
        f = prob.field
        for k in range(prob.n + prob.r):
            for q in range(2):
                for p in range(3):
                    a = boundary_matrix(prob, k, q, p)
                    b = boundary_matrix(prob, k + 1, q, p + 1)
                    # every row of b @ a, from the sparse rows
                    for brow in b.rows:
                        out = {}
                        for i, w in brow.items():
                            for j, v in a.rows[i].items():
                                out[j] = f.add(out.get(j, f.zero),
                                               f.mul(w, v))
                        assert all(f.is_zero(v) for v in out.values()), (
                            prob.degrees, k, q, p)


# ---------------------------------------------------------------------------
# cohomology dimensions
# ---------------------------------------------------------------------------


def test_cubic_curve_slices():
    prob = fermat_cubic()
    assert cohomology_dim(prob, 4, 0, 2) == 1
    assert cohomology_dim(prob, 2, 0, 1) == 1
    assert cohomology_dim(prob, 1, 0, 1) == 0
    # out of range: nothing there
    assert cohomology_dim(prob, 5, 0, 2) == 0
    assert cohomology_dim(prob, -1, 0, 0) == 0
    assert cohomology_dim(prob, 2, 0, -1) == 0


def test_four_points_slices():
    # two conics in P^2: four reduced points, so the primitive part of the
    # top group has dimension 4 - 1 = 3 in weight 2
    prob = two_conics()
    assert cohomology_dim(prob, 5, 0, 2) == 3
    assert cohomology_dim(prob, 4, 0, 2) == 4


def test_no_common_zero_pair_slices():
    prob = square_pair()
    assert cohomology_dim(prob, 4, 0, 2) == 1
    for k in range(5):
        for p in range(5):
            if (k, p) == (4, 2):
                continue
            assert cohomology_dim(prob, k, 0, p) == 0, (k, p)


def test_euler_characteristic_diagonal():
    """Alternating sums of slice dims and of cohomology dims agree along
    every boundary diagonal."""
    for prob in (fermat_cubic(), two_conics(), square_pair()):
        n, r = prob.n, prob.r
        for p_top in range(n + 2):
            chi_slices = 0
            chi_cohom = 0
            for k in range(n + r + 1):
                p_k = p_top - (n + r - k)
                if p_k < 0:
                    continue
                chi_slices += (-1) ** k * basis(prob, k, 0, p_k).dim
                chi_cohom += (-1) ** k * cohomology_dim(prob, k, 0, p_k)
            assert chi_slices == chi_cohom, (prob.degrees, p_top)


# ---------------------------------------------------------------------------
# Q boundary ranks from the modular copy
# ---------------------------------------------------------------------------


def _window(prob, p_max):
    return cohomology_report(prob, [(k, 0, p) for k in range(prob.n + prob.r + 1)
                                    for p in range(p_max + 1)])


# the nonzero q = 0 slices of the Fermat cubic over Q, each of dimension 1
CUBIC_LIVE = {(2, 0, 1), (3, 0, 1), (3, 0, 2), (4, 0, 1), (4, 0, 2)}


def _is_cubic_window(dims) -> bool:
    return {kqp: d for kqp, d in dims.items() if d} == dict.fromkeys(
        CUBIC_LIVE, 1)


def _rank_fields(monkeypatch) -> list:
    """The field kind of every matrix homology ranks from now on."""
    fields = []
    real_rank = homology.rank
    monkeypatch.setattr(homology, "rank", lambda mat: fields.append(
        mat.field.kind) or real_rank(mat))
    return fields


def test_modular_ranks_match_the_exact_path_on_every_q_fixture(monkeypatch):
    """Each Q fixture's window has the same dimensions whether the proven
    mod-P ranks are used or every boundary is ranked over Q; the windows
    include slices where the mod-P cohomology does not vanish (the
    singular cubic curve is nonzero along whole rows)."""
    fixtures = ((fermat_cubic, 4), (two_conics, 4), (square_pair, 3),
                (singular_cubic_curve, 4), (two_quadrics, 2))
    fields = _rank_fields(monkeypatch)
    modular = {fx.__name__: _window(fx(), p_max) for fx, p_max in fixtures}
    assert "F" in fields and "Q" in fields
    fields.clear()
    monkeypatch.setattr(homology, "_reduction", lambda problem: None)
    for fx, p_max in fixtures:
        assert modular[fx.__name__] == _window(fx(), p_max), fx.__name__
    assert set(fields) == {"Q"}


def test_an_unlucky_prime_still_gives_the_q_dimensions(monkeypatch):
    """Mod 3 the Fermat cubic is (x1 + x2 + x3)^3, singular, so its mod-3
    cohomology does not vanish everywhere the Q cohomology does; only the
    ranks that a vanishing mod-3 slice proves are kept."""
    monkeypatch.setattr(homology, "_MODULAR_PRIME", 3)
    fields = _rank_fields(monkeypatch)
    assert _is_cubic_window(_window(fermat_cubic(), 4))
    # some boundaries are proven mod 3, the others fall back to Q
    assert "F" in fields and "Q" in fields


def test_trusting_unproven_mod_3_ranks_gives_wrong_dimensions(monkeypatch):
    """The vanishing check is what makes the previous test pass: accepting
    every mod-3 rank changes the dimensions."""
    monkeypatch.setattr(homology, "_MODULAR_PRIME", 3)
    monkeypatch.setattr(homology, "_proves_rank", lambda *args: True)
    assert not _is_cubic_window(_window(fermat_cubic(), 4))


def test_no_reduction_when_the_prime_divides_a_denominator_or_a_polynomial():
    """A coefficient with denominator P, or a polynomial that vanishes mod
    P, leaves the problem without a modular copy; it is ranked over Q."""
    P = homology._MODULAR_PRIME
    cubic = problem_from_strings(Q, 3, [f"x1^3 + x2^3 + 1/{P}*x3^3"])
    assert homology._reduction(cubic) is None
    assert _is_cubic_window(_window(cubic, 4))
    conics = problem_from_strings(Q, 3, ["x1^2 + x2^2 - x3^2",
                                         f"{P}*x1^2 - {P}*x2^2"])
    assert homology._reduction(conics) is None
    assert _window(conics, 2) == _window(two_conics(), 2)
    assert homology._reduction(fermat_cubic(PrimeField(32003))) is None


def _record_boundaries(monkeypatch) -> list:
    """Record (problem, k, q, p, matrix, reduced) for every boundary_matrix
    call."""
    calls = []
    original = homology.boundary_matrix

    def recording(problem, k, q, p, reduced=False):
        mat = original(problem, k, q, p, reduced)
        calls.append((problem, k, q, p, mat, reduced))
        return mat
    monkeypatch.setattr(homology, "boundary_matrix", recording)
    return calls


def _count(problem, k, q, p, reduced=False) -> int:
    count = reduced_slice_dim if reduced else omega_slice_dim
    return count(problem.n, problem.degrees, k, q, p)


def test_report_caches_slices_and_leaves_no_cycles():
    prob = fermat_cubic()
    slices = [(k, 0, p) for k in range(5) for p in range(3)]
    dims = cohomology_report(prob, slices)
    assert set(dims) == set(slices)
    assert all(v >= 0 for v in dims.values())
    # perfbench computes brank.hit_ratio from these keys
    for k, q, p in slices:
        if _count(prob, k, q, p):
            assert ("brank", k, q, p) in prob._cache
    # nothing a problem caches points back at it, so a finished problem is
    # freed by reference counting alone
    for field in (Q, PrimeField(32003)):
        gc.disable()
        try:
            gc.collect()
            prob = fermat_cubic(field)
            cert = smooth_ci_certificate(prob)
            verify_predictions(prob, cert, p_max=3, division_m_max=1)
            del prob, cert
            assert gc.collect() == 0, field
        finally:
            gc.enable()


def test_q_problem_builds_bases_only_to_rank_over_q(monkeypatch):
    """A problem over Q builds the slice bases of the boundaries it ranks
    over Q and the witness's quotient layout, no other: its dimensions
    come from the slice counts and the modular copy's ranks.
    cohomology_report ranks the full complex through the modular copy;
    verify, which takes its dimensions from the reduced complex at r = 2,
    adds the witness's layout: the reduced (2r, 0, r) slice as the
    dy-free quotient layout (r, sum d, 0)."""
    calls = _record_boundaries(monkeypatch)
    ranked = []

    def recording_rank(mat):
        ranked.append(mat)
        return rank(mat)
    monkeypatch.setattr(homology, "rank", recording_rank)
    prob = problem_from_strings(Q, 4, ["x1^2 + 2*x2^2 + 3*x3^2 + 4*x4^2",
                                       "4*x1^2 + 3*x2^2 + 5*x3^2 + x4^2"])
    r = prob.r
    window = [(k, 0, p) for k in range(prob.n + r + 1) for p in range(5)]
    dims = cohomology_report(prob, window)
    report = verify_predictions(prob, smooth_ci_certificate(prob), p_max=4)
    assert report.passed
    assert report.dims == dims
    q_ranked = {id(mat) for mat in ranked if mat.field.kind == "Q"}
    allowed = {(r, sum(prob.degrees), 0, True)}
    for problem, k, q, p, mat, reduced in calls:
        if problem is prob and not reduced and id(mat) in q_ranked:
            allowed |= {(k, q, p, False), (k + 1, q, p + 1, False)}
    built = {key[1:] for key in prob._cache if key[0] == "basis"}
    assert built and built <= allowed
    assert any(problem is not prob for problem, *_ in calls)


@pytest.mark.parametrize("make", [fermat_cubic, two_conics])
def test_no_boundary_is_assembled_into_an_empty_slice(monkeypatch, make):
    calls = _record_boundaries(monkeypatch)
    prob = make()
    assert verify_predictions(prob, smooth_ci_certificate(prob)).passed
    assert calls
    for problem, k, q, p, _, reduced in calls:
        assert _count(problem, k, q, p, reduced) > 0
        assert _count(problem, k + 1, q, p + 1, reduced) > 0


@pytest.mark.parametrize("make", [two_quadrics, lambda: two_quadrics(F32003),
                                  two_conics, square_pair, fermat_cubic,
                                  lambda: fermat_cubic(F32003)],
                         ids=["quadrics-Q", "quadrics-F32003", "conics",
                              "squares", "cubic-Q", "cubic-F32003"])
def test_verify_at_r_le_n_uses_no_full_complex(monkeypatch, make):
    """At every r <= n verify takes its dimensions from the reduced complex
    and reads the witness class on a quotient layout, so it ranks and
    assembles no boundary of the full complex, division rows included.
    Over Q the modular copy ranks reduced slices at r = 1 only."""
    original, original_rank = homology.boundary_matrix, homology._boundary_rank

    def reduced_only(problem, k, q, p, reduced=False):
        assert reduced, ("full-complex boundary", k, q, p)
        return original(problem, k, q, p, reduced)

    def no_full_rank(problem, k, q, p, *, reduced=False):
        assert reduced, ("full-complex rank", k, q, p)
        return original_rank(problem, k, q, p, reduced=reduced)
    monkeypatch.setattr(homology, "boundary_matrix", reduced_only)
    monkeypatch.setattr(homology, "_boundary_rank", no_full_rank)
    prob = make()
    if prob.r < prob.n:
        report = verify_predictions(prob, smooth_ci_certificate(prob),
                                    division_m_max=0)
    else:
        report = verify_predictions(prob, no_common_zero_certificate(prob))
    assert report.passed
    modular = homology._reduction(prob)
    assert modular is None or (prob.r == 1) == any(
        key[0] == "rrank" for key in modular._cache)


# ---------------------------------------------------------------------------
# Koszul complexes
# ---------------------------------------------------------------------------


def test_koszul_of_the_variables():
    for n in (1, 2, 3):
        gens = [MultiPoly(Q, n, {tuple(1 if t == i else 0 for t in range(n)): Q.one})
                for i in range(n)]
        assert koszul_cohomology_dim(gens, n, -n) == 1
        for i in range(-n + 1, 3):
            for k in range(n + 1):
                assert koszul_cohomology_dim(gens, k, i) == 0, (n, k, i)


def test_koszul_no_common_zero_generators():
    # (x^2, y^2, xy) in two variables: no common projective zero, so the
    # graded pieces above the socle bound vanish
    gens = [parse_poly(Q, ["x1", "x2"], s) for s in ("x1^2", "x2^2", "x1*x2")]
    for i in range(-1, 4):
        for k in range(4):
            assert koszul_cohomology_dim(gens, k, i) == 0, (k, i)


def test_koszul_rejects_bad_generators():
    with pytest.raises(InputError):
        koszul_cohomology_dim([], 0, 0)
    inhom = MultiPoly(Q, 2, {(1, 0): Q.one, (2, 0): Q.one})
    with pytest.raises(InputError):
        koszul_cohomology_dim([inhom], 0, 0)


# ---------------------------------------------------------------------------
# the distinguished classes
# ---------------------------------------------------------------------------


def test_witness_class_on_two_quadrics():
    assert _witness_class_is_nonzero(two_quadrics())


# (fixture, whether its witness class is nonzero); every Jacobian minor of
# the three False ones lies in (f)
WITNESS_FIXTURES = [
    (fermat_cubic, True), (two_quadrics, True), (two_conics, True),
    (conic_char2, True), (exceptional_pair_char2, True),
    (singular_cubic_curve, True), (lambda: fermat_cubic(F3), False),
    (lambda: fermat_cubic(F32003), True),
    (lambda: two_quadrics(F32003), True), (lambda: two_conics(F3), True),
    (fermat_quintic, True),
    (lambda: problem_from_strings(Q, 4, ["x1^2", "x1*x2"]), False),
    (lambda: problem_from_strings(F2, 3, ["x1^4 + x2^4 + x3^4"]), False),
]


def test_witness_class_matches_the_full_complex_oracle():
    """On every fixture with r <= n - 1, over Q and F_p, the witness read
    on the reduced (2r, 0, r) layout agrees with the full-complex oracle;
    nothing of the reduced complex can hit it, since its (2r - 1, 0, r - 1)
    slice is empty."""
    for make, nonzero in WITNESS_FIXTURES:
        prob = make()
        n, r = prob.n, prob.r
        assert r <= n - 1
        assert reduced_slice_dim(n, prob.degrees, 2 * r - 1, 0, r - 1) == 0
        assert full_witness_class_is_nonzero(prob) == nonzero, prob.polys
        assert _witness_class_is_nonzero(prob) == nonzero, prob.polys


def test_verify_predictions_refuses_negative_bounds():
    """A negative second-grading bound would check no slice and a negative
    saturation bound would try no exponent; both are input errors."""
    prob = fermat_cubic()
    cert = smooth_ci_certificate(prob)
    with pytest.raises(InputError, match="second-grading bound -2"):
        verify_predictions(prob, cert, p_max=-2)
    with pytest.raises(InputError, match="saturation bound -1"):
        verify_predictions(prob, cert, p_max=1, division_m_max=-1)
    report = verify_predictions(prob, cert, p_max=0,
                                division_m_max=0)
    assert report.passed


def test_division_checks_need_a_complete_intersection():
    """With r >= n there are no wedge-division checks to run, so asking for
    them is an input error, not a report without them."""
    prob = square_pair()
    cert = no_common_zero_certificate(prob)
    with pytest.raises(InputError, match="wedge-division checks need r < n"):
        verify_predictions(prob, cert, p_max=2, division_m_max=1)


def test_verify_predictions_requires_a_matching_certificate():
    """No certificate, an unsuccessful one, or one of the other kind: the
    mode the input fixes cannot be verified."""
    cubic, squares = fermat_cubic(), square_pair()
    failed = smooth_ci_certificate(cubic, bound=2)
    assert not failed.success
    for prob, cert in ((cubic, None), (cubic, failed),
                       (cubic, no_common_zero_certificate(squares)),
                       (squares, smooth_ci_certificate(cubic))):
        with pytest.raises(CertificateRequired):
            verify_predictions(prob, cert, p_max=0)


def test_theta_xi_matrix_identity():
    """theta(xi_r) differs from +-(prod d) eta_r by an element of the image
    of the composite (omega -> dF /\\ theta(omega))."""
    for prob in (two_quadrics(), two_conics()):
        r = prob.r
        f = prob.field
        assert r == 2
        eta1 = dF_of(prob)
        zeta1 = theta_preimage(eta1, 2, 0, 1)
        assert zeta1 is not None and theta(zeta1) == eta1
        eta2 = boundary(zeta1)                      # dF /\ zeta_1
        sign = (-1) ** (r * (r - 1) // 2)
        residual = theta(xi(prob, r)) - eta2.scale(f.of(sign * prod(prob.degrees)))
        src = key_basis(prob, 2 * r - 1, 0, r - 1)
        tgt = key_basis(prob, 2 * r - 1, 0, r)

        def composite(w):
            return boundary(theta(w))

        m = matrix_of(prob, composite, src, tgt)
        assert in_column_span(m, [tgt.vector_of_form(residual)]) == [True], \
            prob.degrees


def test_theta_xi_in_image_when_degrees_vanish():
    """With the degree product zero in the field, theta(xi_r) itself lies in
    the image of dF /\\ theta(.)."""
    prob = exceptional_pair_char2()
    f = prob.field
    r = prob.r
    assert f.is_zero(f.of(prod(prob.degrees)))
    target_form = theta(xi(prob, r))
    src = key_basis(prob, 2 * r - 1, 0, r - 1)
    tgt = key_basis(prob, 2 * r - 1, 0, r)
    m = matrix_of(prob, lambda w: boundary(theta(w)), src, tgt)
    assert in_column_span(m, [tgt.vector_of_form(target_form)]) == [True]
