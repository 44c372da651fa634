from __future__ import annotations

import random
from collections import Counter
from itertools import product

import pytest

from jacring import linalg
from jacring.certify import jacobian_minors, smooth_ci_certificate
from jacring.errors import InputError
from jacring.forms import DiffForm, df_form
import jacring.homology as homology
from jacring.homology import (joint_wedge_kernel, verify_predictions,
                              wedge_division_solve)
from jacring.polynomials import MultiPoly
from jacring.problem import problem_from_strings

from helpers import (F32003, Q, fermat_cubic, form_term, layout_keys,
                     reduce_form_mod_ideal, singular_cubic_curve, times_poly,
                     two_conics, wedge_division_oracle)


def conic_pair_of_points() -> "ProblemInput":
    """n=2, r=1, d=2: two reduced points in P^1."""
    return problem_from_strings(Q, 2, ["x1^2 + x2^2"])


def quadric_surface() -> "ProblemInput":
    """n=4, r=1, d=2: a smooth quadric in P^3."""
    return problem_from_strings(Q, 4, ["x1^2 + x2^2 + x3^2 + x4^2"])


def _first_minor(prob) -> MultiPoly:
    for g in jacobian_minors(prob):
        if not g.is_zero():
            return g
    raise AssertionError("all Jacobian minors vanish")


def _dfs(prob):
    return [df_form(prob, j) for j in range(prob.r)]


def _full_product(prob, alpha):
    acc = _dfs(prob)[0]
    for w in _dfs(prob)[1:]:
        acc = acc.wedge(w)
    return acc.wedge(alpha)


def _kernel_forms(prob, k, weight):
    """joint_wedge_kernel's vectors as forms on its layout."""
    layout, vectors = joint_wedge_kernel(prob, k, weight)
    keys = layout_keys(layout)
    return [DiffForm(prob, layout.k, zip(keys, v)) for v in vectors]


def _random_dx_form(rng, prob, k, degree):
    """A random dx-only k-form with homogeneous degree-`degree` coefficients."""
    from itertools import combinations
    from jacring.polynomials import monomials_of_degree
    form = DiffForm.zero(prob, k)
    zy = (0,) * prob.r
    for word in combinations(range(prob.n), k):
        for mono in monomials_of_degree(prob.n, degree):
            c = rng.randint(-2, 2)
            if c:
                form = form + form_term(prob, mono, zy, word, (), prob.field.of(c))
    return form


def test_kernel_elements_divide_without_saturation():
    """On certified smooth complete intersections, every joint-kernel form of
    low word length is a full product, already at saturation exponent 0."""
    cases = [
        # nonzero kernels can only appear for r <= k < n-1, so the sweep is
        # (correctly) vacuous unless r < n-1
        (conic_pair_of_points(), False),
        (fermat_cubic(), True),
        (two_conics(), False),
        (quadric_surface(), True),
    ]
    for prob, expect_nonempty in cases:
        cert = smooth_ci_certificate(prob)
        assert cert.success, prob.degrees
        g = _first_minor(prob)
        dfs = _dfs(prob)
        dmax = max(prob.degrees)
        checked = 0
        for k in range(prob.n - 1):
            for weight in range(0, k + dmax + 2):
                kern = _kernel_forms(prob, k, weight)
                if k < prob.r:
                    # a nonzero form of word length < r is never a product
                    # of r one-forms, so the kernel must vanish here
                    assert kern == [], (prob.degrees, k, weight)
                for omega in kern:
                    sol = wedge_division_oracle(
                        omega, dfs, "full-product", over="quotient-by-f",
                        saturation=(g, 2))
                    assert sol is not None, (prob.degrees, k, weight)
                    assert sol.m == 0, (prob.degrees, k, weight)
                    lhs = _full_product(prob, sol.alphas[0])
                    assert reduce_form_mod_ideal(lhs - omega).is_zero()
                    checked += 1
        assert (checked > 0) == expect_nonempty, prob.degrees


def test_construct_then_solve_round_trip_quotient():
    rng = random.Random(3001)
    for prob in (fermat_cubic(), two_conics()):
        dfs = _dfs(prob)
        for trial in range(6):
            kk = rng.randint(0, prob.n - 1 - prob.r) if prob.n - 1 > prob.r else 0
            gamma = _random_dx_form(rng, prob, kk, rng.randint(0, 2))
            omega = _full_product(prob, gamma)
            omega = reduce_form_mod_ideal(omega)
            if omega.is_zero():
                continue
            sol = wedge_division_oracle(omega, dfs, "full-product",
                                        over="quotient-by-f")
            assert sol is not None, (prob.degrees, trial)
            assert sol.m == 0
            lhs = _full_product(prob, sol.alphas[0])
            assert reduce_form_mod_ideal(lhs - omega).is_zero()


def test_construct_then_solve_round_trip_polynomial():
    rng = random.Random(3002)
    prob = fermat_cubic()
    dfs = _dfs(prob)
    for trial in range(6):
        gamma = _random_dx_form(rng, prob, 1, rng.randint(0, 2))
        omega = dfs[0].wedge(gamma)
        if omega.is_zero():
            continue
        sol = wedge_division_oracle(omega, dfs, "saito")
        assert sol is not None and sol.m == 0
        assert sol.labels == [(0,)]
        assert dfs[0].wedge(sol.alphas[0]) == omega


def test_generalized_shapes_bracket_the_named_ones():
    """s = r reproduces the one-factor expansion; s = 1 the full product."""
    rng = random.Random(3003)
    prob = two_conics()
    dfs = _dfs(prob)
    a1 = _random_dx_form(rng, prob, 1, 1)
    a2 = _random_dx_form(rng, prob, 1, 1)
    omega = dfs[0].wedge(a1) + dfs[1].wedge(a2)
    if not omega.is_zero():
        sol = wedge_division_oracle(omega, dfs, ("generalized", prob.r))
        assert sol is not None
        assert sorted(sol.labels) == [(0,), (1,)]
        rebuilt = dfs[0].wedge(sol.alphas[sol.labels.index((0,))]) \
            + dfs[1].wedge(sol.alphas[sol.labels.index((1,))])
        assert rebuilt == omega
    # full product via the generalized shape with s = 1
    gamma = _random_dx_form(rng, prob, 0, 1)
    omega2 = _full_product(prob, gamma)
    if not omega2.is_zero():
        sol2 = wedge_division_oracle(omega2, dfs, ("generalized", 1))
        assert sol2 is not None
        assert sol2.labels == [(0, 1)]
        assert _full_product(prob, sol2.alphas[0]) == omega2


def test_zero_form_is_divisible_in_every_shape():
    prob = two_conics()
    dfs = _dfs(prob)
    zero = DiffForm.zero(prob, 3)
    for shape in ("saito", "full-product", ("generalized", 1), ("generalized", 2)):
        sol = wedge_division_oracle(zero, dfs, shape)
        assert sol is not None and sol.m == 0
        assert all(a.is_zero() for a in sol.alphas)


def test_zero_solutions_have_word_length_k_minus_J():
    """f dx1 dx2 is zero over the quotient by f, and x1^5 dx1 leaves no
    1-form of weight -1 to divide by; the zero solution still has
    alpha of word length 2 - 1 = 1, so the identity can be checked."""
    prob = fermat_cubic()
    f = prob.polys[0]
    omega = times_poly(form_term(prob, (0, 0, 0), (0,), (0, 1), ()), f)
    mult = form_term(prob, (5, 0, 0), (0,), (0,), ())
    sol = wedge_division_oracle(omega, [mult], "saito", over="quotient-by-f")
    assert sol is not None and sol.m == 0 and sol.shape == "saito"
    assert [a.k for a in sol.alphas] == [1]
    residual = mult.wedge(sol.alphas[0]) - omega
    assert reduce_form_mod_ideal(residual).is_zero()


def test_unsolvable_form_returns_none():
    prob = fermat_cubic()
    dfs = _dfs(prob)
    zy = (0,)
    omega = form_term(prob, (2, 0, 0), zy, (1, 2), ())  # x1^2 dx2 dx3
    assert wedge_division_oracle(omega, dfs, "full-product") is None
    assert wedge_division_oracle(omega, dfs, "saito") is None


def test_saturation_finds_positive_exponent():
    """For the non-reduced single point f = x1^2, the 1-form
    x2 dx1 - x1 dx2 is in the kernel of df/\\ over the quotient but only
    divides after one multiplication by the minor 2 x1."""
    prob = problem_from_strings(Q, 2, ["x1^2"])
    dfs = _dfs(prob)
    g = _first_minor(prob)
    assert str(g) in ("2*x1", "(2)*x1") or g.terms == {(1, 0): Q.of(2)}
    omega = form_term(prob, (0, 1), (0,), (0,), ()) \
        - form_term(prob, (1, 0), (0,), (1,), ())
    # it is in the joint kernel over the quotient: df /\ omega = 0 mod (f)
    assert reduce_form_mod_ideal(dfs[0].wedge(omega)).is_zero()
    assert wedge_division_oracle(omega, dfs, "saito",
                                 over="quotient-by-f") is None
    sol = wedge_division_oracle(omega, dfs, "saito", over="quotient-by-f",
                                saturation=(g, 3))
    assert sol is not None and sol.m == 1
    lhs = dfs[0].wedge(sol.alphas[0])
    target = times_poly(omega, g)
    assert reduce_form_mod_ideal(lhs - target).is_zero()


def test_singular_input_kernel_needs_no_saturation_at_smooth_points():
    """x1 x2 x3 is singular; the solver itself still runs and the saturation
    search stays bounded."""
    prob = singular_cubic_curve()
    dfs = _dfs(prob)
    g = _first_minor(prob)
    kern = _kernel_forms(prob, 1, 3)
    for omega in kern:
        sol = wedge_division_oracle(omega, dfs, "saito", over="quotient-by-f",
                                    saturation=(g, 2))
        # every kernel element either divides within the bound or is
        # reported unsolvable; no exceptions, no wrong witnesses
        if sol is not None:
            lhs = dfs[0].wedge(sol.alphas[0])
            target = omega if sol.m == 0 else times_poly(omega, g.pow(sol.m))
            assert reduce_form_mod_ideal(lhs - target).is_zero()


def test_error_cases():
    """The input checks that wedge_division_solve keeps."""
    prob = fermat_cubic()
    g = _first_minor(prob)
    layout, vectors = joint_wedge_kernel(prob, 1, 3)
    assert len(vectors) == 1
    with pytest.raises(InputError):
        wedge_division_solve(prob, layout, vectors, MultiPoly(Q, 3, {}), 1)
    with pytest.raises(InputError, match="saturation bound -1"):
        # m_max < 0 would try no exponent and report omega unsolvable
        wedge_division_solve(prob, layout, vectors, g, -1)


def test_oracle_rejects_unknown_shapes():
    prob = fermat_cubic()
    dfs = _dfs(prob)
    omega = dfs[0].wedge(form_term(prob, (0, 0, 0), (0,), (1,), ()))
    with pytest.raises(InputError):
        wedge_division_oracle(omega, dfs, "not-a-shape")
    with pytest.raises(InputError):
        wedge_division_oracle(omega, dfs, ("generalized", 0))


def test_rank_decision_matches_the_oracle_on_every_division_check(
        monkeypatch):
    """On every kernel form that verify's division checks visit, at
    saturation bounds 0 and 2, the rank decision of wedge_division_solve
    gives the oracle's least m (or None),
    and the oracle's witness alpha satisfies
    df_1 /\\ ... /\\ df_r /\\ alpha = g^m * omega mod (f)."""
    visited = []

    def recording(prob, layout, vectors, g, m_max):
        ms = wedge_division_solve(prob, layout, vectors, g, m_max)
        visited.append((layout, vectors, g, m_max, ms))
        return ms

    monkeypatch.setattr(homology, "wedge_division_solve", recording)
    cases = [fermat_cubic(), quadric_surface(), singular_cubic_curve(),
             problem_from_strings(Q, 2, ["x1^2"])]
    assert _first_minor(cases[-1]).terms == {(1, 0): Q.of(2)}
    seen = set()
    for prob, m_max in product(cases, (0, 2)):
        dfs = _dfs(prob)
        visited.clear()
        checks = homology._division_checks(prob, m_max)
        forms = [(DiffForm(prob, layout.k, zip(layout_keys(layout), v)),
                  g, mm, m)
                 for layout, vectors, g, mm, ms in visited
                 for v, m in zip(vectors, ms)]
        assert len(checks) == len(forms) > 0, prob.degrees
        for check, (omega, g, m_max, m) in zip(checks, forms):
            assert check.got == ("NONE" if m is None else f"m={m}")
            sol = wedge_division_oracle(omega, dfs, "full-product",
                                        over="quotient-by-f",
                                        saturation=(g, m_max))
            assert (sol is None) == (m is None), (prob.degrees, check.name)
            seen.add(m)
            if sol is None:
                continue
            assert sol.m == m, (prob.degrees, check.name)
            target = times_poly(omega, g.pow(m)) if m else omega
            # below word length r the image is 0, so the target itself
            # must vanish mod (f)
            lhs = (_full_product(prob, sol.alphas[0]) if omega.k >= prob.r
                   else DiffForm.zero(prob, omega.k))
            assert reduce_form_mod_ideal(lhs - target).is_zero()
    assert seen == {0, 1, None}


def test_one_product_assembly_per_slice_and_exponent(monkeypatch):
    """On the quadric surface at saturation bound 0, four (k, w) have a
    nonzero joint kernel, of 1, 4, 4 and 15 forms; the division check
    assembles the product's matrix once for each of them, not once per
    kernel form."""
    solve, assemble = homology.wedge_division_solve, homology.assemble
    solving, targets = [], []

    def tracking_solve(*args, **kwargs):
        solving.append(True)
        try:
            return solve(*args, **kwargs)
        finally:
            solving.pop()

    def counting_assemble(mu, source, target):
        if solving:
            targets.append((target.k, target.q))
        return assemble(mu, source, target)

    monkeypatch.setattr(homology, "wedge_division_solve", tracking_solve)
    monkeypatch.setattr(homology, "assemble", counting_assemble)
    checks = homology._division_checks(quadric_surface(), 0)
    kernels = Counter(c.name.split(",i=")[0] for c in checks)
    assert sorted(kernels.values()) == [1, 4, 4, 15]
    assert len(targets) == 4
    assert {f"division[k={k},w={w}" for k, w in targets} == set(kernels)


def test_each_product_matrix_is_eliminated_once(monkeypatch):
    """On the quadric surface at saturation bound 0, the 24 kernel forms of
    four (k, w) are decided against four product matrices: one
    in_column_span call for each, which eliminates the product with the
    kernel vectors appended once, and no rank."""
    batches = []
    span = homology.in_column_span

    def counting_span(mat, vectors):
        batches.append(len(vectors))
        return span(mat, vectors)

    def no_rank(mat):
        raise AssertionError("ranked a matrix")
    monkeypatch.setattr(homology, "in_column_span", counting_span)
    monkeypatch.setattr(homology, "rank", no_rank)
    monkeypatch.setattr(linalg, "rank", no_rank)
    checks = homology._division_checks(quadric_surface(), 0)
    assert len(checks) == 24 and all(c.passed for c in checks)
    assert sorted(batches) == [1, 4, 4, 15]


def test_one_wedge_of_the_dfs_per_problem(monkeypatch):
    """On two quadrics in P^4 (the verify-quadrics-P4-mmax golden input),
    the certificate's minors, the witness class, the g of the division
    rows and every wedge_division_solve call read one product
    df_1 /\\ df_2: the df_j are wedged r - 1 = 1 time in all."""
    wedges = []
    wedge = DiffForm.wedge

    def counting(self, other):
        wedges.append((self.k, other.k))
        return wedge(self, other)
    monkeypatch.setattr(DiffForm, "wedge", counting)
    prob = problem_from_strings(F32003, 5, [
        "x1^2 + x2^2 + x3^2 + x4^2 + x5^2",
        "x1^2 + 2*x2^2 + 3*x3^2 + 4*x4^2 + 5*x5^2"])
    cert = smooth_ci_certificate(prob)
    report = verify_predictions(prob, cert, p_max=2, division_m_max=1)
    assert report.passed
    assert any(c.name.startswith("division[") for c in report.checks)
    assert wedges == [(1, 1)]
