"""End-to-end acceptance checks.

Each check pins exact expected values on a named input, most with a
wall-clock budget. Every dimension asserted here is produced by generic rank
computations on boundary matrices; the expected numbers come from the
closed-form series and from classical geometry (plane curves, quadric
intersections, the quintic threefold).

Criteria 08 and 09 read the contraction exactness sweep and the series
sweeps through the memoized runners of test_theta_exactness and
test_hilbert, so each sweep runs once per session whichever test asks
first; the criteria assert the shape count and the 60 s budget on those
runs. Criterion 07 (the operator identities) is the suite in
test_forms, and criterion 10 (the wedge-division round trip) is
test_kernel_elements_divide_without_saturation in test_wedge_division.
"""
from __future__ import annotations

import time

import test_hilbert
import test_theta_exactness
from helpers import (H_at_one, closed_form_H_per_vector, conic_char2,
                     fermat_cubic, fermat_quintic, square_pair, two_conics,
                     two_quadrics)

from jacring.certify import (ideal_membership, jacobian_determinant,
                             no_common_zero_certificate,
                             smooth_ci_certificate)
from jacring.hilbert import Poly, closed_form_H
from jacring.homology import _witness_class_is_nonzero, cohomology_dim


def _report(label: str, started: float, budget: float | None, detail: str):
    elapsed = time.perf_counter() - started
    print(f"{label}: PASS — {detail} ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"{label} took {elapsed:.1f}s, budget {budget}s"


def test_criterion_01_fermat_cubic_curve():
    """n=3, r=1, d=3 over Q: certificate, series, and the full cohomology
    grid for k <= 4, p <= 4 at q = 0."""
    t0 = time.perf_counter()
    prob = fermat_cubic()
    cert = smooth_ci_certificate(prob)
    assert cert.success and cert.vanishing_degree <= 4
    assert closed_form_H(3, (3,)) == Poly({1: 1, 2: 1})
    grid = {(k, p): cohomology_dim(prob, k, 0, p)
            for k in range(5) for p in range(5)}
    # top word length carries the series coefficients
    assert grid[4, 1] == 1 and grid[4, 2] == 1
    # everything vanishes away from word lengths 2r, n+r-1, n+r
    for (k, p), dim in grid.items():
        if k in (0, 1):
            assert dim == 0, (k, p)
    # a single class of word length 2r, at p = r only
    for p in range(5):
        assert grid[2, p] == (1 if p == 1 else 0), p
    # the top two word lengths agree dimension by dimension
    for p in range(5):
        assert grid[3, p] == grid[4, p], p
    _report("criterion 01 fermat cubic curve", t0, 5.0,
            "N=%d, H = t + t^2, top dims (1, 1)" % cert.vanishing_degree)


def test_criterion_02_two_quadrics_in_p3():
    """n=4, r=2 over Q: the certified smooth pencil of quadrics; the top
    cohomology row matches t^2 + t^3 coefficientwise and the product class
    of the two 1-forms with its dy factors is nonzero."""
    t0 = time.perf_counter()
    prob = two_quadrics()
    cert = smooth_ci_certificate(prob)
    assert cert.success
    H = closed_form_H(4, (2, 2))
    assert H == Poly({2: 1, 3: 1})
    for p in range(6):
        assert cohomology_dim(prob, 6, 0, p) == int(H.coefficient(p)), p
    assert cohomology_dim(prob, 4, 0, 2) == 1
    assert _witness_class_is_nonzero(prob)
    _report("criterion 02 two quadrics in P^3", t0, 60.0,
            "H = t^2 + t^3 brute-forced, witness class nonzero")


def test_criterion_03_fermat_quintic_threefold():
    """n=5, r=1, d=5 over F_32003: the classical 204-dimensional primitive
    middle cohomology, brute-forced slice by slice."""
    t0 = time.perf_counter()
    H = closed_form_H(5, (5,))
    assert H == Poly({1: 1, 2: 101, 3: 101, 4: 1})
    assert H(1) == 204 and H_at_one(5, (5,)) == 204
    # independent route: the paper's sum, one term per exponent vector
    assert closed_form_H_per_vector(5, (5,)) == H
    prob = fermat_quintic()
    dims = [cohomology_dim(prob, 6, 0, p) for p in (1, 2, 3, 4)]
    assert dims == [1, 101, 101, 1]
    _report("criterion 03 fermat quintic threefold", t0, 600.0,
            "H(1) = 204, top dims (1, 101, 101, 1)")


def test_criterion_04_exceptional_characteristic():
    """The smooth conic x1 x2 + x3^2 over F_2: the degree is zero in the
    field and n+r = 4 is even, so the two top word lengths differ by one
    in the two middle columns."""
    t0 = time.perf_counter()
    prob = conic_char2()
    assert prob.field.p == 2 and prob.degrees == (2,)
    assert cohomology_dim(prob, 3, 0, 1) == cohomology_dim(prob, 4, 0, 1) + 1
    assert cohomology_dim(prob, 3, 0, 2) == cohomology_dim(prob, 4, 0, 2) - 1
    _report("criterion 04 exceptional characteristic", t0, 5.0,
            "middle-column offsets +1/-1 confirmed over F_2")


def test_criterion_05_two_conics_in_p2():
    """r = n-1: two transversal conics meet in four points, so the primitive
    column is 3-dimensional and the next-to-top row gains one extra class
    at p = r."""
    t0 = time.perf_counter()
    prob = two_conics()
    H = closed_form_H(3, (2, 2))
    assert H == Poly({2: 3})
    assert cohomology_dim(prob, 5, 0, 2) == 3
    for p in range(5):
        offset = 1 if p == 2 else 0
        assert cohomology_dim(prob, 4, 0, p) == \
            cohomology_dim(prob, 5, 0, p) + offset, p
    _report("criterion 05 two conics in P^2", t0, 10.0,
            "h_2 = 3, next-to-top offset +1 at p = 2 only")


def test_criterion_06_common_zero_free_pair():
    """f = (x1^2, x2^2) with n = r = 2: certificate at N = 3, a single
    cohomology class at (k, p) = (4, 2), and the Jacobian determinant not
    in the ideal."""
    t0 = time.perf_counter()
    prob = square_pair()
    cert = no_common_zero_certificate(prob)
    assert cert.success and cert.vanishing_degree == 3
    for k in range(5):
        for p in range(5):
            want = 1 if (k, p) == (4, 2) else 0
            assert cohomology_dim(prob, k, 0, p) == want, (k, p)
    det = jacobian_determinant(prob)
    assert ideal_membership(det, list(prob.polys)) is False
    _report("criterion 06 common-zero-free pair", t0, 5.0,
            "N = 3, single class at (4, 2), det outside the ideal")


def test_criterion_08_contraction_exactness_suite():
    """The contraction sequence is exact with a one-dimensional cokernel
    only at (q, p) = (0, 0): exhaustive over q <= 3, p <= 4, n+r <= 5,
    over Q, F_2 and F_3, including degrees divisible by the
    characteristic."""
    t0 = time.perf_counter()
    shapes_checked = sum(test_theta_exactness.exactness_sweep(field_id)
                         for field_id in test_theta_exactness.FIELDS)
    assert shapes_checked == 32
    _report("criterion 08 contraction exactness suite", t0, None,
            f"{shapes_checked} (field, shape) pairs, all slices exact")


def test_criterion_09_series_pipeline_sweep():
    """Every degree multiset with n <= 7, r < n, d_i <= 5: palindromy, the
    value at 1, support and nonnegativity; plus the coefficientwise match of
    the Euler series against direct alternating slice counts for
    n + r <= 6."""
    t0 = time.perf_counter()
    count, sweep_s = test_hilbert.series_sweep()
    slice_s = test_hilbert.euler_slice_count_sweep()
    assert count == 917
    assert sweep_s + slice_s < 60.0, (
        f"series sweeps took {sweep_s + slice_s:.1f}s, budget 60.0s")
    _report("criterion 09 series pipeline sweep", t0, None,
            f"{count} degree multisets, all identities hold "
            f"(sweeps {sweep_s + slice_s:.2f}s)")
