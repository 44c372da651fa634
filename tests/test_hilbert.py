from __future__ import annotations

import random
import time
from fractions import Fraction
from functools import cache
from itertools import combinations_with_replacement
from math import comb, factorial, prod

import pytest

from jacring.errors import HypothesisViolation, InputError
from jacring.fields import PrimeField, Rationals
from jacring import hilbert
from jacring.hilbert import (Poly, _divide_by_one_minus_t, closed_form_H,
                             euler_series, eulerian_p, hodge_table,
                             omega_slice_dim, symmetry_check)

from helpers import (H_at_one, closed_form_H_per_vector, coeff_a, g_poly,
                     product_hilbert_series)

Q = Rationals()


# ---------------------------------------------------------------------------
# Poly
# ---------------------------------------------------------------------------


def test_poly_arithmetic():
    one, t = Poly.one(), Poly.t()
    sq = (one + t) * (one + t)
    assert sq == Poly({0: 1, 1: 2, 2: 1})
    assert sq(2) == 9 and sq(Fraction(1, 2)) == Fraction(9, 4)
    assert (sq - sq).is_zero() and sq.degree() == 2
    assert Poly.zero().degree() == -1
    assert sq.divide_exact(one + t) == one + t
    with pytest.raises(InputError):
        (one + t).divide_exact(Poly({0: 1, 1: -2, 2: 1}))
    with pytest.raises(InputError):
        Poly({0: Fraction(1, 2)}).int_coefficients()
    assert Poly({1: Fraction(4, 2)}).int_coefficients() == {1: 2}


def test_poly_to_string():
    assert Poly.zero().to_string() == "0"
    assert Poly({0: 1, 2: -3, 1: 1}).to_string() == "1 + t - 3t^2"
    assert Poly({1: 1, 4: 1}).to_string() == "t + t^4"


# ---------------------------------------------------------------------------
# the Eulerian-style numerators
# ---------------------------------------------------------------------------


def _power_sum_series(e: int, shift: int, terms: int) -> Poly:
    """Truncation of sum_b (b)^e t^b starting at b = shift."""
    return Poly({b: b ** e for b in range(shift, terms)})


def test_eulerian_p_against_series_oracle():
    """p_e(t) = (1-t)^(e+1) * sum_b b^e t^b, checked on truncations."""
    one_minus_t = Poly({0: 1, 1: -1})
    for e in range(8):
        terms = e + 12
        factor = Poly.one()
        for _ in range(e + 1):
            factor = factor * one_minus_t
        prod_series = factor * _power_sum_series(e, 0, terms)
        truncated = Poly({k: c for k, c in prod_series.coeffs.items()
                          if k <= e + 1})
        assert truncated == eulerian_p(e), e


def test_eulerian_p_fixed_facts():
    assert eulerian_p(0) == Poly.one()
    assert eulerian_p(1) == Poly.t()
    assert eulerian_p(2) == Poly({1: 1, 2: 1})
    assert eulerian_p(3) == Poly({1: 1, 2: 4, 3: 1})
    for e in range(1, 9):
        pe = eulerian_p(e)
        assert pe(1) == factorial(e)
        assert pe.coefficient(0) == 0
        # palindromic over degrees 1..e
        assert all(pe.coefficient(k) == pe.coefficient(e + 1 - k)
                   for k in range(1, e + 1))
    with pytest.raises(InputError):
        eulerian_p(-1)


# ---------------------------------------------------------------------------
# the per-vector oracle: the a-coefficients and g-polynomials
# ---------------------------------------------------------------------------


def test_coeff_a_symmetry():
    rng = random.Random(51)
    for _ in range(40):
        n = rng.randint(2, 7)
        r = rng.randint(1, n - 1)
        d = tuple(rng.randint(1, 5) for _ in range(r))
        e = tuple(rng.randint(1, max(1, (n - 1) // r)) for _ in range(r))
        if sum(e) > n - 1:
            continue
        E = sum(e)
        sign = (-1) ** (n + 1 + E)
        for l in range(n + 1):
            assert coeff_a(n, d, e, n - l) == sign * coeff_a(n, d, e, l), (
                n, d, e, l)


def test_g_poly_quotient_value():
    # hand-checked instance: n=3, d=(3,), e=(1,)
    g, quot = g_poly(3, (3,), (1,))
    assert quot == Poly({0: Fraction(-9, 2), 1: Fraction(-9, 2)})
    assert quot(1) == -9
    # the closed form of the value at 1, across random instances
    rng = random.Random(52)
    one_minus_t = Poly({0: 1, 1: -1})
    for _ in range(40):
        n = rng.randint(2, 7)
        r = rng.randint(1, n - 1)
        d = tuple(rng.randint(1, 5) for _ in range(r))
        e = tuple(rng.randint(1, max(1, (n - 1) // r)) for _ in range(r))
        E = sum(e)
        if E > n - 1:
            continue
        g, quot = g_poly(n, d, e)
        div = Poly.one()
        for _ in range(E + 1):
            div = div * one_minus_t
        assert quot * div == g
        want = Fraction((-1) ** (n + 1 + E) * comb(n, E + 1)
                        * prod(di ** ei for di, ei in zip(d, e)),
                        prod(factorial(ei) for ei in e))
        assert quot(1) == want, (n, d, e)
    with pytest.raises(InputError):
        g_poly(3, (2,), (0,))
    with pytest.raises(InputError):
        coeff_a(3, (2, 2), (1,), 0)


# ---------------------------------------------------------------------------
# frozen series values
# ---------------------------------------------------------------------------


def test_closed_form_fixed_inputs():
    assert closed_form_H(3, (3,)) == Poly({1: 1, 2: 1})
    assert closed_form_H(4, (2, 2)) == Poly({2: 1, 3: 1})
    assert closed_form_H(3, (2, 2)) == Poly({2: 3})
    assert closed_form_H(2, (2,)) == Poly({1: 1})
    assert closed_form_H(3, (2,)) == Poly.zero()          # smooth conic
    assert closed_form_H(5, (5,)) == Poly({1: 1, 2: 101, 3: 101, 4: 1})
    assert closed_form_H(4, (2, 1)) == Poly.zero()        # conic again
    assert closed_form_H(4, (3, 1)) == Poly({2: 1, 3: 1})  # plane cubic
    assert H_at_one(5, (5,)) == 204
    assert H_at_one(3, (3,)) == 2


def test_hyperplane_section_shifts_the_series():
    """Appending a linear form multiplies the series by t."""
    rng = random.Random(54)
    for _ in range(12):
        n = rng.randint(2, 6)
        r = rng.randint(1, n - 1)
        d = tuple(rng.randint(1, 5) for _ in range(r))
        lifted = closed_form_H(n + 1, d + (1,))
        base = closed_form_H(n, d)
        assert lifted == base * Poly.t(), (n, d)


def test_closed_form_hypothesis_errors():
    with pytest.raises(HypothesisViolation):
        closed_form_H(3, (1, 2, 3))     # r = n
    with pytest.raises(HypothesisViolation):
        closed_form_H(2, ())            # r = 0
    with pytest.raises(HypothesisViolation):
        H_at_one(2, (1, 1))
    with pytest.raises(InputError):
        closed_form_H(3, (0,))


def test_division_by_powers_of_one_minus_t():
    """The running-sum division of integer coefficient lists by
    (1-t)^times agrees with Poly.divide_exact where the division is exact,
    and a G that (1-t)^times does not divide raises InputError."""
    rng = random.Random(56)
    for _ in range(30):
        q = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
        times = rng.randint(1, 5)
        g = Poly(dict(enumerate(q)))
        for _ in range(times):
            g = g * Poly({0: 1, 1: -1})
        coeffs = [int(g.coefficient(k)) for k in range(len(q) + times)]
        assert _divide_by_one_minus_t(coeffs, times) == q
    assert _divide_by_one_minus_t([1, -2, 1], 2) == [1]
    for g, times in (([1, -2, 1], 3), ([1, 1], 1), ([2, -1, -1], 2)):
        with pytest.raises(InputError):
            _divide_by_one_minus_t(g, times)


def test_closed_form_asserts_integrality(monkeypatch):
    """(n-1)! H(t) is divided by (n-1)! exactly or not at all: a quotient
    off by one in its constant term leaves a non-integral coefficient,
    and closed_form_H raises InputError."""
    honest = hilbert._scaled_quotients

    def off_by_one(n, r):
        out = honest(n, r)
        return {E: [q[0] + 1] + q[1:] for E, q in out.items()}

    monkeypatch.setattr(hilbert, "_scaled_quotients", off_by_one)
    with pytest.raises(InputError, match="not an integer"):
        closed_form_H(4, (2, 2))


def test_closed_form_matches_per_vector_oracle():
    """The closed form grouped by E equals the paper's sum with one term per
    exponent vector, on every sweep shape with n <= 6 and on a seeded
    sample of the n = 7 shapes."""
    cases = list(_sweep_cases())
    small = [(n, d) for n, d in cases if n <= 6]
    assert len(small) == 456
    sample = random.Random(55).sample([(n, d) for n, d in cases if n == 7], 24)
    for n, d in small + sample:
        assert closed_form_H(n, d) == closed_form_H_per_vector(n, d), (n, d)


def test_closed_form_at_large_n():
    """n = 25, d = (3, 3), far past what the per-vector sum runs in a test:
    palindromic, positive on its support r..n-1, the right value at 1,
    and shifted by t when a linear form is appended."""
    n, d = 25, (3, 3)
    H = closed_form_H(n, d)
    assert symmetry_check(H, n, len(d))
    for k, c in H.coeffs.items():
        assert c > 0 and len(d) <= k <= n - 1, k
    assert H(1) == H_at_one(n, d)
    assert closed_form_H(n + 1, d + (1,)) == H * Poly.t()


# ---------------------------------------------------------------------------
# the full sweep (memoized: run once per session, timed by acceptance
# criterion 09 as well)
# ---------------------------------------------------------------------------


def _sweep_cases():
    for n in range(2, 8):
        for r in range(1, n):
            for d in combinations_with_replacement(range(1, 6), r):
                yield n, d


@cache
def series_sweep() -> tuple[int, float]:
    """Every degree multiset with n <= 7, r < n, d_i <= 5: palindromy, the
    alternating-composition value at 1, nonnegativity, and the support
    window. Returns the case count and the elapsed time."""
    t0 = time.perf_counter()
    count = 0
    for n, d in _sweep_cases():
        r = len(d)
        H = closed_form_H(n, d)
        assert symmetry_check(H, n, r), (n, d)
        assert H(1) == H_at_one(n, d), (n, d)
        for k, c in H.coeffs.items():
            assert c >= 0, (n, d, k)
            assert r <= k <= n - 1, (n, d, k)
        count += 1
    return count, time.perf_counter() - t0


def test_series_sweep():
    count, elapsed = series_sweep()
    assert count == 917
    assert elapsed < 60, f"sweep took {elapsed:.1f}s"


def test_closed_form_is_order_blind():
    rng = random.Random(53)
    for _ in range(10):
        n = rng.randint(3, 7)
        r = rng.randint(2, n - 1)
        d = [rng.randint(1, 5) for _ in range(r)]
        shuffled = d[:]
        rng.shuffle(shuffled)
        assert closed_form_H(n, tuple(d)) == closed_form_H(n, tuple(shuffled))


@cache
def euler_slice_count_sweep() -> float:
    """Coefficientwise: the alternating sum of slice dimensions along each
    boundary diagonal equals the closed-form series, for n + r <= 6.
    Returns the elapsed time."""
    t0 = time.perf_counter()
    for n, d in _sweep_cases():
        r = len(d)
        if n + r > 6:
            continue
        chi = euler_series(n, d)
        for p in range(n + 3):
            direct = 0
            for k in range(n + r + 1):
                p_k = p - (n + r - k)
                if p_k < 0:
                    continue
                sign = -1 if (n + r - k) % 2 else 1
                direct += sign * omega_slice_dim(n, d, k, 0, p_k)
            assert direct == chi.coefficient(p), (n, d, p)
    return time.perf_counter() - t0


def test_euler_series_matches_slice_counts():
    euler_slice_count_sweep()


# ---------------------------------------------------------------------------
# the product series and slice dimensions
# ---------------------------------------------------------------------------


def test_product_series_values():
    assert product_hilbert_series(3, (3,), 5) == [1, 3, 6, 9, 12, 15]
    assert product_hilbert_series(2, (2, 2), 4) == [1, 2, 1, 0, 0]
    assert product_hilbert_series(4, (2, 2), 3) == [1, 4, 8, 12]
    with pytest.raises(InputError):
        product_hilbert_series(2, (2,), -1)


def test_omega_slice_dim_hand_values():
    # 0-forms of x-degree q: plain monomial count
    for q in range(5):
        assert omega_slice_dim(3, (2,), 0, q, 0) == comb(q + 2, 2)
    # (k,q,p) = (4,0,2) for n=3, d=3: the word must be dx1 dx2 dx3 dy1, the
    # y-part is y1 (p = 2 = deg y1 + |dy|), so the x-part runs over the
    # degree-3 monomials: C(5,2) = 10
    assert omega_slice_dim(3, (3,), 4, 0, 2) == comb(5, 2)
    assert omega_slice_dim(3, (3,), -1, 0, 0) == 0
    assert omega_slice_dim(3, (3,), 5, 0, 0) == 0


# ---------------------------------------------------------------------------
# the dimension tables
# ---------------------------------------------------------------------------


def _nonzero(table: dict) -> dict:
    return {p: v for p, v in table.items() if v}


def test_hodge_table_generic():
    tab = hodge_table(3, (3,), Q)
    assert tab.exceptional is False
    assert sorted(tab.dim_top) == list(range(3 + 1))      # p = 0..n+r-1
    assert _nonzero(tab.dim_top) == {1: 1, 2: 1}
    assert tab.dim_next == tab.dim_top
    tab = hodge_table(5, (5,), PrimeField(32003))
    assert tab.exceptional is False
    assert _nonzero(tab.dim_top) == {1: 1, 2: 101, 3: 101, 4: 1}
    assert tab.dim_next == tab.dim_top


def test_hodge_table_last_codimension():
    # r = n-1: the next-to-top group gains one extra dimension at p = r
    tab = hodge_table(3, (2, 2), Q)
    assert tab.exceptional is False
    assert _nonzero(tab.dim_top) == {2: 3}
    assert _nonzero(tab.dim_next) == {2: 4}


def test_hodge_table_exceptional_characteristic():
    # n + r even with the degree product vanishing in the field
    tab = hodge_table(3, (2,), PrimeField(2))
    assert tab.exceptional is True
    mid = (3 + 1) // 2
    assert _nonzero(tab.dim_top) == {mid: 1}
    assert _nonzero(tab.dim_next) == {mid - 1: 1}
    # same degrees over Q: nothing anywhere
    tab_q = hodge_table(3, (2,), Q)
    assert tab_q.exceptional is False
    assert _nonzero(tab_q.dim_top) == {} and _nonzero(tab_q.dim_next) == {}
    # odd n + r never takes the exceptional branch
    tab_odd = hodge_table(4, (2,), PrimeField(2))
    assert tab_odd.exceptional is False
    assert tab_odd.dim_next == tab_odd.dim_top


def test_hodge_table_describe():
    text = hodge_table(5, (5,), Q).describe()
    assert "H(t) = t + 101t^2 + 101t^3 + t^4" in text
    assert "H(1) = 204" in text
    assert "palindromic: yes" in text
    assert "exceptional: no" in text
    assert "exceptional: yes" in hodge_table(3, (2,), PrimeField(2)).describe()
