from __future__ import annotations

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacring.errors import InputError
from jacring.polynomials import MultiPoly, monomials_of_degree, parse_poly

from helpers import F7, Q, random_homogeneous

NAMES3 = ["x1", "x2", "x3"]


def test_monomials_of_degree_counts():
    # number of degree-N monomials in nvars variables is C(N+nvars-1, nvars-1)
    for nvars in range(1, 7):
        for N in range(0, 13):
            monos = monomials_of_degree(nvars, N)
            assert len(monos) == comb(N + nvars - 1, nvars - 1)
            assert len(set(monos)) == len(monos)
            assert all(len(m) == nvars and sum(m) == N for m in monos)
    assert monomials_of_degree(3, -1) == []


def test_monomials_order_deterministic():
    """Descending lex order, x1 > ... > xn. The Macaulay columns of the
    quotient slices follow it, so it fixes their complement bases, the
    order of kernel vectors and of matrix rows, and with them the output
    bytes; no rank or dimension depends on it."""
    for nvars in range(1, 6):
        for N in range(0, 8):
            monos = monomials_of_degree(nvars, N)
            assert monos == sorted(monos, reverse=True), (nvars, N)


@st.composite
def small_polys(draw):
    """Three small polynomials in one common number of variables."""
    nvars = draw(st.integers(1, 3))
    polys = []
    for _ in range(3):
        nterms = draw(st.integers(0, 4))
        terms = {}
        for _ in range(nterms):
            exp = tuple(draw(st.integers(0, 2)) for _ in range(nvars))
            terms[exp] = draw(st.integers(-4, 4))
        polys.append(MultiPoly(Q, nvars, terms))
    return polys


@settings(max_examples=80, deadline=None)
@given(small_polys())
def test_ring_axioms(polys):
    f, g, h = polys
    nv = f.nvars
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f - f == MultiPoly.zero(Q, nv)
    assert f * MultiPoly.constant(Q, nv, 1) == f


def test_euler_identity():
    # sum_i x_i * df/dx_i = deg(f) * f for homogeneous f
    rng = random.Random(123)
    for field in (Q, F7):
        for _ in range(40):
            nvars = rng.randint(1, 4)
            deg = rng.randint(1, 4)
            f = random_homogeneous(rng, field, nvars, deg)
            acc = MultiPoly.zero(field, nvars)
            for i in range(nvars):
                acc = acc + MultiPoly.variable(field, nvars, i) * f.partial_derivative(i)
            assert acc == f.scale(field.of(deg))


def test_partial_derivative_product_rule():
    rng = random.Random(7)
    for _ in range(30):
        f = random_homogeneous(rng, Q, 3, rng.randint(1, 3))
        g = random_homogeneous(rng, Q, 3, rng.randint(1, 3))
        for i in range(3):
            lhs = (f * g).partial_derivative(i)
            rhs = f.partial_derivative(i) * g + f * g.partial_derivative(i)
            assert lhs == rhs


def test_homogeneous_degree():
    f = parse_poly(Q, NAMES3, "x1^2 + x2*x3")
    assert f.homogeneous_degree() == 2
    g = parse_poly(Q, NAMES3, "x1^2 + x2")
    assert g.homogeneous_degree() is None
    assert MultiPoly.zero(Q, 3).homogeneous_degree() is None
    assert MultiPoly.constant(Q, 3, 5).homogeneous_degree() == 0


def test_pow_and_scale():
    f = parse_poly(Q, NAMES3, "x1 + x2")
    assert f.pow(2) == parse_poly(Q, NAMES3, "x1^2 + 2*x1*x2 + x2^2")
    assert f.pow(0) == MultiPoly.constant(Q, 3, 1)
    assert f.scale(Fraction(1, 2)) == parse_poly(Q, NAMES3, "1/2*x1 + 1/2*x2")


def test_parse_round_trip():
    rng = random.Random(99)
    for _ in range(25):
        f = random_homogeneous(rng, Q, 3, rng.randint(1, 3))
        assert parse_poly(Q, NAMES3, f.to_string(NAMES3)) == f


def test_parse_examples():
    f = parse_poly(Q, NAMES3, "x1^3 + x2^3 + x3^3")
    assert f.terms == {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}
    assert parse_poly(Q, NAMES3, "2*x1*x2 - x3^2").terms == {
        (1, 1, 0): 2, (0, 0, 2): -1}
    assert parse_poly(Q, NAMES3, "x1 - x1").is_zero()
    assert parse_poly(F7, NAMES3, "10*x1").terms == {(1, 0, 0): 3}
    assert parse_poly(Q, NAMES3, "1/2*x1^2").terms == {(2, 0, 0): Fraction(1, 2)}


def test_parse_rejects_garbage():
    for bad in ["", "x9", "x1 +", "* x1", "x1^", "x1 x2", "x1 @ x2",
                "x1^x2", "3/0*x1", "+", "x1^-2"]:
        with pytest.raises(InputError):
            parse_poly(Q, NAMES3, bad)


def test_to_string_readable():
    f = parse_poly(Q, NAMES3, "x1^2 - 2*x2*x3")
    s = f.to_string(NAMES3)
    assert "x1^2" in s and "x2*x3" in s
    assert MultiPoly.zero(Q, 3).to_string() == "0"
