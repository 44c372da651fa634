"""Values known from theory, computed without jacring's own pipeline.

The closed-form polynomial H(t) = sum_p h_p t^p of a smooth complete
intersection X of degrees d_1..d_r in P^(n-1) lists the primitive Hodge
numbers of X: with m = n - 1 - r = dim X, h_(r+j) = h_prim^(m-j, j).
Those come from Hirzebruch's generating function for the chi_y genus of
complete intersections (Topological Methods in Algebraic Geometry,
Thm. 22.1.1):

    sum_m chi_y(V_m) z^(m+r) = 1 / ((1+zy)(1-z))
        * prod_j ((1+zy)^d_j - (1-z)^d_j) / ((1+zy)^d_j + y (1-z)^d_j).

Off the middle dimension a complete intersection has the Hodge numbers of
projective space (Lefschetz), so the coefficient chi^p of y^p equals
(-1)^p + (-1)^(m-p) h_prim^(p, m-p).
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb


def _mul(a: list, b: list, order: int) -> list:
    out = [Fraction(0)] * (order + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(min(len(b), order + 1 - i)):
                out[i + j] += x * b[j]
    return out


def _inverse(a: list, order: int) -> list:
    inv = [Fraction(0)] * (order + 1)
    inv[0] = 1 / a[0]
    for k in range(1, order + 1):
        acc = sum(a[i] * inv[k - i] for i in range(1, min(k, len(a) - 1) + 1))
        inv[k] = -acc / a[0]
    return inv


def _binomial_series(c0, c1, e: int) -> list:
    """(c0 + c1 z)^e as a coefficient list in z."""
    return [comb(e, i) * Fraction(c0) ** (e - i) * Fraction(c1) ** i
            for i in range(e + 1)]


def _chi_y_at(y: Fraction, n: int, degrees: tuple) -> Fraction:
    """chi_y(X) at a number y != -1, for X of dimension n - 1 - r."""
    order = n - 1
    series = _inverse(_mul([1, y], [1, -1], order), order)
    for d in degrees:
        a = _binomial_series(1, y, d)
        b = _binomial_series(1, -1, d)
        num = [x - w for x, w in zip(a, b)]
        den = [x + y * w for x, w in zip(a, b)]
        series = _mul(_mul(series, num, order), _inverse(den, order), order)
    return series[order]


def _interpolate(points: list) -> list:
    """Coefficients of the polynomial through the given (x, y) points."""
    coeffs = [Fraction(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j != i:
                basis = [Fraction(0)] + basis
                for k in range(len(basis) - 1):
                    basis[k] -= xj * basis[k + 1]
                denom *= xi - xj
        for k, c in enumerate(basis):
            coeffs[k] += yi * c / denom
    return coeffs


@lru_cache(maxsize=None)
def hodge_h(n: int, degrees: tuple) -> dict:
    """{p: h_p} for p = r..n-1: the primitive middle Hodge numbers of a
    smooth complete intersection of the given degrees in P^(n-1)."""
    r = len(degrees)
    m = n - 1 - r
    chi = _interpolate([(Fraction(y), _chi_y_at(Fraction(y), n, degrees))
                        for y in range(m + 1)])
    h = {}
    for p in range(m + 1):
        prim = (-1) ** (m - p) * (chi[p] - (-1) ** p)
        if prim.denominator != 1 or prim < 0:
            raise ArithmeticError(f"non-integral Hodge number for {n}, {degrees}")
        h[r + (m - p)] = int(prim)
    return h


def hypersurface_h(n: int, d: int) -> dict:
    """{p: h_p} for a smooth degree-d hypersurface in P^(n-1) by Griffiths'
    residue theorem: h_p is the dimension of the degree p*d - n part of the
    Jacobian ring, which for the Fermat polynomial counts the exponent
    vectors a in [1, d-1]^n with sum(a) = p*d."""
    counts: dict = {}
    for a in product(range(1, d), repeat=n):
        s = sum(a)
        if s % d == 0:
            counts[s // d] = counts.get(s // d, 0) + 1
    return {p: counts.get(p, 0) for p in range(1, n)}


def hypersurface_H1(n: int, d: int) -> int:
    """H(1), the primitive middle Betti number of a degree-d hypersurface
    in P^(n-1)."""
    return ((d - 1) ** n + (-1) ** n * (d - 1)) // d
