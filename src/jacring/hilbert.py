"""Closed-form Hilbert-series pipeline: the derivative-recursion polynomials
p_e, the closed form of H(t), the alternating-sum series of the complex
derived from it, the slice-dimension count (from the slice rule of
`problem.slice_blocks`), and the predicted dimension table.

The paper writes H(t) as a sum over exponent vectors e; its terms depend on
e only through E = sum(e_i) and a multinomial weight, so H is built with one
exact quotient by (1-t)^(E+1) per E and a truncated product of r series:
a polynomial amount of work in n and r. The per-vector sum itself is the
reference oracle of the tests.

Everything is computed in exact rational arithmetic; integrality of the final
answers is asserted, never rounded.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cache
from math import comb, factorial, prod

from .errors import HypothesisViolation, InputError
from .problem import slice_blocks


class Poly:
    """Univariate polynomial in t with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs: dict[int, Fraction] = {}
        if coeffs:
            for k, c in coeffs.items():
                c = Fraction(c)
                if c:
                    self.coeffs[int(k)] = c

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def one(cls) -> "Poly":
        return cls({0: 1})

    @classmethod
    def t(cls) -> "Poly":
        return cls({1: 1})

    @classmethod
    def monomial(cls, c, k: int) -> "Poly":
        return cls({k: c})

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return max(self.coeffs) if self.coeffs else -1

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs.get(k, Fraction(0))

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        res = Poly()
        res.coeffs = out
        return res

    def __neg__(self) -> "Poly":
        res = Poly()
        res.coeffs = {k: -c for k, c in self.coeffs.items()}
        return res

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict[int, Fraction] = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = k1 + k2
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        res = Poly()
        res.coeffs = out
        return res

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        res = Poly()
        if c:
            res.coeffs = {k: c * v for k, v in self.coeffs.items()}
        return res

    def derivative(self) -> "Poly":
        return Poly({k - 1: k * c for k, c in self.coeffs.items() if k > 0})

    def __call__(self, value) -> Fraction:
        return sum((c * Fraction(value) ** k for k, c in self.coeffs.items()),
                   Fraction(0))

    def divide_exact(self, divisor: "Poly") -> "Poly":
        """Exact quotient; raises InputError if the division leaves a
        remainder."""
        if divisor.is_zero():
            raise InputError("division by the zero polynomial")
        rem = dict(self.coeffs)
        dd = divisor.degree()
        lead = divisor.coeffs[dd]
        out: dict[int, Fraction] = {}
        while rem:
            k = max(rem)
            if k < dd:
                raise InputError("polynomial division is not exact")
            q = rem[k] / lead
            out[k - dd] = q
            for dk, dc in divisor.coeffs.items():
                j = k - dd + dk
                s = rem.get(j, 0) - q * dc
                if s:
                    rem[j] = s
                else:
                    rem.pop(j, None)
        res = Poly()
        res.coeffs = out
        return res

    def int_coefficients(self) -> dict[int, int]:
        """Coefficients as integers; raises InputError on a non-integral
        coefficient."""
        out = {}
        for k, c in self.coeffs.items():
            if c.denominator != 1:
                raise InputError(f"coefficient of t^{k} is not an integer: {c}")
            out[k] = c.numerator
        return out

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def to_string(self, var: str = "t") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            c = self.coeffs[k]
            if k == 0:
                parts.append(str(c))
            else:
                mono = var if k == 1 else f"{var}^{k}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"Poly({self.to_string()})"


_ONE_MINUS_T = Poly({0: 1, 1: -1})


@cache
def eulerian_p(e: int) -> Poly:
    """The polynomial p_e with p_e(t)/(1-t)^(e+1) = (t d/dt)^e 1/(1-t).
    Memoized: every caller gets the same Poly, which none mutates."""
    if e < 0:
        raise InputError("e must be nonnegative")
    p = Poly.one()
    for j in range(e):
        p = Poly.t() * (_ONE_MINUS_T * p.derivative() + p.scale(j + 1))
    return p


def _quotients(n: int, r: int) -> dict[int, Poly]:
    """Q_(n,E) = G_(n,E) / (1-t)^(E+1) for E = r..n-1, where
    G_(n,E)(t) = sum_l (-1)^(n-l) C(n,l) A_(n,E)(l) t^(n-l) and
    A_(n,E)(l) = [X^E] prod_(j=1..n-1) (X - l + j) / (n-1)!."""
    A = []      # A[l][E] = (n-1)! A_(n,E)(l), an integer
    for l in range(n + 1):
        a = [1]
        for j in range(1, n):
            a = [u + (j - l) * v for u, v in zip([0] + a, a + [0])]
        A.append(a)
    out = {}
    for E in range(r, n):
        g = Poly({n - l: Fraction((-1) ** (n - l) * comb(n, l) * A[l][E],
                                  factorial(n - 1))
                  for l in range(n + 1)})
        one_minus_t_power = Poly({k: (-1) ** k * comb(E + 1, k)
                                  for k in range(E + 2)})
        out[E] = g.divide_exact(one_minus_t_power)
    return out


def closed_form_H(n: int, d) -> Poly:
    """The field-independent polynomial H(t) = sum_p h_p t^p, supported on
    degrees r..n-1. Needs 1 <= r < n; asserts H is integral.

    The paper's sum over exponent vectors e (all e_i >= 1, E = sum e_i
    <= n-1) depends on e only through E and the weight
    E!/prod e_i! * prod d_i^(e_i), so it is taken one E at a time:
    H = (-1)^(n-r) sum_(p=r..n-1) t^p + sum_E Q_(n,E)(t) S_E(t), with
    S_E = E! [z^E] prod_i sum_(e>=1) (d_i z)^e p_e(t)/e!, a binomial
    convolution over the r degrees."""
    r = len(d)
    if not 1 <= r < n:
        raise HypothesisViolation(f"the closed form needs 1 <= r < n "
                                  f"(got r={r}, n={n})")
    if any(di < 1 for di in d):
        raise InputError("degrees must be at least 1")
    S = [Poly.one()] + [Poly.zero()] * (n - 1)
    for di in d:
        S = [sum(((S[E - e] * eulerian_p(e)).scale(comb(E, e) * di ** e)
                  for e in range(1, E + 1)), Poly.zero())
             for E in range(n)]
    sign = -1 if (n - r) % 2 else 1
    H = Poly({p: sign for p in range(r, n)})
    for E, quot in _quotients(n, r).items():
        H = H + quot * S[E]
    H.int_coefficients()   # integrality assertion
    return H


def euler_series(n: int, d) -> Poly:
    """The alternating-sum Hilbert series of the boundary complex at q = 0,
    (1-t) H(t) + (-1)^(n-r) t^n."""
    r = len(d)
    return (_ONE_MINUS_T * closed_form_H(n, d)
            + Poly.monomial(-1 if (n - r) % 2 else 1, n))


def symmetry_check(H: Poly, n: int, r: int) -> bool:
    """Whether t^(n+r-1) H(1/t) = H(t), i.e. coefficients are palindromic
    around (n+r-1)/2."""
    span = n + r - 1
    degs = set(H.coeffs)
    degs |= {span - k for k in degs}
    return all(H.coefficient(k) == H.coefficient(span - k) for k in degs)


def omega_slice_dim(n: int, d, k: int, q: int, p: int) -> int:
    """Dimension of the (k, q, p) slice of the form module, counted block
    by block from `problem.slice_blocks` without materializing a basis:
    C(n, l) dx words times the x-monomials of the forced degree."""
    return sum(comb(n, l) * comb(xdeg + n - 1, n - 1)
               for l, _, _, xdeg in slice_blocks(n, d, k, q, p))


@dataclass
class HodgeTable:
    """Predicted dimension table at q = 0: the field-independent h_p, the
    exceptional flag for the given field, and the implied brute-force
    dimensions of the top two cohomology rows."""
    n: int
    r: int
    degrees: tuple
    h: dict                       # p -> h_p for p = r..n-1
    exceptional: bool
    dim_top: dict = dc_field(default_factory=dict)    # p -> dim H^(n+r)(0,p)
    dim_next: dict = dc_field(default_factory=dict)   # p -> dim H^(n+r-1)(0,p)

    def describe(self) -> str:
        H = Poly({p: v for p, v in self.h.items()})
        lines = [f"H(t) = {H.to_string()}",
                 f"H(1) = {sum(self.h.values())}",
                 f"palindromic: {'yes' if symmetry_check(H, self.n, self.r) else 'no'}",
                 f"exceptional: {'yes' if self.exceptional else 'no'}"]
        return "\n".join(lines)


def hodge_table(n: int, d, field) -> HodgeTable:
    """Closed-form H(t) plus the implied top-row dimension tables over the
    given field (where the exceptional adjustment may apply)."""
    r = len(d)
    H = closed_form_H(n, d)
    hc = H.int_coefficients()
    h = {p: hc.get(p, 0) for p in range(r, n)}
    exceptional = field.is_zero(field.of(prod(d))) and (n + r) % 2 == 0
    mid = (n + r) // 2
    p_lo, p_hi = 0, n + r - 1
    dim_top = {}
    dim_next = {}
    for p in range(p_lo, p_hi + 1):
        base = h.get(p, 0)
        top = base + (1 if exceptional and p == mid else 0)
        if r == n - 1:
            offset = 1 if p == r else 0
        elif exceptional and p == mid - 1:
            offset = 1
        elif exceptional and p == mid:
            offset = -1
        else:
            offset = 0
        dim_top[p] = top
        dim_next[p] = top + offset
    return HodgeTable(n=n, r=r, degrees=tuple(d), h=h,
                      exceptional=exceptional, dim_top=dim_top,
                      dim_next=dim_next)
