"""Closed-form Hilbert-series pipeline: the derivative-recursion polynomials
p_e, the symmetric-function coefficients a^(l), the g-polynomials and their
exact quotients by powers of (1-t), the closed form of H(t), its value at 1,
the alternating-sum series of the complex, and the predicted dimension table.

Everything is computed in exact rational arithmetic; integrality of the final
answers is asserted, never rounded.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import comb, factorial, prod

from .errors import HypothesisViolation, InputError
from .polynomials import monomials_of_degree


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
            s = out.get(k, Fraction(0)) + c
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
                s = out.get(k, Fraction(0)) + c1 * c2
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
                s = rem.get(j, Fraction(0)) - q * dc
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
def eulerian_p(e: int, variant: str = "plain") -> Poly:
    """The polynomial p_e with p_e(t)/(1-t)^(e+1) = (t d/dt)^e 1/(1-t);
    variant "tilde" differs only at e = 0, where it is t instead of 1.
    Memoized: every caller gets the same Poly, which none mutates."""
    if e < 0:
        raise InputError("e must be nonnegative")
    if variant not in ("plain", "tilde"):
        raise InputError(f"unknown variant {variant!r}")
    if e == 0:
        return Poly.t() if variant == "tilde" else Poly.one()
    p = Poly.one()
    for j in range(e):
        p = Poly.t() * (_ONE_MINUS_T * p.derivative() + p.scale(j + 1))
    return p


def _elementary_symmetric(values, i: int):
    """s_i of the given integers (s_0 = 1)."""
    coeffs = [Fraction(1)] + [Fraction(0)] * len(values)
    for v in values:
        for j in range(len(values), 0, -1):
            coeffs[j] += v * coeffs[j - 1]
    return coeffs[i]


def coeff_a(n: int, d, e, l: int) -> Fraction:
    """The rational coefficient a^(l) attached to the exponent vector e:
    (-1)^(n-1-E) * E!/((n-1)! prod e_i!) * s_(n-1-E)(l-1, ..., l-(n-1))
    * prod d_i^(e_i), with E = sum(e)."""
    if len(d) != len(e):
        raise InputError("degree and exponent vectors must have equal length")
    E = sum(e)
    if E > n - 1:
        raise InputError(f"sum of exponents {E} exceeds n-1 = {n - 1}")
    sym = _elementary_symmetric([l - j for j in range(1, n)], n - 1 - E)
    sign = -1 if (n - 1 - E) % 2 else 1
    num = Fraction(sign * factorial(E), factorial(n - 1) * prod(factorial(ei) for ei in e))
    return num * sym * prod(di ** ei for di, ei in zip(d, e))


def g_poly(n: int, d, e) -> tuple[Poly, Poly]:
    """The polynomial g(t) = sum_l (-1)^(n-l) C(n,l) a^(l) t^(n-l) and its
    exact quotient by (1-t)^(E+1)."""
    if any(ei < 1 for ei in e):
        raise InputError("all exponents must be at least 1")
    E = sum(e)
    g = Poly.zero()
    for l in range(n + 1):
        sign = -1 if (n - l) % 2 else 1
        g = g + Poly.monomial(sign * comb(n, l) * coeff_a(n, d, e, l), n - l)
    div = Poly.one()
    for _ in range(E + 1):
        div = div * _ONE_MINUS_T
    return g, g.divide_exact(div)


def _exponent_vectors(r: int, bound: int):
    """All e in Z^r with e_i >= 1 and sum(e) <= bound, in a fixed order."""
    for E in range(r, bound + 1):
        for weak in monomials_of_degree(r, E - r):
            yield tuple(w + 1 for w in weak)


def _closed_form(n: int, d) -> tuple[Poly, list[Poly]]:
    """H(t) and its terms quot_e * prod_i p_(e_i), one per exponent vector
    e, each built once. Needs 1 <= r < n; asserts H is integral."""
    r = len(d)
    if not 1 <= r < n:
        raise HypothesisViolation(f"the closed form needs 1 <= r < n "
                                  f"(got r={r}, n={n})")
    if any(di < 1 for di in d):
        raise InputError("degrees must be at least 1")
    sign = -1 if (n - r) % 2 else 1
    H = Poly({p: sign for p in range(r, n)})
    terms = []
    for e in _exponent_vectors(r, n - 1):
        _, term = g_poly(n, d, e)
        for ei in e:
            term = term * eulerian_p(ei)
        terms.append(term)
        H = H + term
    H.int_coefficients()   # integrality assertion
    return H, terms


def closed_form_H(n: int, d) -> Poly:
    """The field-independent polynomial H(t) = sum_p h_p t^p, supported on
    degrees r..n-1, from the closed-form pipeline. Needs 1 <= r < n."""
    return _closed_form(n, d)[0]


def H_at_one(n: int, d) -> int:
    """Independent evaluation of sum_p h_p by the alternating composition
    sum: (-1)^(n-r)(n-r) + (-1)^n sum_l (-1)^(l+1) C(n,l+1)
    sum_(compositions of l into r positive parts) prod d_i^(i_j)."""
    r = len(d)
    if not 1 <= r < n:
        raise HypothesisViolation(f"needs 1 <= r < n (got r={r}, n={n})")
    total = (n - r) if (n - r) % 2 == 0 else -(n - r)
    acc = 0
    for l in range(r, n):
        inner = 0
        for weak in monomials_of_degree(r, l - r):
            comp = tuple(w + 1 for w in weak)
            inner += prod(di ** ci for di, ci in zip(d, comp))
        acc += (comb(n, l + 1) * inner) if (l + 1) % 2 == 0 else -(comb(n, l + 1) * inner)
    total += acc if n % 2 == 0 else -acc
    return total


def euler_series(n: int, d) -> Poly:
    """The alternating-sum Hilbert series of the boundary complex at q = 0,
    from the closed form; asserts the identity
    series = (1-t) H(t) + (-1)^(n-r) t^n."""
    H, terms = _closed_form(n, d)
    r = len(d)
    chi = Poly.monomial(-1 if (n + r) % 2 else 1, r)
    for term in terms:
        chi = chi + _ONE_MINUS_T * term
    expected = _ONE_MINUS_T * H + Poly.monomial(-1 if (n - r) % 2 else 1, n)
    if chi != expected:
        raise InputError("alternating-sum series identity failed "
                         "(arithmetic bug)")
    return chi


def symmetry_check(H: Poly, n: int, r: int) -> bool:
    """Whether t^(n+r-1) H(1/t) = H(t), i.e. coefficients are palindromic
    around (n+r-1)/2."""
    span = n + r - 1
    degs = set(H.coeffs)
    degs |= {span - k for k in degs}
    return all(H.coefficient(k) == H.coefficient(span - k) for k in degs)


def product_hilbert_series(n: int, d, upto: int) -> list[int]:
    """Coefficients 0..upto of prod_j (1 - t^(d_j)) / (1-t)^n, the Hilbert
    series of the quotient by a length-r regular sequence of the given
    degrees."""
    if upto < 0:
        raise InputError("upto must be nonnegative")
    num = Poly.one()
    for dj in d:
        num = num * Poly({0: 1, dj: -1})
    coeffs = [int(num.coefficient(k)) for k in range(upto + 1)]
    for _ in range(n):
        # dividing by (1-t) = prefix sums
        for k in range(1, upto + 1):
            coeffs[k] += coeffs[k - 1]
    return coeffs


def omega_slice_dim(n: int, d, k: int, q: int, p: int) -> int:
    """Dimension of the (k, q, p) slice of the form module, counted without
    materializing a basis."""
    r = len(d)
    if k < 0 or k > n + r:
        return 0
    total = 0
    for m in range(max(0, k - n), min(k, r) + 1):
        l = k - m
        nx_words = comb(n, l)
        if nx_words == 0:
            continue
        for dys in combinations(range(r), m):
            ddy = sum(d[j] for j in dys)
            for yexp in monomials_of_degree(r, p - m):
                xdeg = q + sum(b * d[j] for j, b in enumerate(yexp)) + ddy - l
                if xdeg >= 0:
                    total += nx_words * comb(xdeg + n - 1, n - 1)
    return total


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
    prod_d = field.one
    for di in d:
        prod_d = field.mul(prod_d, field.of(di))
    exceptional = field.is_zero(prod_d) and (n + r) % 2 == 0
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
