"""Exact scalar arithmetic over the rationals and over prime fields.

A field object carries the arithmetic; scalars themselves are plain Python
values (`fractions.Fraction` over Q, ints in [0, p) over F_p), so hot loops
pay no wrapper overhead. `add_term` is the one sparse-sum rule: every
field-generic sparse sum (polynomial terms, form terms, matrix entries)
accumulates through it.
"""
from __future__ import annotations

from fractions import Fraction
from math import isqrt


# Miller-Rabin to the prime bases 2..41 proves primality below psi_13
# (Sorenson & Webster, Math. Comp. 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Strong-pseudoprime test to the bases 2..41, which is a proof for
    every p below psi_13 = 3317044064679887385961981. At or above psi_13 a
    strong Lucas test is added (Baillie-PSW): no composite is known to pass
    it, but it is not a proof."""
    if p < 2:
        return False
    for q in _MR_BASES:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return p < _PSI_13 or _strong_lucas(p)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameters, for odd
    n free of prime factors up to 41."""
    if isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4    # P = 1
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    def half(x):
        x %= n
        return (x + n if x & 1 else x) // 2

    # U_k, V_k, Q^k mod n by binary expansion of d, starting at k = 1
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = half(U + V), half(D * U + V), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


class Rationals:
    """The field Q. Scalars are `fractions.Fraction` values."""

    kind = "Q"
    p = None

    zero = Fraction(0)
    one = Fraction(1)

    def of(self, v) -> Fraction:
        """Coerce an int, Fraction, or 'a/b' string into the field."""
        return Fraction(v)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / Fraction(a)

    def is_zero(self, a) -> bool:
        return a == 0

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


class PrimeField:
    """The field F_p for a prime p. Scalars are ints in [0, p)."""

    kind = "F"

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise ValueError(f"modulus {p!r} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def of(self, v) -> int:
        if isinstance(v, int):
            return v % self.p
        if isinstance(v, Fraction):
            den = v.denominator % self.p
            if den == 0:
                raise ZeroDivisionError(
                    f"denominator {v.denominator} vanishes mod {self.p}"
                )
            return v.numerator * pow(den, -1, self.p) % self.p
        if isinstance(v, str):
            return self.of(Fraction(v))
        raise TypeError(f"cannot coerce {v!r} into F_{self.p}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def neg(self, a):
        return -a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return f"F_{self.p}"


def add_term(terms: dict, key, c, field) -> None:
    """Add c to terms[key] in place; the key is removed when the sum is zero,
    so a dict of terms never stores a zero coefficient."""
    cur = terms.get(key)
    s = c if cur is None else field.add(cur, c)
    if field.is_zero(s):
        terms.pop(key, None)
    else:
        terms[key] = s
