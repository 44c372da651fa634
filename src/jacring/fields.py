"""Exact scalar arithmetic over the rationals and over prime fields.

A field object carries the arithmetic; scalars themselves are plain Python
values (`fractions.Fraction` over Q, ints in [0, p) over F_p), so hot loops
pay no wrapper overhead.
"""
from __future__ import annotations

from fractions import Fraction


def is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin, exact for every 64-bit integer."""
    if p < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in small:
        if p % q == 0:
            return p == q
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


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


def field_of_spec(kind: str, p: int | None = None):
    """Build a field from its kind name: 'Q'/'rationals' for the rational
    numbers, 'F'/'prime-field' with a prime modulus."""
    if kind in ("Q", "rationals"):
        return Rationals()
    if kind in ("F", "prime-field"):
        if p is None:
            raise ValueError("prime field needs a modulus")
        return PrimeField(p)
    raise ValueError(f"unknown field kind {kind!r}")
