from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jacring.fields import PrimeField, Rationals, add_term, is_prime

Q = Rationals()
F7 = PrimeField(7)
F32003 = PrimeField(32003)

FIELDS = [Q, PrimeField(2), PrimeField(3), F7, F32003]

# least strong pseudoprimes to all prime bases up to 37 and up to 41
PSI_12 = 318665857834031151167461   # 399165290221 * 798330580441
PSI_13 = 3317044064679887385961981


def _trial_division_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def test_is_prime_matches_trial_division():
    for m in range(-3, 2000):
        assert is_prime(m) == _trial_division_prime(m), m


def test_is_prime_on_strong_pseudoprimes():
    # Carmichael numbers and large near-primes
    for m in [561, 1105, 1729, 2465, 2821, 6601, 8911, 29341,
              3215031751, 3825123056546413051, PSI_12, PSI_13]:
        assert not is_prime(m), m
    for m in [2, 32003, 65537, 2**31 - 1, 4294967311, 2**31 + 11, 2**61 - 1,
              2**89 - 1]:
        assert is_prime(m), m


def test_is_prime_matches_sympy():
    """Seeded odd numbers from 2^20 to 2^100, so the strong Lucas test above
    PSI_13 meets primes and composites too."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(89)
    sample = [rng.randrange(2**20, 2**100) | 1 for _ in range(3000)]
    verdicts = [is_prime(m) for m in sample]
    assert verdicts == [sympy.isprime(m) for m in sample]
    assert any(v and m >= PSI_13 for m, v in zip(sample, verdicts))


def test_nonprime_modulus_rejected():
    for bad in [0, 1, 4, 6, 9, 32004, PSI_12, PSI_13]:
        with pytest.raises(ValueError):
            PrimeField(bad)


@settings(max_examples=60, deadline=None)
@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_field_axioms(a, b, c):
    for f in FIELDS:
        x, y, z = f.of(a), f.of(b), f.of(c)
        assert f.add(x, y) == f.add(y, x)
        assert f.mul(x, y) == f.mul(y, x)
        assert f.add(f.add(x, y), z) == f.add(x, f.add(y, z))
        assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
        assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
        assert f.add(x, f.zero) == x
        assert f.mul(x, f.one) == x
        assert f.is_zero(f.add(x, f.neg(x)))
        assert f.sub(x, y) == f.add(x, f.neg(y))


@settings(max_examples=60, deadline=None)
@given(st.integers(-200, 200))
def test_inverses(a):
    for f in FIELDS:
        x = f.of(a)
        if f.is_zero(x):
            with pytest.raises(ZeroDivisionError):
                f.inv(x)
        else:
            assert f.mul(x, f.inv(x)) == f.one


def test_rational_coercions():
    assert Q.of(3) == Fraction(3)
    assert Q.of(Fraction(2, 4)) == Fraction(1, 2)
    assert Q.of("7") == Fraction(7)


def test_prime_field_coercions():
    assert F7.of(10) == 3
    assert F7.of(-1) == 6
    assert F7.of(Fraction(1, 2)) == 4   # inverse of 2 mod 7
    assert F7.of("12") == 5
    with pytest.raises(ZeroDivisionError):
        F7.of(Fraction(1, 7))           # denominator divisible by p


def test_equality_and_hash():
    assert PrimeField(7) == F7 and hash(PrimeField(7)) == hash(F7)
    assert Rationals() == Q
    assert F7 != PrimeField(11) and F7 != Q


@pytest.mark.parametrize("f, half, other_half, a, b", [
    (Q, Fraction(1, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(5, 4)),
    (F7, 3, 4, 5, 6),
], ids=["Q", "F7"])
def test_add_term_drops_cancelled_terms(f, half, other_half, a, b):
    """The one sparse-sum rule: a sum that cancels removes its key, a zero
    addend at an absent key stores nothing, and any other sum stores the
    field sum."""
    terms = {}
    add_term(terms, "k", f.zero, f)
    assert terms == {}
    add_term(terms, "k", half, f)
    assert terms == {"k": half}
    add_term(terms, "k", other_half, f)         # 1/2 - 1/2, 3 + 4 mod 7
    assert terms == {}
    add_term(terms, "k", a, f)
    add_term(terms, "k", b, f)
    assert terms == {"k": f.add(a, b)}
    assert not f.is_zero(terms["k"])

