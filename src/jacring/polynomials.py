"""Sparse multivariate polynomials with exact coefficients.

Terms are stored as a dict mapping exponent tuples to nonzero scalars of the
underlying field. Iteration order everywhere is graded-lexicographic on the
exponent tuple, so all downstream constructions are deterministic.
"""
from __future__ import annotations

import re
from fractions import Fraction

from .errors import InputError
from .fields import add_term


def grlex_key(exp: tuple) -> tuple:
    return (sum(exp), exp)


def monomials_of_degree(nvars: int, degree: int) -> list[tuple]:
    """All exponent tuples of the given total degree, in a fixed order."""
    if degree < 0:
        return []
    if nvars == 1:
        return [(degree,)]
    out = []
    stack = [((), degree)]
    while stack:
        prefix, rest = stack.pop()
        i = len(prefix)
        if i == nvars - 1:
            out.append(prefix + (rest,))
            continue
        # descending first exponent keeps the output order stable
        for e in range(rest + 1):
            stack.append((prefix + (e,), rest - e))
    return out


class MultiPoly:
    """A polynomial in `nvars` variables over an exact field."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field, nvars: int, terms=None):
        self.field = field
        self.nvars = nvars
        clean = {}
        if terms:
            items = terms.items() if isinstance(terms, dict) else terms
            for exp, c in items:
                exp = tuple(exp)
                if len(exp) != nvars or any(e < 0 for e in exp):
                    raise InputError(f"bad exponent tuple {exp} for {nvars} variables")
                add_term(clean, exp, field.of(c), field)
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field, nvars: int) -> "MultiPoly":
        return cls(field, nvars)

    @classmethod
    def constant(cls, field, nvars: int, c) -> "MultiPoly":
        return cls(field, nvars, {(0,) * nvars: c})

    @classmethod
    def monomial(cls, field, nvars: int, exp, c=1) -> "MultiPoly":
        return cls(field, nvars, {tuple(exp): c})

    @classmethod
    def variable(cls, field, nvars: int, i: int) -> "MultiPoly":
        exp = [0] * nvars
        exp[i] = 1
        return cls(field, nvars, {tuple(exp): 1})

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def homogeneous_degree(self):
        """The common total degree of all terms, or None if inhomogeneous
        or zero."""
        degs = {sum(e) for e in self.terms}
        if len(degs) != 1:
            return None
        return degs.pop()

    def iter_terms(self):
        """(exponent, coefficient) pairs in graded-lex order."""
        for exp in sorted(self.terms, key=grlex_key):
            yield exp, self.terms[exp]

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), self.field.zero)

    # -- arithmetic --------------------------------------------------------

    def _check_compat(self, other):
        if self.field != other.field or self.nvars != other.nvars:
            raise InputError("polynomial operands live in different rings")

    def __add__(self, other):
        self._check_compat(other)
        f = self.field
        out = dict(self.terms)
        for exp, c in other.terms.items():
            add_term(out, exp, c, f)
        res = MultiPoly(f, self.nvars)
        res.terms = out
        return res

    def __neg__(self):
        f = self.field
        res = MultiPoly(f, self.nvars)
        res.terms = {exp: f.neg(c) for exp, c in self.terms.items()}
        return res

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_compat(other)
        f = self.field
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                add_term(out, tuple(a + b for a, b in zip(e1, e2)),
                         f.mul(c1, c2), f)
        res = MultiPoly(f, self.nvars)
        res.terms = out
        return res

    def scale(self, c) -> "MultiPoly":
        f = self.field
        c = f.of(c)
        res = MultiPoly(f, self.nvars)
        if not f.is_zero(c):
            res.terms = {exp: f.mul(v, c) for exp, v in self.terms.items()}
        return res

    def pow(self, m: int) -> "MultiPoly":
        if m < 0:
            raise InputError("negative power")
        acc = MultiPoly.constant(self.field, self.nvars, 1)
        for _ in range(m):
            acc = acc * self
        return acc

    def partial_derivative(self, i: int) -> "MultiPoly":
        f = self.field
        out = {}
        for exp, c in self.terms.items():
            e = exp[i]
            if e == 0:
                continue
            add_term(out, exp[:i] + (e - 1,) + exp[i + 1:],
                     f.mul(c, f.of(e)), f)
        res = MultiPoly(f, self.nvars)
        res.terms = out
        return res

    # -- comparison / display ---------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, MultiPoly)
            and self.field == other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.field, self.nvars, frozenset(self.terms.items())))

    def to_string(self, names=None) -> str:
        if not self.terms:
            return "0"
        if names is None:
            names = [f"x{i+1}" for i in range(self.nvars)]
        parts = []
        for exp, c in self.iter_terms():
            mono = "*".join(
                (names[i] if e == 1 else f"{names[i]}^{e}")
                for i, e in enumerate(exp)
                if e > 0
            )
            if not mono:
                parts.append(str(c))
            elif c == self.field.one:
                parts.append(mono)
            else:
                parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"MultiPoly({self.to_string()})"


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[-+*/^]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            raise InputError(f"unexpected character {rest[0]!r} at position {pos}")
        if m.lastgroup == "num":
            tokens.append(("num", int(m.group("num"))))
        elif m.lastgroup == "name":
            tokens.append(("name", m.group("name")))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    return tokens


def parse_poly(field, names, text: str) -> MultiPoly:
    """Parse a sign-separated sum of terms `c`, `c*m`, or `m`, where `m` is a
    `*`-separated product of `var` or `var^k` over the given variable names.
    Coefficients are integers, optionally `a/b` fractions; over F_p a
    denominator divisible by p raises InputError."""
    tokens = _tokenize(text)
    if not tokens:
        raise InputError("empty polynomial expression")
    nvars = len(names)
    where = {name: i for i, name in enumerate(names)}
    terms: dict[tuple, object] = {}
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else (None, None)

    def take():
        nonlocal pos
        tok = peek()
        pos += 1
        return tok

    def parse_factor(coef, exp):
        kind, val = take()
        if kind == "num":
            if peek() == ("op", "/"):
                take()
                dkind, dval = take()
                if dkind != "num" or dval == 0:
                    raise InputError("expected a nonzero integer denominator")
                coef = coef * Fraction(val, dval)
            else:
                coef = coef * val
            return coef, exp
        if kind == "name":
            idx = where.get(val)
            if idx is None:
                raise InputError(f"unknown variable {val!r}")
            k = 1
            if peek() == ("op", "^"):
                take()
                ekind, eval_ = take()
                if ekind != "num":
                    raise InputError("expected an integer exponent after '^'")
                k = eval_
            exp = list(exp)
            exp[idx] += k
            return coef, tuple(exp)
        raise InputError(f"expected a number or variable, got {val!r}")

    def parse_term(sign):
        coef = Fraction(sign)
        exp = (0,) * nvars
        coef, exp = parse_factor(coef, exp)
        while peek() == ("op", "*"):
            take()
            coef, exp = parse_factor(coef, exp)
        return coef, exp

    sign = 1
    kind, val = peek()
    if (kind, val) == ("op", "-"):
        take()
        sign = -1
    elif (kind, val) == ("op", "+"):
        take()
    while True:
        coef, exp = parse_term(sign)
        terms[exp] = terms.get(exp, 0) + coef
        kind, val = peek()
        if kind is None:
            break
        if (kind, val) == ("op", "-"):
            take()
            sign = -1
        elif (kind, val) == ("op", "+"):
            take()
            sign = 1
        else:
            raise InputError(f"expected '+' or '-' between terms, got {val!r}")
    try:
        return MultiPoly(field, nvars, terms)
    except ZeroDivisionError as exc:   # a denominator that vanishes mod p
        raise InputError(str(exc)) from None
