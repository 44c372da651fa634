"""The contraction sequence Omega^{n+r} -> ... -> Omega^1 -> Omega^0 is exact
in every (q, p) slice except for a one-dimensional cokernel at (q, p) = (0, 0).

The contraction only sees n, r and the degree vector, so each (n, r, degrees)
shape is checked once per field with simple monomial systems, including
degrees divisible by the characteristic. The sweep over one field runs once
per session (exactness_sweep is memoized); acceptance criterion 08 counts
the shapes of the same runs.
"""
from __future__ import annotations

from functools import cache

import pytest

from jacring.fields import PrimeField, Rationals
from jacring.forms import basis
from jacring.linalg import rank
from jacring.problem import problem_from_strings

from helpers import theta_matrix

Q = Rationals()

# every word-length shape with n + r <= 5
SHAPES = [
    (1, 1, (2,)),
    (2, 1, (2,)),
    (1, 2, (2, 1)),
    (3, 1, (2,)),
    (2, 2, (2, 1)),
    (1, 3, (1, 2, 1)),
    (4, 1, (2,)),
    (3, 2, (2, 2)),
    (2, 3, (1, 2, 1)),
    (1, 4, (1, 1, 2, 1)),
]
# extra cases where a degree vanishes in the coefficient field
EXTRA = {
    3: [(2, 1, (3,)), (2, 2, (3, 1))],
}

Q_MAX = 3
P_MAX = 4


def _monomial_system(field, n, degrees):
    exprs = []
    for j, d in enumerate(degrees):
        v = (j % n) + 1
        exprs.append(f"x{v}^{d}" if d > 1 else f"x{v}")
    return problem_from_strings(field, n, exprs)


def _check_exactness(prob):
    n, r = prob.n, prob.r
    for q in range(Q_MAX + 1):
        for p in range(P_MAX + 1):
            dims = [basis(prob, k, q, p).dim for k in range(n + r + 1)]
            ranks = [rank(theta_matrix(prob, k, q, p))
                     for k in range(n + r + 1)] + [0]
            for k in range(1, n + r + 1):
                kernel = dims[k] - ranks[k]
                image = ranks[k + 1]
                assert kernel == image, (
                    f"not exact at k={k}, q={q}, p={p} for n={n}, r={r}, "
                    f"d={prob.degrees} over {prob.field}: "
                    f"ker={kernel}, im={image}")
            coker = dims[0] - ranks[1]
            want = 1 if (q, p) == (0, 0) else 0
            assert coker == want, (
                f"cokernel {coker} != {want} at q={q}, p={p} for n={n}, "
                f"r={r}, d={prob.degrees} over {prob.field}")


FIELDS = {"Q": Q, "F2": PrimeField(2), "F3": PrimeField(3)}


@cache
def exactness_sweep(field_id: str) -> int:
    """Check every shape over one field; return the number of shapes checked.
    A failed sweep raises and is not memoized, so each caller sees it."""
    field = FIELDS[field_id]
    shapes = SHAPES + EXTRA.get(getattr(field, "p", 0), [])
    for n, r, degrees in shapes:
        _check_exactness(_monomial_system(field, n, degrees))
    return len(shapes)


@pytest.mark.parametrize("field_id", list(FIELDS))
def test_contraction_sequence_exact(field_id):
    exactness_sweep(field_id)


def test_contraction_blind_to_the_polynomials():
    """Two systems with the same degrees give identical contraction ranks."""
    a = problem_from_strings(Q, 3, ["x1^2 + x2^2 + x3^2", "x1*x3"])
    b = problem_from_strings(Q, 3, ["x1^2", "x2*x3 - x3^2"])
    for k in range(1, 6):
        for q in range(3):
            for p in range(4):
                ra = rank(theta_matrix(a, k, q, p))
                rb = rank(theta_matrix(b, k, q, p))
                assert ra == rb, (k, q, p)
