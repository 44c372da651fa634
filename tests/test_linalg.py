from __future__ import annotations

import copy
import random
from fractions import Fraction

import pytest

from jacring import linalg, quotients
from jacring.certify import jacobian_minors
from jacring.errors import InputError
from jacring.fields import PrimeField, Rationals
from jacring.homology import boundary_matrix
from jacring.linalg import (SparseMatrix, in_column_span, kernel_basis, rank,
                            rref_rows, solve)

from helpers import (fermat_cubic, problem_from_strings, rank_reference,
                     square_pair, two_conics, two_quadrics)

Q = Rationals()
FIELDS = [Q, PrimeField(2), PrimeField(3), PrimeField(7), PrimeField(32003),
          PrimeField(2**31 + 11), PrimeField(2**61 - 1), PrimeField(2**89 - 1)]


def random_matrix(rng: random.Random, field, nrows: int, ncols: int,
                  density: float = 0.4, denominators: bool = False) -> SparseMatrix:
    mat = SparseMatrix(nrows, ncols, field)
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < density:
                v = rng.randint(-9, 9)
                if denominators and field.kind == "Q" and rng.random() < 0.5:
                    v = Fraction(v, rng.randint(1, 7))
                c = field.of(v)
                if not field.is_zero(c):
                    mat.add_at(i, j, c)
    return mat


def test_rank_matches_reference_small():
    """Production rank equals an independent dense textbook elimination."""
    rng = random.Random(2024)
    for field in FIELDS:
        for trial in range(25):
            nrows = rng.randint(1, 14)
            ncols = rng.randint(1, 14)
            m = random_matrix(rng, field, nrows, ncols,
                              density=rng.choice([0.15, 0.4, 0.8]),
                              denominators=True)
            assert rank(m) == rank_reference(m), (field, trial)


def test_rank_matches_reference_structured():
    """Low-rank products and duplicated rows, where pivoting bugs surface."""
    rng = random.Random(77)
    for field in FIELDS[:4]:
        for _ in range(10):
            # build an (m x k)(k x n) product: rank <= k
            m, k, n = rng.randint(2, 10), rng.randint(1, 3), rng.randint(2, 10)
            A = [[field.of(rng.randint(-4, 4)) for _ in range(k)] for _ in range(m)]
            B = [[field.of(rng.randint(-4, 4)) for _ in range(n)] for _ in range(k)]
            mat = SparseMatrix(m, n, field)
            for i in range(m):
                for j in range(n):
                    s = field.zero
                    for t in range(k):
                        s = field.add(s, field.mul(A[i][t], B[t][j]))
                    if not field.is_zero(s):
                        mat.add_at(i, j, s)
            r = rank(mat)
            assert r == rank_reference(mat)
            assert r <= k


def test_rank_of_dense_factored_product_is_seven():
    """20x20 over F_32003 built as (20x7)(7x20) with dense random factors:
    the factors are full-rank (checked), so the product has rank exactly 7."""
    rng = random.Random(7001)
    field = PrimeField(32003)
    A = [[field.of(rng.randrange(1, 32003)) for _ in range(7)] for _ in range(20)]
    B = [[field.of(rng.randrange(1, 32003)) for _ in range(20)] for _ in range(7)]
    fa = SparseMatrix(20, 7, field)
    fb = SparseMatrix(7, 20, field)
    for i in range(20):
        for j in range(7):
            fa.add_at(i, j, A[i][j])
            fb.add_at(j, i, B[j][i])
    assert rank(fa) == 7 and rank(fb) == 7
    m = SparseMatrix(20, 20, field)
    for i in range(20):
        for j in range(20):
            s = field.zero
            for t in range(7):
                s = field.add(s, field.mul(A[i][t], B[t][j]))
            if not field.is_zero(s):
                m.add_at(i, j, s)
    assert rank(m) == 7
    assert rank_reference(m) == 7


def test_rank_matches_reference_200():
    """One larger instance per field class, up to 200x200."""
    rng = random.Random(5)
    for field in (Q, PrimeField(32003)):
        m = random_matrix(rng, field, 200, 200, density=0.02)
        assert rank(m) == rank_reference(m)


def _sympy_rank_q(mat: SparseMatrix) -> int:
    """Rank over QQ by sympy's sparse DomainMatrix."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    rows = {i: {j: sympy.QQ(v.numerator, v.denominator)
                for j, v in row.items()}
            for i, row in enumerate(mat.rows) if row}
    return DomainMatrix(rows, (mat.nrows, mat.ncols), sympy.QQ).rank()


def test_sparse_phase_hands_off_to_dense_tail(monkeypatch):
    """Column singletons beside a dense (m x k)(k x n) product. The whole
    matrix is sparser than the hand-off density; eliminating singletons
    leaves the product block, denser than it. Below _NUMPY_P_LIMIT the
    dense kernel finishes a block smaller than the input, above it the
    sparse phase runs to the end. Boundary matrices of the fixtures
    cross-check both primes against rank_reference and the Q core against
    sympy."""
    shapes = []
    kernel = linalg._echelon_modp

    def spy(A, p):
        shapes.append(A.shape)
        return kernel(A, p)

    monkeypatch.setattr(linalg, "_echelon_modp", spy)
    rng = random.Random(41)
    s, m, n, k = 60, 12, 12, 4
    for p in (32003, 2**61 - 1):
        field = PrimeField(p)
        mat = SparseMatrix(s + m, s + n, field)
        for i in range(s):
            mat.add_at(i, i, rng.randrange(1, p))
            for j in rng.sample(range(s, s + n), 2):
                mat.add_at(i, j, rng.randrange(1, p))
        A = [[rng.randrange(p) for _ in range(k)] for _ in range(m)]
        B = [[rng.randrange(p) for _ in range(n)] for _ in range(k)]
        for i in range(m):
            for j in range(n):
                mat.add_at(s + i, s + j,
                           sum(A[i][t] * B[t][j] for t in range(k)))
        assert mat.nnz() < linalg._DENSE_HANDOFF * mat.nrows * mat.ncols
        shapes.clear()
        assert rank(mat) == rank_reference(mat) == s + k
        if p < linalg._NUMPY_P_LIMIT:
            assert len(shapes) == 1
            assert shapes[0][0] * shapes[0][1] < mat.nrows * mat.ncols
        else:
            assert shapes == []
    for field in (PrimeField(32003), PrimeField(2**61 - 1), Q):
        oracle = _sympy_rank_q if field.kind == "Q" else rank_reference
        for prob in (fermat_cubic(field), two_conics(field),
                     square_pair(field), two_quadrics(field)):
            for deg in range(prob.n + prob.r):
                for wt in range(3 if prob.n + prob.r < 6 else 2):
                    bd = boundary_matrix(prob, deg, 0, wt)
                    assert rank(bd) == oracle(bd), (
                        prob.degrees, field, deg, wt)


def test_rank_edge_cases():
    for field in (Q, PrimeField(7)):
        assert rank(SparseMatrix(0, 5, field)) == 0
        assert rank(SparseMatrix(5, 0, field)) == 0
        assert rank(SparseMatrix(3, 3, field)) == 0
        eye = SparseMatrix(4, 4, field)
        for i in range(4):
            eye.add_at(i, i, field.one)
        assert rank(eye) == 4


def test_modp_growth_stress():
    """Dense elimination over a large modulus where deferred reduction must
    not overflow: compare against the naive reference."""
    rng = random.Random(31)
    p = 32003
    field = PrimeField(p)
    m = random_matrix(rng, field, 60, 60, density=0.9)
    assert rank(m) == rank_reference(m)


def _mat_vec(mat: SparseMatrix, x):
    f = mat.field
    out = [f.zero] * mat.nrows
    for i, row in enumerate(mat.rows):
        for j, v in row.items():
            out[i] = f.add(out[i], f.mul(v, x[j]))
    return out


def test_solve_round_trip():
    rng = random.Random(11)
    for field in (Q, PrimeField(7), PrimeField(32003)):
        for _ in range(20):
            nrows, ncols = rng.randint(1, 10), rng.randint(1, 10)
            m = random_matrix(rng, field, nrows, ncols, density=0.5)
            x0 = [field.of(rng.randint(-3, 3)) for _ in range(ncols)]
            b = _mat_vec(m, x0)
            x = solve(m, b)
            assert x is not None
            assert _mat_vec(m, x) == b


def test_solve_unsolvable():
    field = Q
    m = SparseMatrix(2, 1, field)
    m.add_at(0, 0, field.one)
    # second row zero; rhs nonzero there
    assert solve(m, [field.one, field.one]) is None


def test_kernel_basis():
    rng = random.Random(13)
    zero = {True}
    for field in (Q, PrimeField(3), PrimeField(32003)):
        for _ in range(15):
            nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
            m = random_matrix(rng, field, nrows, ncols, density=0.5)
            basis_vecs = kernel_basis(m)
            assert len(basis_vecs) == ncols - rank(m)
            for v in basis_vecs:
                assert all(field.is_zero(c) for c in _mat_vec(m, v))
            # independence: stack as columns and check rank
            if basis_vecs:
                km = SparseMatrix(ncols, len(basis_vecs), field)
                for j, v in enumerate(basis_vecs):
                    for i, c in enumerate(v):
                        if not field.is_zero(c):
                            km.add_at(i, j, c)
                assert rank(km) == len(basis_vecs)
    assert zero == {True}


def test_in_column_span():
    rng = random.Random(17)
    for field in (Q, PrimeField(7)):
        for _ in range(15):
            nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
            m = random_matrix(rng, field, nrows, ncols, density=0.5)
            x0 = [field.of(rng.randint(-3, 3)) for _ in range(ncols)]
            b = _mat_vec(m, x0)
            assert in_column_span(m, b)
        # a vector outside the span of a strictly smaller-rank matrix
        m = SparseMatrix(2, 1, field)
        m.add_at(0, 0, field.one)
        assert not in_column_span(m, [field.zero, field.one])


def test_in_column_span_checks_the_length_first():
    """A vector of the wrong length is refused whether it is zero or not."""
    F7 = PrimeField(7)
    mat = SparseMatrix(2, 2, F7, {(0, 0): 1})
    for vec in ([0, 0, 0], [0, 1, 0], [0]):
        with pytest.raises(InputError, match="column length mismatch"):
            in_column_span(mat, [F7.of(v) for v in vec])


def test_rref_idempotent_and_consistent():
    rng = random.Random(19)
    for field in (Q, PrimeField(5)):
        for _ in range(10):
            ncols = rng.randint(1, 8)
            rows = [[field.of(rng.randint(-4, 4)) for _ in range(ncols)]
                    for _ in range(rng.randint(1, 8))]
            pivots, red = rref_rows(rows, field)
            assert len(pivots) == len(red)
            # pivot columns are strictly increasing, each pivot is 1
            assert pivots == sorted(pivots)
            for prow, pc in zip(red, pivots):
                assert prow[pc] == field.one
                # pivot column is zero elsewhere
                for other in red:
                    if other is not prow:
                        assert field.is_zero(other[pc])
            pivots2, red2 = rref_rows(red, field)
            assert pivots2 == pivots and red2 == red


RREF_FIELDS = [Q, PrimeField(2), PrimeField(5), PrimeField(32003),
               PrimeField(2**31 + 11), PrimeField(3037000493),
               PrimeField(2**61 - 1), PrimeField(2**89 - 1)]


def _sympy_rref(rows, field):
    """Pivot columns and nonzero rows of the RREF by sympy's DomainMatrix,
    in this package's scalars."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    if field.kind == "Q":
        dom = sympy.QQ
        entries = [[dom(Fraction(v).numerator, Fraction(v).denominator)
                    for v in r] for r in rows]

        def back(x):
            return Fraction(int(x.numerator), int(x.denominator))
    else:
        dom = sympy.GF(field.p)
        entries = [[dom(int(v)) for v in r] for r in rows]

        def back(x):
            return int(x) % field.p
    R, pivots = DomainMatrix(entries, (len(rows), len(rows[0])), dom).rref()
    return (list(pivots),
            [[back(x) for x in r] for r in R.to_list()[:len(pivots)]])


def test_rref_matches_sympy_on_random_rows():
    """Rows with denominators, zero rows and repeated rows, against an
    independent RREF, at primes below and beyond int64 products."""
    rng = random.Random(23)
    for field in RREF_FIELDS:
        for trial in range(30):
            ncols = rng.randint(1, 12)
            mat = random_matrix(rng, field, rng.randint(1, 10), ncols,
                                density=rng.choice([0.2, 0.5, 0.9]),
                                denominators=True)
            rows = mat.to_dense_rows()
            if field.kind == "F" and trial % 3 == 0:
                rows = [[rng.randrange(field.p) for _ in range(ncols)]
                        for _ in rows]
            rows.insert(rng.randint(0, len(rows)), [field.zero] * ncols)
            rows.insert(rng.randint(0, len(rows)), list(rng.choice(rows)))
            assert rref_rows(rows, field) == _sympy_rref(rows, field), (
                field, trial)


def test_rref_matches_sympy_on_macaulay_rows(monkeypatch):
    """The rows quotient_slice row-reduces, for the ideal of each fixture's
    polynomials, alone and with its Jacobian minors, against an independent
    RREF."""
    seen = []

    def spy(rows, field):
        seen.append((rows, field))
        return rref_rows(rows, field)

    monkeypatch.setattr(quotients, "rref_rows", spy)
    for field in RREF_FIELDS:
        for prob in (fermat_cubic(field), two_conics(field),
                     square_pair(field), two_quadrics(field)):
            minors = [g for g in jacobian_minors(prob) if not g.is_zero()]
            for gens in (list(prob.polys), list(prob.polys) + minors):
                for degree in range(1, 6):
                    seen.clear()
                    qs = quotients.quotient_slice(gens, degree)
                    [(rows, _)] = seen
                    if rows:
                        assert (qs.pivots, qs.rows) == _sympy_rref(
                            rows, field), (field, prob.degrees, degree)


@pytest.mark.parametrize("p", [2**61 - 1, 2**89 - 1])
def test_row_reduction_is_exact_at_primes_beyond_int64(p):
    """Row reduction eliminates on Python ints, so it stays exact where
    p*p overflows int64: on a rank-5 matrix with entries below p, rref_rows,
    solve and kernel_basis agree with sympy's RREF, and so does
    quotient_slice on the Macaulay rows of two hypersurfaces in P^3."""
    field = PrimeField(p)
    rng = random.Random(p)
    A = [[rng.randrange(p) for _ in range(5)] for _ in range(7)]
    B = [[rng.randrange(p) for _ in range(9)] for _ in range(5)]
    mat = SparseMatrix(7, 9, field, {
        (i, j): sum(A[i][t] * B[t][j] for t in range(5))
        for i in range(7) for j in range(9)})
    rows = mat.to_dense_rows()
    pivots, red = _sympy_rref(rows, field)
    assert len(pivots) == rank(mat) == 5
    assert rref_rows(rows, field) == (pivots, red)
    kernel = []
    for j in sorted(set(range(9)) - set(pivots)):
        v = [0] * 9
        v[j] = 1
        for prow, pc in zip(red, pivots):
            v[pc] = -prow[j] % p
        kernel.append(v)
    assert kernel_basis(mat) == kernel
    for rhs in (_mat_vec(mat, [rng.randrange(p) for _ in range(9)]),
                [rng.randrange(p) for _ in range(7)]):
        apiv, ared = _sympy_rref([r + [c] for r, c in zip(rows, rhs)], field)
        want = None
        if 9 not in apiv:
            want = [0] * 9
            for prow, pc in zip(ared, apiv):
                want[pc] = prow[9]
        assert solve(mat, rhs) == want
    gens = list(problem_from_strings(field, 4, [
        "x1^3 + 2*x2^3 + 3*x3^3 + 4*x4^3",
        "x1^2 + x2^2 + x3^2 + 5*x4^2 + x1*x2"]).polys)
    for degree in range(2, 7):
        qs = quotients.quotient_slice(gens, degree)
        _, mac = quotients._macaulay_matrix(gens, degree)
        assert (qs.pivots, qs.rows) == _sympy_rref(mac.to_dense_rows(),
                                                   field), degree


def test_rank_kernel_and_span_leave_the_rows_unchanged():
    """Rank mod p eliminates in place, so it works on a copy: rank,
    kernel_basis and in_column_span leave mat.rows as they were, over Q,
    below _NUMPY_P_LIMIT (where the dense tail runs) and above it."""
    rng = random.Random(29)
    for field in (Q, PrimeField(32003), PrimeField(2**61 - 1)):
        mat = random_matrix(rng, field, 12, 10, density=0.6,
                            denominators=True)
        before = copy.deepcopy(mat.rows)
        rank(mat)
        kernel_basis(mat)
        in_column_span(mat, [field.one] * 12)
        assert mat.rows == before, field


def test_add_at_cancellation_stores_no_zero():
    for field in (Q, PrimeField(7)):
        mat = SparseMatrix(2, 3, field)
        mat.add_at(0, 1, 3)
        mat.add_at(1, 2, 1)
        mat.add_at(0, 1, -3)
        assert mat.rows == [{}, {2: field.one}]
        assert mat.nnz() == 1 and mat.entries == {(1, 2): field.one}
