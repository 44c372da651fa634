"""Exact rank, solve, kernel, and row reduction over Q and prime fields.

One echelon core per field family: rank counts its pivots, row reduction
back-substitutes. Over Q the core eliminates on sparse integer rows and
divides each updated row by the gcd of its entries. Mod p it is an int64
kernel with deferred reduction, exact for p < _NUMPY_P_LIMIT: row reduction
runs it on the whole matrix, while rank first runs structured Gaussian
elimination (Markowitz pivots on sparse rows of Python ints, exact for every
p) and hands the kernel only the dense Schur block. Boundary ranks over Q
mostly come from this mod-p rank at a prime below _NUMPY_P_LIMIT, where a
vanishing mod-p slice proves them equal (see jacring.homology). The
independent textbook rank that the tests cross-check these engines against
lives in the test suite, and shares no code with them.
"""
from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, isqrt, lcm

import numpy as np

from .errors import InputError
from .fields import add_term

# the int64 kernel is exact for p below this bound: p*p < 2^63
_NUMPY_P_LIMIT = isqrt(2**63 - 1) + 1

# density of the active block at which sparse elimination stops and the
# remaining Schur block goes to the dense kernel (only below _NUMPY_P_LIMIT)
_DENSE_HANDOFF = 0.1


class SparseMatrix:
    """Entries as a dict (row, col) -> nonzero scalar."""

    __slots__ = ("nrows", "ncols", "field", "entries")

    def __init__(self, nrows: int, ncols: int, field, entries=None):
        self.nrows = nrows
        self.ncols = ncols
        self.field = field
        self.entries = {}
        if entries:
            items = entries.items() if isinstance(entries, dict) else entries
            for (i, j), v in items:
                self.add_at(i, j, v)

    def add_at(self, i: int, j: int, v):
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise InputError(f"entry ({i},{j}) outside {self.nrows}x{self.ncols}")
        add_term(self.entries, (i, j), self.field.of(v), self.field)

    def nnz(self) -> int:
        return len(self.entries)

    def to_dense_rows(self) -> list[list]:
        z = self.field.zero
        rows = [[z] * self.ncols for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def augmented_with_column(self, vec) -> "SparseMatrix":
        if len(vec) != self.nrows:
            raise InputError("column length mismatch")
        m = SparseMatrix(self.nrows, self.ncols + 1, self.field, dict(self.entries))
        for i, v in enumerate(vec):
            if not self.field.is_zero(v):
                m.entries[(i, self.ncols)] = v
        return m

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz()})"


# ---------------------------------------------------------------------------
# production rank
# ---------------------------------------------------------------------------


def rank(mat: SparseMatrix) -> int:
    if mat.nrows == 0 or mat.ncols == 0 or not mat.entries:
        return 0
    if mat.field.kind == "Q":
        rows: list[dict] = [{} for _ in range(mat.nrows)]
        for (i, j), v in mat.entries.items():
            rows[i][j] = v
        return len(_echelon_q(_int_dict_rows(rows), mat.ncols)[0])
    return _rank_modp(mat, mat.field.p)


def _int_dict_rows(rows) -> list[dict[int, int]]:
    """The nonzero rows, each a dict col -> rational, as integer dicts
    scaled by the lcm of their denominators; scaling a row changes neither
    the rank nor the reduced row echelon form."""
    out = []
    for row in rows:
        if not row:
            continue
        row = {j: Fraction(v) for j, v in row.items()}
        scale = lcm(*(v.denominator for v in row.values()))
        out.append({j: v.numerator * (scale // v.denominator)
                    for j, v in row.items()})
    return out


def _eliminate(row: dict[int, int], prow: dict[int, int], col: int) -> dict[int, int]:
    """a*row - b*prow with a/b = prow[col]/row[col] in lowest terms, so the
    entry at col cancels, divided by the gcd of its entries."""
    g = gcd(prow[col], row[col])
    a, b = prow[col] // g, row[col] // g
    new = {j: a * v for j, v in row.items()}
    for j, w in prow.items():
        v = new.get(j, 0) - b * w
        if v:
            new[j] = v
        else:
            del new[j]
    c = gcd(*new.values())
    if c > 1:
        new = {j: v // c for j, v in new.items()}
    return new


def _echelon_q(rows: list[dict[int, int]],
               ncols: int) -> tuple[list[int], list[dict[int, int]]]:
    """Forward elimination on sparse integer rows, column by column. The
    pivot is the shortest row holding the column, then the one of least
    |entry|; only the rows holding the column change, by `_eliminate`, so
    no rationals appear. Returns the pivot columns and the pivot rows."""
    pivots: list[int] = []
    prows: list[dict[int, int]] = []
    for col in range(ncols):
        if not rows:
            break
        best = -1
        best_key = None
        for idx, row in enumerate(rows):
            v = row.get(col)
            if v:
                key = (len(row), abs(v))
                if best_key is None or key < best_key:
                    best, best_key = idx, key
        if best < 0:
            continue
        prow = rows.pop(best)
        rows = [_eliminate(row, prow, col) if col in row else row
                for row in rows]
        rows = [row for row in rows if row]
        pivots.append(col)
        prows.append(prow)
    return pivots, prows


def _rank_modp(mat: SparseMatrix, p: int) -> int:
    """Structured Gaussian elimination mod p. Each step pivots on a column
    of fewest nonzeros, in its shortest row, so column singletons go first
    and fill stays low. Rows are dicts of Python ints, exact for every p.
    Once the active block is denser than _DENSE_HANDOFF, and p is below
    _NUMPY_P_LIMIT, the block is finished by the dense kernel."""
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for (i, j), v in mat.entries.items():
        v = int(v) % p
        if v:
            rows.setdefault(i, {})[j] = v
            cols.setdefault(j, set()).add(i)
    nnz = sum(map(len, rows.values()))
    dense_ok = p < _NUMPY_P_LIMIT
    # lazy heap: an entry is live while it matches its column's count
    heap = [(len(s), j) for j, s in cols.items()]
    heapify(heap)
    rk = 0
    while heap:
        if dense_ok and nnz > _DENSE_HANDOFF * len(rows) * len(cols):
            return rk + _rank_dense_tail(rows, cols, p)
        count, col = heappop(heap)
        holders = cols.get(col)
        if holders is None or len(holders) != count:
            continue
        del cols[col]
        piv = min(holders, key=lambda i: (len(rows[i]), i))
        holders.discard(piv)
        prow = rows.pop(piv)
        inv = pow(prow.pop(col), -1, p)
        nnz -= 1 + len(prow)
        for i in holders:
            row = rows[i]
            fac = row.pop(col) * inv % p
            nnz -= 1
            for j, v in prow.items():
                w = row.get(j)
                if w is None:
                    row[j] = -fac * v % p
                    cols[j].add(i)
                    nnz += 1
                else:
                    w = (w - fac * v) % p
                    if w:
                        row[j] = w
                    else:
                        del row[j]
                        cols[j].discard(i)
                        nnz -= 1
            if not row:
                del rows[i]
        for j in prow:
            s = cols[j]
            s.discard(piv)
            if s:
                heappush(heap, (len(s), j))
            else:
                del cols[j]
        rk += 1
    return rk


def _rank_dense_tail(rows: dict[int, dict[int, int]], cols: dict[int, set[int]],
                     p: int) -> int:
    """Rank of the active block by the dense kernel, copied into int64 with
    the shorter side as rows."""
    cpos = {j: b for b, j in enumerate(cols)}
    ii: list[int] = []
    jj: list[int] = []
    vv: list[int] = []
    for a, row in enumerate(rows.values()):
        ii.extend([a] * len(row))
        jj.extend(map(cpos.__getitem__, row))
        vv.extend(row.values())
    if len(rows) > len(cols):
        ii, jj = jj, ii
    A = np.zeros((min(len(rows), len(cols)), max(len(rows), len(cols))),
                 dtype=np.int64)
    A[ii, jj] = vv
    return len(_echelon_modp(A, p))


def _echelon_modp(A: np.ndarray, p: int) -> list[int]:
    """In-place forward elimination mod p on an int64 matrix with entries
    in [0, p), p < _NUMPY_P_LIMIT. Row updates defer the mod reduction as
    long as the int64 growth budget allows. Returns the pivot columns; the
    first len(pivots) rows of A are then the echelon rows, reduced mod p,
    with unit pivots."""
    m, n = A.shape
    pivots: list[int] = []
    if m == 0 or n == 0:
        return pivots
    step = (p - 1) ** 2
    budget = max(1, (2**61) // step)
    dirty = 0
    rk = 0
    for col in range(n):
        if rk == m:
            break
        colv = A[rk:, col] % p
        nz = np.nonzero(colv)[0]
        if nz.size == 0:
            continue
        pr = rk + int(nz[0])
        if pr != rk:
            A[[rk, pr]] = A[[pr, rk]]
        prow = A[rk] % p
        inv = pow(int(prow[col]), -1, p)
        prow = prow * inv % p
        A[rk] = prow
        below = A[rk + 1:, col:]
        if below.shape[0]:
            f = below[:, 0] % p
            hot = np.nonzero(f)[0]
            if hot.size:
                piv = prow[col:]
                for s in range(0, hot.size, 1024):
                    sel = hot[s:s + 1024]
                    below[sel] -= np.outer(f[sel], piv)
                dirty += 1
                if dirty >= budget:
                    A[rk + 1:] %= p
                    dirty = 0
        pivots.append(col)
        rk += 1
    return pivots


# ---------------------------------------------------------------------------
# row reduction, solve, kernel
# ---------------------------------------------------------------------------


def check_row_reduction_modulus(field) -> None:
    """Raise InputError for a prime at or above _NUMPY_P_LIMIT, where the
    int64 kernel that row reduction runs on stops being exact."""
    if field.kind != "Q" and field.p >= _NUMPY_P_LIMIT:
        raise InputError(f"modulus {field.p} is too large for row reduction "
                         f"(needs p < {_NUMPY_P_LIMIT})")


def rref_rows(rows: list[list], field) -> tuple[list[int], list[list]]:
    """Reduced row echelon form. Returns (pivot columns, nonzero rows with
    unit pivots and zeros above and below each pivot): the echelon core of
    the field, then back-substitution. Raises InputError for a prime at or
    above _NUMPY_P_LIMIT."""
    if not rows:
        return [], []
    ncols = len(rows[0])
    if field.kind == "Q":
        pivots, prows = _echelon_q(
            _int_dict_rows({j: v for j, v in enumerate(r) if v} for r in rows),
            ncols)
        for i in reversed(range(len(prows))):
            for j in range(i + 1, len(prows)):
                if pivots[j] in prows[i]:
                    prows[i] = _eliminate(prows[i], prows[j], pivots[j])
        out = []
        for pc, row in zip(pivots, prows):
            dense = [field.zero] * ncols
            for j, v in row.items():
                dense[j] = Fraction(v, row[pc])
            out.append(dense)
        return pivots, out
    check_row_reduction_modulus(field)
    p = field.p
    A = np.array([[int(v) % p for v in r] for r in rows], dtype=np.int64)
    pivots = _echelon_modp(A, p)
    R = A[:len(pivots)]
    for i in reversed(range(len(pivots))):
        f = R[:i, pivots[i]]
        hot = np.nonzero(f)[0]
        if hot.size:
            R[hot] = (R[hot] - np.outer(f[hot], R[i])) % p
    return pivots, R.tolist()


# no command calls solve: the test oracles do, and the benchmark's tracer
# wraps it by name until ROADMAP B1 drops it from the traced layers
def solve(mat: SparseMatrix, rhs: list):
    """One solution x of mat @ x = rhs with free coordinates set to zero,
    or None when the system is inconsistent."""
    if len(rhs) != mat.nrows:
        raise InputError("right-hand side length mismatch")
    f = mat.field
    rows = mat.to_dense_rows()
    for i, v in enumerate(rhs):
        rows[i].append(f.of(v))
    pivots, R = rref_rows(rows, f)
    if mat.ncols in pivots:
        return None
    x = [f.zero] * mat.ncols
    for i, pc in enumerate(pivots):
        x[pc] = f.of(R[i][mat.ncols])
    return x


def kernel_basis(mat: SparseMatrix) -> list[list]:
    """Basis of the right kernel, one vector per free column, in column
    order."""
    f = mat.field
    if mat.ncols == 0:
        return []
    if mat.nrows == 0 or not mat.entries:
        basis = []
        for j in range(mat.ncols):
            v = [f.zero] * mat.ncols
            v[j] = f.one
            basis.append(v)
        return basis
    pivots, R = rref_rows(mat.to_dense_rows(), f)
    pivset = set(pivots)
    basis = []
    for j in range(mat.ncols):
        if j in pivset:
            continue
        v = [f.zero] * mat.ncols
        v[j] = f.one
        for i, pc in enumerate(pivots):
            v[pc] = f.neg(f.of(R[i][j]))
        basis.append(v)
    return basis


def in_column_span(mat: SparseMatrix, vec) -> bool:
    """Whether vec lies in the span of the matrix columns, decided by a rank
    comparison with the augmented matrix."""
    if all(mat.field.is_zero(v) for v in vec):
        return True
    return rank(mat.augmented_with_column(vec)) == rank(mat)
