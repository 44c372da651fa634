"""Exact rank, solve, kernel, and row reduction over Q and prime fields.

Production engines: fraction-free integer elimination over Q (divisions are
exact by Sylvester's identity) and, mod p, structured Gaussian elimination:
Markowitz pivots on sparse rows of Python ints, then the dense Schur block in
vectorized int64 elimination with deferred reduction. Independent textbook
reference implementations live at the bottom of the module and are used by
the test suite to cross-check the production engines; the two routes
intentionally share no code.
"""
from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import lcm

import numpy as np

from .errors import InputError

# largest modulus for the vectorized engine: products must fit in int64
_NUMPY_P_LIMIT = 2**31

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
        f = self.field
        v = f.of(v)
        cur = self.entries.get((i, j))
        s = v if cur is None else f.add(cur, v)
        if f.is_zero(s):
            self.entries.pop((i, j), None)
        else:
            self.entries[(i, j)] = s

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
        return _rank_fraction_free(_int_dict_rows(mat), mat.ncols)
    return _rank_modp(mat, mat.field.p)


def _int_dict_rows(mat: SparseMatrix) -> list[dict[int, int]]:
    """Rows as integer dicts; each row is scaled by its denominator lcm,
    which leaves the rank unchanged."""
    rows: list[dict[int, Fraction]] = [dict() for _ in range(mat.nrows)]
    for (i, j), v in mat.entries.items():
        rows[i][j] = Fraction(v)
    out = []
    for row in rows:
        if not row:
            continue
        scale = lcm(*(v.denominator for v in row.values()))
        out.append({j: int(v * scale) for j, v in row.items()})
    return out


def _rank_fraction_free(rows: list[dict[int, int]], ncols: int) -> int:
    """One-step fraction-free elimination on sparse integer rows; every
    division below is exact, so no rationals ever appear."""
    rows = [r for r in rows if r]
    prev = 1
    rk = 0
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
        pivrow = rows.pop(best)
        piv = pivrow[col]
        nxt = []
        for row in rows:
            fac = row.get(col, 0)
            if fac:
                new = {}
                for j, v in row.items():
                    if j == col:
                        continue
                    w = piv * v - fac * pivrow.get(j, 0)
                    if w:
                        new[j] = w // prev
                for j, pv in pivrow.items():
                    if j == col or j in row:
                        continue
                    w = -fac * pv
                    if w:
                        new[j] = w // prev
            else:
                new = {j: piv * v // prev for j, v in row.items()}
            if new:
                nxt.append(new)
        rows = nxt
        prev = piv
        rk += 1
    return rk


def _rank_modp(mat: SparseMatrix, p: int) -> int:
    """Structured Gaussian elimination mod p. Each step pivots on a column
    of fewest nonzeros, in its shortest row, so column singletons go first
    and fill stays low. Rows are dicts of Python ints, exact for every p.
    Once the active block is denser than _DENSE_HANDOFF, and p is small
    enough for int64, the block is finished by the dense kernel."""
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
    return _rank_modp_vectorized(A, p)


def _rank_modp_vectorized(A: np.ndarray, p: int) -> int:
    """In-place elimination mod p on an int64 matrix. Row updates defer the
    mod reduction as long as the int64 growth budget allows."""
    m, n = A.shape
    if m == 0 or n == 0:
        return 0
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
        rk += 1
    return rk


# ---------------------------------------------------------------------------
# row reduction, solve, kernel
# ---------------------------------------------------------------------------


def rref_rows(rows: list[list], field) -> tuple[list[int], list[list]]:
    """Reduced row echelon form. Returns (pivot columns, nonzero rows with
    unit pivots and zeros above and below each pivot)."""
    if not rows:
        return [], []
    if field.kind == "Q":
        return _rref_fractions([list(map(Fraction, r)) for r in rows])
    p = field.p
    A = np.array([[int(v) % p for v in r] for r in rows], dtype=np.int64)
    pivots, R = _rref_modp(A, p)
    return pivots, [[int(v) for v in row] for row in R]


def _rref_fractions(rows: list[list[Fraction]]) -> tuple[list[int], list[list[Fraction]]]:
    ncols = len(rows[0])
    pivots = []
    r = 0
    for col in range(ncols):
        if r == len(rows):
            break
        sel = None
        for i in range(r, len(rows)):
            if rows[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        piv = rows[r][col]
        if piv != 1:
            rows[r] = [v / piv for v in rows[r]]
        prow = rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                fac = rows[i][col]
                rows[i] = [v - fac * w for v, w in zip(rows[i], prow)]
        pivots.append(col)
        r += 1
    return pivots, rows[:r]


def _rref_modp(A: np.ndarray, p: int) -> tuple[list[int], np.ndarray]:
    m, n = A.shape
    A %= p
    pivots = []
    r = 0
    for col in range(n):
        if r == m:
            break
        nz = np.nonzero(A[r:, col])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            A[[r, pr]] = A[[pr, r]]
        inv = pow(int(A[r, col]), -1, p)
        A[r] = A[r] * inv % p
        others = np.nonzero(A[:, col])[0]
        others = others[others != r]
        if others.size:
            A[others] = (A[others] - np.outer(A[others, col], A[r])) % p
        pivots.append(col)
        r += 1
    return pivots, A[:r]


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


# ---------------------------------------------------------------------------
# independent reference engines (test oracles; deliberately naive)
# ---------------------------------------------------------------------------


def rank_reference(mat: SparseMatrix) -> int:
    """Textbook Gaussian elimination on dense rows. Kept independent of the
    production engines so the two can cross-check each other."""
    if mat.field.kind == "Q":
        rows = [[Fraction(v) for v in row] for row in mat.to_dense_rows()]
        return _rank_dense_gauss(rows, lambda a: a == 0, lambda a: 1 / a,
                                 lambda a, b: a * b, lambda a, b: a - b)
    p = mat.field.p
    rows = [[int(v) % p for v in row] for row in mat.to_dense_rows()]
    return _rank_dense_gauss(rows, lambda a: a % p == 0,
                             lambda a: pow(a, -1, p),
                             lambda a, b: a * b % p,
                             lambda a, b: (a - b) % p)


def _rank_dense_gauss(rows, is_zero, inv, mul, sub) -> int:
    if not rows:
        return 0
    ncols = len(rows[0])
    rk = 0
    for col in range(ncols):
        sel = None
        for i in range(rk, len(rows)):
            if not is_zero(rows[i][col]):
                sel = i
                break
        if sel is None:
            continue
        rows[rk], rows[sel] = rows[sel], rows[rk]
        piv_inv = inv(rows[rk][col])
        rows[rk] = [mul(v, piv_inv) for v in rows[rk]]
        for i in range(rk + 1, len(rows)):
            fac = rows[i][col]
            if not is_zero(fac):
                rows[i] = [sub(v, mul(fac, w)) for v, w in zip(rows[i], rows[rk])]
        rk += 1
        if rk == len(rows):
            break
    return rk
