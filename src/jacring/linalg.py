"""Exact rank, solve, kernel, and row reduction over Q and prime fields.

A `SparseMatrix` is a list of sparse rows, each a dict col -> nonzero
scalar. One column-order echelon serves every field, with one elimination
step per field family: over Q it works fraction-free on integer rows and
divides each updated row by the gcd of its entries; mod p it works on
Python ints reduced mod p, exact for every p. A column -> holder rows
index hands each step the rows it changes, so the echelon's cost follows
the rows that hold each pivot column, not all remaining rows. Rank over Q
counts its pivots, row reduction back-substitutes, and a batch of column-span
questions reads the pivot rows past the matrix. Rank mod p runs structured
Gaussian elimination instead (Markowitz pivots on a copy of the rows,
exact for every p) and, for p below _NUMPY_P_LIMIT, hands the dense Schur
block to an int64 kernel with deferred reduction. Boundary ranks over Q
mostly come from this mod-p rank at a prime below _NUMPY_P_LIMIT, where a
vanishing mod-p slice proves them equal (see jacring.homology). The
independent textbook rank that the tests cross-check these engines against
lives in the test suite, and shares no code with them.
"""
from __future__ import annotations

from fractions import Fraction
from functools import partial
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
    """Sparse rows: rows[i] is a dict col -> nonzero scalar, and no zero is
    ever stored."""

    __slots__ = ("nrows", "ncols", "field", "rows")

    def __init__(self, nrows: int, ncols: int, field, entries=None):
        self.nrows = nrows
        self.ncols = ncols
        self.field = field
        self.rows: list[dict] = [{} for _ in range(nrows)]
        if entries:
            items = entries.items() if isinstance(entries, dict) else entries
            for (i, j), v in items:
                self.add_at(i, j, v)

    @property
    def entries(self) -> dict:
        """The rows as one dict (row, col) -> value, built on each access,
        so writing to it changes nothing. The package never reads it; the
        benchmark's tracer does until ROADMAP B1."""
        return {(i, j): v for i, row in enumerate(self.rows)
                for j, v in row.items()}

    def add_at(self, i: int, j: int, v):
        if not (0 <= i < self.nrows and 0 <= j < self.ncols):
            raise InputError(f"entry ({i},{j}) outside {self.nrows}x{self.ncols}")
        add_term(self.rows[i], j, self.field.of(v), self.field)

    def nnz(self) -> int:
        return sum(map(len, self.rows))

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz()})"


# ---------------------------------------------------------------------------
# production rank
# ---------------------------------------------------------------------------


def rank(mat: SparseMatrix) -> int:
    """Rank of the matrix; mat.rows is left as it was."""
    if mat.field.kind == "Q":
        return len(_echelon_over(mat.rows, mat.field)[0])
    return _rank_modp(mat.rows, mat.field.p)


def _int_dict_rows(rows) -> list[dict[int, int]]:
    """The nonzero rows, each a dict col -> rational, as integer dicts
    scaled by the lcm of their denominators; scaling a row changes neither
    the rank nor the reduced row echelon form."""
    out = []
    for row in rows:
        if not row:
            continue
        scale = lcm(*(v.denominator for v in row.values()))
        out.append({j: v.numerator * (scale // v.denominator)
                    for j, v in row.items()})
    return out


def _eliminate_q(row: dict[int, int], prow: dict[int, int],
                 col: int) -> dict[int, int]:
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


def _eliminate_modp(row: dict[int, int], prow: dict[int, int], col: int,
                    p: int) -> dict[int, int]:
    """row - (row[col]/prow[col])*prow mod p, so the entry at col cancels;
    updates row in place and returns it."""
    fac = row[col] * pow(prow[col], -1, p) % p
    for j, w in prow.items():
        v = (row.get(j, 0) - fac * w) % p
        if v:
            row[j] = v
        else:
            del row[j]
    return row


def _echelon(rows: list[dict[int, int]],
             eliminate) -> tuple[list[int], list[dict[int, int]]]:
    """Forward elimination on sparse rows, over the occupied columns in
    order (elimination never fills a column that no row holds). A column
    -> holder rows index finds each column's rows: the pivot is the
    shortest holder, then the one of least |entry|, then the earliest row,
    and only the other holders change, by the field family's `eliminate`.
    An updated row changes membership only in the pivot row's columns, so
    its bookkeeping costs len(pivot row). Returns the pivot columns and the
    pivot rows."""
    live = {i: row for i, row in enumerate(rows) if row}
    holders: dict[int, set[int]] = {}
    for i, row in live.items():
        for j in row:
            holders.setdefault(j, set()).add(i)
    pivots: list[int] = []
    prows: list[dict[int, int]] = []
    for col in sorted(holders):
        held = holders.pop(col)
        if not held:
            continue
        best = min(held, key=lambda i: (len(live[i]), abs(live[i][col]), i))
        held.discard(best)
        prow = live.pop(best)
        touched = [(j, holders[j]) for j in prow if j != col]
        for _, holding in touched:
            holding.discard(best)
        for i in held:
            row = live[i] = eliminate(live[i], prow, col)
            for j, holding in touched:
                if j in row:
                    holding.add(i)
                else:
                    holding.discard(i)
            if not row:
                del live[i]
        pivots.append(col)
        prows.append(prow)
    return pivots, prows


def _echelon_over(rows: list[dict], field) -> tuple:
    """The column-order echelon of the nonzero rows over field, which are
    left as they were: over Q on their integer copies, mod p on copies.
    Returns the pivot columns, the pivot rows and the elimination step."""
    if field.kind == "Q":
        eliminate, rows = _eliminate_q, _int_dict_rows(rows)
    else:
        eliminate = partial(_eliminate_modp, p=field.p)
        rows = [dict(row) for row in rows if row]
    return (*_echelon(rows, eliminate), eliminate)


def _rank_modp(sparse_rows: list[dict[int, int]], p: int) -> int:
    """Structured Gaussian elimination mod p on a copy of the rows. Each
    step pivots on a column of fewest nonzeros, in its shortest row, so
    column singletons go first and fill stays low. Rows are dicts of Python
    ints, exact for every p. Once the active block is denser than
    _DENSE_HANDOFF, and p is below _NUMPY_P_LIMIT, the block is finished by
    the dense kernel."""
    rows = {i: dict(row) for i, row in enumerate(sparse_rows) if row}
    cols: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
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
    long as the int64 growth budget allows. Returns the pivot columns,
    which rank's dense tail counts."""
    m, n = A.shape
    pivots: list[int] = []
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


def rref_rows(rows: list[dict], field) -> tuple[list[int], list[dict]]:
    """Reduced row echelon form of sparse rows, each a dict col -> nonzero
    scalar as in SparseMatrix.rows, which are left as they were. Returns
    (pivot columns, nonzero rows with unit pivots, no other entry in a
    pivot column, and columns in ascending order): the column-order echelon,
    then back-substitution by the same elimination step, last row first,
    over the pivot columns each row holds. A later row is already reduced,
    so eliminating it brings in no pivot column. Exact over Q and at every
    prime."""
    pivots, prows, eliminate = _echelon_over(rows, field)
    row_of = {pc: i for i, pc in enumerate(pivots)}
    for i in reversed(range(len(prows))):
        for c in [c for c in prows[i] if c in row_of and c != pivots[i]]:
            prows[i] = eliminate(prows[i], prows[row_of[c]], c)
    out = []
    for pc, row in zip(pivots, prows):
        if field.kind == "Q":
            out.append({j: Fraction(v, row[pc])
                        for j, v in sorted(row.items())})
        else:
            inv = pow(row[pc], -1, field.p)
            out.append({j: v * inv % field.p for j, v in sorted(row.items())})
    return pivots, out


# no command calls solve: the test oracles do, and the benchmark's tracer
# wraps it by name until ROADMAP B1 drops it from the traced layers
def solve(mat: SparseMatrix, rhs: list):
    """One solution x of mat @ x = rhs with free coordinates set to zero,
    or None when the system is inconsistent. The right-hand side enters the
    row reduction as column ncols."""
    if len(rhs) != mat.nrows:
        raise InputError("right-hand side length mismatch")
    f = mat.field
    rows = [row if f.is_zero(c) else {**row, mat.ncols: c}
            for row, c in zip(mat.rows, map(f.of, rhs))]
    pivots, R = rref_rows(rows, f)
    if mat.ncols in pivots:
        return None
    x = [f.zero] * mat.ncols
    for pc, row in zip(pivots, R):
        x[pc] = row.get(mat.ncols, f.zero)
    return x


def kernel_basis(mat: SparseMatrix) -> list[list]:
    """Basis of the right kernel, one vector per free column, in column
    order: the free column's unit, minus its entries in the reduced rows at
    their pivots."""
    f = mat.field
    pivots, R = rref_rows(mat.rows, f)
    pivset = set(pivots)
    basis = []
    for j in range(mat.ncols):
        if j in pivset:
            continue
        v = [f.zero] * mat.ncols
        v[j] = f.one
        for pc, row in zip(pivots, R):
            if j in row:
                v[pc] = f.neg(row[j])
        basis.append(v)
    return basis


def in_column_span(mat: SparseMatrix, vectors) -> list[bool]:
    """For each vector, whether it lies in the span of the matrix columns,
    by one echelon of mat with the vectors as columns ncols on. The row
    combinations y^T (mat | vectors) with y^T mat = 0 carry y^T v in a
    vector v's column, all zero exactly when v lies in the span, and the
    pivot rows at columns ncols on span them: a vector lies outside the
    span exactly when one of those rows holds its column."""
    if any(len(vec) != mat.nrows for vec in vectors):
        raise InputError("column length mismatch")
    f, n = mat.field, mat.ncols
    rows = [dict(row) for row in mat.rows]
    for i, vec in enumerate(vectors):
        for row, v in zip(rows, vec):
            if not f.is_zero(v):
                row[n + i] = v
    pivots, prows, _ = _echelon_over(rows, f)
    outside = {j - n for pc, row in zip(pivots, prows) if pc >= n
               for j in row}
    return [i not in outside for i in range(len(vectors))]
