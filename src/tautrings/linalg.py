"""Exact dense-semantics linear algebra over the rationals.

Matrices carry Fraction entries in a dict keyed by (row, col); zero entries
are simply absent.  This keeps the huge-but-sparse tensor-space matrices
tractable while the API stays that of an ordinary dense matrix.  All rank
and kernel computations are exact integer/rational eliminations; no
floating point is used anywhere.

One routine, `_eliminate`, does every elimination: fraction-free over the
integers, pivoting on the shortest live row (taken from a lazy min-heap)
at its column with the fewest rows, which keeps fill-in low on the sparse
Lie-action systems.  `kernel_basis_columns` back-substitutes in integers
over one common denominator and makes Fractions only at the end.
"""

from __future__ import annotations

import heapq
import math
import random
from fractions import Fraction
from typing import Iterable, Sequence


class QMatrix:
    """A rows x cols matrix over Q."""

    def __init__(self, rows: int, cols: int,
                 entries: dict[tuple[int, int], Fraction] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative shape")
        self.rows = rows
        self.cols = cols
        self.entries: dict[tuple[int, int], Fraction] = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise IndexError((i, j))
                if type(v) is not Fraction:
                    v = Fraction(v)
                if v:
                    self.entries[(i, j)] = v

    @classmethod
    def from_rows(cls, data: Sequence[Sequence]) -> "QMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        e = {}
        for i, row in enumerate(data):
            if len(row) != cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                v = Fraction(v)
                if v:
                    e[(i, j)] = v
        return cls(rows, cols, e)

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls(n, n, {(i, i): Fraction(1) for i in range(n)})

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "QMatrix":
        return cls(rows, cols)

    @classmethod
    def from_columns(cls, rows: int, columns: Iterable[dict[int, Fraction]]) -> "QMatrix":
        cols = list(columns)
        e = {}
        for j, col in enumerate(cols):
            for i, v in col.items():
                if v:
                    e[(i, j)] = v
        return cls(rows, len(cols), e)

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(ij)
        return self.entries.get((i, j), Fraction(0))

    def __eq__(self, other) -> bool:
        return (isinstance(other, QMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.entries == other.entries)

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        by_row: dict[int, dict[int, Fraction]] = {}
        for (i, k), v in self.entries.items():
            by_row.setdefault(i, {})[k] = v
        ocols: dict[int, dict[int, Fraction]] = {}
        for (k, j), v in other.entries.items():
            ocols.setdefault(k, {})[j] = v
        e: dict[tuple[int, int], Fraction] = {}
        for i, rowd in by_row.items():
            acc: dict[int, Fraction] = {}
            for k, v in rowd.items():
                for j, w in ocols.get(k, {}).items():
                    acc[j] = acc.get(j, Fraction(0)) + v * w
            for j, v in acc.items():
                if v:
                    e[(i, j)] = v
        return QMatrix(self.rows, other.cols, e)

    def scale(self, c) -> "QMatrix":
        c = Fraction(c)
        return QMatrix(self.rows, self.cols,
                       {k: v * c for k, v in self.entries.items()} if c else {})

    def hstack(self, other: "QMatrix") -> "QMatrix":
        if self.rows != other.rows:
            raise ValueError("row count mismatch")
        e = dict(self.entries)
        for (i, j), v in other.entries.items():
            e[(i, j + self.cols)] = v
        return QMatrix(self.rows, self.cols + other.cols, e)

    def transpose(self) -> "QMatrix":
        return QMatrix(self.cols, self.rows,
                       {(j, i): v for (i, j), v in self.entries.items()})

    def column(self, j: int) -> dict[int, Fraction]:
        return {i: v for (i, jj), v in self.entries.items() if jj == j}

    def is_zero(self) -> bool:
        return not self.entries

    def to_lists(self) -> list[list[Fraction]]:
        return [[self[i, j] for j in range(self.cols)] for i in range(self.rows)]

    def _int_rows(self) -> list[dict[int, int]]:
        """Rows with cleared denominators, as col -> int dicts."""
        by_row: dict[int, dict[int, Fraction]] = {}
        for (i, j), v in self.entries.items():
            by_row.setdefault(i, {})[j] = v
        out = []
        for i, rowd in by_row.items():
            lcm = math.lcm(*(v.denominator for v in rowd.values()))
            out.append({j: v.numerator * (lcm // v.denominator)
                        for j, v in rowd.items()})
        return out

    def rank(self) -> int:
        piv, _ = _eliminate(self._int_rows())
        return len(piv)

    def kernel_basis(self) -> "QMatrix":
        """Matrix whose columns form a basis of the right kernel."""
        cols = kernel_basis_columns(self._int_rows(), self.cols)
        return QMatrix.from_columns(self.cols, cols)

    def __repr__(self) -> str:
        return f"QMatrix({self.rows}x{self.cols}, {len(self.entries)} nonzero)"


def _eliminate(rows: list[dict[int, int]]):
    """Fraction-free sparse Gaussian elimination.

    Returns (pivots, pivot_rows): pivots is the list of pivot columns in
    elimination order, pivot_rows the corresponding reduced integer rows.
    Pivot row k has zero in all pivot columns of steps < k.

    Each step pivots on the shortest live row, at that row's column with
    the fewest rows (ties to the lowest column).  Live rows sit in a lazy
    min-heap keyed by (length, index): a row is re-pushed when its length
    changes, and an entry whose length no longer matches is skipped.
    """
    rows_d = {}
    for i, r in enumerate(rows):
        r = {c: v for c, v in r.items() if v}
        if r:
            rows_d[i] = r
    cols_rows: dict[int, set[int]] = {}
    for i, r in rows_d.items():
        for c in r:
            cols_rows.setdefault(c, set()).add(i)
    heap = [(len(r), i) for i, r in rows_d.items()]
    heapq.heapify(heap)
    pivots: list[int] = []
    pivot_rows: list[dict[int, int]] = []
    while heap:
        n, prow_i = heapq.heappop(heap)
        pr = rows_d.get(prow_i)
        if pr is None or len(pr) != n:
            continue
        c = min(pr, key=lambda cc: (len(cols_rows[cc]), cc))
        pv = pr[c]
        pivots.append(c)
        pivot_rows.append(pr)
        for i in list(cols_rows[c]):
            if i == prow_i:
                continue
            # ri <- m1 * ri - m2 * pr with m1 > 0, in place: live rows are
            # private copies, and a pivot row leaves rows_d once chosen
            ri = rows_d[i]
            before = len(ri)
            v = ri[c]
            g = math.gcd(pv, v)
            m1, m2 = pv // g, v // g
            if m1 < 0:
                m1, m2 = -m1, -m2
            if m1 != 1:
                for cc in ri:
                    ri[cc] *= m1
            for cc, vv in pr.items():
                nv = ri.get(cc, 0) - vv * m2
                if nv:
                    if cc not in ri:
                        cols_rows[cc].add(i)
                    ri[cc] = nv
                else:
                    del ri[cc]
                    cols_rows[cc].discard(i)
            if not ri:
                del rows_d[i]
                continue
            g = 0
            for vv in ri.values():
                g = math.gcd(g, vv)
                if g == 1:
                    break
            if g > 1:
                for cc in ri:
                    ri[cc] //= g
            if len(ri) != before:
                heapq.heappush(heap, (len(ri), i))
        for cc in pr:
            cols_rows[cc].discard(prow_i)
        del rows_d[prow_i]
    return pivots, pivot_rows


def kernel_basis_columns(rows: list[dict[int, int]], ncols: int) -> list[dict[int, Fraction]]:
    """Basis of the kernel of the integer row system, one dict per vector.

    Back-substitutes through the elimination in reverse order; pivot row k
    may involve pivot columns of later steps and free columns only.  The
    vector for free column f has 1 at f and 0 at the other free columns.
    It is carried as ints over one common denominator, which grows only
    when a pivot does not divide its running sum, and becomes Fractions
    once at the end.
    """
    pivots, pivot_rows = _eliminate(rows)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    steps = list(zip(reversed(pivots), reversed(pivot_rows)))
    basis = []
    for f in free_cols:
        v: dict[int, int] = {f: 1}
        den = 1
        for c, pr in steps:
            # c is not yet in v: each pivot column is solved once
            s = 0
            for cc, coef in pr.items():
                if cc in v:
                    s += coef * v[cc]
            if not s:
                continue
            pv = pr[c]
            if s % pv:
                m = abs(pv) // math.gcd(s, pv)
                for cc in v:
                    v[cc] *= m
                den *= m
                s *= m
            v[c] = -s // pv
        basis.append({cc: Fraction(x, den) for cc, x in v.items()})
    return basis


def rank_of_int_rows(rows: list[dict[int, int]]) -> int:
    piv, _ = _eliminate(rows)
    return len(piv)


def subspace_equal(b1: QMatrix, b2: QMatrix) -> bool:
    """Do the column spans of b1 and b2 coincide?"""
    if b1.rows != b2.rows:
        raise ValueError("ambient dimensions differ")
    r1 = b1.rank()
    r2 = b2.rank()
    if r1 != r2:
        return False
    return b1.hstack(b2).rank() == r1


def random_matrix(rows: int, cols: int, rng: random.Random,
                  lo: int = -9, hi: int = 9) -> QMatrix:
    e = {}
    for i in range(rows):
        for j in range(cols):
            v = rng.randint(lo, hi)
            if v:
                e[(i, j)] = Fraction(v)
    return QMatrix(rows, cols, e)
