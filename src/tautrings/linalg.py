"""Exact linear algebra over the rationals.

A `QMatrix` carries exact entries, int or Fraction, in a dict keyed by
(row, col); zero entries are simply absent, which keeps the
huge-but-sparse tensor-space matrices tractable; only the public
invariant bases, `invariants.sigma_matrix` and tests build one.  All rank
and kernel computations are exact integer eliminations; no floating point
is used anywhere.

One routine, `_eliminate`, does every elimination: fraction-free over the
integers.  A column with one live row is a pivot on that row with no
arithmetic, so such columns go first; only when none is left does a step
pivot on the shortest live row (taken from a lazy min-heap) at its column
with the fewest rows, which keeps fill-in low on the sparse Lie-action
systems.  On the Koszul systems the singleton steps halve the row
updates; the Lie systems have almost none.  Nearly all pivots of those
systems are +-1, and a unit pivot clears its column from another row by
one subtraction, with no gcd and no scaling of that row.  The heap takes
a row back only when it shrinks, and re-files a stale entry of a row that
has grown when it comes up, which leaves the pivot order exactly that of
a heap refreshed on every change.  The input rows are copied as they
are, and the pivot row leaves its columns while their counts are read.
`kernel_int_basis` back-substitutes in integers over one common
denominator per vector, which the engines drop; `kernel_basis_columns`
makes Fractions of it.
Two column spans are equal exactly when both ranks equal the rank of the
two stacked (`subspace_equal`), so span equality is three ranks.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Iterable, Sequence


Entry = int | Fraction


class QMatrix:
    """A sparse rows x cols matrix over Q: the permutation tensors and the
    invariant bases.  Int entries stay ints; any other value that is not
    a Fraction is made one."""

    def __init__(self, rows: int, cols: int,
                 entries: dict[tuple[int, int], Entry] | None = None):
        if rows < 0 or cols < 0:
            raise ValueError("negative shape")
        self.rows = rows
        self.cols = cols
        self.entries: dict[tuple[int, int], Entry] = {}
        if entries:
            for (i, j), v in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise IndexError((i, j))
                if type(v) is not int and type(v) is not Fraction:
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
    def from_columns(cls, rows: int, columns: Iterable[dict[int, Entry]]) -> "QMatrix":
        cols = list(columns)
        e = {}
        for j, col in enumerate(cols):
            for i, v in col.items():
                if v:
                    e[(i, j)] = v
        return cls(rows, len(cols), e)

    def _int_rows(self, columns: bool = False) -> list[dict[int, int]]:
        """Rows (or, with columns, the columns) with cleared denominators,
        as index -> int dicts."""
        by_row: dict[int, dict[int, Entry]] = {}
        for (i, j), v in self.entries.items():
            if columns:
                i, j = j, i
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

    def __repr__(self) -> str:
        return f"QMatrix({self.rows}x{self.cols}, {len(self.entries)} nonzero)"


def _eliminate(rows: list[dict[int, int]]):
    """Fraction-free sparse Gaussian elimination.

    Returns (pivots, pivot_rows): pivots is the list of pivot columns in
    elimination order, pivot_rows the corresponding reduced integer rows.
    Pivot row k has zero in all pivot columns of steps < k.

    While some column has exactly one live row, each step pivots on that
    row at the lowest such column and clears nothing: the row is
    independent of the others, which are zero there, so the rank is one
    more than theirs.  Columns are fed to a min-heap of candidates
    whenever their count drops to one (at input, when a pivot row leaves
    its columns, and when an update cancels an entry) and checked when
    taken; a count reaches one only so, since a heap step starts with
    every count at two or more.  Otherwise a step pivots on the live row
    least in (length, index), at that row's column with the fewest rows
    (ties to the lowest column), and clears that column from every other
    row.  Live rows sit in a lazy min-heap keyed by (length, index) whose
    entry for a row is never longer than the row: a row is pushed when it
    shrinks, and a popped entry whose row has since grown is pushed again
    with its true length, so the first entry popped with its row's true
    length is the least live row.  A unit pivot (+-1) needs no scaling of
    the other rows.  The rows given are not changed: live rows are copies.

    A row an update has changed is divided by its content once, when it
    is chosen as pivot by either kind of step; a row never updated is not
    divided.  Until then it is a positive integer multiple of the row that
    dividing after every update would leave, with the same nonzeros in the
    same order, so every length, pivot and pivot row is that elimination's
    (README, "Why the elimination order is exact").
    """
    rows_d: dict[int, dict[int, int]] = {}   # live rows, private copies
    cols_rows: dict[int, set[int]] = {}   # column -> live rows in it
    heap = []
    for i, r in enumerate(rows):
        r = {c: v for c, v in r.items() if v} if 0 in r.values() else dict(r)
        if r:
            rows_d[i] = r
            for c in r:
                if c in cols_rows:
                    cols_rows[c].add(i)
                else:
                    cols_rows[c] = {i}
            heap.append((len(r), i))
    heapq.heapify(heap)
    # columns that may have one live row, checked when taken
    single = [c for c, in_col in cols_rows.items() if len(in_col) == 1]
    heapq.heapify(single)
    heappush, heappop, gcd = heapq.heappush, heapq.heappop, math.gcd
    pivots: list[int] = []
    pivot_rows: list[dict[int, int]] = []
    updated: set[int] = set()   # rows changed since input: divided as pivots
    while True:
        c = None
        while single:
            cc = heappop(single)
            in_col = cols_rows.get(cc)
            if in_col is not None and len(in_col) == 1:
                # a singleton column: no other row meets it, and best =
                # -1 keeps it the pivot through the count below
                c, best = cc, -1
                prow_i, = in_col
                break
        if c is None:
            if not heap:
                break
            n, prow_i = heappop(heap)
            pr = rows_d.get(prow_i)
            if pr is None:
                continue
            if len(pr) != n:
                heappush(heap, (len(pr), prow_i))
                continue
            best = len(rows_d)
        pr = rows_d.pop(prow_i)
        if prow_i in updated:
            g = gcd(*pr.values())
            if g > 1:
                for cc in pr:
                    pr[cc] //= g
        # the pivot row leaves every column as it is counted, which takes
        # one from each count and leaves the choice as it was
        for cc in pr:
            in_col = cols_rows[cc]
            in_col.discard(prow_i)
            k = len(in_col)
            if k == 1:
                heappush(single, cc)
            if k < best or (k == best and cc < c):
                best, c = k, cc
        pivots.append(c)
        pivot_rows.append(pr)
        others = cols_rows.pop(c)
        if not others:
            continue
        pv = pr[c]
        rest = [(cc, vv) for cc, vv in pr.items() if cc != c]
        unit = pv == 1 or pv == -1
        for i in others:
            # ri <- m1 * ri - m2 * pr with m1 > 0, in place: live rows are
            # private copies, and a pivot row leaves rows_d once chosen
            ri = rows_d[i]
            get = ri.get
            before = len(ri)
            v = ri.pop(c)
            if unit:
                m2 = v * pv
            else:
                g = gcd(pv, v)
                m1, m2 = pv // g, v // g
                if m1 < 0:
                    m1, m2 = -m1, -m2
                if m1 != 1:
                    for cc in ri:
                        ri[cc] *= m1
            for cc, vv in rest:
                x = get(cc)
                if x is None:
                    ri[cc] = -vv * m2
                    cols_rows[cc].add(i)
                else:
                    x -= vv * m2
                    if x:
                        ri[cc] = x
                    else:
                        del ri[cc]
                        in_col = cols_rows[cc]
                        in_col.discard(i)
                        if len(in_col) == 1:
                            heappush(single, cc)
            if not ri:
                del rows_d[i]
                continue
            updated.add(i)
            if len(ri) < before:
                heappush(heap, (len(ri), i))
    return pivots, pivot_rows


def kernel_int_basis(rows: list[dict[int, int]],
                     ncols: int) -> list[tuple[dict[int, int], int]]:
    """Basis of the kernel of the integer row system, as (vector, den)
    pairs: vector / den is the basis vector, vector has int entries.

    Back-substitutes through the elimination in reverse order; pivot row k
    may involve pivot columns of later steps and free columns only.  The
    vector for free column f is den at f and 0 at the other free columns.
    It is carried as ints over one common denominator, which grows only
    when a pivot does not divide its running sum.
    """
    pivots, pivot_rows = _eliminate(rows)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    steps = [(c, pr[c], pr.items())
             for c, pr in zip(reversed(pivots), reversed(pivot_rows))]
    basis = []
    for f in free_cols:
        v: dict[int, int] = {f: 1}
        get = v.get
        den = 1
        for c, pv, items in steps:
            # c is not yet in v: each pivot column is solved once
            s = 0
            for cc, coef in items:
                x = get(cc)
                if x is not None:
                    s += coef * x
            if not s:
                continue
            if s % pv:
                m = abs(pv) // math.gcd(s, pv)
                for cc in v:
                    v[cc] *= m
                den *= m
                s *= m
            v[c] = -s // pv
        basis.append((v, den))
    return basis


def kernel_basis_columns(rows: list[dict[int, int]], ncols: int) -> list[dict[int, Fraction]]:
    """`kernel_int_basis` as Fraction vectors, 1 at their own free column."""
    return [{c: Fraction(x, den) for c, x in v.items()}
            for v, den in kernel_int_basis(rows, ncols)]


def rank_of_int_rows(rows: list[dict[int, int]]) -> int:
    piv, _ = _eliminate(rows)
    return len(piv)


def subspace_equal(b1: QMatrix, b2: QMatrix) -> bool:
    """Do the column spans of b1 and b2 coincide?  Both ranks equal the
    rank of the two stacked: each span then fills their sum."""
    if b1.rows != b2.rows:
        raise ValueError("ambient dimensions differ")
    cols1 = b1._int_rows(columns=True)
    cols2 = b2._int_rows(columns=True)
    return (rank_of_int_rows(cols1) == rank_of_int_rows(cols2)
            == rank_of_int_rows(cols1 + cols2))
