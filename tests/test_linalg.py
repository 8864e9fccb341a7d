import heapq
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tautrings import graded
from tautrings.linalg import (
    QMatrix,
    _eliminate,
    kernel_basis_columns,
    kernel_int_basis,
    random_matrix,
    subspace_equal,
)

from oracles import (
    column_rank,
    entry,
    hstack,
    identity,
    kernel_basis,
    matmul,
    reduce_against,
    scale,
)


class TestConstruction:
    def test_from_rows_and_getitem(self):
        a = QMatrix.from_rows([[1, 2], [3, 4]])
        assert entry(a, 0, 1) == 2 and entry(a, 1, 0) == 3

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            QMatrix.from_rows([[1], [1, 2]])

    def test_out_of_range(self):
        a = QMatrix(2, 2)
        with pytest.raises(IndexError):
            entry(a, 2, 0)

    def test_fraction_entries(self):
        a, one = scale(QMatrix.from_rows([[Fraction(1, 3)]]), 3), identity(1)
        assert (a.rows, a.cols, a.entries) == (one.rows, one.cols, one.entries)


class TestRank:
    def test_identity(self):
        assert identity(3).rank() == 3

    def test_zero(self):
        assert QMatrix(2, 5).rank() == 0

    def test_proportional_rows(self):
        assert QMatrix.from_rows([[1, 2], [2, 4]]).rank() == 1

    def test_fractional_rows(self):
        a = QMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)],
                               [Fraction(3, 2), 1]])
        assert a.rank() == 1


class TestKernel:
    def test_identity_kernel_empty(self):
        assert kernel_basis(identity(4)).cols == 0

    def test_zero_kernel_full(self):
        assert kernel_basis(QMatrix(2, 3)).cols == 3

    def test_sum_zero_line(self):
        k = kernel_basis(QMatrix.from_rows([[1, 1]]))
        assert k.cols == 1
        assert entry(k, 0, 0) == -entry(k, 1, 0) != 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 12345), st.integers(1, 40), st.integers(1, 40))
    def test_rank_nullity_and_annihilation(self, seed, rows, cols):
        rng = random.Random(seed)
        a = random_matrix(rows, cols, rng)
        k = kernel_basis(a)
        assert a.rank() + k.cols == cols
        assert not matmul(a, k).entries


def _gauss_jordan_rank(rows, ncols):
    """Rank by plain Fraction Gauss-Jordan on dense rows."""
    dense = [[Fraction(r.get(c, 0)) for c in range(ncols)] for r in rows]
    rank = 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(dense)) if dense[i][c]), None)
        if pivot is None:
            continue
        dense[rank], dense[pivot] = dense[pivot], dense[rank]
        for i in range(len(dense)):
            if i != rank and dense[i][c]:
                f = dense[i][c] / dense[rank][c]
                dense[i] = [a - f * b for a, b in zip(dense[i], dense[rank])]
        rank += 1
    return rank


@st.composite
def int_systems(draw, max_cols=9, max_rows=8, entry=st.integers(-4, 4)):
    """Sparse int rows with empty rows, explicit zero entries, duplicates
    and integer combinations of earlier rows."""
    ncols = draw(st.integers(0, max_cols))
    col = st.integers(0, max(ncols - 1, 0))
    rows = draw(st.lists(
        st.dictionaries(col, entry, max_size=ncols) if ncols
        else st.just({}), max_size=max_rows))
    for _ in range(draw(st.integers(0, 4))):
        if not rows:
            break
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, len(rows) - 1))
        a, b = draw(entry), draw(entry)
        combo = {c: a * rows[i].get(c, 0) + b * rows[j].get(c, 0)
                 for c in set(rows[i]) | set(rows[j])}
        rows.append(draw(st.sampled_from([dict(rows[i]), combo, {}])))
    return rows, ncols


@st.composite
def scaled_systems(draw, **kwargs):
    """int_systems with each row multiplied by a factor 1-6."""
    rows, ncols = draw(int_systems(**kwargs))
    factors = [draw(st.integers(1, 6)) for _ in rows]
    return [{c: v * f for c, v in r.items()}
            for r, f in zip(rows, factors)], ncols


class TestEliminate:
    @settings(max_examples=200, deadline=None)
    @given(int_systems())
    def test_against_gauss_jordan(self, system):
        rows, ncols = system
        rank = _gauss_jordan_rank(rows, ncols)
        pivots, pivot_rows = _eliminate(rows)
        assert len(pivots) == rank
        for k, (c, pr) in enumerate(zip(pivots, pivot_rows)):
            assert pr.get(c, 0) != 0
            assert all(pr.get(earlier, 0) == 0 for earlier in pivots[:k])
        kernel = kernel_basis_columns(rows, ncols)
        assert len(kernel) == ncols - rank
        # one vector per free column: 1 there, 0 at the other free columns
        free = [c for c in range(ncols) if c not in pivots]
        assert [{c: vec[c] for c in free if vec.get(c)} for vec in kernel] \
            == [{c: 1} for c in free]
        for vec in kernel:
            for row in rows:
                assert sum(a * vec.get(c, 0) for c, a in row.items()) == 0
        assert _gauss_jordan_rank(kernel, ncols) == len(kernel)


    @settings(max_examples=100, deadline=None)
    @given(int_systems())
    def test_int_kernel_over_common_denominator(self, system):
        rows, ncols = system
        ints = kernel_int_basis(rows, ncols)
        assert [{c: Fraction(x, den) for c, x in v.items()}
                for v, den in ints] == kernel_basis_columns(rows, ncols)
        assert all(den > 0 and all(type(x) is int for x in v.values())
                   for v, den in ints)


class TestReduceAgainst:
    @settings(max_examples=200, deadline=None)
    @given(int_systems(), st.data())
    def test_empty_residual_iff_rank_unchanged(self, system, data):
        """Random vectors, and integer combinations of the rows (which
        must reduce to nothing)."""
        rows, ncols = system
        entry = st.integers(-4, 4)
        if rows and data.draw(st.booleans()):
            coeffs = data.draw(st.lists(entry, min_size=len(rows),
                                        max_size=len(rows)))
            vec = {c: sum(a * r.get(c, 0) for a, r in zip(coeffs, rows))
                   for c in range(ncols)}
        else:
            vec = data.draw(st.dictionaries(
                st.integers(0, max(ncols - 1, 0)), entry, max_size=ncols)
                if ncols else st.just({}))
        pivots, pivot_rows = _eliminate(rows)
        residual = reduce_against(pivots, pivot_rows, vec)
        assert all(residual.values())
        assert all(c not in residual for c in pivots)
        unchanged = (_gauss_jordan_rank(rows + [vec], ncols)
                     == _gauss_jordan_rank(rows, ncols))
        assert (not residual) == unchanged


# The elimination as it was before the unit-pivot step and the shrink-only
# heap, kept verbatim: `_eliminate` must return the same pivots and the
# same pivot rows, entry order included.
def reference_eliminate(rows: list[dict[int, int]]):
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


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(int_systems(max_cols=14, max_rows=16,
                       entry=st.sampled_from([1, -1, 1, -1, 2, -2, 3, 0])))
    # the first row grows by fill while its old heap entry waits
    @example(([{0: 1, 1: 1, 2: 1, 3: 1}, {4: 1, 5: 1, 6: 1, 1: 1},
               {0: 1, 4: 1, 5: 1}], 7))
    # a -1 pivot; two columns tied at one row each
    @example(([{0: -1, 1: 1}, {0: 1, 1: 1}], 2))
    @example(([{0: 1, 1: 1}], 2))
    def test_same_pivots_and_rows(self, system):
        """Mostly unit entries, so most pivots are +-1, with some larger
        ones; wide rows fill in and grow before they are chosen."""
        rows, _ = system
        copy = [dict(r) for r in rows]
        pivots, pivot_rows = _eliminate(rows)
        assert rows == copy
        ref_pivots, ref_rows = reference_eliminate(copy)
        assert pivots == ref_pivots
        assert [list(r.items()) for r in pivot_rows] \
            == [list(r.items()) for r in ref_rows]


    @settings(max_examples=300, deadline=None)
    @given(scaled_systems(max_cols=10, max_rows=12,
                          entry=st.integers(-30, 30)))
    # cell (2, 2) of the Koszul complex of a rational 2x3 map, entries
    # such as -39/5 and 203/240, as `_cell_rank` builds it: d of y0*y1*x0,
    # y0*y1*x1, y0*y2*x0, y0*y2*x1 and y1*y2*x1 (y1*y2*x0 is a pivot of
    # d into the cell)
    @example(([{0: -1872, 1: -872, 2: 360, 3: -203},
               {1: -1872, 4: -872, 3: 360, 5: -203},
               {6: -1872, 7: -872, 2: -600, 3: 312},
               {7: -1872, 8: -872, 3: -600, 5: 312},
               {7: -360, 8: 203, 1: -600, 4: 312}], 9))
    def test_same_pivots_and_rows_with_contents(self, system):
        """Non-unit pivots, and rows that come in with a content above 1
        or gain one by updates: `_eliminate` divides a row by its content
        only when it pivots, the reference after every update."""
        rows, _ = system
        copy = [dict(r) for r in rows]
        pivots, pivot_rows = _eliminate(rows)
        assert rows == copy
        ref_pivots, ref_rows = reference_eliminate(copy)
        assert pivots == ref_pivots
        assert [list(r.items()) for r in pivot_rows] \
            == [list(r.items()) for r in ref_rows]


    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6))
    def test_rational_koszul_systems(self, seed):
        """The systems `_cell_rank` eliminates for Koszul complexes of
        rational maps: each input row is left as it came, entry for entry,
        and the pivots and pivot rows are the reference's."""
        rng = random.Random(seed)
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        F = QMatrix(rows, cols, {
            (i, j): Fraction(rng.randint(-4, 4), rng.randint(1, 9))
            for i in range(rows) for j in range(cols)})
        seen = []

        def recording(system):
            before = [list(r.items()) for r in system]
            result = _eliminate(system)
            seen.append((system, before, result))
            return result

        with pytest.MonkeyPatch.context() as m:
            m.setattr(graded, "_eliminate", recording)
            graded.koszul_cohomology_dims(F, 6)
        for system, before, (pivots, pivot_rows) in seen:
            assert [list(r.items()) for r in system] == before
            ref_pivots, ref_rows = reference_eliminate(
                [dict(r) for r in system])
            assert pivots == ref_pivots
            assert [list(r.items()) for r in pivot_rows] \
                == [list(r.items()) for r in ref_rows]


class TestColumnRank:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 12345), st.integers(1, 12), st.integers(1, 12),
           st.integers(0, 4))
    def test_against_gauss_jordan(self, seed, rows, cols, extra):
        """Tall and wide matrices with fractional entries; b repeats
        combinations of a's columns, so the joint rank is a's rank."""
        rng = random.Random(seed)
        a = QMatrix(rows, cols, {
            (i, j): Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            for i in range(rows) for j in range(cols) if rng.random() < 0.4})
        mix = QMatrix.from_rows([[rng.randint(-2, 2) for _ in range(extra)]
                                 for _ in range(cols)]) if extra else None
        dense = [{j: entry(a, i, j) for j in range(cols)}
                 for i in range(rows)]
        rank = _gauss_jordan_rank(dense, cols)
        assert column_rank(a) == a.rank() == rank
        if mix is not None:
            assert column_rank(a, matmul(a, mix)) == rank
        assert column_rank(a, identity(rows)) == rows

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            column_rank(QMatrix(2, 1), QMatrix(3, 1))


class TestSubspaceEqual:
    def test_reflexive(self):
        b = QMatrix.from_rows([[1, 0], [1, 1]])
        assert subspace_equal(b, b)

    def test_scaling(self):
        b = QMatrix.from_rows([[1], [2]])
        assert subspace_equal(b, scale(b, Fraction(-7, 3)))

    def test_distinct_lines(self):
        e1 = QMatrix.from_rows([[1], [0]])
        e2 = QMatrix.from_rows([[0], [1]])
        assert not subspace_equal(e1, e2)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            subspace_equal(QMatrix(2, 1), QMatrix(3, 1))

    def test_same_span_different_bases(self):
        b1 = QMatrix.from_rows([[1, 0], [0, 1], [1, 1]])
        b2 = QMatrix.from_rows([[1, 1], [1, -1], [2, 0]])
        assert subspace_equal(b1, b2)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**6), st.integers(1, 7), st.integers(0, 5),
           st.integers(0, 5), st.sampled_from(["random", "mixed", "scaled"]))
    def test_against_stacked_rank(self, seed, rows, c1, c2, kind):
        """Equal spans iff equal ranks and every column of b2 reduces to
        nothing against b1's pivot rows; the stacked-rank form agrees.
        b2 is random, a combination of b1's columns, or b1 scaled."""
        rng = random.Random(seed)

        def rand(cols):
            return QMatrix(rows, cols, {
                (i, j): Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                for i in range(rows) for j in range(cols)
                if rng.random() < 0.5})

        b1 = rand(c1)
        if kind == "random":
            b2 = rand(c2)
        elif kind == "mixed":
            b2 = matmul(b1, QMatrix.from_rows(
                [[rng.randint(-2, 2) for _ in range(c2)] for _ in range(c1)])) \
                if c1 and c2 else QMatrix(rows, c2)
        else:
            b2 = scale(b1, Fraction(rng.choice([-7, -1, 2, 5]), rng.randint(1, 4)))
        pivots, pivot_rows = _eliminate(b1._int_rows(columns=True))
        want = len(pivots) == b2.rank() and not any(
            reduce_against(pivots, pivot_rows, c)
            for c in b2._int_rows(columns=True))
        assert (b1.rank() == b2.rank() == hstack(b1, b2).rank()) == want
        assert subspace_equal(b1, b2) == want
        assert subspace_equal(b2, b1) == want


class TestExactness:
    def test_no_rounding(self):
        assert Fraction(1, 3) * 3 == 1
        a = QMatrix.from_rows([[Fraction(1, 3)]])
        assert entry(matmul(a, QMatrix.from_rows([[3]])), 0, 0) == 1

    def test_matmul_shape_check(self):
        with pytest.raises(ValueError):
            matmul(QMatrix(2, 3), QMatrix(2, 3))

    def test_hstack(self):
        a = QMatrix.from_rows([[1, 2]])
        b = QMatrix.from_rows([[3]])
        ab = hstack(a, b)
        assert (ab.rows, ab.cols) == (1, 3)
        assert [entry(ab, 0, j) for j in range(3)] == [1, 2, 3]
