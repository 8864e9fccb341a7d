import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tautrings.linalg import (
    QMatrix,
    _eliminate,
    kernel_basis_columns,
    random_matrix,
    subspace_equal,
)


class TestConstruction:
    def test_from_rows_and_getitem(self):
        a = QMatrix.from_rows([[1, 2], [3, 4]])
        assert a[0, 1] == 2 and a[1, 0] == 3

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            QMatrix.from_rows([[1], [1, 2]])

    def test_out_of_range(self):
        a = QMatrix.zeros(2, 2)
        with pytest.raises(IndexError):
            a[2, 0]

    def test_fraction_entries(self):
        a = QMatrix.from_rows([[Fraction(1, 3)]])
        assert a.scale(3) == QMatrix.identity(1)


class TestRank:
    def test_identity(self):
        assert QMatrix.identity(3).rank() == 3

    def test_zero(self):
        assert QMatrix.zeros(2, 5).rank() == 0

    def test_proportional_rows(self):
        assert QMatrix.from_rows([[1, 2], [2, 4]]).rank() == 1

    def test_fractional_rows(self):
        a = QMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)],
                               [Fraction(3, 2), 1]])
        assert a.rank() == 1


class TestKernel:
    def test_identity_kernel_empty(self):
        assert QMatrix.identity(4).kernel_basis().cols == 0

    def test_zero_kernel_full(self):
        assert QMatrix.zeros(2, 3).kernel_basis().cols == 3

    def test_sum_zero_line(self):
        k = QMatrix.from_rows([[1, 1]]).kernel_basis()
        assert k.cols == 1
        assert k[0, 0] == -k[1, 0] != 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 12345), st.integers(1, 40), st.integers(1, 40))
    def test_rank_nullity_and_annihilation(self, seed, rows, cols):
        rng = random.Random(seed)
        a = random_matrix(rows, cols, rng)
        k = a.kernel_basis()
        assert a.rank() + k.cols == cols
        assert (a @ k).is_zero()


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
def int_systems(draw):
    """Sparse int rows with empty rows, explicit zero entries, duplicates
    and integer combinations of earlier rows."""
    ncols = draw(st.integers(0, 9))
    entry = st.integers(-4, 4)
    col = st.integers(0, max(ncols - 1, 0))
    rows = draw(st.lists(
        st.dictionaries(col, entry, max_size=ncols) if ncols
        else st.just({}), max_size=8))
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


class TestSubspaceEqual:
    def test_reflexive(self):
        b = QMatrix.from_rows([[1, 0], [1, 1]])
        assert subspace_equal(b, b)

    def test_scaling(self):
        b = QMatrix.from_rows([[1], [2]])
        assert subspace_equal(b, b.scale(Fraction(-7, 3)))

    def test_distinct_lines(self):
        e1 = QMatrix.from_rows([[1], [0]])
        e2 = QMatrix.from_rows([[0], [1]])
        assert not subspace_equal(e1, e2)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            subspace_equal(QMatrix.zeros(2, 1), QMatrix.zeros(3, 1))

    def test_same_span_different_bases(self):
        b1 = QMatrix.from_rows([[1, 0], [0, 1], [1, 1]])
        b2 = QMatrix.from_rows([[1, 1], [1, -1], [2, 0]])
        assert subspace_equal(b1, b2)


class TestExactness:
    def test_no_rounding(self):
        assert Fraction(1, 3) * 3 == 1
        a = QMatrix.from_rows([[Fraction(1, 3)]])
        assert (a @ QMatrix.from_rows([[3]]))[0, 0] == 1

    def test_matmul_shape_check(self):
        with pytest.raises(ValueError):
            QMatrix.zeros(2, 3) @ QMatrix.zeros(2, 3)

    def test_hstack_transpose(self):
        a = QMatrix.from_rows([[1, 2]])
        b = QMatrix.from_rows([[3]])
        assert a.hstack(b).to_lists() == [[1, 2, 3]]
        assert a.transpose().to_lists() == [[1], [2]]
