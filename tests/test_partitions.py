from fractions import Fraction
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tautrings import partitions
from tautrings.partitions import (
    LR_CELL_CAP,
    PARTITION_CAP,
    Partition,
    enumerate_partitions,
    partition_count,
    lr_coefficient,
    schur_dim,
    schur_product_expand,
    weyl_dim,
)

from oracles import cellwise_lr_count


def P(*parts):
    return Partition(parts)


partitions_up_to = st.integers(0, 8).flatmap(
    lambda n: st.sampled_from(enumerate_partitions(n) or [Partition()]))


class TestPartitionBasics:
    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition([1, 2])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Partition([2, 0])

    def test_size_height(self):
        assert P(4, 2, 1).size == 7
        assert P(4, 2, 1).height == 3
        assert P().size == 0 and P().height == 0

    def test_immutable_hashable(self):
        lam = P(2, 1)
        with pytest.raises(AttributeError):
            lam.parts = (3,)
        assert len({P(2, 1), P(2, 1), P(3)}) == 2


class TestConjugate:
    def test_examples(self):
        assert P(3).conjugate() == P(1, 1, 1)
        assert P(2, 1).conjugate() == P(2, 1)
        assert P(4, 2, 1).conjugate() == P(3, 2, 1, 1)

    @given(partitions_up_to)
    def test_involution(self, lam):
        assert lam.conjugate().conjugate() == lam

    def test_involution_exhaustive(self):
        for n in range(13):
            for lam in enumerate_partitions(n):
                assert lam.conjugate().conjugate() == lam


class TestEnumeration:
    def test_empty(self):
        assert enumerate_partitions(0) == [Partition()]

    def test_order(self):
        assert enumerate_partitions(4) == [
            P(4), P(3, 1), P(2, 2), P(2, 1, 1), P(1, 1, 1, 1)]

    def test_even_rows(self):
        assert enumerate_partitions(4, "even_rows") == [P(4), P(2, 2)]

    def test_even_cols(self):
        assert enumerate_partitions(2, "even_cols") == [P(1, 1)]

    def test_walk_matches_recursion(self):
        """The walk lists what a recursion on the first part lists, in the
        same order, for every n <= 22 and every bound on the parts."""
        def recursion(n, maxpart):
            if n == 0:
                yield ()
            for first in range(min(n, maxpart), 0, -1):
                for rest in recursion(n - first, first):
                    yield (first,) + rest

        for n in range(23):
            for maxpart in range(n + 2):
                assert (list(partitions._partitions_desc(n, maxpart))
                        == list(recursion(n, maxpart))), (n, maxpart)

    def test_long_partitions_take_no_frame_per_part(self):
        assert list(partitions._partitions_desc(5000, 1)) == [(1,) * 5000]
        walk = list(partitions._partitions_desc(5000, 2))
        assert len(walk) == 2501
        assert walk[0] == (2,) * 2500 and walk[-1] == (1,) * 5000

    def test_even_cols_matches_conjugate(self):
        for n in range(9):
            got = set(enumerate_partitions(n, "even_cols"))
            want = {lam for lam in enumerate_partitions(n)
                    if lam.conjugate().has_even_rows()}
            assert got == want

    def test_bad_filter(self):
        with pytest.raises(ValueError):
            enumerate_partitions(3, "odd_rows")


class TestPartitionCount:
    def test_matches_enumeration(self):
        for n in range(31):
            assert partition_count(n) == len(enumerate_partitions(n))

    def test_cap_admits_49_and_refuses_50(self, monkeypatch):
        assert partition_count(49) <= PARTITION_CAP < partition_count(50)

        def never(*args):
            pytest.fail("partitions listed before the cap was checked")

        monkeypatch.setattr(partitions, "_partitions_desc", never)
        with pytest.raises(ValueError, match=r"n=50 .* p\(50\) = 204226, "
                                             r"over the cap of 200000 "
                                             r"\(PARTITION_CAP\)$"):
            enumerate_partitions(50, "even_rows")


class TestSchurDim:
    def test_defining_rep(self):
        for g in range(1, 7):
            assert schur_dim(P(1), g) == g

    def test_height_vanishing(self):
        assert schur_dim(P(1, 1, 1), 2) == 0

    def test_2_1_at_3(self):
        assert schur_dim(P(2, 1), 3) == 8

    def test_tensor_square_decomposition(self):
        # g^2 = dim S^2 + dim Lambda^2
        for g in range(1, 6):
            assert schur_dim(P(2), g) + schur_dim(P(1, 1), g) == g * g


def weyl_pairs(parts, g):
    """Weyl's formula as written, over every pair i < j <= g."""
    lam = list(parts) + [0] * (g - len(parts))
    return prod(Fraction(lam[i] - lam[j] + j - i, j - i)
                for i in range(g) for j in range(i + 1, g))


class TestWeylDim:
    """`weyl_dim`, the CLI's second leg of `schur_dim`."""

    def test_every_small_shape(self):
        """Against the hook-content count and against the pair product
        as written, on every partition of at most 10 cells, g <= 8."""
        for n in range(11):
            for lam in enumerate_partitions(n):
                for g in range(1, 9):
                    want = schur_dim(lam, g)
                    assert weyl_dim(lam, g) == want, (lam, g)
                    if lam.height <= g:
                        assert weyl_pairs(lam.parts, g) == want, (lam, g)

    @settings(max_examples=300)
    @given(st.integers(0, 14).flatmap(lambda n: st.sampled_from(
        enumerate_partitions(n))), st.integers(1, 9))
    def test_random_shapes(self, lam, g):
        assert weyl_dim(lam, g) == schur_dim(lam, g)

    @pytest.mark.parametrize("parts", [
        (10_000,), (1,) * 10_000, (2,) * 3_333 + (1,) * 3_334,
        tuple(range(140, 0, -1)), tuple(v for v in range(31, 0, -1)
                                        for _ in range(20)),
        (100,) * 100,
    ], ids=["row", "column", "two-blocks", "staircase", "blocks-of-20",
            "square"])
    @pytest.mark.parametrize("g", [140, 10 ** 12])
    def test_shapes_at_the_cell_cap(self, parts, g):
        """Shapes of up to 10 000 cells, with many rows or many distinct
        parts, past and below their height."""
        lam = Partition(parts)
        assert weyl_dim(lam, g) == schur_dim(lam, g)


class TestLR:
    def test_unit(self):
        assert lr_coefficient(P(2, 1), P(), P(2, 1)) == 1

    def test_size_mismatch(self):
        assert lr_coefficient(P(1), P(1), P(3)) == 0

    def test_containment(self):
        assert lr_coefficient(P(2), P(1), P(1, 1, 1)) == 0

    def test_square_of_line(self):
        assert lr_coefficient(P(1), P(1), P(2)) == 1
        assert lr_coefficient(P(1), P(1), P(1, 1)) == 1

    def test_spec_pair(self):
        a = lr_coefficient(P(2), P(2), P(3, 1))
        b = lr_coefficient(P(1, 1), P(1, 1), P(2, 1, 1))
        assert a == b == 1

    def test_multiplicity_two(self):
        # classical smallest multiplicity-2 case
        assert lr_coefficient(P(2, 1), P(2, 1), P(3, 2, 1)) == 2

    @settings(max_examples=150)
    @given(st.data())
    def test_symmetries(self, data):
        s = data.draw(st.integers(0, 8))
        a = data.draw(st.integers(0, s))
        lam = data.draw(st.sampled_from(enumerate_partitions(a)))
        mu = data.draw(st.sampled_from(enumerate_partitions(s - a)))
        kappa = data.draw(st.sampled_from(enumerate_partitions(s)))
        c = lr_coefficient(lam, mu, kappa)
        assert c == lr_coefficient(mu, lam, kappa)
        assert c == lr_coefficient(lam.conjugate(), mu.conjugate(),
                                   kappa.conjugate())


def standard_tableaux(lam):
    """f^lam, the number of standard Young tableaux of shape lam, by the
    hook-length formula |lam|! / prod of hook lengths."""
    conj = lam.conjugate().parts
    hooks = 1
    for i, row in enumerate(lam.parts):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    return factorial(lam.size) // hooks


def partitions_through(n):
    return [lam for k in range(n + 1) for lam in enumerate_partitions(k)]


class TestLRAgainstCellwise:
    """lr_coefficient against the cell-wise skew-tableau search, on every
    triple of the range, size mismatches and non-contained kappa
    included."""

    def check(self, pairs, kappas):
        for lam, mu in pairs:
            for kappa in kappas:
                assert (lr_coefficient(lam, mu, kappa)
                        == cellwise_lr_count(lam, mu, kappa)), (lam, mu, kappa)

    def test_factors_to_4(self):
        small = partitions_through(4)
        self.check([(lam, mu) for lam in small for mu in small],
                   partitions_through(9))

    @pytest.mark.slow
    def test_products_to_11(self):
        pairs = [(lam, mu) for lam in partitions_through(11)
                 for mu in partitions_through(11 - lam.size)]
        self.check(pairs, partitions_through(11))

    def test_standard_tableaux_identity(self):
        """sum_kappa c^kappa_{lam mu} f^kappa = C(|lam|+|mu|, |lam|) f^lam
        f^mu: both sides count the standard fillings of lam and mu with
        the letters 1..|lam|+|mu| split between them."""
        for lam in partitions_through(10):
            for mu in partitions_through(10 - lam.size):
                total = sum(c * standard_tableaux(kappa) for kappa, c in
                            schur_product_expand(lam, mu).items())
                assert total == (comb(lam.size + mu.size, lam.size)
                                 * standard_tableaux(lam)
                                 * standard_tableaux(mu)), (lam, mu)


class TestLRCap:
    def never(self, *args):
        pytest.fail("LR expansion built over the cap")

    def test_refused_before_expansion(self, monkeypatch):
        assert LR_CELL_CAP == 36
        monkeypatch.setattr(partitions, "_lr_count_cached", self.never)
        lam, mu = P(10, 9), P(9, 9)
        with pytest.raises(ValueError, match=r"^partitions of 19 and 18 "
                                             r"cells: 37 cells for a "
                                             r"Littlewood-Richardson "
                                             r"expansion, over the cap of 36 "
                                             r"\(LR_CELL_CAP\)$"):
            lr_coefficient(lam, mu, P(19, 18))
        with pytest.raises(ValueError, match="over the cap of 36"):
            schur_product_expand(lam, mu)

    def test_cheap_zeros_answer_over_the_cap(self, monkeypatch):
        monkeypatch.setattr(partitions, "_lr_count_cached", self.never)
        assert lr_coefficient(P(20), P(20), P(39)) == 0
        assert lr_coefficient(P(20, 20), P(1), P(41)) == 0
        assert lr_coefficient(P(40), P(), P(40)) == 1

    def test_at_the_cap(self):
        # Pieri: a one-row factor adds a horizontal strip
        got = schur_product_expand(P(18), P(18))
        assert got == {P(*(p for p in (36 - k, k) if p)): 1 for k in range(19)}


class TestProductExpand:
    def test_line_squared(self):
        assert schur_product_expand(P(1), P(1)) == {P(2): 1, P(1, 1): 1}

    def test_unit(self):
        assert schur_product_expand(P(3, 1), P()) == {P(3, 1): 1}

    def test_pieri(self):
        assert schur_product_expand(P(2), P(1)) == {P(3): 1, P(2, 1): 1}

    def test_enumeration_order(self):
        got = list(schur_product_expand(P(2, 1), P(2, 1)))
        assert got == [kappa for kappa in enumerate_partitions(6)
                       if kappa in got]

    def test_dimension_identity(self):
        for g in range(1, 6):
            for la_size in range(0, 5):
                for mu_size in range(0, 5 - la_size):
                    for lam in enumerate_partitions(la_size):
                        for mu in enumerate_partitions(mu_size):
                            total = sum(
                                c * schur_dim(kappa, g)
                                for kappa, c in
                                schur_product_expand(lam, mu).items())
                            assert total == (schur_dim(lam, g)
                                             * schur_dim(mu, g))
