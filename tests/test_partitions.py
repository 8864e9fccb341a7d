import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tautrings import partitions
from tautrings.partitions import (
    PARTITION_CAP,
    Partition,
    enumerate_partitions,
    partition_count,
    lr_coefficient,
    schur_dim,
    schur_product_expand,
)


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
                                             r"over the cap of 200000"):
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


class TestProductExpand:
    def test_line_squared(self):
        assert schur_product_expand(P(1), P(1)) == {P(2): 1, P(1, 1): 1}

    def test_unit(self):
        assert schur_product_expand(P(3, 1), P()) == {P(3, 1): 1}

    def test_pieri(self):
        assert schur_product_expand(P(2), P(1)) == {P(3): 1, P(2, 1): 1}

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
