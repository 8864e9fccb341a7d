import time

import pytest

from tautrings import rings
from tautrings.graded import GeneratorSet, fgca_dims
from tautrings.model import OracleMismatch
from tautrings.rings import (
    blockdiff_cohomology,
    diff_cohomology,
    mt_cohomology,
    mt_generators,
)


class TestMT:
    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            mt_cohomology(1, 4)

    def test_n9_degree_one(self):
        res = mt_cohomology(9, 1)
        assert res.dims[1] == 1
        assert [name for name, d in res.generators if d == 1] == ["mu_5"]

    def test_n7_degree_one(self):
        res = mt_cohomology(7, 1)
        assert res.dims[1] == 2
        names = sorted(name for name, d in res.generators if d == 1)
        assert names == ["mu_2_2", "mu_4"]

    def test_n6_degree_one(self):
        assert mt_cohomology(6, 1).dims[1] == 0

    def test_h1_by_residue(self):
        for n in range(5, 14):
            h1 = mt_cohomology(n, 1).dims[1]
            if n % 2 == 0:
                assert h1 == 0
            elif n % 4 == 1:
                assert h1 == 1
            else:
                assert h1 == 2

    def test_generator_degrees_positive_and_bounded(self):
        for c, d in mt_generators(8, 6):
            assert 0 < d <= 6
            assert d == 4 * sum(c) - 17
            mlo = -((-9) // 4)
            assert all(mlo <= m <= 8 for m in c)
            assert list(c) == sorted(c)


class TestDiff:
    def test_n9_spot_values(self):
        res = diff_cohomology(9, 5)
        assert list(res.dims) == [1, 0, 0, 0, 0, 1]
        assert res.basis == (("k3_3", 5),)

    def test_degree_one_always_zero(self):
        for n in range(4, 14):
            res = diff_cohomology(n, max(1, n - 3))
            assert res.dims[1] == 0

    def test_presentations_agree(self):
        for n in range(5, 14):
            res = diff_cohomology(n, n - 3)
            assert (res.presentation_a.dims == res.presentation_b.dims
                    == res.presentation_c.dims)

    def test_single_kappa_classes_killed(self):
        res = diff_cohomology(9, 5)
        assert "kappa_5" in res.presentation_b.relations
        assert "kappa_6" in res.presentation_b.relations

    def test_degree_one_pair_killed(self):
        # 4(m0+m1) = 2n+2 pairs die: n=7, (2,2)
        res = diff_cohomology(7, 4)
        assert "kappa_2_2" in res.presentation_b.relations
        assert res.dims[1] == 0

    def test_trivial_n4(self):
        assert list(diff_cohomology(4, 1).dims) == [1, 0]

    def test_bounds(self):
        with pytest.raises(ValueError, match="maxdeg"):
            diff_cohomology(9, 7)
        with pytest.raises(ValueError, match="g"):
            diff_cohomology(9, 5, g=10)
        diff_cohomology(9, 5, g=30)

    def test_pair_degree_switch(self, monkeypatch):
        # K's pairs have degree > 1; admitting the degree-1 pair that
        # exists for n = 3 (mod 4), k2_2 at n = 7 (4*(2+2) - 2*7 - 1 = 1),
        # breaks the exterior-algebra presentation
        strict = diff_cohomology(7, 4).presentation_c
        assert ("k2_2", 1) not in strict.generators
        pairs = rings.k_pair_generators
        monkeypatch.setattr(rings, "k_pair_generators",
                            lambda n, M, maxdeg: [("k2_2", 1)]
                            + pairs(n, M, maxdeg))
        with pytest.raises(OracleMismatch) as info:
            diff_cohomology(7, 4)
        assert str(info.value) == (
            "diff ring presentations at degree 1, n=7: a 0 != b 0 != c 1")


@pytest.mark.slow
class TestDiffLadder:
    def test_presentations_agree_to_60(self):
        for n in range(4, 61):
            res = diff_cohomology(n, n - 3)
            assert (res.presentation_a.dims == res.presentation_b.dims
                    == res.presentation_c.dims == res.dims)

    def test_n60_under_a_second(self):
        t0 = time.perf_counter()
        res = diff_cohomology(60, 57)
        assert time.perf_counter() - t0 < 1.0
        assert res.dims[1] == 0


class TestBlockDiff:
    def test_n9(self):
        res = blockdiff_cohomology(9, 5)
        assert list(res.dims) == [1, 0, 0, 0, 0, 2]
        assert set(res.generators) == {("beta5", 5), ("k3_3", 5)}

    def test_tangential_n9_degree_one(self):
        res = blockdiff_cohomology(9, 6, tangential=True)
        assert res.dims[1] == 1
        assert ("k5", 1) in res.generators

    def test_borel_degrees(self):
        res = blockdiff_cohomology(13, 9)
        borel = [d for name, d in res.generators if name.startswith("beta")]
        assert borel and all(d % 4 == 1 for d in borel)

    def test_bounds(self):
        with pytest.raises(ValueError, match="n-4"):
            blockdiff_cohomology(9, 6)
        with pytest.raises(ValueError, match="n-3"):
            blockdiff_cohomology(9, 7, tangential=True)

    def test_tangential_consistent_with_block(self):
        # dropping the single generators recovers the block stage
        for n in (9, 11):
            tang = blockdiff_cohomology(n, n - 4, tangential=True)
            block = blockdiff_cohomology(n, n - 4)
            kept = [(name, d) for name, d in tang.generators
                    if (name, d) in block.generators]
            assert sorted(kept) == sorted(block.generators)
            redone = fgca_dims(GeneratorSet(block.generators), n - 4)
            assert list(block.dims) == redone
