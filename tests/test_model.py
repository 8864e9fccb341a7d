import pytest

from tautrings.graded import GeneratorSet, fgca_dims, mono_elem
from tautrings.model import (
    ACAlgebraSpec,
    E2Model,
    ModelParams,
    OracleMismatch,
    ac_invariant_dims_bruteforce,
    ac_invariant_dims_formula,
    build_D_dga,
    build_spaces,
    e2_bruteforce_oracle,
    e2_oracle_check,
    e3_zero_column,
    gh_target_dims,
    lambda_relations,
    minimal_M,
)


class TestModelParams:
    def test_valid(self):
        ModelParams(n=5, g=3, M=3, maxdeg=2)

    def test_minimal_M(self):
        assert minimal_M(5) == 3
        assert minimal_M(6) == 4
        assert minimal_M(9) == 6

    @pytest.mark.parametrize("kwargs,needle", [
        (dict(n=4, g=5, M=5, maxdeg=1), "n >= 5"),
        (dict(n=5, g=3, M=2, maxdeg=2), "4M >= 3n-5"),
        (dict(n=5, g=2, M=3, maxdeg=2), "g > n-3"),
        (dict(n=5, g=3, M=3, maxdeg=3), "maxdeg <= n-3"),
    ])
    def test_violations_named(self, kwargs, needle):
        with pytest.raises(ValueError, match=needle.replace("(", "\\(")):
            ModelParams(**kwargs)


class TestBuildSpaces:
    def test_n5_M4(self):
        sp = build_spaces(ModelParams(n=5, g=3, M=4, maxdeg=2))
        assert sp.V == (("v3", 1), ("v4", 5))
        assert sp.U == (("u2", 2), ("u3", 6), ("u4", 10))
        assert sp.W == (("w2", 3), ("w3", 7), ("w4", 11))

    def test_n7_M4_K(self):
        sp = build_spaces(ModelParams(n=7, g=5, M=4, maxdeg=4))
        assert sp.K_singles == (("k4", 1),)
        assert sp.K_pairs == (("k2_3", 5), ("k2_4", 9), ("k3_3", 9),
                              ("k3_4", 13), ("k4_4", 17))

    def test_degenerate_S_slot(self):
        sp = build_spaces(ModelParams(n=7, g=5, M=4, maxdeg=4))
        assert sp.S(2) is None  # 4*2 - 7 - 1 = 0
        assert sp.S(3) == "u3"

    def test_all_K_degrees_odd(self):
        for n in range(5, 12):
            sp = build_spaces(
                ModelParams(n=n, g=n, M=minimal_M(n), maxdeg=1))
            assert all(d % 2 == 1 for _, d in sp.K)


class TestDModel:
    def test_differential_on_v_and_z_vanishes(self):
        params = ModelParams(n=5, g=3, M=3, maxdeg=2)
        dga = build_D_dga(params)
        for name in dga.gens.index:
            if name.startswith(("v", "z")):
                assert dga.gens.index[name] not in dga.dvals

    def test_wedge_square_slot_is_zero(self):
        params = ModelParams(n=5, g=3, M=3, maxdeg=2)
        dga = build_D_dga(params)
        assert dga.gens.index["y2_2"] not in dga.dvals

    def test_distinct_slot_is_nonzero(self):
        params = ModelParams(n=5, g=3, M=3, maxdeg=2)
        dga = build_D_dga(params)
        val = dga.dvals[dga.gens.index["y3_2"]]
        (mono, coeff), = val.items()
        assert dga.gens.mono_str(mono) == "z2_3"
        assert coeff == -1  # u3 ^ u2 = -(u2 ^ u3)

    def test_d_squared(self):
        params = ModelParams(n=6, g=4, M=4, maxdeg=3)
        build_D_dga(params).check_d_squared(6)


class TestE3ZeroColumn:
    def test_n5(self):
        params = ModelParams(n=5, g=3, M=4, maxdeg=2)
        assert e3_zero_column(params) == [1, 1, 0]

    def test_n6_matches_K(self):
        params = ModelParams(n=6, g=4, M=4, maxdeg=3)
        col = e3_zero_column(params)
        sp = build_spaces(params)
        assert col == fgca_dims(GeneratorSet(sp.K), 3)

    def test_n7_pair_classes_present(self):
        # S(w2) = 0 for n=7, so w2(x)u_m survives as the pair class k_{2,m}
        params = ModelParams(n=7, g=5, M=5, maxdeg=4)
        col = e3_zero_column(params)
        assert col == [1, 1, 0, 0, 0]

    def test_full_range(self):
        for n in range(5, 13):
            params = ModelParams(n=n, g=n - 2, M=minimal_M(n),
                                 maxdeg=n - 3)
            sp = build_spaces(params)
            assert e3_zero_column(params) == fgca_dims(
                GeneratorSet(sp.K), n - 3)

    @pytest.mark.slow
    def test_past_criterion_6_range(self):
        for n in range(13, 25):
            params = ModelParams(n=n, g=n - 2, M=minimal_M(n),
                                 maxdeg=n - 3)
            sp = build_spaces(params)
            assert e3_zero_column(params) == fgca_dims(
                GeneratorSet(sp.K), n - 3)


class TestACInvariants:
    def test_gl_vanishes_off_diagonal_weight(self):
        spec = ACAlgebraSpec("A", 2, 2, 2)
        assert ac_invariant_dims_bruteforce(spec, 1, 1, 2) == 0
        assert ac_invariant_dims_bruteforce(spec, 0, 2, 1) == 0

    def test_0_1_1_is_dimW_dimU(self):
        for variant in ("A", "C"):
            for g in (1, 2, 3):
                spec = ACAlgebraSpec(variant, g, 2, 2)
                assert ac_invariant_dims_bruteforce(spec, 0, 1, 1) == 4

    def test_degenerate_g1(self):
        spec = ACAlgebraSpec("A", 1, 2, 2)
        assert ac_invariant_dims_bruteforce(spec, 1, 0, 2) == 1
        assert ac_invariant_dims_formula(spec, 1, 0) == 1

    def test_formula_examples(self):
        assert ac_invariant_dims_formula(ACAlgebraSpec("A", 2, 2, 2), 1, 0) == 1
        # (0,2): Lambda^2(W(x)U) in the stable range
        assert ac_invariant_dims_formula(ACAlgebraSpec("A", 3, 2, 2), 0, 2) == 6

    def test_formula_guard(self):
        with pytest.raises(ValueError, match="2p\\+q <= 8"):
            ac_invariant_dims_formula(ACAlgebraSpec("A", 2, 2, 2), 4, 1)

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            ACAlgebraSpec("B", 2, 2, 2)

    def test_sl_divisibility(self):
        spec = ACAlgebraSpec("C", 3, 2, 2)
        # 2p+q-r = 1 not divisible by 3
        assert ac_invariant_dims_bruteforce(spec, 0, 1, 0, group="SL") == 0


class TestGHTarget:
    def test_examples(self):
        assert gh_target_dims(2, 2, 1, 0) == 1
        assert gh_target_dims(1, 1, 0, 1) == 1
        assert gh_target_dims(2, 2, 1, 1) == 4

    def test_degenerate_U(self):
        assert gh_target_dims(2, 1, 0, 2) == 1
        assert gh_target_dims(2, 1, 1, 0) == 0


class TestE2Oracle:
    def test_n5_matches_model(self):
        params = ModelParams(n=5, g=4, M=3, maxdeg=2)
        table = e2_oracle_check(params)
        assert table[(0, 0)] == 1
        assert table[(0, 1)] == 1
        assert table[(2, 0)] == 0

    def test_n6_matches_model(self):
        params = ModelParams(n=6, g=4, M=4, maxdeg=3)
        table = e2_oracle_check(params)
        assert table[(0, 3)] == 2

    def test_guard(self):
        with pytest.raises(ValueError, match="n in"):
            e2_bruteforce_oracle(ModelParams(n=7, g=5, M=4, maxdeg=2))

    def test_invariant_cells_match_stable_counts(self):
        # the (0,3) cell of the n=6 model: one invariant generator plus
        # the pairing of the N and N-dual lambda-classes
        model = E2Model(6, 4, 4)
        vecs = model.sl_invariant_vectors(0, 3)
        assert len(vecs) == 2

    @pytest.mark.parametrize("n,g", [(n, g) for n in (5, 6) for g in range(1, 5)])
    def test_raising_kernel_killed_by_all_pairs(self, n, g):
        # the raising-operator kernel lies in, hence equals, the joint
        # kernel of every E_rs
        model = E2Model(n, g, minimal_M(n))
        for total in range(4):
            for p in range(total + 1):
                for vec in model.sl_invariant_vectors(p, total - p):
                    for rr in range(g):
                        for ss in range(g):
                            if rr == ss:
                                continue
                            image = {}
                            for mono, c in vec.items():
                                for coeff, img in model.lie_action(mono, rr, ss):
                                    image[img] = image.get(img, 0) + c * coeff
                            assert not any(image.values()), (p, total - p, rr, ss)


class TestLambdaRelations:
    def params(self):
        return ModelParams(n=5, g=3, M=4, maxdeg=2)

    def test_single(self):
        expr = lambda_relations(self.params(), [3])
        assert str(expr) == "lu_3"

    def test_pair_has_2g_terms(self):
        expr = lambda_relations(self.params(), [2, 3])
        assert len(expr.element) == 2 * 3

    def test_triple_vanishes(self):
        assert lambda_relations(self.params(), [2, 3, 4]).element == {}
        assert str(lambda_relations(self.params(), [2, 2, 2])) == "0"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            lambda_relations(self.params(), [])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            lambda_relations(self.params(), [9])
