import itertools
import math
from functools import lru_cache

import pytest

from tautrings import model
from tautrings.graded import GeneratorSet, fgca_dims
from tautrings.invariants import _action_rows
from tautrings.model import (
    ACAlgebraSpec,
    E2Model,
    ModelParams,
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
    mono_letters,
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


class TestCutModel:
    """build_D_dga(params, maxdeg) against the full build, the oracle."""

    @pytest.mark.parametrize("n", range(5, 31))
    def test_same_generators_and_d(self, n):
        """The cut keeps the generators of total <= maxdeg and the z their
        d-values hit, with the same d."""
        params = ModelParams(n=n, g=n - 2, M=minimal_M(n), maxdeg=n - 3)
        full, cut = build_D_dga(params), build_D_dga(params, n - 3)

        def named(dga):
            gens = dga.gens
            return {gens[i].name: {gens.mono_str(m): c for m, c in v.items()}
                    for i, v in dga.dvals.items()}

        full_d = named(full)
        low = {gg.name for gg in full.gens if gg.total <= n - 3}
        hit = {z for y in low for z in full_d.get(y, {})}
        assert {gg.name for gg in cut.gens} == low | hit
        assert named(cut) == {y: full_d[y] for y in low if y in full_d}

    @pytest.mark.parametrize("n", range(5, 31))
    def test_same_cohomology_table(self, n):
        """The whole table, keys in order and zeros included, at minimal
        M and two above it, at the bottom, middle and top of maxdeg."""
        for M in (minimal_M(n), minimal_M(n) + 2):
            for maxdeg in sorted({1, (n - 3) // 2, n - 3}):
                params = ModelParams(n=n, g=n - 2, M=M, maxdeg=maxdeg)
                full = build_D_dga(params).cohomology(maxdeg)
                cut = build_D_dga(params, maxdeg).cohomology(maxdeg)
                assert list(cut.items()) == list(full.items()), (M, maxdeg)

    @pytest.mark.parametrize("n", range(5, 11))
    def test_e2_oracle_tables(self, n):
        for g in (n - 2, n - 1):
            params = ModelParams(n=n, g=g, M=minimal_M(n), maxdeg=n - 3)
            assert e2_oracle_check(params) == build_D_dga(params).cohomology(
                n - 3)


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


def _laurent_mul(a, b):
    """Product of Laurent polynomials stored as {exponent tuple: int}."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _power_character(g, weights, degree, exterior):
    """Character of Lambda^degree (e_degree) or S^degree (h_degree) of the
    representation whose weights, with multiplicity, are given."""
    parts = [{(0,) * g: 1}] + [{} for _ in range(degree)]
    for w in weights:
        # e_d gains w * e_{d-1} (old); h_d gains w * h_{d-1} (new)
        for d in range(degree, 0, -1) if exterior else range(1, degree + 1):
            for e, c in _laurent_mul(parts[d - 1], {w: 1}).items():
                parts[d][e] = parts[d].get(e, 0) + c
    return parts[degree]


@lru_cache(maxsize=None)
def _weyl_density(g):
    """prod over i != j of (1 - x_i / x_j), as a Laurent polynomial."""
    out = {(0,) * g: 1}
    for i in range(g):
        for j in range(g):
            if i != j:
                root = tuple((t == i) - (t == j) for t in range(g))
                out = _laurent_mul(out, {(0,) * g: 1, root: -1})
    return out


def _weyl_invariant_dim(spec, p, q, r, group):
    """dim V^G = (1/g!) CT[chi_V * (x_1...x_g)^(-c) * prod_{i!=j}(1 - x_i/x_j)]
    with c = 0 for GL and c = (2p+q-r)/g for SL (Weyl integration formula,
    Fulton-Harris section 26); the characters use only the letters'
    weights."""
    g, is_a = spec.g, spec.variant == "A"
    wsum = 2 * p + q - r
    if group == "SL" and wsum % g:
        return 0
    unit = [tuple(int(t == i) for t in range(g)) for i in range(g)]
    x = [tuple(a + b for a, b in zip(unit[i], unit[j]))
         for i in range(g) for j in range(i if is_a else i + 1, g)]
    y = unit * spec.dimW
    z = [tuple(-t for t in u) for u in unit] * spec.dimU
    chi = _laurent_mul(
        _laurent_mul(_power_character(g, x, p, False),
                     _power_character(g, y, q, not is_a)),
        _power_character(g, z, r, is_a))
    c = wsum // g if group == "SL" else 0
    density = _weyl_density(g)
    total = sum(coeff * density.get(tuple(c - t for t in e), 0)
                for e, coeff in chi.items())
    dim, rest = divmod(total, math.factorial(g))
    assert rest == 0
    return dim


class TestWeylCharacterOracle:
    """Brute force against the Weyl integration formula, a count that
    shares no sign or action code with the raising-operator kernel."""

    # (variant, g, dimW, dimU, p range, q range); the g = 2 cases reach
    # r = 2p+q >= 9, past the LR formula's cap, and the SL sweep takes
    # r != 2p+q, which the LR formula never evaluates
    CASES = [
        ("A", 1, 2, 3, range(3), range(3)),
        ("C", 1, 2, 3, range(3), range(3)),
        ("A", 2, 1, 5, range(6), range(5)),
        ("C", 2, 1, 2, range(6), range(3)),
        ("A", 3, 1, 3, range(4), range(4)),
        ("C", 3, 1, 1, range(4), range(4)),
        ("A", 4, 1, 2, range(3), range(3)),
        ("C", 4, 1, 1, range(3), range(3)),
    ]

    @pytest.mark.parametrize("group", ["GL", "SL"])
    def test_matches_bruteforce(self, group):
        for variant, g, dimW, dimU, ps, qs in self.CASES:
            spec = ACAlgebraSpec(variant, g, dimW, dimU)
            for p in ps:
                for q in qs:
                    rs = ([2 * p + q] if group == "GL"
                          else range(max(0, 2 * p + q - g), 2 * p + q + g + 1))
                    for r in rs:
                        assert (ac_invariant_dims_bruteforce(spec, p, q, r,
                                                             group)
                                == _weyl_invariant_dim(spec, p, q, r, group)
                                ), (spec, p, q, r)

    def test_all_pairs_kernel(self, monkeypatch):
        """The joint kernel of all g(g-1) operators E_rs has the same
        dimension.  The simple raising operators only move a letter to a
        neighbour of its own family (same W or U index), so the exterior
        crossing sign could be wrong there without any dimension changing;
        the longer E_rs move letters past others of the family."""
        monkeypatch.setattr(model, "raising_pairs", lambda g: [
            (r, s) for r in range(g) for s in range(g) if r != s])
        for variant in ("A", "C"):
            for spec in (ACAlgebraSpec(variant, 3, 2, 2),
                         ACAlgebraSpec(variant, 3, 1, 3)):
                for p in range(3):
                    for q in range(5 - 2 * p):
                        r = 2 * p + q
                        assert (ac_invariant_dims_bruteforce(spec, p, q, r)
                                == _weyl_invariant_dim(spec, p, q, r, "GL")
                                ), (spec, p, q, r)

    # GL cells with 2p+q >= 9 and a nonzero invariant space at g = 3
    PAST_LR_CAP = [
        (ACAlgebraSpec("A", 3, 1, 4), [(3, 3), (4, 1), (4, 2), (5, 0)]),
        (ACAlgebraSpec("C", 3, 1, 2), [(4, 1), (4, 2), (5, 0)]),
    ]

    def test_past_lr_cap(self):
        for spec, cells in self.PAST_LR_CAP:
            for p, q in cells:
                r = 2 * p + q
                brute = ac_invariant_dims_bruteforce(spec, p, q, r)
                assert brute > 0
                assert brute == _weyl_invariant_dim(spec, p, q, r, "GL")


class TestGHTarget:
    def test_examples(self):
        assert gh_target_dims(2, 2, 1, 0) == 1
        assert gh_target_dims(1, 1, 0, 1) == 1
        assert gh_target_dims(2, 2, 1, 1) == 4

    def test_degenerate_U(self):
        assert gh_target_dims(2, 1, 0, 2) == 1
        assert gh_target_dims(2, 1, 1, 0) == 0


def reference_ac_basis(spec, p, q, r, group):
    """The trigraded cell basis as it was built before the shared join:
    full x and y factor bases, joined with the z factors grouped by
    weight."""
    g, is_a = spec.g, spec.variant == "A"
    wsum = 2 * p + q - r
    if wsum % g or (group == "GL" and wsum):
        return []
    target = (wsum // g,) * g
    nx, ny = (g * (g + 1) if is_a else g * (g - 1)) // 2, g * spec.dimW
    factors = ((0, nx, p, False), (nx, ny, q, not is_a),
               (nx + ny, g * spec.dimU, r, is_a))
    alphabet = model._ac_alphabet(spec)

    def factor_basis(lo, nlet, size, exterior):
        choose = (itertools.combinations if exterior
                  else itertools.combinations_with_replacement)
        return [(fs, alphabet.weight(fs))
                for fs in choose(range(lo, lo + nlet), size)]

    xbasis, ybasis, zbasis = (factor_basis(*f) for f in factors)
    z_by_weight = {}
    for zs, wz in zbasis:
        z_by_weight.setdefault(wz, []).append(zs)
    return [xs + ys + zs
            for xs, wx in xbasis for ys, wy in ybasis
            for zs in z_by_weight.get(
                tuple(t - a - b for t, a, b in zip(target, wx, wy)), ())]


def reference_e2_basis(e2, p, q):
    """The second-page cell basis as it was built before the shared join:
    every monomial of the cell, kept when its weight is constant."""
    basis = []
    for mono in e2.gens.monomials_bidegree(p, q):
        elt = mono_letters(mono)
        if len(set(e2.alphabet.weight(elt))) <= 1:
            basis.append(elt)
    return basis


@pytest.fixture
def core_bases(monkeypatch):
    """Every basis handed to the raising-operator core from model."""
    seen = []
    real = model._action_rows

    def capture(alphabet, basis, pairs):
        seen.append(list(basis))
        return real(alphabet, seen[-1], pairs)

    monkeypatch.setattr(model, "_action_rows", capture)
    return seen


class TestWeightJoin:
    """The shared join builds the same bases, in the same order, as the
    enumerators it replaced (the tensor case is in test_invariants)."""

    # every criterion-4 spec, plus g = 4; each (p, q) cell at r up to
    # 2p + q + 2, both groups
    AC_CELLS = [(ACAlgebraSpec(variant, g, dimW, dimU), p, q, r, group)
                for variant, g, dimW, dimU in itertools.product(
                    "AC", range(1, 5), (1, 2), (1, 2))
                for p in range(3) for q in range(5 - 2 * p)
                for r in range(2 * p + q + 3) for group in ("GL", "SL")]

    def test_ac_matches_reference(self, core_bases):
        for cell in self.AC_CELLS:
            core_bases.clear()
            try:
                ac_invariant_dims_bruteforce(*cell)
            except ValueError:
                assert cell[0].g == 4  # a g = 4 cell over CELL_CAP
                continue
            got = core_bases[0] if core_bases else []
            assert got == reference_ac_basis(*cell), cell

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_e2_matches_reference(self, core_bases, n):
        # x and lambda ids interleave, so the join's output needs its
        # sort at n = 7, g = 3 and 4
        for g in range(1, n):
            e2 = E2Model(n, g, minimal_M(n))
            for total in range(n - 2):
                for p in range(total + 1):
                    core_bases.clear()
                    e2.sl_invariant_vectors(p, total - p)
                    got = core_bases[0] if core_bases else []
                    assert got == reference_e2_basis(e2, p, total - p), (
                        n, g, p, total - p)


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

    def test_guard(self, monkeypatch):
        """At n = 12, g = 10 the join of cell (8, 0) would build 424 271
        factor elements; the cap refuses before any cell is enumerated."""
        def fail(*args):
            raise AssertionError("a cell was enumerated")

        monkeypatch.setattr(GeneratorSet, "monomials_bidegree", fail)
        with pytest.raises(ValueError, match=r"cell \(8,0\) .* 424271 "
                           r"factor elements, over CELL_CAP 200000"):
            e2_bruteforce_oracle(ModelParams(n=12, g=10, M=minimal_M(12),
                                             maxdeg=9))

    @pytest.mark.slow
    @pytest.mark.parametrize("n", range(7, 12))
    def test_matches_model_past_criterion_7(self, n):
        # criterion 7 covers n = 5, 6; n = 11, g = 10 is the largest case
        # under the cap
        for g in (n - 2, n - 1):
            table = e2_oracle_check(ModelParams(n=n, g=g, M=minimal_M(n),
                                                maxdeg=n - 3))
            assert table[(0, 0)] == 1

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
                    basis = [mono_letters(mono) for mono in vec]
                    coeffs = list(vec.values())
                    for rr in range(g):
                        for ss in range(g):
                            if rr == ss:
                                continue
                            rows = _action_rows(model.alphabet, basis,
                                                [(rr, ss)])
                            image = [sum(c * coeffs[j] for j, c in row.items())
                                     for row in rows]
                            assert not any(image), (p, total - p, rr, ss)


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
