import itertools
import json
import math
from functools import lru_cache

import pytest

from tautrings import cli, invariants, model, partitions
from tautrings.graded import GeneratorSet, fgca_dims
from tautrings.invariants import _invariant_system, _kernel_vectors
from tautrings.linalg import QMatrix, rank_of_int_rows, subspace_equal
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
)

from oracles import (
    all_pairs,
    guard_joins,
    recursive_sorted_contents,
    reference_ac_basis,
    same_rows_as_previous,
    stacked_dim,
    stacked_kernel,
    stacked_rows,
    whole_cell_dim,
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
        # S(w_2) = 0 at n = 7 (4*2 - 7 - 1 = 0), so y2_3 = w_2 (x) u_3 has
        # no differential; y3_4 goes to S(w_3) ^ u_4 = u_3 ^ u_4 = z3_4
        dga = build_D_dga(ModelParams(n=7, g=5, M=4, maxdeg=4))
        index = dga.gens.index
        assert index["y2_3"] not in dga.dvals
        assert dga.dvals[index["y3_4"]] == {(index["z3_4"],): 1}

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

    def test_all_pairs_kernel(self):
        """The joint kernel of all g(g-1) operators E_rs on the cell's
        weight space has the Weyl dimension, and so has the brute force.
        The simple raising operators only move a letter to a neighbour of
        its own family (same W or U index), so the exterior crossing sign
        could be wrong there without any dimension changing; the longer
        E_rs move letters past others of the family."""
        for variant in ("A", "C"):
            for spec in (ACAlgebraSpec(variant, 3, 2, 2),
                         ACAlgebraSpec(variant, 3, 1, 3)):
                for p in range(3):
                    for q in range(5 - 2 * p):
                        r = 2 * p + q
                        want = _weyl_invariant_dim(spec, p, q, r, "GL")
                        basis = reference_ac_basis(spec, p, q, r, "GL")
                        assert stacked_dim(model._ac_alphabet(spec), basis,
                                           all_pairs(3)) == want
                        assert (ac_invariant_dims_bruteforce(spec, p, q, r)
                                == want), (spec, p, q, r)

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


def label_rearrangements(spec, block):
    """The distinct images of a trigraded block under every permutation of
    the W labels and of the U labels, each a frozenset of basis elements."""
    alphabet = model._ac_alphabet(spec)
    out = set()
    for sw in itertools.permutations(range(spec.dimW)):
        for su in itertools.permutations(range(spec.dimU)):
            ids = []
            for a in alphabet.letters:
                tag = a.tag
                if tag != "x":
                    kind, k = tag
                    tag = kind, (sw if kind == "y" else su)[k]
                ids.append(alphabet._id[tag, a.up, a.down])
            out.add(frozenset(tuple(sorted(ids[a] for a in elt))
                              for elt in block))
    return out


class TestLabelContentBlocks:
    """The brute force counts a cell one label-content block at a time,
    and each block once for all its rearrangements."""

    # dimW or dimU = 3 at g <= 3 for 2p + q <= 4 and
    # r = 2p + q - g .. 2p + q + g, both groups; the cells with dimW,
    # dimU <= 2, criterion 4's among them, are held to the stacked
    # operators in TestStackedSimpleOperators.test_ac_cells and
    # partitioned in TestWeightJoin.test_ac_matches_reference
    CELLS = [(ACAlgebraSpec(variant, g, dimW, dimU), p, q, r, group)
             for variant, g, dimW, dimU in itertools.product(
                 "AC", range(1, 4), (1, 2, 3), (1, 2, 3))
             if 3 in (dimW, dimU)
             for p in range(3) for q in range(5 - 2 * p)
             for r in range(max(0, 2 * p + q - g), 2 * p + q + g + 1)
             for group in ("GL", "SL")]

    def test_counts_match_whole_cell(self):
        for cell in self.CELLS:
            assert ac_invariant_dims_bruteforce(*cell) == whole_cell_dim(
                *cell), cell

    def test_blocks_cover_weight_space(self):
        """Sum of rearrangements times block size is the weight space's
        size: no block is lost or counted twice."""
        for cell in self.CELLS:
            assert sum(mult * len(basis())
                       for mult, _, basis in model._ac_blocks(*cell)) == len(
                reference_ac_basis(*cell)), cell

    def test_sorted_contents_match_recursion(self):
        """The one bounded-partition walk, with its length bound, lists
        the recursion's contents, its runs flattened, in the same order."""
        for size in range(13):
            for labels in range(1, 8):
                for most in range(1, 14):
                    assert list(partitions._partitions_desc(
                        size, most, labels)) == [
                        sum(((v,) * c for v, c in runs), ())
                        for runs in recursive_sorted_contents(
                            size, labels, most)]


class Forgetful(dict):
    """A block memo that keeps nothing, so every block is counted."""

    def __setitem__(self, key, value):
        pass


class TestBlockMemo:
    """A block's invariant count depends only on its memo key: the count
    memoized from one cell is the count of every block with that key, in
    every cell, and the memoized cell counts are the unmemoized ones and
    the whole-cell counts."""

    # criterion 4's cells, every r it asks for, and the invariants
    # ladder's g = 4 sweeps
    CELLS = [(ACAlgebraSpec(variant, g, dimW, dimU), p, q, r, "GL")
             for variant, g, dimW, dimU in itertools.product(
                 "AC", range(1, 4), (1, 2), (1, 2))
             for p in range(3) for q in range(5 - 2 * p)
             for r in range(2 * p + q + 3)] + [
        (ACAlgebraSpec(variant, 4, 2, 2), p, q, 2 * p + q, "GL")
        for variant in "AC" for p in range(3) for q in range(5 - 2 * p)]

    def test_memo_matches_every_block_and_cell(self, monkeypatch):
        memo = {}
        monkeypatch.setattr(model, "_BLOCK_COUNTS", memo)
        memoized = [ac_invariant_dims_bruteforce(*cell) for cell in self.CELLS]
        blocks = 0
        for cell in self.CELLS:
            alphabet = model._ac_alphabet(cell[0])
            for _, key, basis in model._ac_blocks(*cell):
                blocks += 1
                elements = basis()
                want = 0
                if elements:
                    orbits, rows = _invariant_system(alphabet, elements)
                    want = len(orbits) - rank_of_int_rows(rows)
                # a cell with an empty factor answers 0 before its blocks
                assert memo.get(key, 0) == want, (cell, key)
        assert len(memo) < blocks   # some blocks were read, not counted
        monkeypatch.setattr(model, "_BLOCK_COUNTS", Forgetful())
        assert memoized == [ac_invariant_dims_bruteforce(*cell)
                            for cell in self.CELLS]
        assert memoized == [whole_cell_dim(*cell) for cell in self.CELLS]


def reference_e2_basis(e2, p, q):
    """The second-page cell basis as it was built before the shared join:
    every monomial of the cell, kept when its weight is constant."""
    basis = []
    for elt in e2.gens.monomials_bidegree(p, q):
        if len(set(e2.alphabet.weight(elt))) <= 1:
            basis.append(elt)
    return basis


@pytest.fixture
def core_bases(monkeypatch):
    """Every basis handed to the invariant-kernel core, with the block
    memo off, so that every trigraded block reaches the core."""
    seen = []
    real = invariants._orbits

    def capture(alphabet, basis):
        seen.append(list(basis))
        return real(alphabet, seen[-1])

    monkeypatch.setattr(invariants, "_orbits", capture)
    monkeypatch.setattr(model, "_BLOCK_COUNTS", Forgetful())
    return seen


class TestWeightJoin:
    """The shared join builds the same bases, in the same order, as the
    enumerators it replaced (the tensor case is in test_invariants); a
    trigraded cell's blocks, with their rearrangements, partition the
    basis its enumerator built."""

    # every criterion-4 spec, plus g = 4; each (p, q) cell at r up to
    # 2p + q + 2, both groups
    AC_CELLS = [(ACAlgebraSpec(variant, g, dimW, dimU), p, q, r, group)
                for variant, g, dimW, dimU in itertools.product(
                    "AC", range(1, 5), (1, 2), (1, 2))
                for p in range(3) for q in range(5 - 2 * p)
                for r in range(2 * p + q + 3) for group in ("GL", "SL")]

    def test_ac_matches_reference(self, core_bases):
        """Each label-content block handed to the core is in lexicographic
        order, and the blocks with their distinct label rearrangements
        partition the whole weight space."""
        for cell in self.AC_CELLS:
            core_bases.clear()
            ac_invariant_dims_bruteforce(*cell)
            covered = []
            for basis in core_bases:
                assert basis == sorted(basis), cell
                assert all(list(elt) == sorted(elt) for elt in basis), cell
                for block in label_rearrangements(cell[0], basis):
                    covered.extend(block)
            want = reference_ac_basis(*cell)
            assert len(covered) == len(want), cell
            assert set(covered) == set(want), cell

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_e2_matches_reference(self, core_bases, n):
        """Each label-content block handed to the core is in lexicographic
        order, though x and lambda ids interleave (at n = 7, g = 3 and 4),
        and the blocks partition the cell's constant-weight monomials."""
        for g in range(1, n):
            e2 = E2Model(n, g, minimal_M(n))
            for total in range(n - 2):
                for p in range(total + 1):
                    core_bases.clear()
                    e2.sl_invariant_vectors(p, total - p)
                    cell = (n, g, p, total - p)
                    covered = []
                    for basis in core_bases:
                        assert basis == sorted(basis), cell
                        assert all(list(elt) == sorted(elt)
                                   for elt in basis), cell
                        covered.extend(basis)
                    want = reference_e2_basis(e2, p, total - p)
                    assert len(covered) == len(want), cell
                    assert set(covered) == set(want), cell


def _columns(nrows, vectors) -> QMatrix:
    return QMatrix.from_columns(nrows, [dict(v) for v in vectors])


class TestStackedSimpleOperators:
    """The reduced core against the simple raising operators stacked on
    the whole weight space, the system it replaced: equal dimensions and
    equal spans (the tensor case is in test_invariants)."""

    # every (p, q) cell of 2p + q <= 4 at r = 2p + q - g .. 2p + q + g,
    # g <= 4, both groups
    AC_CELLS = [(ACAlgebraSpec(variant, g, dimW, dimU), p, q, r, group)
                for variant, g, dimW, dimU in itertools.product(
                    "AC", range(1, 5), (1, 2), (1, 2))
                for p in range(3) for q in range(5 - 2 * p)
                for r in range(max(0, 2 * p + q - g), 2 * p + q + g + 1)
                for group in ("GL", "SL")]

    def test_ac_cells(self):
        for cell in self.AC_CELLS:
            spec = cell[0]
            try:
                got = ac_invariant_dims_bruteforce(*cell)
            except ValueError as exc:
                # a g = 4 cell over JOIN_CAP
                assert spec.g == 4 and "(JOIN_CAP)" in str(exc), cell
                continue
            alphabet = model._ac_alphabet(spec)
            basis = reference_ac_basis(*cell)
            assert got == stacked_dim(alphabet, basis), cell
            if got:
                assert subspace_equal(
                    _columns(len(basis), _kernel_vectors(
                        *_invariant_system(alphabet, basis))),
                    _columns(len(basis), stacked_kernel(alphabet, basis))
                ), cell

    @pytest.mark.parametrize("n", range(5, 10))
    def test_e2_cells(self, core_bases, n):
        for g in (n - 2, n - 1):
            e2 = E2Model(n, g, minimal_M(n))
            for total in range(n - 2):
                for p in range(total + 1):
                    core_bases.clear()
                    got = e2.sl_invariant_vectors(p, total - p)
                    if not core_bases:
                        assert got == []
                        continue
                    # the cell's blocks, one after another
                    basis = [elt for block in core_bases for elt in block]
                    position = {elt: j for j, elt in enumerate(basis)}
                    want = stacked_kernel(e2.alphabet, basis)
                    assert len(got) == len(want), (n, g, p, total - p)
                    assert subspace_equal(
                        _columns(len(basis), (
                            {position[m]: x
                             for m, x in vec.items()} for vec in got)),
                        _columns(len(basis), want)), (n, g, p, total - p)


class TestSharedDerivationKernel:
    """E_rs through graded.apply_derivation gives the rows of the action
    loop it replaced, in value and order, on every basis the core gets
    from the trigraded sweep and the second page (the tensor cells are in
    test_invariants)."""

    def test_ac_rows_match_previous(self, core_bases):
        """The stacked all-pairs system only to g = 3: at g = 4 its twelve
        operators would double the test's time."""
        for cell in TestStackedSimpleOperators.AC_CELLS:
            spec = cell[0]
            core_bases.clear()
            try:
                ac_invariant_dims_bruteforce(*cell)
            except ValueError as exc:
                # a g = 4 cell over JOIN_CAP
                assert spec.g == 4 and "(JOIN_CAP)" in str(exc), cell
                continue
            for basis in core_bases:
                assert same_rows_as_previous(model._ac_alphabet(spec), basis,
                                             every_pair=spec.g < 4), cell

    @pytest.mark.parametrize("n", range(5, 10))
    def test_e2_rows_match_previous(self, core_bases, n):
        for g in (n - 2, n - 1):
            e2 = E2Model(n, g, minimal_M(n))
            for total in range(n - 2):
                for p in range(total + 1):
                    core_bases.clear()
                    e2.sl_invariant_vectors(p, total - p)
                    for basis in core_bases:
                        assert same_rows_as_previous(e2.alphabet, basis), (
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
        """At n = 14, g = 30 the block of cell (4, 4) with 2 x letters and
        4 lb letters of degree 1 would list and weigh the C(466, 2) =
        108 345 multisets of its x letters; the cap refuses it before its
        join lists anything.  (n = 12, g = 10, refused by the earlier cap
        at cell (8, 0), is answered: that cell's x letters have no
        constant weight.  At g = n - 2 the first second page refused is
        n = 18.)"""
        guard_joins(monkeypatch)
        with pytest.raises(ValueError, match=(
                r"cell \(4,4\) of the second page at n=14, g=30: the "
                r"weight-space join would list at least 271500 elements and "
                r"weigh at least 4072500 weight entries, 4344000 steps or "
                r"more in all, over the cap of 4000000 \(JOIN_CAP\)")):
            e2_bruteforce_oracle(ModelParams(n=14, g=30, M=minimal_M(14),
                                             maxdeg=11))

    @pytest.mark.slow
    @pytest.mark.parametrize("n", range(7, 18))
    def test_matches_model_past_criterion_7(self, n):
        # criterion 7 covers n = 5, 6; n = 17, g = 16 is the largest case
        # under the cap at g = n - 2 and n - 1
        for g in (n - 2, n - 1):
            table = e2_oracle_check(ModelParams(n=n, g=g, M=minimal_M(n),
                                                maxdeg=n - 3))
            assert table[(0, 0)] == 1

    def test_many_labels_answered(self, capsys):
        """At n = 9 the second page has 3M - 8 labels.  M = 333 is the
        least M whose label walk, one nested call per label, passed the
        interpreter's recursion limit from the command line; it answers
        with the table of M = 300."""
        tables = []
        for M in ("300", "333"):
            assert cli.main(["oracle-e2", "--n", "9", "--M", M,
                             "--format", "json"]) == 0
            tables.append(json.loads(capsys.readouterr().out)["table"])
        assert tables[0] == tables[1]

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
                    basis = list(vec)
                    coeffs = list(vec.values())
                    for rr in range(g):
                        for ss in range(g):
                            if rr == ss:
                                continue
                            rows = stacked_rows(model.alphabet, basis,
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
