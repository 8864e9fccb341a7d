import itertools
import math
import random
import tracemalloc

import pytest

from tautrings import invariants
from tautrings.graded import derivation_table
from tautrings.invariants import (
    Alphabet,
    Letter,
    TensorSpaceSpec,
    _tensor_alphabet,
    _weight_words,
    _word_index,
    character_dim,
    gl_invariant_basis,
    invariant_dim,
    sigma_matrix,
    sl_invariant_basis,
    verify_fundamental_theorems,
)
from tautrings.linalg import (
    QMatrix,
    _eliminate,
    kernel_int_basis,
    rank_of_int_rows,
    subspace_equal,
)
from tautrings.model import ACAlgebraSpec, E2Model, _ac_alphabet
from tautrings.partitions import Partition, schur_product_expand

from oracles import (
    all_pairs,
    column,
    column_rank,
    every_column_check,
    join_both_ways,
    reduce_against,
    same_rows_as_previous,
    sigma_word_rank,
    stacked_kernel,
    stacked_rows,
    stacked_tensor_system,
    tensor_cell,
    walked_images,
    walked_kills,
)


class TestTensorSpaceSpec:
    def test_dim(self):
        assert TensorSpaceSpec(2, 1, 3).dim == 27

    def test_rejects_bad(self):
        with pytest.raises(ValueError):
            TensorSpaceSpec(-1, 0, 2)
        with pytest.raises(ValueError):
            TensorSpaceSpec(1, 1, 0)

    def test_guard(self):
        with pytest.raises(ValueError):
            invariant_dim(TensorSpaceSpec(10, 10, 4), "GL")


class TestCaps:
    """Each cap of the tensor path refuses before the stage it gates."""

    def never(self, *args):
        pytest.fail("a capped stage ran before its cap was checked")

    def test_halves_before_listing(self, monkeypatch):
        """The two halves, 4^10 words each, with their 4 weight entries;
        the alphabet reads its letters only when the join first weighs."""
        monkeypatch.setattr(invariants, "Letter", self.never)
        with pytest.raises(ValueError, match=(
                r"T\^\{10,10\}\(Q\^4\): the weight-space join would list "
                r"at least 2097232 elements and weigh at least 8388608 "
                r"weight entries, 10485840 steps or more in all, over the "
                r"cap of 4000000 \(JOIN_CAP\)")):
            invariant_dim(TensorSpaceSpec(10, 10, 4), "GL")

    def test_no_table_over_every_index(self):
        """T^{0,0}(Q^30000) is one empty word and no letter: the packed
        weights come from the letters' own indices, with no table of all
        30 000 (it took about 56 MB; at g = 10^6 it ran out of memory)."""
        tracemalloc.start()
        try:
            assert invariant_dim(TensorSpaceSpec(0, 0, 30_000), "GL") == 1
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_halves_without_large_powers(self):
        """A long word is refused from its first 14 slots alone, whose
        10^14 words pass the square of the cap, with halves of 10^7 words
        each: 10^50000 is never formed and the other slots are not read."""
        with pytest.raises(ValueError, match=(
                r"T\^\{50000,50000\}\(Q\^10\): the weight-space join "
                r"would list at least 20000140 elements and weigh at least "
                r"200000000 weight entries, 220000140 steps or more in all")):
            invariant_dim(TensorSpaceSpec(50000, 50000, 10), "SL")

    def test_weights_before_weighing(self, monkeypatch):
        """T^{1,0}(Q^1999) has no invariant, but its join would weigh
        1 999 + 1 elements of 1 999 entries each; T^{1,0}(Q^1998), at
        3 998 000 steps, is answered in TestCaps.test_largest_admitted."""
        monkeypatch.setattr(invariants, "Letter", self.never)
        with pytest.raises(ValueError, match=(
                r"T\^\{1,0\}\(Q\^1999\): the weight-space join would list "
                r"at least 3999 elements and weigh at least 3998000 weight "
                r"entries, 4001999 steps or more in all, over the cap of "
                r"4000000 \(JOIN_CAP\)")):
            invariant_dim(TensorSpaceSpec(1, 0, 1999), "GL")

    def test_words_before_join(self, monkeypatch):
        """T^{4,4}(Q^10) is answered (TestCaps.test_largest_admitted);
        T^{4,4}(Q^11) keeps too many words."""
        monkeypatch.setattr(invariants, "_join_weighed", self.never)
        with pytest.raises(ValueError, match=(
                r"T\^\{4,4\}\(Q\^11\): the weight-space join would keep "
                r"265111 words of 8 letters and 11 weight entries, 5388581 "
                r"steps or more in all, over the cap of 4000000 "
                r"\(JOIN_CAP\)")):
            invariant_dim(TensorSpaceSpec(4, 4, 11), "GL")

    def test_orbits_before_rows(self, monkeypatch):
        monkeypatch.setattr(invariants, "_action_rows", self.never)
        with pytest.raises(ValueError, match=(
                r"^T\^\{16,0\}\(Q\^2\): 6435 live orbits of weight words, "
                r"over the cap of 3000 \(ORBIT_CAP\)$")):
            invariant_dim(TensorSpaceSpec(16, 0, 2), "SL")

    def test_partitions_before_sum(self, monkeypatch):
        """The character count sums over the partitions of min(k, l) with
        parts at most g: at T^{50,50}(Q^50) all p(50) = 204 226 of them,
        over PARTITION_CAP, which the recurrence passes at parts at most
        29; T^{50,50}(Q^2) sums over 26 (TestCharacterDim.test_values)."""
        monkeypatch.setattr(invariants, "_partitions_desc", self.never)
        with pytest.raises(ValueError, match=(
                r"T\^\{50,50\}\(Q\^50\): the character count sums over at "
                r"least \d+ partitions of 50 with parts at most 50, over the "
                r"cap of 200000 \(PARTITION_CAP\)")):
            character_dim(TensorSpaceSpec(50, 50, 50), "GL")

    def test_cells_before_sum(self, monkeypatch):
        """The SL count of T^{10002,0}(Q^2) reads one shape, two rows of
        5 001 cells, over SCHUR_CELL_CAP; T^{10000,0}(Q^2) is at it."""
        monkeypatch.setattr(invariants, "_hook_product", self.never)
        with pytest.raises(ValueError, match=(
                r"T\^\{10002,0\}\(Q\^2\): the character count reads a "
                r"shape of 10002 cells, over the cap of 10000 "
                r"\(SCHUR_CELL_CAP\)")):
            character_dim(TensorSpaceSpec(10002, 0, 2), "SL")

    @pytest.mark.slow
    def test_largest_admitted(self):
        """The joins of T^{4,4}(Q^10) (3 385 740 steps) and T^{1,0}(Q^1998)
        (3 998 000 steps) and the orbit count of T^{7,4}(Q^3), 2 121, are
        under the caps; the character count agrees on each."""
        for spec, group, want in [(TensorSpaceSpec(4, 4, 10), "GL", 24),
                                  (TensorSpaceSpec(1, 0, 1998), "GL", 0),
                                  (TensorSpaceSpec(7, 4, 3), "SL", 225)]:
            assert invariant_dim(spec, group) == want
            assert character_dim(spec, group) == want

    def test_join_cap_largest_admitted_and_first_refused(self, monkeypatch):
        """The fundamental-theorem check at (1, 1153) takes 3 995 145 steps
        of join, under JOIN_CAP; (1, 1154) would take 4 002 072, and is
        refused before its words are built or sigma is."""
        rep = verify_fundamental_theorems(1, 1153)
        assert (rep.rank, rep.surjective, rep.injective) == (1, True, True)
        monkeypatch.setattr(invariants, "_join_weighed", self.never)
        monkeypatch.setattr(invariants, "_sigma_columns", self.never)
        with pytest.raises(ValueError, match=(
                r"T\^\{1,1\}\(Q\^1154\): the weight-space join would keep "
                r"1154 words of 2 letters and 1154 weight entries, 4002072 "
                r"steps or more in all, over the cap of 4000000 "
                r"\(JOIN_CAP\)")):
            verify_fundamental_theorems(1, 1154)


class TestGLInvariants:
    def test_mixed_vanishing(self):
        assert gl_invariant_basis(TensorSpaceSpec(1, 2, 3)).cols == 0

    def test_m2_g2(self):
        assert gl_invariant_basis(TensorSpaceSpec(2, 2, 2)).cols == 2

    def test_m2_g1(self):
        assert gl_invariant_basis(TensorSpaceSpec(2, 2, 1)).cols == 1

    def test_identity_tensor_annihilated(self):
        # T^{1,1} invariants = the identity tensor line
        basis = gl_invariant_basis(TensorSpaceSpec(1, 1, 3))
        assert basis.cols == 1
        col = column(basis, 0)
        diag = {i * 3 + i for i in range(3)}
        assert set(col) == diag
        assert len({col[i] for i in diag}) == 1

    def test_schur_multiplicity_crosscheck(self):
        # dim T^{k,k}-invariants = sum of squared multiplicities of each
        # S_lambda inside the k-th tensor power, heights <= g
        for g in (1, 2, 3):
            for k in (1, 2, 3):
                mults = {Partition([1]): 1}
                for _ in range(k - 1):
                    new = {}
                    for lam, c in mults.items():
                        for kappa, c2 in schur_product_expand(
                                lam, Partition([1])).items():
                            new[kappa] = new.get(kappa, 0) + c * c2
                    mults = new
                want = sum(c * c for lam, c in mults.items()
                           if lam.height <= g)
                got = gl_invariant_basis(TensorSpaceSpec(k, k, g)).cols
                assert got == want


class TestSLInvariants:
    def test_divisibility_vanishing(self):
        assert sl_invariant_basis(TensorSpaceSpec(1, 0, 2)).cols == 0

    def test_determinant_line(self):
        basis = sl_invariant_basis(TensorSpaceSpec(2, 0, 2))
        assert basis.cols == 1
        col = column(basis, 0)
        # the line a1(x)a2 - a2(x)a1
        assert set(col) == {1, 2}
        assert col[1] == -col[2]

    def test_equals_gl_when_balanced(self):
        for g in (1, 2, 3):
            for k in (0, 1, 2):
                spec = TensorSpaceSpec(k, k, g)
                assert subspace_equal(gl_invariant_basis(spec),
                                      sl_invariant_basis(spec))

    def test_contains_gl(self):
        spec = TensorSpaceSpec(3, 0, 3)
        assert sl_invariant_basis(spec).cols == 1  # determinant line
        assert gl_invariant_basis(spec).cols == 0


# the (m, g) pairs the builders are compared on: g^(2m) up to this
SIGMA_BUILDER_DIM = 200_000


def _counted_sigma_columns(m, g):
    """sigma's columns built by counting how often each index occurs."""
    cols = []
    for perm in itertools.permutations(range(m)):
        inv = [0] * m
        for pos, img in enumerate(perm):
            inv[img] = pos
        col = {}
        for word in itertools.product(range(g), repeat=m):
            contra = tuple(word[inv[t]] for t in range(m))
            idx = _word_index(word + contra, g)
            col[idx] = col.get(idx, 0) + 1
        cols.append(col)
    return cols


class TestSigma:
    def test_single_column_identity(self):
        s = sigma_matrix(1, 3)
        assert s.cols == 1
        assert column(s, 0) == {0: 1, 4: 1, 8: 1}

    def test_rank_2_2(self):
        assert sigma_matrix(2, 2).rank() == 2

    def test_rank_2_1(self):
        assert sigma_matrix(2, 1).rank() == 1

    def test_guard(self):
        with pytest.raises(ValueError):
            sigma_matrix(7, 1)

    @pytest.mark.parametrize("m", range(1, 6))
    def test_columns_match_counting_builder(self, m):
        """Same dicts, key order included, as the builder that counted
        each index, for every g with g^(2m) <= 200 000."""
        g = 1
        while g ** (2 * m) <= SIGMA_BUILDER_DIM:
            got = invariants._sigma_columns(m, g)
            want = _counted_sigma_columns(m, g)
            assert [list(c.items()) for c in got] \
                == [list(c.items()) for c in want]
            g += 1

    @pytest.mark.parametrize("m,g", [(m, g) for m in range(1, 6)
                                     for g in range(1, 4)] + [(4, 4)])
    def test_columns_permute_the_first_contra_slots(self, m, g):
        """The premise of the fundamental-theorem check: column s is
        column 0, sigma_id, with each word's contravariant slot pos moved
        to slot s(pos), computed over the words."""
        cols = invariants._sigma_columns(m, g)
        for perm, col in zip(itertools.permutations(range(m)), cols,
                             strict=True):
            moved = []
            for idx in cols[0]:
                word = [idx // g ** (2 * m - 1 - t) % g
                        for t in range(2 * m)]
                contra = [0] * m
                for pos, img in enumerate(perm):
                    contra[img] = word[m + pos]
                moved.append(_word_index(tuple(word[:m] + contra), g))
            assert col == dict.fromkeys(moved, 1)

    def test_columns_inside_invariants(self):
        spec = TensorSpaceSpec(3, 3, 2)
        inv = gl_invariant_basis(spec)
        sig = sigma_matrix(3, 2)
        assert subspace_equal(sig, inv)


class TestFundamentalTheorems:
    def test_2_2(self):
        rep = verify_fundamental_theorems(2, 2)
        assert (rep.rank, rep.surjective, rep.injective) == (2, True, True)

    def test_3_2(self):
        rep = verify_fundamental_theorems(3, 2)
        assert rep.surjective and not rep.injective
        assert rep.rank < math.factorial(3)

    def test_1_1(self):
        rep = verify_fundamental_theorems(1, 1)
        assert (rep.rank, rep.surjective, rep.injective) == (1, True, True)

    @pytest.mark.parametrize("tamper", ["count", "swap", "shift", "unsym",
                                        "partial", "unkilled"])
    def test_wrong_invariant_basis_not_surjective(self, monkeypatch, tamper):
        """Each tampering at (3, 3) keeps rank sigma = 6 and breaks one
        part of the check.  count: the dimension is the kernel count with
        the orbit symmetrization dropped, where every word is its own
        orbit and E_01 alone leaves a kernel larger than the invariants,
        which sigma still lies in, so only the count fails.
        The other modes replace the last permutation tensor; the six
        columns stay independent (at (3, 2) the rank would change instead)
        and only the containment fails.  swap: e_0^(x3) (x) e_0*^(x3), of
        weight 0 but neither S_3-fixed nor killed by E_01.  shift:
        e_0^(x3) (x) e_0*^(x2) (x) e_1*, off the weight-0 words.  unsym:
        e_2^(x3) (x) e_2*^(x3), which E_01 kills but S_3 moves.  partial:
        the permutation tensor less its word (2, 2, 2; 2, 2, 2), whose
        orbit-sum part is still the tensor, so only the orbit half fails.
        unkilled: the sum of e_i^(x3) (x) e_i*^(x3) over i, S_3-fixed but
        not killed by E_01."""
        spec = TensorSpaceSpec(3, 3, 3)
        if tamper == "count":
            with monkeypatch.context() as patch:
                patch.setattr(invariants, "_orbits", lambda alphabet, basis:
                              [[(j, 1)] for j in range(len(basis))])
                dim = invariant_dim(spec, "GL")
            assert dim > 6
            monkeypatch.setattr(invariants, "character_dim",
                                lambda spec, group: dim)
        else:
            real_sigma = invariants._sigma_columns
            # the word (i, i, i; i, i, i) has index i * (3^6 - 1) / 2
            replace = {
                "swap": lambda col: {0: 1},
                "shift": lambda col: {1: 1},
                "unsym": lambda col: {728: 1},
                "partial": lambda col: {i: x for i, x in col.items()
                                        if i != 728},
                "unkilled": lambda col: {0: 1, 364: 1, 728: 1}}[tamper]

            def tampered(m, g):
                cols = real_sigma(m, g)
                cols[-1] = replace(cols[-1])
                return cols

            monkeypatch.setattr(invariants, "_sigma_columns", tampered)
            assert invariant_dim(spec, "GL") == 6
        rep = verify_fundamental_theorems(3, 3)
        assert rep.rank == 6 and not rep.surjective

    @pytest.mark.parametrize("m,g", [(m, g) for m in range(1, 5)
                                     for g in range(1, 5)] + [(5, 2)])
    def test_matches_column_rank_check(self, m, g):
        """Oracle: the rank form of the check, in which sigma stacked
        with the Fraction invariant basis must keep sigma's rank."""
        sigma = sigma_matrix(m, g)
        inv = gl_invariant_basis(TensorSpaceSpec(m, m, g))
        rank = column_rank(sigma)
        old = invariants.FundamentalTheoremReport(
            m=m, g=g, rank=rank,
            surjective=rank == inv.cols and column_rank(sigma, inv) == rank,
            injective=rank == math.factorial(m))
        assert verify_fundamental_theorems(m, g) == old

    def test_kills_matches_walked_check(self, monkeypatch):
        """The containment check that counts a column's words against the
        walk over every word of every orbit it meets, on criterion 1's 16
        pairs, (5, 3) and (6, 2): each column of sigma, the column less
        its last word, the column with its last entry doubled, and the sum
        on the orbit of its first word, so that columns both killed and
        not killed are met."""
        real, seen = invariants._kills, set()

        def kills(by_orbit, orbits, orbit_of, col):
            (last, x), first = list(col.items())[-1], next(iter(col))
            o, e = orbit_of[first]
            for c in (col, {i: v for i, v in col.items() if i != last},
                      {**col, last: 2 * x}, {i: e * f for i, f in orbits[o]}):
                got = real(by_orbit, orbits, orbit_of, c)
                assert got == walked_kills(by_orbit, orbits, orbit_of, c)
                seen.add(got is None)
            return real(by_orbit, orbits, orbit_of, col)

        monkeypatch.setattr(invariants, "_kills", kills)
        for m, g in [(m, g) for m in range(1, 5) for g in range(1, 5)] \
                + [(5, 3), (6, 2)]:
            assert verify_fundamental_theorems(m, g).surjective
        assert seen == {True, False}

    @staticmethod
    def assert_orbit_rank_matches_word_rank(m, gs):
        for g in gs:
            rep = verify_fundamental_theorems(m, g)
            assert rep == invariants.FundamentalTheoremReport(
                m=m, g=g, rank=sigma_word_rank(m, g), surjective=True,
                injective=m <= g)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_orbit_rank_matches_word_rank(self, m):
        """On the g with g^(2m) <= 200 000, the pairs the former cap on the
        whole tensor space admitted, rank sigma read off the orbit-sum
        coordinates is rank sigma over the words, and sigma spans the
        invariants.  Every such g for m >= 2; at m = 1, where the orbit
        walk applies g - 1 swaps to each of g words, the g up to 40,
        g = 90, 140, ..., 440 and the largest, 447."""
        gs = [g for g in range(1, 448) if g ** (2 * m) <= SIGMA_BUILDER_DIM]
        self.assert_orbit_rank_matches_word_rank(
            m, gs if m > 1 else gs[:40] + gs[89::50] + gs[-1:])

    @pytest.mark.parametrize("tamper", [None, "shift", "unkilled"])
    def test_words_eliminated_only_for_a_non_invariant(self, monkeypatch,
                                                       tamper):
        """sigma goes through the elimination over its words only when one
        of its columns is not an invariant; otherwise only its orbit-sum
        coordinates do, whose rank is the same."""
        real_sigma, real_eliminate = (invariants._sigma_columns,
                                      invariants._eliminate)
        built, eliminated = [], []

        def sigma(m, g):
            cols = real_sigma(m, g)
            if tamper == "shift":
                cols[-1] = {1: 1}
            elif tamper == "unkilled":
                cols[-1] = {0: 1, 364: 1, 728: 1}
            built.append(cols)
            return cols

        def eliminate(rows):
            eliminated.append(rows)
            return real_eliminate(rows)

        monkeypatch.setattr(invariants, "_sigma_columns", sigma)
        monkeypatch.setattr(invariants, "_eliminate", eliminate)
        rep = verify_fundamental_theorems(3, 3)
        words_eliminated = any(rows is built[0] for rows in eliminated)
        assert words_eliminated == (tamper is not None)
        assert rep.rank == 6 and rep.surjective == (tamper is None)

    @pytest.mark.slow
    @pytest.mark.parametrize("m,g,want", [(4, 5, (24, True, True)),
                                          (5, 4, (119, True, False)),
                                          (5, 5, (120, True, True))])
    def test_past_the_former_cap(self, m, g, want):
        """The answers past the cap on the whole tensor space, and the
        reduced-system count as the oracle of the dimension the check
        takes from `character_dim`: the reduced system on every live
        orbit of the weight-0 words, eliminated, leaves that many orbit
        sums."""
        rep = verify_fundamental_theorems(m, g)
        assert (rep.rank, rep.surjective, rep.injective) == want
        alphabet, basis, orbits = invariants._weight_orbits(
            TensorSpaceSpec(m, m, g), "GL")
        rows = invariants._reduced_rows(alphabet, basis, orbits)
        assert len(orbits) - rank_of_int_rows(rows) == want[0] \
            == character_dim(TensorSpaceSpec(m, m, g), "GL")

    def test_extra_column_not_an_invariant(self, monkeypatch):
        """A column past the m! that the permutations pair with sigma's
        columns is no image of sigma_id.  An orbit sum E_01 does not kill,
        appended at (3, 3) with the count raised to the rank it gives, is
        caught as the oracle catches it, and not passed unchecked."""
        real_sigma, real_dim = invariants._sigma_columns, character_dim
        monkeypatch.setattr(invariants, "_sigma_columns", lambda m, g: [
            *real_sigma(m, g), {0: 1, 364: 1, 728: 1}])
        monkeypatch.setattr(invariants, "character_dim",
                            lambda spec, group: real_dim(spec, group) + 1)
        rep = verify_fundamental_theorems(3, 3)
        assert rep == every_column_check(3, 3)
        assert rep.rank == 7 and not rep.surjective

    @pytest.mark.parametrize("m,g", [(m, g) for m in range(1, 5)
                                     for g in range(1, 5)]
                             + [(5, 2), (5, 3), (6, 2)] + [
        pytest.param(m, g, marks=pytest.mark.slow)
        for m, g in [(4, 5), (5, 4), (5, 5), (6, 3)]])
    def test_matches_every_column_check(self, m, g):
        """Oracle: the check as it was before it applied E_01 to sigma_id
        alone, with the reduced rows on every live orbit and `_kills` on
        every column."""
        assert verify_fundamental_theorems(m, g) == every_column_check(m, g)

    @pytest.mark.parametrize("tamper", ["count", "swap", "shift", "unsym",
                                        "partial", "unkilled"])
    def test_tampered_matches_every_column_check(self, monkeypatch, tamper):
        """Under each tampering of `test_wrong_invariant_basis_not_surjective`,
        which stays in force after it, the check and its oracle give one
        report."""
        self.test_wrong_invariant_basis_not_surjective(monkeypatch, tamper)
        assert verify_fundamental_theorems(3, 3) == every_column_check(3, 3)

    @pytest.mark.slow
    def test_past_the_orbit_cap(self):
        """(6, 3) has 5 862 live orbits, over ORBIT_CAP, which holds only
        the paths that eliminate the reduced system; the check takes its
        dimension from the character count instead."""
        rep = verify_fundamental_theorems(6, 3)
        assert (rep.rank, rep.surjective, rep.injective) == (513, True, False)
        with pytest.raises(ValueError, match="5862 live orbits"):
            invariant_dim(TensorSpaceSpec(6, 6, 3), "GL")

    @pytest.mark.slow
    def test_matches_kernel_reduction_check_5_3(self):
        """Oracle at (5, 3): the earlier form of the check, which builds
        the int kernel basis of the stacked simple raising operators and
        reduces each vector against sigma's pivot rows."""
        m, g = 5, 3
        pivots, pivot_rows = _eliminate(invariants._sigma_columns(m, g))
        rank = len(pivots)
        words, rows = stacked_tensor_system(TensorSpaceSpec(m, m, g), "GL")
        index = [_word_index(w, g) for w in words]
        kernel = [{index[j]: x for j, x in v.items()}
                  for v, _ in kernel_int_basis(rows, len(words))]
        old = invariants.FundamentalTheoremReport(
            m=m, g=g, rank=rank,
            surjective=rank == len(kernel) and not any(
                reduce_against(pivots, pivot_rows, v) for v in kernel),
            injective=rank == math.factorial(m))
        assert verify_fundamental_theorems(m, g) == old


# every T^{k,l}(Q^g) with k + l <= 5 and g <= 3, and T^{4,4}(Q^3)
SMALL_SPECS = [TensorSpaceSpec(k, n - k, g)
               for g in (1, 2, 3) for n in range(6) for k in range(n + 1)]
SMALL_SPECS.append(TensorSpaceSpec(4, 4, 3))


def _weight(word, k, g):
    wt = [0] * g
    for pos, i in enumerate(word):
        wt[i] += 1 if pos < k else -1
    return tuple(wt)


class TestWeightWords:
    def test_matches_filtered_product(self):
        """Direct enumeration = all g^(k+l) words filtered by weight, as
        letter tuples: slot pos with index i is letter pos*g + i."""
        for spec in SMALL_SPECS:
            k, g = spec.k, spec.g
            alphabet = _tensor_alphabet(spec)
            by_weight = {}
            for word in itertools.product(range(g), repeat=k + spec.l):
                by_weight.setdefault(_weight(word, k, g), []).append(
                    tuple(pos * g + i for pos, i in enumerate(word)))
            for wt, words in by_weight.items():
                assert _weight_words(spec, alphabet, wt) == words
            for wt in [(0,) * g, (1,) * g, (-1,) * g, (spec.k + 1,) + (0,) * (g - 1)]:
                assert _weight_words(spec, alphabet, wt) == by_weight.get(
                    wt, [])


def _tensor_labels(spec):
    """The labels `_weight_words` joins: one per slot, its g letters."""
    g = spec.g
    return [(range(pos * g, pos * g + g), 1, False)
            for pos in range(spec.k + spec.l)]


class TestPackedJoin:
    """The join on packed weights against `oracles.tuple_weight_space`,
    the join on weight tuples it replaced: the same elements in the same
    order, the same steps charged and the same refusals (the trigraded and
    second-page blocks are in test_model)."""

    @pytest.mark.parametrize("group", ["GL", "SL"])
    def test_criterion_2_spaces(self, group):
        """Every space criterion 2 reads, at the target its group reads,
        whether or not g divides k - l."""
        for g in (1, 2, 3):
            for k in range(6):
                for l in range(6 - k):
                    spec = TensorSpaceSpec(k, l, g)
                    c = (k - l) // g if group == "SL" else 0
                    packed, tuples = join_both_ways(
                        _tensor_labels(spec), _tensor_alphabet(spec),
                        (c,) * g)
                    assert packed == tuples, spec

    def test_multisets_near_the_bound(self):
        """A multiset of 511 letters e_0, e_1 has weight entries up to
        511, packed in base 2^10, whose half 512 is the first entry out of
        reach.  300 letters x_00, x_11 of S^2(Q^2) and 211 of the dual,
        511 letters of at most two indices each, reach 600 and -211
        against half 1 024, and their head's needs borrow across
        fields."""
        up = Alphabet(2, [Letter("e", (0,)), Letter("e", (1,))])
        for target in [(511, 0), (256, 255), (510, 0), (512, -1),
                       (2 ** 40, 0)]:
            packed, tuples = join_both_ways([(range(2), 511, False)], up,
                                            target)
            assert packed == tuples, target
            assert len(packed[0]) == (sum(target) == 511
                                      and min(target) >= 0), target
        mixed = Alphabet(2, [Letter("x", (0, 0)), Letter("x", (1, 1)),
                             Letter("f", (), (0,)), Letter("f", (), (1,))])
        labels = [(range(2), 300, False), (range(2, 4), 211, False)]
        for target in [(389, 0), (0, 389), (600, -211), (-211, 600),
                       (200, 189), (389, 1), (1024, -635), (-1024, 1413)]:
            packed, tuples = join_both_ways(labels, mixed, target)
            assert packed == tuples, target
        assert len(join_both_ways(labels, mixed, (200, 189))[0][0]) == 106

    def test_refusals(self):
        """Refused at the first stage (T^{1,0}(Q^1999)) and at the second
        (T^{4,4}(Q^11)) with the same text and count."""
        for spec, target in [(TensorSpaceSpec(1, 0, 1999), (0,) * 1999),
                             (TensorSpaceSpec(4, 4, 11), (0,) * 11)]:
            packed, tuples = join_both_ways(
                _tensor_labels(spec), _tensor_alphabet(spec), target)
            assert packed == tuples
            assert packed[0].endswith("(JOIN_CAP)"), spec


class TestExteriorSign:
    def test_odd_matches_pairwise_count(self):
        """`_odd` counts inversions on bitmasks in one pass; the parity is
        that of the pairs out of order, on distinct ids of every length
        to 40."""
        rng = random.Random(2026)
        for n in range(41):
            for _ in range(25):
                seq = rng.sample(range(2 * n + 3), n)
                pairs = sum(a > b for a, b in itertools.combinations(seq, 2))
                assert invariants._odd(seq) == (pairs % 2 == 1), seq


def _basis_over_words(spec, words, vectors) -> QMatrix:
    """Vectors over word positions as columns of T^{k,l}(Q^g)."""
    index = [_word_index(w, spec.g) for w in words]
    return QMatrix.from_columns(
        spec.dim, [{index[j]: x for j, x in v.items()} for v in vectors])


class TestRaisingOperators:
    """The reduced system cuts out the same kernel as the simple raising
    operators stacked on every weight word, and both the same as all E_rs."""

    @pytest.mark.parametrize("group", ["GL", "SL"])
    def test_kernel_equals_all_pairs_kernel(self, group):
        for spec in SMALL_SPECS:
            g = spec.g
            basis = (gl_invariant_basis if group == "GL"
                     else sl_invariant_basis)(spec)
            words = tensor_cell(spec, group)
            if not words:
                assert basis.cols == 0
                continue
            rows = stacked_rows(_tensor_alphabet(spec), words, all_pairs(g))
            assert basis.cols == len(words) - rank_of_int_rows(rows)
            position = {_word_index(w, g): j for j, w in enumerate(words)}
            columns = [{} for _ in range(basis.cols)]
            for (i, c), v in basis.entries.items():
                columns[c][position[i]] = v
            for col in columns:
                for row in rows:
                    assert sum(a * col.get(j, 0) for j, a in row.items()) == 0

    @pytest.mark.parametrize("group", ["GL", "SL"])
    def test_matches_stacked_simple_operators(self, group):
        """Equal dimensions and equal spans against the stacked system,
        on every small space and T^{4,4}(Q^3)."""
        for spec in SMALL_SPECS:
            words = tensor_cell(spec, group)
            want = _basis_over_words(
                spec, words, stacked_kernel(_tensor_alphabet(spec), words))
            got = (gl_invariant_basis if group == "GL"
                   else sl_invariant_basis)(spec)
            assert invariant_dim(spec, group) == got.cols == want.cols, spec
            assert subspace_equal(got, want), spec


class TestImages:
    """`Alphabet.images(r, s)` reads only the letters with index r or s;
    its derivation tables are those of the walk over every letter."""

    @pytest.mark.parametrize("build", [
        lambda: _tensor_alphabet(TensorSpaceSpec(2, 2, 3)),
        lambda: _tensor_alphabet(TensorSpaceSpec(3, 1, 4)),
        lambda: _ac_alphabet(ACAlgebraSpec("A", 3, 2, 2)),
        lambda: _ac_alphabet(ACAlgebraSpec("C", 4, 1, 2)),
        lambda: E2Model(6, 4, 4).alphabet,
        lambda: E2Model(7, 3, 4).alphabet,
    ], ids=["tensor-2-2", "tensor-3-1", "A", "C", "page-n6", "page-n7"])
    def test_tables_match_walk(self, build):
        alphabet = build()
        g, n = alphabet.g, len(alphabet.letters)
        for r, s in itertools.product(range(g), repeat=2):
            walked = walked_images(alphabet, r, s)
            assert alphabet.images(r, s) == walked
            values = {a: [((b,), c) for c, b in terms]
                      for a, terms in enumerate(walked)}
            for width in (None, 3):
                assert alphabet.derivation(r, s, width) == derivation_table(
                    alphabet.exterior, values, None if width is None
                    else [1 << width * a for a in range(n)])


class TestSharedDerivationKernel:
    """E_rs through graded.apply_derivation gives the rows of the action
    loop it replaced, in value and order: E_01 on the orbit sums, the
    simple raising operators and all E_rs (the A/C and second-page cells
    are in test_model)."""

    @pytest.mark.parametrize("group", ["GL", "SL"])
    def test_tensor_rows_match_previous(self, group):
        for spec in SMALL_SPECS:
            words = tensor_cell(spec, group)
            assert same_rows_as_previous(_tensor_alphabet(spec), words), spec


class TestOrbits:
    """Orbit signs and dropped orbits on hand-checked cases."""

    def test_sl_sign_twist(self):
        # T^{2,0}(Q^2) at weight (1, 1): the determinant e_0e_1 - e_1e_0
        alphabet = _tensor_alphabet(TensorSpaceSpec(2, 0, 2))
        assert invariants._orbits(alphabet, [(0, 3), (1, 2)]) == [
            [(0, 1), (1, -1)]]

    def test_dead_orbit_dropped(self):
        # x_01 in S^2(Q^2) has weight (1, 1); s_0 fixes it with sign +1
        # where sgn(s_0)^1 = -1 is needed, so no SL-invariant lives on it
        alphabet = Alphabet(2, [Letter("x", (0, 0)), Letter("x", (0, 1)),
                                Letter("x", (1, 1))])
        assert invariants._orbits(alphabet, [(1,)]) == []

    def test_fixed_with_sign(self):
        # x_01 in Lambda^2(Q^2), and y_0 y_1 with y exterior of weight e_i:
        # s_0 fixes each with sign -1, as weight (1, 1) needs
        alternating = Alphabet(2, [Letter("x", (0, 1), alternating=True)])
        assert invariants._orbits(alternating, [(0,)]) == [[(0, 1)]]
        exterior = Alphabet(2, [Letter("y", (0,), exterior=True),
                                Letter("y", (1,), exterior=True)])
        assert invariants._orbits(exterior, [(0, 1)]) == [[(0, 1)]]

    def test_short_words_from_the_highest_index(self):
        # u_i v^i in N (x) N^v at g = 4, letters listed from the highest
        # index down: the walk starts at u_3 v^3, which only s_2 moves,
        # and reaches u_0 v^0 through the words it meets on the way
        g = 4
        letters = ([Letter("u", (i,)) for i in reversed(range(g))]
                   + [Letter("v", (), (i,)) for i in reversed(range(g))])
        basis = [(k, g + k) for k in range(g)]
        assert invariants._orbits(Alphabet(g, letters), basis) == [
            [(k, 1) for k in range(g)]]


def _weight_space_dim(spec, mu):
    """m(mu): the number of words of T^{k,l}(Q^g) of weight mu, summed
    over the covariant index counts a as multinomial(k; a) *
    multinomial(l; a - mu)."""
    k, l, g = spec.k, spec.l, spec.g
    total = 0
    for a in itertools.product(range(k + 1), repeat=g):
        b = [x - y for x, y in zip(a, mu)]
        if sum(a) == k and min(b) >= 0:
            total += (math.factorial(k) // math.prod(map(math.factorial, a))
                      * math.factorial(l)
                      // math.prod(map(math.factorial, b)))
    return total


def _full_character_sum(spec, group):
    """The Brauer-Klimyk sum over all of S_g: Weyl's character formula
    read at the invariants, sgn(pi) times the weight-space dimension m at
    c + pi(i) - i, with no tableau and no partition."""
    k, l, g = spec.k, spec.l, spec.g
    c, rem = divmod(k - l, g)
    if rem or (group == "GL" and c):
        return 0
    total = 0
    for perm in itertools.permutations(range(g)):
        sign = -1 if sum(perm[a] > perm[b] for a, b in
                         itertools.combinations(range(g), 2)) % 2 else 1
        total += sign * _weight_space_dim(
            spec, [c + perm[i] - i for i in range(g)])
    return total


class TestCharacterDim:
    """The character count against the kernel count and against the
    Brauer-Klimyk sum, two independent counts."""

    @pytest.mark.parametrize("group", ["GL", "SL"])
    def test_matches_kernel_count(self, group):
        """Every T^{k,l}(Q^g) with g <= 4 and k, l <= 5; the caps admit
        them all."""
        for g in range(1, 5):
            for k in range(6):
                for l in range(6):
                    spec = TensorSpaceSpec(k, l, g)
                    assert character_dim(spec, group) == invariant_dim(
                        spec, group), spec

    @pytest.mark.parametrize("group", ["GL", "SL"])
    def test_matches_full_sum(self, group):
        for g in range(1, 5):
            for k in range(6):
                for l in range(6):
                    spec = TensorSpaceSpec(k, l, g)
                    assert character_dim(spec, group) == _full_character_sum(
                        spec, group), spec

    def test_long_partitions(self):
        """Both caps admit these, and the partitions of min(k, l) are
        walked with no frame per part: T^{2000,2000}(Q^1) sums over the
        one partition of 2 000 ones, and T^{1200,1200}(Q^2) over the 601
        with parts at most 2, to Catalan(1200)."""
        assert character_dim(TensorSpaceSpec(2000, 2000, 1), "GL") == 1
        assert character_dim(TensorSpaceSpec(1200, 1200, 2), "GL") == (
            math.comb(2400, 1200) // 1201)

    def test_values(self):
        """Spaces whose words the join could not list: T^{1,1}(Q^1000)
        and T^{8,8}(Q^100), where every permutation of 8 letters is
        independent, and T^{4,4}(Q^1000000), where 24 are."""
        for spec, want in [(TensorSpaceSpec(1, 1, 1000), 1),
                           (TensorSpaceSpec(8, 8, 100), 40320),
                           (TensorSpaceSpec(4, 4, 1000000), 24)]:
            assert character_dim(spec, "GL") == want, spec

    def test_many_slots_few_rows(self):
        """At g = 2 the sum runs over the 26 partitions of 50 with parts
        at most 2, not over all p(50) = 204 226: T^{50,50}(Q^2) has
        Catalan(50) = C(100, 50)/51 GL-invariants (the Temperley-Lieb
        dimension)."""
        want = 1978261657756160653623774456
        assert want == math.comb(100, 50) // 51
        assert character_dim(TensorSpaceSpec(50, 50, 2), "GL") == want

    def test_rejects_unknown_group(self):
        with pytest.raises(ValueError, match="unknown group"):
            character_dim(TensorSpaceSpec(1, 1, 2), "SO")


class TestInvariantDim:
    @pytest.mark.parametrize("group", ["GL", "SL"])
    def test_count_equals_basis_size(self, group):
        basis = gl_invariant_basis if group == "GL" else sl_invariant_basis
        for spec in SMALL_SPECS:
            assert invariant_dim(spec, group) == basis(spec).cols

    def test_one_alphabet_per_space(self, monkeypatch):
        """`_raising_system` builds the tensor alphabet once and weighs
        the words with it, and the space's SL path reads the same one.
        The kept alphabets are dropped before and after, so the space is
        built here and no counting alphabet outlives the test."""
        built = []

        class Counting(invariants.Alphabet):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        invariants._tensor_alphabet.cache_clear()
        monkeypatch.setattr(invariants, "Alphabet", Counting)
        try:
            assert invariant_dim(TensorSpaceSpec(2, 2, 2), "GL") == 2
            assert invariant_dim(TensorSpaceSpec(2, 2, 2), "SL") == 2
        finally:
            invariants._tensor_alphabet.cache_clear()
        assert len(built) == 1


def _partitions(m, largest=None):
    largest = m if largest is None else largest
    if m == 0:
        yield ()
        return
    for first in range(min(m, largest), 0, -1):
        for rest in _partitions(m - first, first):
            yield (first,) + rest


def _hook_length_count(lam):
    """f^lambda, the number of standard Young tableaux of shape lambda."""
    conj = [sum(1 for part in lam if part > j) for j in range(lam[0])] if lam else []
    hooks = 1
    for i, part in enumerate(lam):
        for j in range(part):
            hooks *= (part - j - 1) + (conj[j] - i - 1) + 1
    return math.factorial(sum(lam)) // hooks


class TestSchurWeylCount:
    """dim T^{m,m}(Q^g)^GL = sum over lambda |- m, l(lambda) <= g of
    (f^lambda)^2, with partitions and hook lengths of the tests' own.
    That sum is the formula of `character_dim` itself, so against it this
    checks only how the program codes it; the kernel, which counts with
    no formula, is held to it here, and `TestCharacterDim` holds the
    program's count to the kernel and to the Brauer-Klimyk sum."""

    @pytest.mark.parametrize("m,g", [(m, g) for m in range(1, 5)
                                     for g in range(1, 5)] + [(5, 2), (5, 3)])
    def test_invariant_dim(self, m, g):
        want = sum(_hook_length_count(lam) ** 2 for lam in _partitions(m)
                   if len(lam) <= g)
        assert gl_invariant_basis(TensorSpaceSpec(m, m, g)).cols == want

    def test_character_dim(self):
        """The character count where no kernel is eliminated: up to
        (8, 2), (7, 3) and (6, 4)."""
        for m in range(1, 9):
            for g in range(1, 5):
                want = sum(_hook_length_count(lam) ** 2
                           for lam in _partitions(m) if len(lam) <= g)
                assert character_dim(TensorSpaceSpec(m, m, g), "GL") == want

    def test_hook_lengths(self):
        assert [_hook_length_count(lam) for lam in _partitions(4)] == \
            [1, 3, 2, 3, 1]
