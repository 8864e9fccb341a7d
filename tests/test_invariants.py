import itertools
import math

import pytest

from tautrings.invariants import (
    TensorSpaceSpec,
    _action_rows,
    _weight_words,
    _word_index,
    gl_invariant_basis,
    sigma_matrix,
    sl_invariant_basis,
    verify_fundamental_theorems,
)
from tautrings.linalg import rank_of_int_rows, subspace_equal
from tautrings.partitions import Partition, schur_product_expand


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
            TensorSpaceSpec(10, 10, 4).check_guard()


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
        col = basis.column(0)
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
        col = basis.column(0)
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


class TestSigma:
    def test_single_column_identity(self):
        s = sigma_matrix(1, 3)
        assert s.cols == 1
        assert s.column(0) == {0: 1, 4: 1, 8: 1}

    def test_rank_2_2(self):
        assert sigma_matrix(2, 2).rank() == 2

    def test_rank_2_1(self):
        assert sigma_matrix(2, 1).rank() == 1

    def test_guard(self):
        with pytest.raises(ValueError):
            sigma_matrix(7, 1)

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
        """Direct enumeration = all g^(k+l) words filtered by weight."""
        for spec in SMALL_SPECS:
            k, g = spec.k, spec.g
            by_weight = {}
            for word in itertools.product(range(g), repeat=k + spec.l):
                by_weight.setdefault(_weight(word, k, g), []).append(word)
            for wt, words in by_weight.items():
                assert _weight_words(spec, wt) == words
            for wt in [(0,) * g, (1,) * g, (-1,) * g, (spec.k + 1,) + (0,) * (g - 1)]:
                assert _weight_words(spec, wt) == by_weight.get(wt, [])


class TestRaisingOperators:
    """The simple raising operators cut out the same kernel as all E_rs."""

    @pytest.mark.parametrize("group", ["GL", "SL"])
    def test_kernel_equals_all_pairs_kernel(self, group):
        for spec in SMALL_SPECS:
            k, l, g = spec.k, spec.l, spec.g
            if group == "GL":
                basis = gl_invariant_basis(spec)
                target = (0,) * g
            else:
                basis = sl_invariant_basis(spec)
                if (k - l) % g:
                    assert basis.cols == 0
                    continue
                target = ((k - l) // g,) * g
            words = _weight_words(spec, target)
            all_pairs = [(r, s) for r in range(g) for s in range(g) if r != s]
            rows = _action_rows(spec, words, all_pairs)
            assert basis.cols == len(words) - rank_of_int_rows(rows)
            position = {_word_index(w, g): j for j, w in enumerate(words)}
            columns = [{} for _ in range(basis.cols)]
            for (i, c), v in basis.entries.items():
                columns[c][position[i]] = v
            for col in columns:
                for row in rows:
                    assert sum(a * col.get(j, 0) for j, a in row.items()) == 0


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
    (f^lambda)^2, independently of the kernel and of sigma_matrix."""

    @pytest.mark.parametrize("m,g", [(m, g) for m in range(1, 5)
                                     for g in range(1, 5)] + [(5, 2)])
    def test_invariant_dim(self, m, g):
        want = sum(_hook_length_count(lam) ** 2 for lam in _partitions(m)
                   if len(lam) <= g)
        assert gl_invariant_basis(TensorSpaceSpec(m, m, g)).cols == want

    def test_hook_lengths(self):
        assert [_hook_length_count(lam) for lam in _partitions(4)] == \
            [1, 3, 2, 3, 1]
