"""Each acceptance criterion fails under a plausible bug in a routine it
checks: a criterion that passes when the program is wrong is no evidence.
Each mutant is monkeypatched in for one test, and the FAIL detail must
be the one text of `partitions.check_agree` that names the failing case.
"""

from functools import lru_cache

import pytest

from tautrings import acceptance, invariants, model, partitions, rings
from tautrings.graded import GeneratorSet, fgca_dims
from tautrings.linalg import rank_of_int_rows
from tautrings.model import E2Model, ModelParams, OracleMismatch, minimal_M
from tautrings.rings import BlockDiffCohomology

from oracles import triplewise_lr_symmetries


def sigma_column_dropped(monkeypatch):
    real = invariants._sigma_columns
    monkeypatch.setattr(invariants, "_sigma_columns",
                        lambda m, g: real(m, g)[:-1])


def sl_empty_off_balance(monkeypatch):
    """SL, like GL, finds no invariant when k != l."""
    real = invariants._raising_system

    def raising_system(spec, group):
        if group == "SL" and spec.k != spec.l:
            return [], [], []
        return real(spec, group)

    monkeypatch.setattr(invariants, "_raising_system", raising_system)


def count_without_row_bound(monkeypatch):
    """The character count sums over every partition of min(k, l), not
    only over those with at most g rows (parts at most g, conjugated)."""
    real = invariants._partitions_desc
    monkeypatch.setattr(invariants, "_partitions_desc",
                        lambda n, maxpart: real(n, n))


def schur_dim_of_conjugate(monkeypatch):
    real = acceptance.schur_dim
    monkeypatch.setattr(acceptance, "schur_dim",
                        lambda lam, g: real(lam.conjugate(), g))
    # uncached, so that no answer of the mutant outlives the test
    monkeypatch.setattr(acceptance, "_square_identities",
                        acceptance._square_identities.__wrapped__)


def strip_without_lattice_rule(monkeypatch):
    """Every strip is added as if for the first letter, so the expansion
    counts all semistandard skew fillings, lattice word or not."""
    real = partitions._add_strip
    monkeypatch.setattr(partitions, "_add_strip",
                        lambda shape, prev, m: real(shape, None, m))
    # a cache of its own, so that no answer of the mutant outlives the
    # test and no cached true answer hides it
    monkeypatch.setattr(partitions, "_lr_count_cached", lru_cache(
        maxsize=None)(partitions._lr_count_cached.__wrapped__))


def gl_weight_not_zero(monkeypatch):
    def ac_weight(g, p, q, r, group):
        c, rem = divmod(2 * p + q - r, g)
        return None if rem else c

    monkeypatch.setattr(model, "_ac_weight", ac_weight)


def kernel_cokernel_swapped(monkeypatch):
    real = acceptance.kernel_cokernel_dims
    monkeypatch.setattr(acceptance, "kernel_cokernel_dims",
                        lambda k, c, maxdeg: real(c, k, maxdeg))


def first_pair_dropped(monkeypatch):
    """The last pair lies past every degree criterion 6 checks, so it is
    the first that goes."""
    real = model.k_pair_generators
    monkeypatch.setattr(model, "k_pair_generators",
                        lambda n, M: real(n, M)[1:])


def x_sign_dropped(monkeypatch):
    """x_{ji} = x_{ij} in d2 at odd n, where it is -x_{ij}."""
    real = model._sorted_sign

    def sorted_sign(idx, alternating):
        x = real(idx, alternating)
        return None if x is None else (1, x[1])

    monkeypatch.setattr(model, "_sorted_sign", sorted_sign)


def one_term_negated(monkeypatch):
    """The x_{0,1} lb_{1,2} term of d2(la_{0,2}) at n = 5 changes sign."""
    real = model.E2Model._differential

    def differential(self):
        diff = real(self)
        if self.n == 5:
            index = self.gens.index
            mono = tuple(sorted((index["x_0_1"], index["lb_1_2"])))
            diff["la_0_2"][mono] = -diff["la_0_2"][mono]
        return diff

    monkeypatch.setattr(model.E2Model, "_differential", differential)


def la0_sign_flipped(monkeypatch):
    real = model.E2Model._differential

    def differential(self):
        diff = real(self)
        for name, val in diff.items():
            if name.startswith("la_0_"):
                diff[name] = {mono: -c for mono, c in val.items()}
        return diff

    monkeypatch.setattr(model.E2Model, "_differential", differential)


def _top_generator_dropped(monkeypatch, stages):
    """blockdiff_cohomology loses its top generator at n >= 10 in the
    given stages (tangential or not) and recounts its dims to match."""
    real = acceptance.blockdiff_cohomology

    def blockdiff(n, maxdeg=None, tangential=False):
        res = real(n, maxdeg, tangential)
        if n < 10 or tangential not in stages:
            return res
        gens = res.generators[:-1]
        return BlockDiffCohomology(
            n=n, maxdeg=res.maxdeg, tangential=tangential, generators=gens,
            dims=tuple(fgca_dims(GeneratorSet(gens), res.maxdeg)))

    monkeypatch.setattr(acceptance, "blockdiff_cohomology", blockdiff)


def top_generator_dropped(monkeypatch):
    _top_generator_dropped(monkeypatch, (False, True))


def top_tangential_generator_dropped(monkeypatch):
    _top_generator_dropped(monkeypatch, (True,))


def mt_index_late(monkeypatch):
    def mt_generators(n, maxdeg):
        shift = 2 * n + 1
        lo = -(-(n + 1) // 4) + 1
        return [(c, 4 * sum(c) - shift)
                for c in rings._multisets_in_degree(lo, n, shift, maxdeg)]

    monkeypatch.setattr(rings, "mt_generators", mt_generators)


# (criterion, mutant, the FAIL detail, which names the first failing case)
MUTANTS = [
    (1, sigma_column_dropped, "permutation tensors span the invariants at "
     "m=1, g=1: computed False != first theorem True"),
    (2, sl_empty_off_balance,
     "SL-invariants at k=0, l=1, g=1: kernel 0 != character 1"),
    (2, count_without_row_bound,
     "GL-invariants at k=2, l=2, g=1: kernel 1 != character 2"),
    (3, schur_dim_of_conjugate, "Cauchy identity S^p(S^2 V) at dims (1,1), "
     "degree 1: binomial 1 != Schur sum 0"),
    (3, strip_without_lattice_rule, "LR coefficient at (),(2),(1,1): "
     "lam*mu 0 != mu*lam 0 != (lam'*mu')' 1"),
    (4, gl_weight_not_zero, "trigraded invariants off r = 2p+q at A, g=1, "
     "W=1, U=1, (p,q)=(0,0), r=1: brute 1 != zero 0"),
    (5, kernel_cokernel_swapped, "Koszul cohomology at a 3x2 map of rank 2, "
     "trial 0: complex [1, 0, 1, 0, 1, 0, 1, 0, 1] != kernel/cokernel model "
     "[1, 1, 0, 0, 0, 0, 0, 0, 0]"),
    (6, first_pair_dropped, "zero column at n=6, M=4: D-model [1, 0, 0, 2] "
     "!= exterior algebra on K [1, 0, 0, 1]"),
    (7, la0_sign_flipped, "d2 commuting with E_01 at la_1_2, n=5, g=3: "
     "d2 E - E d2 [(2, 'lb_1_2*x_0_1'), (2, 'lb_2_2*x_0_2')] != zero []"),
    (7, x_sign_dropped, "d2 commuting with E_01 at la_1_2, n=5, g=3: "
     "d2 E - E d2 [(2, 'lb_1_2*x_0_1')] != zero []"),
    (7, one_term_negated, "d2 commuting with E_01 at la_1_2, n=5, g=3: "
     "d2 E - E d2 [(2, 'lb_1_2*x_0_1')] != zero []"),
    (8, top_generator_dropped, "block stage dims at n=10: computed "
     "[1, 0, 0, 1, 0, 0, 0] != diff ring (x) Lambda(beta) "
     "[1, 0, 0, 1, 0, 1, 0]"),
    (8, top_tangential_generator_dropped, "tangential stage dims at n=10: "
     "computed [1, 0, 0, 2, 0, 1, 1, 1] != e3 zero column (x) Lambda(beta) "
     "[1, 0, 0, 2, 0, 1, 1, 2]"),
    (9, mt_index_late, "Thom-spectrum H^1 at n=7: computed 1 != "
     "by n mod 4 2"),
]


@pytest.mark.parametrize("number,mutate,detail", MUTANTS,
                         ids=[f"c{n}-{m.__name__}" for n, m, _ in MUTANTS])
def test_criterion_fails_under_mutant(monkeypatch, number, mutate, detail):
    mutate(monkeypatch)
    result = acceptance.ALL_CRITERIA[number - 1]()
    assert not result.passed
    assert result.detail == detail


def verdict(check, *args):
    """A check's return value, or the message of its OracleMismatch."""
    try:
        return check(*args)
    except OracleMismatch as exc:
        return f"FAIL: {exc}"


@pytest.mark.parametrize("mutate", [None, strip_without_lattice_rule],
                         ids=["real", "mutant"])
def test_lr_leg_matches_triplewise(monkeypatch, mutate):
    """Criterion 3's LR leg, on whole expansions, gives the triple-wise
    loop's count or its failure message at every size up to 8."""
    if mutate:
        mutate(monkeypatch)
    verdicts = [verdict(acceptance.lr_symmetries, size) for size in range(9)]
    assert verdicts == [verdict(triplewise_lr_symmetries, size)
                        for size in range(9)]
    assert verdicts[8] == (6830 if mutate is None else
                           "FAIL: LR coefficient at (),(2),(1,1): lam*mu 0 "
                           "!= mu*lam 0 != (lam'*mu')' 1")


def test_lr_coefficient_leg_catches_lattice_mutant(monkeypatch):
    """lr_coefficient checks the whole expansion it reads against the
    dimension of the induced representation, which counts the fillings
    that break the lattice rule: (1,1) on the empty shape gives (2) and
    (1,1), f 1 each, where C(2, 0) f^() f^(1,1) = 1."""
    strip_without_lattice_rule(monkeypatch)
    with pytest.raises(OracleMismatch) as info:
        P = partitions.Partition
        partitions.lr_coefficient(P(), P([1, 1]), P([1, 1]))
    assert str(info.value) == ("LR expansion dimension at lam=(), "
                               "mu=(1,1): sum c f 2 != induced 1")


# The second page's cells are ranked from one stack per cell,
# `E2Model._stack`: R, the E_01 rows on the orbit sums, and D, their d2
# images.  Criterion 7 cannot see a mutant of either part: at its cases,
# and through n = 9 at g = n - 2, d2 has rank 0 on every cell's
# invariants, and R has rank 0 through n = 13.  So each mutant is run at
# the least n where its part counts, and the ranks there are pinned.

def _stack_mutant(monkeypatch, change):
    real = E2Model._stack
    monkeypatch.setattr(E2Model, "_stack",
                        lambda self, p, q: change(*real(self, p, q)))


def d2_images_dropped(monkeypatch):
    _stack_mutant(monkeypatch, lambda cols, R, D: (cols, R, []))


def d2_sign_flipped(monkeypatch):
    """The first entry of a cell's first row of D changes sign."""
    def change(cols, R, D):
        if D:
            (c, x), *rest = D[0].items()
            D[0] = {c: -x, **dict(rest)}
        return cols, R, D

    _stack_mutant(monkeypatch, change)


def e01_rows_dropped(monkeypatch):
    _stack_mutant(monkeypatch, lambda cols, R, D: (cols, [], D))


# (n, mutant, the mismatch), each at g = n - 2 through maxdeg n - 3
STACK_MUTANTS = [
    (10, d2_images_dropped, "third-page dim at bidegree (0,7), n=10, g=8: "
     "second-page oracle 3 != D-model 2"),
    (10, d2_sign_flipped, "third-page dim at bidegree (0,7), n=10, g=8: "
     "second-page oracle 1 != D-model 2"),
    (14, e01_rows_dropped, "third-page dim at bidegree (2,6), n=14, g=12: "
     "second-page oracle 1 != D-model 0"),
]


def _page(n):
    return ModelParams(n=n, g=n - 2, M=minimal_M(n), maxdeg=n - 3)


@pytest.mark.parametrize("n,mutate,detail", STACK_MUTANTS,
                         ids=[m.__name__ for _, m, _ in STACK_MUTANTS])
def test_second_page_fails_under_stack_mutant(monkeypatch, n, mutate,
                                              detail):
    mutate(monkeypatch)
    with pytest.raises(OracleMismatch) as info:
        model.e2_oracle_check(_page(n))
    assert str(info.value) == detail


def stack_ranks(n):
    """{cell: (orbit sums, rank R, rank [R; D])} over the cells of the
    page `_page(n)` whose rank R or rank of d2 on the invariants is not
    0."""
    params = _page(n)
    e2 = E2Model(n, params.g, params.M, params.maxdeg + 1)
    out = {}
    for total in range(params.maxdeg + 1):
        for p in range(total + 1):
            cols, R, D = e2._stack(p, total - p)
            ranks = cols, rank_of_int_rows(R), rank_of_int_rows(R + D)
            if ranks[2]:
                out[p, total - p] = ranks
    return out


def test_stack_ranks_where_the_mutants_count():
    """d2 first has nonzero rank on a cell's invariants at n = 10, in
    cell (0, 7): 3 invariants, rank 1.  R first has nonzero rank at
    n = 14."""
    assert all(stack_ranks(n) == {} for n in (5, 6, 7, 8, 9))
    assert stack_ranks(10) == {(0, 7): (3, 0, 1)}
    assert all(r == 0 for n in (11, 12, 13)
               for _, r, _ in stack_ranks(n).values())
    assert {cell: r for cell, (_, r, _) in stack_ranks(14).items()
            if r} == {(2, 6): 1, (0, 10): 1, (2, 9): 3}
