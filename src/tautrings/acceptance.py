"""The full acceptance suite: nine exact cross-checks between independent
computations, run by both `verify-all` and the test suite.

A failed check has one form: it raises OracleMismatch at its first
failure, through `partitions.check_agree`, naming the quantity, the
failing case and the values of its legs.  `criterion` turns a check into a
criterion and is the one place a CriterionResult is built.  Four checks
are shared with the CLI: `fundamental_theorems` (criterion 1, `fft-check`),
`invariant_count` (criterion 2, `invariants`), `cauchy_sweep` (criterion 3,
`cauchy-check`) and `koszul_check` (criterion 5, `koszul`).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable

from .graded import (
    GeneratorSet,
    fgca_dims,
    kernel_cokernel_dims,
    koszul_cohomology_dims,
)
from .invariants import (
    FundamentalTheoremReport,
    TensorSpaceSpec,
    character_dim,
    invariant_dim,
    verify_fundamental_theorems,
)
from .linalg import rank_of_int_rows
from .model import (
    ACAlgebraSpec,
    ModelParams,
    ac_invariant_dims_bruteforce,
    ac_invariant_dims_formula,
    borel_generators,
    e2_oracle_check,
    e3_zero_column,
    gh_target_dims,
    minimal_M,
)
from .partitions import (CapExceeded, OracleMismatch, check_agree,
                         enumerate_partitions, lr_expansion, mismatch_case,
                         schur_dim)
from .rings import blockdiff_cohomology, diff_cohomology, mt_cohomology


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion {self.number} ({self.name}): {self.detail}"


def criterion(number: int, name: str):
    """Make a check, which returns its PASS detail or raises
    OracleMismatch, a criterion that returns a CriterionResult."""
    def make(check: Callable[[], str]) -> Callable[[], CriterionResult]:
        @functools.wraps(check)
        def run() -> CriterionResult:
            try:
                return CriterionResult(number, name, True, check())
            except OracleMismatch as exc:
                return CriterionResult(number, name, False, str(exc))
        return run
    return make


def fundamental_theorems(m: int, g: int) -> FundamentalTheoremReport:
    """The permutation tensors span the GL-invariants of T^{m,m}(Q^g),
    and are independent iff m <= g."""
    rep = verify_fundamental_theorems(m, g)
    case = f"m={m}, g={g}"
    check_agree("permutation tensors span the invariants", case,
                ("computed", rep.surjective), ("first theorem", True))
    check_agree("permutation tensors independent", case,
                (f"rank {rep.rank} = m!", rep.injective), ("m <= g", m <= g))
    return rep


def invariant_count(spec: TensorSpaceSpec, group: str) -> int:
    """The GL- or SL-invariants of spec counted by the kernel, checked
    against the character count.  The kernel runs first, so its refusals
    come first.  The one kind of space the kernel admits and the character
    count refuses, T^{k,l}(Q^1) with max(k, l) past SCHUR_CELL_CAP, gets
    the kernel count alone."""
    kernel = invariant_dim(spec, group)
    try:
        character = character_dim(spec, group)
    except CapExceeded:
        return kernel
    check_agree(f"{group}-invariants", f"k={spec.k}, l={spec.l}, g={spec.g}",
                ("kernel", kernel), ("character", character))
    return kernel


@criterion(1, "fundamental theorems")
def criterion_1() -> str:
    """Permutation tensors span the GL-invariants; independent iff m <= g."""
    pairs = [(m, g) for m in range(1, 5) for g in range(1, 5)]
    for m, g in pairs:
        fundamental_theorems(m, g)
    return f"{len(pairs)} (m,g) pairs, m,g <= 4"


@criterion(2, "weight vanishing")
def criterion_2() -> str:
    """Weight vanishing for GL/SL invariants of mixed tensor powers: the
    kernel count, which reads the weights of the words, equals the
    character count, which vanishes unless g divides k - l and, for GL,
    k = l.  At k = l the two groups' character counts are one sum, so
    the SL-invariants, which contain the GL-invariants, equal them."""
    checked = 0
    for g in range(1, 4):
        for k in range(0, 6):
            for l in range(0, 6 - k):
                for group in ("GL", "SL"):
                    invariant_count(TensorSpaceSpec(k, l, g), group)
                checked += 1
    return f"{checked} spaces with k+l <= 5, g <= 3"


@criterion(3, "LR combinatorics")
def criterion_3() -> str:
    """LR symmetries up to size 8 and the four Cauchy dimension identities."""
    checked = lr_symmetries(8)
    cauchy_sweep(3, 3, 6)
    return (f"{checked} LR triples and Cauchy identities "
            f"to dims 3, degree 6")


def lr_symmetries(max_size: int) -> int:
    """c^kappa_{lam mu} = c^kappa_{mu lam} = c^kappa'_{lam' mu'} for every
    triple with |kappa| = |lam| + |mu| <= max_size, checked on whole
    expansions, one (lam, mu) pair at a time, read at each kappa in
    enumerate_partitions order; returns the number of triples."""
    checked = 0
    by_size = [enumerate_partitions(s) for s in range(max_size + 1)]
    names = {p: str(p) for ps in by_size for p in ps}
    for s, kappas in enumerate(by_size):
        # each kappa's parts, its conjugate's and its name
        reads = [(k.parts, k.conjugate().parts, names[k]) for k in kappas]
        for a in range(s + 1):
            for lam, mu in itertools.product(by_size[a], by_size[s - a]):
                e = lr_expansion(lam, mu)
                swapped = lr_expansion(mu, lam)
                dual = lr_expansion(lam.conjugate(), mu.conjugate())
                pair = f"{names[lam]},{names[mu]},"
                for kappa, conj, name in reads:
                    # a kappa in no expansion reads 0 three times
                    if kappa in e or kappa in swapped or conj in dual:
                        check_agree("LR coefficient", pair + name,
                                    ("lam*mu", e.get(kappa, 0)),
                                    ("mu*lam", swapped.get(kappa, 0)),
                                    ("(lam'*mu')'", dual.get(conj, 0)))
                checked += len(kappas)
    return checked


def cauchy_sweep(max_v: int, max_w: int, maxdeg: int) -> None:
    """The four Cauchy dimension identities at every dims (dimV, dimW) <=
    (max_v, max_w) and degree <= maxdeg."""
    for dv, dw, d in itertools.product(
            range(1, max_v + 1), range(1, max_w + 1), range(maxdeg + 1)):
        cauchy_identities(dv, dw, d)


def cauchy_identities(dimV: int, dimW: int, degree: int) -> None:
    """The four Cauchy dimension identities at one (dims, degree), each
    a binomial count against a sum of Schur dimensions."""
    q = degree
    parts = enumerate_partitions(q)
    case = f"dims ({dimV},{dimW}), degree {degree}"
    for which, binomial, schur in (
            ("S^q(V(x)W)", math.comb(dimV * dimW + q - 1, q),
             sum(schur_dim(lam, dimV) * schur_dim(lam, dimW)
                 for lam in parts)),
            ("Lambda^r(V(x)W)", math.comb(dimV * dimW, q),
             sum(schur_dim(lam, dimV) * schur_dim(lam.conjugate(), dimW)
                 for lam in parts)),
            *_square_identities(dimV, q)):
        check_agree(f"Cauchy identity {which}", case, ("binomial", binomial),
                    ("Schur sum", schur))


@functools.lru_cache(maxsize=None)
def _square_identities(dimV: int, q: int) -> tuple:
    """The Cauchy identities for S^p(S^2 V) and S^p(Lambda^2 V), which do
    not involve W, once per (dimV, degree): (name, binomial, Schur sum)."""
    dsym, dext = dimV * (dimV + 1) // 2, dimV * (dimV - 1) // 2
    return (
        ("S^p(S^2 V)", math.comb(dsym + q - 1, q),
         sum(schur_dim(lam, dimV)
             for lam in enumerate_partitions(2 * q, "even_rows"))),
        # Lambda^2 V = 0 when dimV = 1, and its S^p is Q or 0
        ("S^p(Lambda^2 V)",
         math.comb(dext + q - 1, q) if dext else int(q == 0),
         sum(schur_dim(lam, dimV)
             for lam in enumerate_partitions(2 * q, "even_cols"))))


@criterion(4, "trigraded invariants")
def criterion_4() -> str:
    """Invariant dims of the trigraded algebras: brute force = LR formula
    = stable value in range, and vanish off r = 2p+q."""
    checked = 0
    for variant, g, dimW, dimU in itertools.product(
            "AC", range(1, 4), (1, 2), (1, 2)):
        spec = ACAlgebraSpec(variant, g, dimW, dimU)
        for p in range(0, 3):
            for q in range(0, 5 - 2 * p):
                case = f"{variant}, g={g}, W={dimW}, U={dimU}, (p,q)=({p},{q})"
                r = 2 * p + q
                brute = ("brute", ac_invariant_dims_bruteforce(spec, p, q, r))
                check_agree("trigraded invariants", case, brute, (
                    "formula", ac_invariant_dims_formula(spec, p, q)))
                if r <= g:
                    check_agree("trigraded invariants", case, brute, (
                        "stable", gh_target_dims(dimW, dimU, p, q)))
                for r2 in range(0, r + 3):
                    if r2 != r:
                        check_agree("trigraded invariants off r = 2p+q",
                                    f"{case}, r={r2}", ("brute",
                                    ac_invariant_dims_bruteforce(
                                        spec, p, q, r2)), ("zero", 0))
                checked += 1
    return f"{checked} cells, both variants, g <= 3"


def koszul_check(rows: list[dict[int, int]], ncols: int,
                 maxdeg: int) -> tuple[list[int], int]:
    """Koszul cohomology through maxdeg of the map with these int rows
    against exterior(kernel) (x) symmetric(cokernel); returns the agreed
    dims and the rank of the map."""
    dims = koszul_cohomology_dims(rows, ncols, maxdeg)
    rank = rank_of_int_rows(rows)
    check_agree("Koszul cohomology", f"a {len(rows)}x{ncols} map of rank "
                f"{rank}", ("complex", dims), ("kernel/cokernel model",
                kernel_cokernel_dims(ncols - rank, len(rows) - rank, maxdeg)))
    return dims, rank


@criterion(5, "Koszul cohomology")
def criterion_5() -> str:
    """Koszul complex cohomology = exterior(kernel) (x) symmetric(cokernel)."""
    rng = random.Random(57721)
    for trial in range(50):
        nrows, ncols = rng.randint(0, 5), rng.randint(0, 5)
        rows = [{j: v for j in range(ncols) if (v := rng.randint(-3, 3))}
                for _ in range(nrows)]
        with mismatch_case(f"trial {trial}"):
            koszul_check(rows, ncols, 8)
    return "50 random maps, dims <= 5, degrees <= 8"


@criterion(6, "D-model zero column")
def criterion_6() -> str:
    """D-model cohomology concentrates in the zero column and equals the
    exterior algebra on K, for n = 5..12 at minimal M."""
    for n in range(5, 13):
        e3_zero_column(ModelParams(n=n, g=n - 2, M=minimal_M(n), maxdeg=n - 3))
    return "n = 5..12, minimal M, degrees <= n-3"


@criterion(7, "second-page oracle")
def criterion_7() -> str:
    """Explicit second-page oracle equals the D-model cellwise.

    Blind spot: at these cases R and d2 have rank 0 on every cell's
    invariants (`E2Model._stack`), so this criterion, and verify-all,
    pass with a broken R or D.  `tests/test_criteria_teeth.py` catches
    both, D at n = 10 and R at n = 14.  The cases are the contract and
    stay: (10, 8) alone takes about 10 ms, three times this criterion."""
    cases = [(5, 3), (5, 4), (6, 4)]
    for n, g in cases:
        e2_oracle_check(ModelParams(n=n, g=g, M=minimal_M(n), maxdeg=n - 3))
    return f"cases {cases}, all bidegrees <= n-3"


def _stage_check(stage: str, res, source: str, dims) -> None:
    """A block-diffeomorphism stage's dims against those of a computed
    source tensored with Lambda(beta_{4k+1}), through the stage's maxdeg."""
    top = res.maxdeg
    beta = fgca_dims(GeneratorSet(borel_generators(top)), top)
    want = [sum(dims[i] * beta[d - i] for i in range(d + 1))
            for d in range(top + 1)]
    check_agree(f"{stage} stage dims", f"n={res.n}", ("computed", list(
        res.dims)), (f"{source} (x) Lambda(beta)", want))


@criterion(8, "final rings")
def criterion_8() -> str:
    """Final rings: three presentations agree, H^1 = 0; the block stage is
    the diff ring (x) Lambda(beta) and the tangential stage the e3 zero
    column (x) Lambda(beta); spot values at n = 9."""
    for n in range(4, 14):
        dims = diff_cohomology(n, max(1, n - 3)).dims
        check_agree("diff ring H^1", f"n={n}", ("computed", dims[1]),
                    ("zero", 0))
        if n >= 5:
            _stage_check("block", blockdiff_cohomology(n, n - 4),
                         "diff ring", dims)
            column = e3_zero_column(
                ModelParams(n=n, g=n - 2, M=minimal_M(n), maxdeg=n - 3))
            _stage_check("tangential",
                         blockdiff_cohomology(n, n - 3, tangential=True),
                         "e3 zero column", column)
    check_agree("diff ring dims", "n=9", ("computed", list(
        diff_cohomology(9, 5).dims)), ("spot value", [1, 0, 0, 0, 0, 1]))
    check_agree("block stage dims", "n=9", ("computed", list(
        blockdiff_cohomology(9, 5).dims)), ("spot value", [1, 0, 0, 0, 0, 2]))
    return "n = 4..13 triple agreement, spot values, H^1 = 0"


@criterion(9, "Thom-spectrum H^1")
def criterion_9() -> str:
    """H^1 of the Thom-spectrum ring by residue of n mod 4."""
    for n in range(5, 14):
        check_agree("Thom-spectrum H^1", f"n={n}", (
            "computed", mt_cohomology(n, 1).dims[1]), (
            "by n mod 4", 0 if n % 2 == 0 else 1 if n % 4 == 1 else 2))
    return "n = 5..13"


ALL_CRITERIA: list[Callable[[], CriterionResult]] = [
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9,
]


def run_all() -> list[CriterionResult]:
    """Every criterion's result, in order."""
    return [crit() for crit in ALL_CRITERIA]
