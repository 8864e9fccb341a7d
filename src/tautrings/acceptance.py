"""The full acceptance suite: nine exact cross-checks between independent
computations, run by both `verify-all` and the test suite.

A failed check has one form: it raises OracleMismatch at its first
failure, naming the failing case.  `criterion` turns a check into a
criterion and is the one place a CriterionResult is built.  Three checks
are shared with the CLI: `fundamental_theorems` (criterion 1, `fft-check`),
`cauchy_sweep` (criterion 3, `cauchy-check`) and `koszul_check`
(criterion 5, `koszul`).
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
from .linalg import QMatrix, random_matrix
from .model import (
    ACAlgebraSpec,
    ModelParams,
    ac_invariant_dims_bruteforce,
    ac_invariant_dims_formula,
    OracleMismatch,
    borel_generators,
    e2_oracle_check,
    e3_zero_column,
    gh_target_dims,
    minimal_M,
)
from .partitions import enumerate_partitions, lr_expansion, schur_dim
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
    if not rep.surjective:
        raise OracleMismatch(
            f"permutation tensors fail to span the invariants at "
            f"m={m}, g={g}")
    if rep.injective != (m <= g):
        raise OracleMismatch(
            f"permutation tensors {'are' if rep.injective else 'are not'} "
            f"independent (rank {rep.rank}) at m={m}, g={g}")
    return rep


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
                spec = TensorSpaceSpec(k, l, g)
                for group in ("GL", "SL"):
                    dim = invariant_dim(spec, group)
                    want = character_dim(spec, group)
                    if dim != want:
                        raise OracleMismatch(
                            f"{group}-invariants: kernel {dim} != character "
                            f"{want} at k={k}, l={l}, g={g}")
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
    expansions, one (lam, mu) pair at a time; returns the number of
    triples.  At the first pair that fails, names the first kappa, in
    enumerate_partitions order, at which either identity fails."""
    checked = 0
    by_size = [enumerate_partitions(s) for s in range(max_size + 1)]
    for s, kappas in enumerate(by_size):
        conj = {k.parts: k.conjugate().parts for k in kappas}
        for a in range(s + 1):
            for lam, mu in itertools.product(by_size[a], by_size[s - a]):
                e = lr_expansion(lam, mu)
                swapped = lr_expansion(mu, lam)
                dual = lr_expansion(lam.conjugate(), mu.conjugate())
                if e != swapped or e != {conj[k]: c for k, c in dual.items()}:
                    _first_lr_failure(lam, mu, kappas, e, swapped, dual)
                checked += len(kappas)
    return checked


def _first_lr_failure(lam, mu, kappas, e, swapped, dual) -> None:
    """Raise at the first kappa where lam * mu differs from mu * lam or
    from the conjugate of lam' * mu'."""
    for kappa in kappas:
        c = e.get(kappa.parts, 0)
        if c != swapped.get(kappa.parts, 0):
            raise OracleMismatch(f"symmetry fails at {lam},{mu},{kappa}")
        if c != dual.get(kappa.conjugate().parts, 0):
            raise OracleMismatch(f"conjugation fails at {lam},{mu},{kappa}")


def cauchy_sweep(max_v: int, max_w: int, maxdeg: int) -> None:
    """The four Cauchy dimension identities at every dims (dimV, dimW) <=
    (max_v, max_w) and degree <= maxdeg."""
    for dv, dw, d in itertools.product(
            range(1, max_v + 1), range(1, max_w + 1), range(maxdeg + 1)):
        cauchy_identities(dv, dw, d)


def cauchy_identities(dimV: int, dimW: int, degree: int) -> None:
    """The four Cauchy dimension identities at one (dims, degree)."""
    q = degree
    parts = enumerate_partitions(q)
    if math.comb(dimV * dimW + q - 1, q) != sum(
            schur_dim(lam, dimV) * schur_dim(lam, dimW) for lam in parts):
        which = "S^q(V(x)W)"
    elif math.comb(dimV * dimW, q) != sum(
            schur_dim(lam, dimV) * schur_dim(lam.conjugate(), dimW)
            for lam in parts):
        which = "Lambda^r(V(x)W)"
    else:
        which = _square_identities(dimV, q)
    if which:
        raise OracleMismatch(f"Cauchy identity {which} fails at dims "
                             f"({dimV},{dimW}), degree {degree}")


@functools.lru_cache(maxsize=None)
def _square_identities(dimV: int, q: int) -> str:
    """The Cauchy identities for S^p(S^2 V) and S^p(Lambda^2 V), which do
    not involve W, once per (dimV, degree): the first that fails, or ""."""
    dsym, dext = dimV * (dimV + 1) // 2, dimV * (dimV - 1) // 2
    if math.comb(dsym + q - 1, q) != sum(
            schur_dim(lam, dimV)
            for lam in enumerate_partitions(2 * q, "even_rows")):
        return "S^p(S^2 V)"
    # Lambda^2 V = 0 when dimV = 1, and its S^p is Q or 0
    if (math.comb(dext + q - 1, q) if dext else int(q == 0)) != sum(
            schur_dim(lam, dimV)
            for lam in enumerate_partitions(2 * q, "even_cols")):
        return "S^p(Lambda^2 V)"
    return ""


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
                brute = ac_invariant_dims_bruteforce(spec, p, q, r)
                formula = ac_invariant_dims_formula(spec, p, q)
                if brute != formula:
                    raise OracleMismatch(
                        f"brute {brute} != formula {formula} at {case}")
                if r <= g:
                    stable = gh_target_dims(dimW, dimU, p, q)
                    if brute != stable:
                        raise OracleMismatch(
                            f"brute {brute} != stable {stable} at {case}")
                for r2 in range(0, r + 3):
                    if r2 != r and ac_invariant_dims_bruteforce(
                            spec, p, q, r2):
                        raise OracleMismatch(
                            f"nonzero invariants at r={r2} != 2p+q for "
                            f"{case}")
                checked += 1
    return f"{checked} cells, both variants, g <= 3"


def koszul_check(F: QMatrix, maxdeg: int) -> tuple[list[int], int]:
    """Koszul cohomology of F through maxdeg against exterior(kernel) (x)
    symmetric(cokernel); returns the agreed dims and the rank of F."""
    dims = koszul_cohomology_dims(F, maxdeg)
    rank = F.rank()
    expected = kernel_cokernel_dims(F.cols - rank, F.rows - rank, maxdeg)
    if dims != expected:
        raise OracleMismatch(
            f"Koszul cohomology {dims} differs from the kernel/cokernel "
            f"model {expected} for a {F.rows}x{F.cols} map of rank {rank}")
    return dims, rank


@criterion(5, "Koszul cohomology")
def criterion_5() -> str:
    """Koszul complex cohomology = exterior(kernel) (x) symmetric(cokernel)."""
    rng = random.Random(57721)
    for trial in range(50):
        F = random_matrix(rng.randint(0, 5), rng.randint(0, 5), rng,
                          lo=-3, hi=3)
        try:
            koszul_check(F, 8)
        except OracleMismatch as exc:
            raise OracleMismatch(f"trial {trial}: {exc}") from None
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
    """Explicit second-page oracle equals the D-model cellwise."""
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
    if list(res.dims) != want:
        raise OracleMismatch(
            f"{stage} stage dims {list(res.dims)} != {source} (x) "
            f"Lambda(beta) {want} at n={res.n}")


@criterion(8, "final rings")
def criterion_8() -> str:
    """Final rings: three presentations agree, H^1 = 0; the block stage is
    the diff ring (x) Lambda(beta) and the tangential stage the e3 zero
    column (x) Lambda(beta); spot values at n = 9."""
    for n in range(4, 14):
        dims = diff_cohomology(n, max(1, n - 3)).dims
        if dims[1] != 0:
            raise OracleMismatch(f"H^1 != 0 at n={n}: {dims[1]}")
        if n >= 5:
            _stage_check("block", blockdiff_cohomology(n, n - 4),
                         "diff ring", dims)
            column = e3_zero_column(
                ModelParams(n=n, g=n - 2, M=minimal_M(n), maxdeg=n - 3))
            _stage_check("tangential",
                         blockdiff_cohomology(n, n - 3, tangential=True),
                         "e3 zero column", column)
    spot = diff_cohomology(9, 5).dims
    if list(spot) != [1, 0, 0, 0, 0, 1]:
        raise OracleMismatch(f"n=9 dims {list(spot)} != [1,0,0,0,0,1]")
    b9 = blockdiff_cohomology(9, 5)
    if list(b9.dims) != [1, 0, 0, 0, 0, 2]:
        raise OracleMismatch(f"n=9 block dims {list(b9.dims)}")
    return "n = 4..13 triple agreement, spot values, H^1 = 0"


@criterion(9, "Thom-spectrum H^1")
def criterion_9() -> str:
    """H^1 of the Thom-spectrum ring by residue of n mod 4."""
    for n in range(5, 14):
        h1 = mt_cohomology(n, 1).dims[1]
        want = 0 if n % 2 == 0 else 1 if n % 4 == 1 else 2
        if h1 != want:
            raise OracleMismatch(f"n={n}: got {h1}, want {want}")
    return "n = 5..13"


ALL_CRITERIA: list[Callable[[], CriterionResult]] = [
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9,
]


def run_all() -> list[CriterionResult]:
    """Every criterion's result, in order."""
    return [crit() for crit in ALL_CRITERIA]
