"""The full acceptance suite: nine exact cross-checks between independent
computations.  Each criterion returns a CriterionResult; the CLI and the
test suite both run these, so a green `verify-all` and a green pytest see
the same checks.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .graded import kernel_cokernel_dims, koszul_cohomology_dims
from .invariants import (
    TensorSpaceSpec,
    gl_invariant_basis,
    sl_invariant_basis,
    verify_fundamental_theorems,
)
from .linalg import random_matrix, subspace_equal
from .model import (
    ACAlgebraSpec,
    ModelParams,
    ac_invariant_dims_bruteforce,
    ac_invariant_dims_formula,
    OracleMismatch,
    e2_oracle_check,
    e3_zero_column,
    gh_target_dims,
    minimal_M,
)
from .partitions import enumerate_partitions, lr_coefficient, schur_dim
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


def criterion_1() -> CriterionResult:
    """Permutation tensors span the GL-invariants; independent iff m <= g."""
    checked = 0
    for m in range(1, 5):
        for g in range(1, 5):
            rep = verify_fundamental_theorems(m, g)
            if not rep.surjective:
                return CriterionResult(1, "fundamental theorems", False,
                                       f"span != invariants at m={m}, g={g}")
            if rep.injective != (m <= g):
                return CriterionResult(
                    1, "fundamental theorems", False,
                    f"rank {rep.rank} wrong at m={m}, g={g}")
            checked += 1
    return CriterionResult(1, "fundamental theorems", True,
                           f"{checked} (m,g) pairs, m,g <= 4")


def criterion_2() -> CriterionResult:
    """Weight vanishing for GL/SL invariants of mixed tensor powers."""
    checked = 0
    for g in range(1, 4):
        for k in range(0, 6):
            for l in range(0, 6 - k):
                spec = TensorSpaceSpec(k, l, g)
                gl = gl_invariant_basis(spec)
                sl = sl_invariant_basis(spec)
                if k != l and gl.cols != 0:
                    return CriterionResult(
                        2, "weight vanishing", False,
                        f"GL-invariants nonzero at k={k}, l={l}, g={g}")
                if (k - l) % g != 0 and sl.cols != 0:
                    return CriterionResult(
                        2, "weight vanishing", False,
                        f"SL-invariants nonzero at k={k}, l={l}, g={g}")
                if k == l and not subspace_equal(gl, sl):
                    return CriterionResult(
                        2, "weight vanishing", False,
                        f"SL != GL invariants at k=l={k}, g={g}")
                checked += 1
    return CriterionResult(2, "weight vanishing", True,
                           f"{checked} spaces with k+l <= 5, g <= 3")


def criterion_3() -> CriterionResult:
    """LR symmetries up to size 8 and the four Cauchy dimension identities."""
    checked = 0
    by_size = [enumerate_partitions(s) for s in range(0, 9)]
    for s, kappas in enumerate(by_size):
        for a in range(0, s + 1):
            for lam in by_size[a]:
                for mu in by_size[s - a]:
                    for kappa in kappas:
                        c = lr_coefficient(lam, mu, kappa)
                        if c != lr_coefficient(mu, lam, kappa):
                            return CriterionResult(
                                3, "LR combinatorics", False,
                                f"symmetry fails at {lam},{mu},{kappa}")
                        if c != lr_coefficient(lam.conjugate(), mu.conjugate(),
                                               kappa.conjugate()):
                            return CriterionResult(
                                3, "LR combinatorics", False,
                                f"conjugation fails at {lam},{mu},{kappa}")
                        checked += 1
    for dv in range(1, 4):
        for dw in range(1, 4):
            for d in range(0, 7):
                ok, which = cauchy_identities(dv, dw, d)
                if not ok:
                    return CriterionResult(
                        3, "LR combinatorics", False,
                        f"Cauchy identity {which} fails at "
                        f"dims ({dv},{dw}), degree {d}")
    return CriterionResult(3, "LR combinatorics", True,
                           f"{checked} LR triples and Cauchy identities "
                           f"to dims 3, degree 6")


def cauchy_identities(dimV: int, dimW: int, degree: int) -> tuple[bool, str]:
    """Check the four Cauchy dimension identities at one (dims, degree)."""
    q = degree
    parts = enumerate_partitions(q)
    lhs = math.comb(dimV * dimW + q - 1, q)
    rhs = sum(schur_dim(lam, dimV) * schur_dim(lam, dimW) for lam in parts)
    if lhs != rhs:
        return False, "S^q(V(x)W)"
    lhs = math.comb(dimV * dimW, q)
    rhs = sum(schur_dim(lam, dimV) * schur_dim(lam.conjugate(), dimW)
              for lam in parts)
    if lhs != rhs:
        return False, "Lambda^r(V(x)W)"
    which = _square_identities(dimV, q)
    return not which, which


@lru_cache(maxsize=None)
def _square_identities(dimV: int, q: int) -> str:
    """The Cauchy identities for S^p(S^2 V) and S^p(Lambda^2 V), which do
    not involve W, once per (dimV, degree): the first that fails, or ""."""
    def sym_power_dim(d, k):
        if d == 0:
            return 1 if k == 0 else 0
        return math.comb(d + k - 1, k)

    dsym = dimV * (dimV + 1) // 2
    lhs = sym_power_dim(dsym, q)
    rhs = sum(schur_dim(lam, dimV)
              for lam in enumerate_partitions(2 * q, "even_rows"))
    if lhs != rhs:
        return "S^p(S^2 V)"
    dext = dimV * (dimV - 1) // 2
    lhs = sym_power_dim(dext, q)
    rhs = sum(schur_dim(lam, dimV)
              for lam in enumerate_partitions(2 * q, "even_cols"))
    if lhs != rhs:
        return "S^p(Lambda^2 V)"
    return ""


def criterion_4() -> CriterionResult:
    """Invariant dims of the trigraded algebras: brute force = LR formula
    = stable value in range, and vanish off r = 2p+q."""
    checked = 0
    for variant in ("A", "C"):
        for g in range(1, 4):
            for dimW in (1, 2):
                for dimU in (1, 2):
                    spec = ACAlgebraSpec(variant, g, dimW, dimU)
                    for p in range(0, 3):
                        for q in range(0, 5 - 2 * p):
                            r = 2 * p + q
                            brute = ac_invariant_dims_bruteforce(spec, p, q, r)
                            formula = ac_invariant_dims_formula(spec, p, q)
                            if brute != formula:
                                return CriterionResult(
                                    4, "trigraded invariants", False,
                                    f"brute {brute} != formula {formula} at "
                                    f"{variant}, g={g}, W={dimW}, U={dimU}, "
                                    f"(p,q)=({p},{q})")
                            if 2 * p + q <= g:
                                stable = gh_target_dims(dimW, dimU, p, q)
                                if brute != stable:
                                    return CriterionResult(
                                        4, "trigraded invariants", False,
                                        f"brute {brute} != stable {stable} at "
                                        f"{variant}, g={g}, W={dimW}, "
                                        f"U={dimU}, (p,q)=({p},{q})")
                            for r2 in range(0, 2 * p + q + 3):
                                if r2 == r:
                                    continue
                                off = ac_invariant_dims_bruteforce(
                                    spec, p, q, r2)
                                if off != 0:
                                    return CriterionResult(
                                        4, "trigraded invariants", False,
                                        f"nonzero invariants at r={r2} != "
                                        f"2p+q for {variant}, g={g}, "
                                        f"(p,q)=({p},{q})")
                            checked += 1
    return CriterionResult(4, "trigraded invariants", True,
                           f"{checked} cells, both variants, g <= 3")


def criterion_5() -> CriterionResult:
    """Koszul complex cohomology = exterior(kernel) (x) symmetric(cokernel)."""
    rng = random.Random(57721)
    for trial in range(50):
        rows = rng.randint(0, 5)
        cols = rng.randint(0, 5)
        F = random_matrix(rows, cols, rng, lo=-3, hi=3)
        got = koszul_cohomology_dims(F, 8)
        rank = F.rank()
        expected = kernel_cokernel_dims(cols - rank, rows - rank, 8)
        if got != expected:
            return CriterionResult(
                5, "Koszul cohomology", False,
                f"trial {trial}: {got} != {expected} for a "
                f"{rows}x{cols} map of rank {rank}")
    return CriterionResult(5, "Koszul cohomology", True,
                           "50 random maps, dims <= 5, degrees <= 8")


def criterion_6() -> CriterionResult:
    """D-model cohomology concentrates in the zero column and equals the
    exterior algebra on K, for n = 5..12 at minimal M."""
    for n in range(5, 13):
        params = ModelParams(n=n, g=n - 2, M=minimal_M(n), maxdeg=n - 3)
        try:
            e3_zero_column(params)
        except OracleMismatch as exc:
            return CriterionResult(6, "D-model zero column", False,
                                   f"n={n}: {exc}")
    return CriterionResult(6, "D-model zero column", True,
                           "n = 5..12, minimal M, degrees <= n-3")


def criterion_7() -> CriterionResult:
    """Explicit second-page oracle equals the D-model cellwise."""
    cases = [(5, 3), (5, 4), (6, 4)]
    for n, g in cases:
        params = ModelParams(n=n, g=g, M=minimal_M(n), maxdeg=n - 3)
        try:
            e2_oracle_check(params)
        except OracleMismatch as exc:
            return CriterionResult(7, "second-page oracle", False,
                                   f"n={n}, g={g}: {exc}")
    return CriterionResult(7, "second-page oracle", True,
                           f"cases {cases}, all bidegrees <= n-3")


def criterion_8() -> CriterionResult:
    """Final rings: three presentations agree; spot values; H^1 = 0."""
    for n in range(4, 14):
        try:
            res = diff_cohomology(n, max(1, n - 3))
        except OracleMismatch as exc:
            return CriterionResult(8, "final rings", False, f"n={n}: {exc}")
        if len(res.dims) > 1 and res.dims[1] != 0:
            return CriterionResult(8, "final rings", False,
                                   f"H^1 != 0 at n={n}: {res.dims[1]}")
    spot = diff_cohomology(9, 5).dims
    if list(spot) != [1, 0, 0, 0, 0, 1]:
        return CriterionResult(8, "final rings", False,
                               f"n=9 dims {list(spot)} != [1,0,0,0,0,1]")
    for n in range(5, 14):
        block = blockdiff_cohomology(n, max(1, n - 4))
        # independent recount from the generator degrees
        degs = [d for _, d in block.generators]
        series = [1] + [0] * block.maxdeg
        for d in degs:
            for k in range(block.maxdeg - d, -1, -1):
                series[k + d] += series[k]
        if list(block.dims) != series:
            return CriterionResult(
                8, "final rings", False,
                f"block stage dims mismatch at n={n}")
    b9 = blockdiff_cohomology(9, 5)
    if list(b9.dims) != [1, 0, 0, 0, 0, 2]:
        return CriterionResult(8, "final rings", False,
                               f"n=9 block dims {list(b9.dims)}")
    return CriterionResult(8, "final rings", True,
                           "n = 4..13 triple agreement, spot values, H^1 = 0")


def criterion_9() -> CriterionResult:
    """H^1 of the Thom-spectrum ring by residue of n mod 4."""
    for n in range(5, 14):
        h1 = mt_cohomology(n, 1).dims[1]
        if n % 2 == 0:
            want = 0
        elif n % 4 == 1:
            want = 1
        else:
            want = 2
        if h1 != want:
            return CriterionResult(9, "Thom-spectrum H^1", False,
                                   f"n={n}: got {h1}, want {want}")
    return CriterionResult(9, "Thom-spectrum H^1", True, "n = 5..13")


ALL_CRITERIA: list[Callable[[], CriterionResult]] = [
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9,
]


def run_all(report=print) -> bool:
    """Run every criterion, emit one line each; True iff all pass."""
    ok = True
    for crit in ALL_CRITERIA:
        res = crit()
        report(res.line())
        ok = ok and res.passed
    return ok
