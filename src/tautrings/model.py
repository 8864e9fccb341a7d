"""The spectral-sequence model: graded generator spaces, the bigraded DGA
D^{*,*}, trigraded invariant-dimension computations, and a brute-force
second-page oracle.

Everything here is parametrized by (n, g, M): n is the (odd or even)
manifold dimension driving all generator degrees, g the rank of the
middle-dimensional lattice N, and M the truncation of the L-class
generators.  Degrees follow the fixed scheme

    v_m : 4m - 2n - 1       (V)
    w_m : 4m - n            (W)
    u_m : 4m - n - 1        (U)

with a generator present exactly when its degree is positive and m <= M.
`vwu_degrees` is the one table of this scheme; only the pair generators
of K have a formula of their own.

The trigraded counts and the second-page oracle split each cell by label
content, which E_rs and the index permutations keep, and build each
block's weight-restricted basis with the one builder in invariants from
the block's labels.  A trigraded cell has one block for each content up
to permuting the W and the U labels, and each distinct block is counted
once per process; a second-page cell has one block for each count of x,
la_m, lb_m and lu_m letters whose total weight g divides (the others have
no element of constant weight).  The joins of one cell share one
invariants.JOIN_CAP count, which admits every second page with n <= 17
at g = n - 2 and n - 1.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, partial

from .graded import (
    BASIS_CAP,
    SERIES_CAP,
    BigradedDGA,
    GeneratorSet,
    add_into,
    check_basis_cap,
    derive,
    elem_mul,
    fgca_dims,
    mono_elem,
)
from .invariants import (
    Alphabet,
    Letter,
    _invariant_system,
    _kernel_vectors,
    _sorted_sign,
    _weight_space,
)
from .linalg import rank_of_int_rows
from .partitions import (OracleMismatch, _partitions_desc, check_agree,
                         check_cap, enumerate_partitions, mismatch_case,
                         schur_dim, schur_product_expand)

# generators of K that build_spaces lists, singles and pairs; e3 at n = 9
# lists and prints K_CAP of them in about a second
K_CAP = 40_000


def minimal_M(n: int) -> int:
    """Smallest M with 4M >= 3n - 5."""
    return max(1, -((-(3 * n - 5)) // 4))


@dataclass(frozen=True)
class ModelParams:
    n: int
    g: int
    M: int
    maxdeg: int

    def __post_init__(self):
        if self.n < 5:
            raise ValueError(f"requires n >= 5 (got n={self.n})")
        if self.M < 1 or self.g < 1 or self.maxdeg < 1:
            raise ValueError("requires positive g, M, maxdeg")
        if 4 * self.M < 3 * self.n - 5:
            raise ValueError(
                f"requires 4M >= 3n-5 (got 4*{self.M} < {3 * self.n - 5})")
        if self.g <= self.n - 3:
            raise ValueError(
                f"requires g > n-3 (got g={self.g}, n-3={self.n - 3})")
        if self.maxdeg > self.n - 3:
            raise ValueError(
                f"requires maxdeg <= n-3 (got maxdeg={self.maxdeg}, "
                f"n-3={self.n - 3})")


def vwu_degrees(n: int, M: int,
                top: int | None = None) -> tuple[dict[int, int], ...]:
    """The degree scheme as (v, w, u): for each letter, index m ->
    degree over the m <= M whose degree is positive, and at most top if
    given, in increasing m."""
    out = []
    for shift in (2 * n + 1, n, n + 1):
        last = M if top is None else min(M, (top + shift) // 4)
        out.append({m: 4 * m - shift for m in range(shift // 4 + 1, last + 1)})
    return tuple(out)


def _sum_to(k: int) -> int:
    """1 + 2 + ... + k, 0 for k <= 0."""
    return k * (k + 1) // 2 if k > 0 else 0


def k_count(n: int, M: int) -> int:
    """The generators of K, by closed-form sums over n and M: a single
    k_m for each v_m, 4m > 2n + 1, and a pair k_{m0,m1} for each m0 of w
    (4m0 > n) and max(m0, low - m0) <= m1 <= M, low the least m0 + m1
    with 4(m0 + m1) > 2n + 2.  Below half = ceil(low / 2) a pair count is
    M + 1 - low + m0, positive from m0 = low - M on; from half on it is
    M + 1 - m0."""
    low, w0 = (2 * n + 2) // 4 + 1, n // 4 + 1
    half = (low + 1) // 2
    lo, hi = max(w0, low - M), min(half - 1, M)
    below = 0
    if hi >= lo:
        below = _sum_to(M + 1 - low + hi) - _sum_to(M - low + lo)
    return (max(0, M - (2 * n + 1) // 4) + below
            + _sum_to(M + 1 - max(w0, half)))


def k_single_generators(n: int, M: int) -> list[tuple[str, int]]:
    return [(f"k{m}", d) for m, d in vwu_degrees(n, M)[0].items()]


def k_pair_generators(n: int, M: int,
                      maxdeg: int | None = None) -> list[tuple[str, int]]:
    """Pair generators k_{m0,m1}: m0 <= m1 <= M, 4m0 >= n+1, with degree
    4(m0+m1) - 2n - 1 > 1, the defining condition of K; the degree-1 pair
    that exists when n = 3 (mod 4) is not one.  With maxdeg, only the
    pairs of degree <= maxdeg: the degree grows with m0 and with m1, so
    each loop stops at the bound; and the pairs listed times the maxdeg + 1
    degrees of their Hilbert series are held to SERIES_CAP as they are."""
    top = math.inf if maxdeg is None else maxdeg
    width = 0 if maxdeg is None else maxdeg + 1
    out = []
    for m0 in range(-(-(n + 1) // 4), M + 1):
        if 8 * m0 - 2 * n - 1 > top:
            break
        for m1 in range(m0, M + 1):
            deg = 4 * (m0 + m1) - 2 * n - 1
            if deg > top:
                break
            if deg > 1:
                out.append((f"k{m0}_{m1}", deg))
                check_cap("SERIES_CAP", SERIES_CAP, len(out) * width,
                          "{} pair generators of K listed through degree {}"
                          ", {} Hilbert-series steps or more", len(out),
                          maxdeg, len(out) * width)
    return out


def borel_generators(maxdeg: int) -> list[tuple[str, int]]:
    """Exterior generators beta_{4k+1}, k >= 1, up to maxdeg."""
    out = []
    k = 1
    while 4 * k + 1 <= maxdeg:
        out.append((f"beta{4 * k + 1}", 4 * k + 1))
        k += 1
    return out


@dataclass(frozen=True)
class PaperGradedSpaces:
    """Generator lists (name, degree) of V, W, U and K."""

    n: int
    M: int
    V: tuple[tuple[str, int], ...]
    W: tuple[tuple[str, int], ...]
    U: tuple[tuple[str, int], ...]
    K_singles: tuple[tuple[str, int], ...]
    K_pairs: tuple[tuple[str, int], ...]

    @property
    def K(self) -> tuple[tuple[str, int], ...]:
        return self.K_singles + self.K_pairs


def build_spaces(params: ModelParams) -> PaperGradedSpaces:
    """V, W, U and K.  K, a single for each v and O(M^2) pairs, is counted
    from n and M (k_count) and held to K_CAP before any table is built."""
    n, M = params.n, params.M
    count = k_count(n, M)
    check_cap("K_CAP", K_CAP, count,
              "the model at n={}, M={} has {} generators of K", n, M, count)
    v, w, u = vwu_degrees(n, M)
    return PaperGradedSpaces(
        n=n, M=M,
        V=tuple((f"v{m}", d) for m, d in v.items()),
        W=tuple((f"w{m}", d) for m, d in w.items()),
        U=tuple((f"u{m}", d) for m, d in u.items()),
        K_singles=tuple(k_single_generators(n, M)),
        K_pairs=tuple(k_pair_generators(n, M)),
    )


def build_D_dga(params: ModelParams,
                maxtotal: int | None = None) -> BigradedDGA:
    """The bigraded DGA Lambda(V + W(x)U) (x) S(Q[2,0] (x) Lambda^2 U).

    Generators: v_m at (0, 4m-2n-1); y_{m0,m1} = w_{m0}(x)u_{m1} at
    (0, 4(m0+m1)-2n-1); z_{m0,m1} = u_{m0}^u_{m1} (m0 < m1, ungraded
    wedge) at (2, 4(m0+m1)-2n-2).  The differential sends y_{m0,m1} to
    S(w_{m0})^u_{m1} and vanishes on v and z.

    With maxtotal, only the generators of total degree <= maxtotal are
    built, and the z of total maxtotal + 1, which the kept y hit: a
    sub-DGA with the same cells, monomials and d through maxtotal (README,
    "Why e3 builds the model only through maxdeg").  Its degree tables
    then stop at maxtotal, so their size follows n and maxtotal and not M.
    Its basis through maxtotal is held to BASIS_CAP before d is built, and
    first its v and y of total <= maxtotal, each a basis monomial, counted
    before any is listed.
    """
    n, M = params.n, params.M
    top = math.inf if maxtotal is None else maxtotal
    v, w, u = vwu_degrees(n, M, maxtotal)
    um, ud = list(u), list(u.values())   # increasing
    # the y_{m0,m1} of total <= top: the first cut[m0] m1 of u; degrees
    # grow with m, so each walk below stops at the first m0 with none
    cut = {}
    for m0, d in w.items():
        if not (k := bisect_right(ud, top - d)):
            break
        cut[m0] = k
    if maxtotal is not None:
        count = len(v) + sum(cut.values())
        check_cap("BASIS_CAP", BASIS_CAP, count, "the model at n={}, M={} "
                  "has {} generators v and y of total degree at most {}, "
                  "each a basis monomial", n, M, count, maxtotal)
    gens_list = [(f"v{m}", (0, d)) for m, d in v.items()]
    ys = [(m0, m1) for m0, k in cut.items() for m1 in um[:k]]
    gens_list += [(f"y{m0}_{m1}", (0, w[m0] + u[m1])) for m0, m1 in ys]
    for i, (m0, d) in enumerate(u.items()):
        # z_{m0,m1} = -d(y_{m1,m0}), of total 2 + d + u[m1] <= top + 1
        if (k := bisect_right(ud, top - 1 - d)) <= i + 1:
            break
        gens_list += [(f"z{m0}_{m1}", (2, d + u[m1])) for m1 in um[i + 1:k]]
    gens = GeneratorSet(gens_list)
    if maxtotal is not None:
        check_basis_cap(gens, maxtotal)   # before the dense d-values

    diff: dict[str, dict] = {}
    for m0, m1 in ys:
        if m0 not in u:
            continue  # S(w_{m0}) = 0: degenerate slot
        if m0 == m1:
            continue  # wedge square of a single generator
        a, b = sorted((m0, m1))
        sign = 1 if m0 < m1 else -1
        diff[f"y{m0}_{m1}"] = {(gens.index[f"z{a}_{b}"],): sign}
    return BigradedDGA(gens, diff)


def e3_zero_column(params: ModelParams) -> list[int]:
    """dims of H^{0,q} of the D-model, q <= maxdeg.

    Asserts H^{p,q} = 0 for p != 0 in total degrees <= maxdeg and that
    the column equals the Hilbert series of the exterior algebra on K.
    """
    case = f"n={params.n}, M={params.M}"
    with mismatch_case(case):   # a d^2 failure names n and M
        table = build_D_dga(params, params.maxdeg).cohomology(params.maxdeg)
    for (p, q), h in sorted(table.items()):
        if p:
            check_agree("cohomology off the zero column",
                        f"bidegree ({p},{q}), {case}", ("D-model", h),
                        ("zero", 0))
    col = [table.get((0, q), 0) for q in range(params.maxdeg + 1)]
    check_agree("zero column", case, ("D-model", col), (
        "exterior algebra on K", fgca_dims(
            GeneratorSet(build_spaces(params).K), params.maxdeg)))
    return col


# ---------------------------------------------------------------------------
# trigraded algebras A and C

@dataclass(frozen=True)
class ACAlgebraSpec:
    """Trigraded algebra on N = Q^g, W = Q^dimW, U = Q^dimU.

    variant A: S(S^2 N) (x) S(N(x)W) (x) Lambda(N^v(x)U)   (even model)
    variant C: S(Lambda^2 N) (x) Lambda(N(x)W) (x) S(N^v(x)U)   (odd model)
    """

    variant: str
    g: int
    dimW: int
    dimU: int

    def __post_init__(self):
        if self.variant not in ("A", "C"):
            raise ValueError(f"variant must be A or C, got {self.variant!r}")
        if min(self.g, self.dimW, self.dimU) < 1:
            raise ValueError("requires positive g, dimW, dimU")


@lru_cache(maxsize=None)
def _ac_alphabet(spec: ACAlgebraSpec) -> Alphabet:
    """The x letters of S^2 N or Lambda^2 N, then the y letters of N (x) W
    and the z letters of N^v (x) U, each label's g letters together."""
    g, is_a = spec.g, spec.variant == "A"
    return Alphabet(g, itertools.chain(
        (Letter("x", (i, j), alternating=not is_a)
         for i in range(g) for j in range(i if is_a else i + 1, g)),
        (Letter(("y", w), (i,), exterior=not is_a)
         for w in range(spec.dimW) for i in range(g)),
        (Letter(("z", u), (), (i,), exterior=is_a)
         for u in range(spec.dimU) for i in range(g))))


def _ac_weight(g: int, p: int, q: int, r: int, group: str) -> int | None:
    """c of the weight (c, ..., c) of the (p, q, r) cell's invariants, or
    None: basis elements have total weight 2p + q - r, and GL needs 0."""
    c, rem = divmod(2 * p + q - r, g)
    return None if rem or (group == "GL" and c) else c


def _ac_contents(g: int, labels: int, size: int, exterior: bool):
    """(rearrangements, parts) for each sorted content of one factor:
    parts lists its nonzero label sizes, decreasing, a partition of size
    into at most `labels` parts; rearrangements is the multinomial of the
    counts of each part value (zeros last)."""
    for parts in _partitions_desc(size, g if exterior else size, labels):
        m, left = 1, labels
        for _, run in itertools.groupby(parts):
            c = len(list(run))
            m, left = m * math.comb(left, c), left - c
        yield m, parts


def _ac_blocks(spec: ACAlgebraSpec, p: int, q: int, r: int, group: str):
    """(rearrangements, key, basis) for each label-content block of the
    (p, q, r) cell's weight space with both contents sorted decreasingly.
    A block's contents count its y letters of each W label and its z
    letters of each U label; rearrangements is the number of distinct
    permutations of the two.  key is (variant, g, p, y parts, z parts,
    level), all that the block's invariant count depends on, and basis()
    builds the block's basis, possibly empty, in lexicographic order: the
    join of the x label and of the first W and U labels, of the sizes the
    parts give (README, "Why a trigraded or second-page cell splits by
    label content"), under one JOIN_CAP count for the listing's blocks."""
    g, is_a = spec.g, spec.variant == "A"
    level = _ac_weight(g, p, q, r, group)
    nx = (g * (g + 1) if is_a else g * (g - 1)) // 2
    if level is None or (p and not nx):
        return
    alphabet, target = _ac_alphabet(spec), (level,) * g
    what, spent = f"cell ({p},{q},{r})", [0]
    x = [(range(nx), p, False)] if p else []

    def labels(lo, parts, exterior):
        # the exterior labels a part g fills (first, in a sorted content)
        # have one subset each: one label of all their letters has it too
        full = parts.count(g) * g if exterior else 0
        return [(range(lo, lo + full), full, True)] * (full > 0) + [
            (range(lo + k * g, lo + k * g + g), n, exterior)
            for k, n in enumerate(parts) if k * g >= full]

    for my, y_parts in _ac_contents(g, spec.dimW, q, not is_a):
        ys = labels(nx, y_parts, not is_a)
        for mz, z_parts in _ac_contents(g, spec.dimU, r, is_a):
            block = x + ys + labels(nx + g * spec.dimW, z_parts, is_a)
            yield (my * mz, (spec.variant, g, p, y_parts, z_parts, level),
                   partial(_weight_space, block, alphabet, target, what,
                           spent))


# the invariant count of each label-content block, by its `_ac_blocks`
# key: ints only, one entry per distinct block a process has counted
_BLOCK_COUNTS: dict[tuple, int] = {}


def ac_invariant_dims_bruteforce(spec: ACAlgebraSpec, p: int, q: int, r: int,
                                 group: str = "GL") -> int:
    """dim of the invariant subspace of the (p, q, r) cell.

    The cell basis is taken directly in symmetrized/antisymmetrized
    letter coordinates (multisets for symmetric factors, subsets for
    exterior ones); invariants are the kernel of E_01 on the Weyl-orbit
    sums of the relevant torus-weight subspace, which is the invariant
    subspace by the argument in invariants, summed over `_ac_blocks`,
    whose joins share one JOIN_CAP count.  A block is counted once per
    key; later blocks with that key read the count from `_BLOCK_COUNTS`
    and build nothing.  A cell of the wrong weight has no block.
    """
    if min(p, q, r) < 0:
        raise ValueError("requires nonnegative p, q, r")
    if group not in ("GL", "SL"):
        raise ValueError(f"unknown group {group!r}")
    alphabet = _ac_alphabet(spec)
    total = 0
    for mult, key, basis in _ac_blocks(spec, p, q, r, group):
        count = _BLOCK_COUNTS.get(key)
        if count is None:
            count = 0
            if elements := basis():
                orbits, rows = _invariant_system(alphabet, elements)
                count = len(orbits) - rank_of_int_rows(rows)
            _BLOCK_COUNTS[key] = count
        total += mult * count
    return total


def ac_invariant_dims_formula(spec: ACAlgebraSpec, p: int, q: int) -> int:
    """Littlewood-Richardson evaluation of the (p, q, 2p+q) invariant dim."""
    if 2 * p + q > 8:
        raise ValueError(f"requires 2p+q <= 8 (got {2 * p + q})")
    lam_filter = "even_rows" if spec.variant == "A" else "even_cols"
    mus = enumerate_partitions(q)
    total = 0
    for lam in enumerate_partitions(2 * p, lam_filter):
        for mu in mus:
            for nu, c in schur_product_expand(lam, mu).items():
                if nu.height > spec.g:
                    continue
                if spec.variant == "A":
                    dw = schur_dim(mu, spec.dimW)
                    du = schur_dim(nu.conjugate(), spec.dimU)
                else:
                    dw = schur_dim(mu.conjugate(), spec.dimW)
                    du = schur_dim(nu, spec.dimU)
                total += c * dw * du
    return total


# bits that the stable value of `gh_target_dims` may have, as
# `_comb_bits` bounds them; `ac-dims --mode target` admits dimU = 100 000,
# q = 0 up to p = 23 809 (0.5 s, printing included) and dimW = dimU =
# 1 000, p = 0 up to q = 83 333 (0.75 s) on a shared 2-vCPU Xeon
TARGET_CAP = 500_000


def _comb_bits(N: int, k: int) -> int:
    """A bound on the bits of C(N, k), read from bit lengths: at most
    k log2(eN/k) + 1 for 0 < k <= N/2, C(N, k) = C(N, N - k), and 1 bit
    when k or N - k is 0 or less."""
    k = max(0, min(k, N - k))
    return k * (N.bit_length() - k.bit_length() + 3) + 1


def gh_target_dims(dimW: int, dimU: int, p: int, q: int) -> int:
    """dim S^p(Lambda^2 U) * dim Lambda^q(W (x) U): the stable value.
    Its bits are bounded and held to TARGET_CAP before any binomial is
    computed."""
    if min(dimW, dimU) < 1 or min(p, q) < 0:
        raise ValueError("requires positive dims and nonnegative p, q")
    d2 = dimU * (dimU - 1) // 2
    bits = _comb_bits(d2 + p - 1, p) + _comb_bits(dimW * dimU, q)
    check_cap("TARGET_CAP", TARGET_CAP, bits, "the stable value at dimW={}, "
              "dimU={}, (p,q)=({},{}) may have {} bits", dimW, dimU, p, q,
              bits)
    sp = (1 if p == 0 else 0) if d2 == 0 else math.comb(d2 + p - 1, p)
    return sp * math.comb(dimW * dimU, q)


# ---------------------------------------------------------------------------
# explicit second page and its differential

class E2Model:
    """Free bigraded GCA on x- and lambda-generators with the d2 derivation.

    x_{ij} spans L^2(N) in bidegree (2,0) with x_{ji} = (-1)^n x_{ij};
    la_{i,m} transforms as N in (0, 4m-n), lb_{i,m} as N-dual in
    (0, 4m-n-1), lu_m is the invariant generator in (0, 4m-2n-1).
    d2(la_{j,m}) = (-1)^{n+1} sum_i x_{ij} lb_{i,m}, zero on everything
    else (and zero when 4m-n-1 = 0).
    With top, only the generators of total degree <= top: a sub-DGA on
    a prefix of the generators, with the same d2 (README, "Why e3 builds
    the model only through maxdeg").
    """

    def __init__(self, n: int, g: int, M: int, top: int | None = None):
        self.n, self.g, self.M, self.top = n, g, M, top
        gens: dict[str, tuple[tuple[int, int], Letter]] = {}
        for i in range(g):
            for j in range(i if n % 2 == 0 else i + 1, g):
                gens[f"x_{i}_{j}"] = (
                    (2, 0), Letter("x", (i, j), alternating=n % 2 == 1))
        v, w, u = vwu_degrees(n, M, top)
        for m, d in w.items():
            for i in range(g):
                gens[f"la_{i}_{m}"] = ((0, d), Letter(("a", m), (i,)))
        for m, d in u.items():
            for i in range(g):
                gens[f"lb_{i}_{m}"] = ((0, d), Letter(("b", m), (), (i,)))
        for m, d in v.items():
            gens[f"lu_{m}"] = ((0, d), Letter(("u", m)))
        self.gens = GeneratorSet(
            (name, deg) for name, (deg, _) in gens.items())
        # one letter per generator, in GeneratorSet order
        self.alphabet = Alphabet(g, [
            gens[gg.name][1]._replace(exterior=gg.odd) for gg in self.gens])
        self.dga = BigradedDGA(self.gens, self._differential())
        # (ids, bidegree, exterior, weight total of a letter) for x and
        # each la_m, lb_m and lu_m, whose letters sit together in order
        self.labels = []
        for _, run in itertools.groupby(enumerate(self.alphabet.letters),
                                        lambda t: t[1].tag):
            (i, a), *rest = run
            gg = self.gens[i]
            self.labels.append((range(i, i + 1 + len(rest)), (gg.p, gg.q),
                                gg.odd, len(a.up) - len(a.down)))

    def _differential(self) -> dict[str, dict]:
        n, g, index = self.n, self.g, self.gens.index
        _, w, u = vwu_degrees(n, self.M, self.top)
        lead = 1 if (n + 1) % 2 == 0 else -1
        diff: dict[str, dict] = {}
        # d2(la_{j,m}) = 0 at the degenerate slot 4m - n - 1 = 0, where u_m
        # is not a generator
        for m in filter(u.__contains__, w):
            for j in range(g):
                val: dict = {}
                for i in range(g):
                    # x_{ij} is a sign times the generator x_{ab}, a <= b
                    x = _sorted_sign((i, j), n % 2 == 1)
                    if x is None:
                        continue
                    sign, (a, b) = x
                    val[tuple(sorted((index[f"x_{a}_{b}"],
                                      index[f"lb_{i}_{m}"])))] = lead * sign
                if val:
                    diff[f"la_{j}_{m}"] = val
        return diff

    def _contents(self, p: int, q: int):
        """(labels, total weight) for each label content of the (p, q)
        cell: the labels in order, each with the number of letters taken
        from it, whose bidegrees sum to (p, q), at most one of each
        exterior letter; less those whose total g does not divide, which
        have no element of constant weight (c, ..., c).  A label that
        cannot fit the remaining (p, q) takes none and is stepped over in
        a loop, not a call, so the walk nests only as deep as the labels
        that fit, not once per label."""
        labels = self.labels

        def walk(i, p, q, total):
            while i < len(labels):
                ids, (a, b), exterior, t = labels[i]
                most = min(p // a if a else q, q // b if b else p)
                if most:
                    break
                i += 1
            else:
                if not p and not q and not total % self.g:
                    yield [], total
                return
            for c in range(min(most, len(ids)) if exterior else most, -1, -1):
                for rest, tot in walk(i + 1, p - c * a, q - c * b,
                                      total + c * t):
                    yield [(ids, c, exterior)] * (c > 0) + rest, tot
        return walk(0, p, q, 0)

    def sl_invariant_vectors(self, p: int, q: int) -> list[dict]:
        """Basis of the SL-invariants of the (p, q) cell, as int elements.

        E_rs and the index permutations keep each label's letter count,
        so the invariants are those of the blocks of `_contents`, each the
        join of its labels at the constant weight its total gives, under
        one JOIN_CAP count; see invariants for why E_01 on orbit sums
        suffices.
        """
        what = f"cell ({p},{q}) of the second page at n={self.n}, g={self.g}"
        spent, vectors = [0], []
        for block, total in self._contents(p, q):
            basis = _weight_space(block, self.alphabet,
                                  (total // self.g,) * self.g, what, spent)
            if basis:
                orbits, rows = _invariant_system(self.alphabet, basis)
                vectors += [{basis[j]: v for j, v in vec.items()}
                            for vec in _kernel_vectors(orbits, rows)]
        return vectors


# operator applications in the second page's check that d2 commutes with
# sl_g: 2(g - 1) operators, each on the page's letters and d2's terms,
# which grow as g^2; at n = 6 it admits g <= 62, about 0.6 s on a shared
# 2-vCPU Xeon
COMMUTE_CAP = 1_000_000


def e2_bruteforce_oracle(params: ModelParams) -> dict[tuple[int, int], int]:
    """Third-page dimensions from the explicit generators-and-d2 model.

    Cellwise: take SL-invariants by Lie-algebra kernel, restrict d2, and
    read off kernel-mod-image dimensions for every bidegree with total
    degree <= maxdeg, on the page through total maxdeg + 1, where the
    checks of d2 run too.  The check with sl_g is held to COMMUTE_CAP
    before the page is built, and a cell whose joins pass JOIN_CAP is
    refused before they build it.
    """
    n, g, maxdeg = params.n, params.g, params.maxdeg
    # letters: at most g^2 x, g per index of w and u, one per index of v;
    # per index of both w and u, g letters la, each with d2 of <= g terms
    v, w, u = vwu_degrees(n, params.M, maxdeg + 1)
    pairs = sum(m in u for m in w)
    work = 2 * (g - 1) * (g * g * (1 + pairs) + g * (len(w) + len(u) + pairs)
                          + len(v))
    check_cap("COMMUTE_CAP", COMMUTE_CAP, work, "the second page at n={}, "
              "g={}: {} operator applications to check that d2 commutes "
              "with sl_g", n, g, work)
    model = E2Model(n, g, params.M, maxdeg + 1)
    cells = [(p, total - p) for total in range(maxdeg + 1)
             for p in range(total + 1)]

    # d2 must square to zero on every generator of the page
    case = f"n={n}, g={g}"
    with mismatch_case(case):
        model.dga.check_d_squared_on_generators(
            max(gg.total for gg in model.gens))

    # d2 must commute with E_{r,r+1} and E_{r+1,r}, which generate sl_g
    odd, dga, terms = model.gens.odd, model.dga, model.gens.terms
    for r in range(g - 1):
        for s, t in ((r, r + 1), (r + 1, r)):
            e = model.alphabet.derivation(s, t)
            for i, val in dga.dvals.items():
                check_agree(f"d2 commuting with E_{s}{t}",
                            f"{model.gens[i].name}, {case}",
                            ("d2 E - E d2", terms(add_into(
                                dga.d(derive(odd, e, {(i,): 1}, 0)),
                                derive(odd, e, val, 0), -1))), ("zero", []))

    invdim: dict[tuple[int, int], int] = {}
    outrank: dict[tuple[int, int], int] = {}
    for p, q in cells:
        vectors = model.sl_invariant_vectors(p, q)
        invdim[(p, q)] = len(vectors)
        outrank[(p, q)] = rank_of_int_rows([model.dga.d(v) for v in vectors])
    return {(p, q): dim - outrank[(p, q)] - outrank.get((p - 2, q + 1), 0)
            for (p, q), dim in invdim.items()}


def e2_oracle_check(params: ModelParams) -> dict[tuple[int, int], int]:
    """Run the second-page oracle and compare against the D-model cellwise.

    Returns the (agreed) table; raises OracleMismatch on the first
    differing bidegree.
    """
    table = e2_bruteforce_oracle(params)
    with mismatch_case(f"n={params.n}, M={params.M}"):
        dtable = build_D_dga(params, params.maxdeg).cohomology(params.maxdeg)
    for (p, q), a in table.items():
        check_agree("third-page dim", f"bidegree ({p},{q}), n={params.n}, "
                    f"g={params.g}", ("second-page oracle", a),
                    ("D-model", dtable.get((p, q), 0)))
    return table


@dataclass
class LambdaExpression:
    """A cup-product expression in the explicit generators."""

    gens: GeneratorSet
    element: dict

    def terms(self) -> list[tuple[int, str]]:
        return self.gens.terms(self.element)

    def __str__(self) -> str:
        if not self.element:
            return "0"
        parts = []
        for c, s in self.terms():
            parts.append(f"{c}*{s}" if c != 1 else s)
        return " + ".join(parts)


def lambda_relations(params: ModelParams, ms: list[int]) -> LambdaExpression:
    """Cup products of the lambda-classes indexed by L-monomials.

    One factor: the invariant generator lu_m.  Two factors: the 2g-term
    pairing sum_j la_{j,m0} lb_{j,m1} + sum_j lb_{j,m0} la_{j,m1}
    (terms whose generator sits in nonpositive degree are absent).
    Three or more factors: zero.  The expression is built on only the
    generators of `E2Model` it names, in the same (total degree, name)
    order, so its terms, their order and their signs are those on the
    whole second page.
    """
    if not ms:
        raise ValueError("requires a nonempty list of indices")
    n, g, M = params.n, params.g, params.M
    if any(m < 1 or m > M for m in ms):
        raise ValueError(f"requires 1 <= m <= M={M} (got {ms})")
    v, w, u = vwu_degrees(n, M)
    if len(ms) == 1:
        m = ms[0]
        if m not in v:
            raise ValueError(
                f"requires 4m - 2n - 1 > 0 for a single factor (got m={m})")
        return LambdaExpression(GeneratorSet([(f"lu_{m}", (0, v[m]))]),
                                mono_elem((0,)))
    pairs = [] if len(ms) > 2 else [(a, b) for a, b in (ms, ms[::-1])
                                    if a in w and b in u]
    gens = GeneratorSet(
        {f"l{s}_{j}_{m}": (0, deg) for a, b in pairs for j in range(g)
         for s, m, deg in (("a", a, w[a]), ("b", b, u[b]))}.items())
    elem: dict = {}
    for a, b in pairs:
        for j in range(g):
            add_into(elem, elem_mul(
                gens, mono_elem((gens.index[f"la_{j}_{a}"],)),
                mono_elem((gens.index[f"lb_{j}_{b}"],))))
    return LambdaExpression(gens, elem)
