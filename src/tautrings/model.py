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

The trigraded counts and the second-page oracle build each cell's
weight-restricted basis with the join in invariants.  The oracle's
CELL_CAP admits every n <= 11 at g = n - 2 and n - 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .graded import (
    BigradedDGA,
    DgaError,
    GeneratorSet,
    check_basis_cap,
    elem_add,
    elem_mul,
    fgca_dims,
    mono_elem,
    span_rank,
)
from .invariants import (
    Alphabet,
    Letter,
    _action_rows,
    _sorted_sign,
    _weight_join,
    raising_pairs,
)
from .linalg import kernel_basis_columns, rank_of_int_rows

# cap on the dimension of any single brute-force cell
CELL_CAP = 200_000


class OracleMismatch(RuntimeError):
    """Two independent computations of the same quantity disagree."""


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


def v_range(n: int, M: int) -> list[int]:
    return [m for m in range(1, M + 1) if 4 * m - 2 * n - 1 > 0]


def w_range(n: int, M: int) -> list[int]:
    return [m for m in range(1, M + 1) if 4 * m - n > 0]


def u_range(n: int, M: int) -> list[int]:
    return [m for m in range(1, M + 1) if 4 * m - n - 1 > 0]


def k_single_generators(n: int, M: int) -> list[tuple[str, int]]:
    return [(f"k{m}", 4 * m - 2 * n - 1) for m in v_range(n, M)]


def k_pair_generators(n: int, M: int,
                      min_pair_degree: int = 2) -> list[tuple[str, int]]:
    """Pair generators k_{m0,m1}: m0 <= m1 <= M, 4m0 >= n+1, with degree
    4(m0+m1) - 2n - 1 at least min_pair_degree.

    The default threshold 2 (degree strictly greater than 1) follows the
    defining condition of K; passing 1 instead admits the degree-1 pair
    that exists when n = 3 (mod 4).
    """
    out = []
    for m0 in range(1, M + 1):
        if 4 * m0 < n + 1:
            continue
        for m1 in range(m0, M + 1):
            deg = 4 * (m0 + m1) - 2 * n - 1
            if deg >= min_pair_degree:
                out.append((f"k{m0}_{m1}", deg))
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
    """Generator lists (name, degree) of V, W, U, K and the map S."""

    n: int
    M: int
    V: tuple[tuple[str, int], ...]
    W: tuple[tuple[str, int], ...]
    U: tuple[tuple[str, int], ...]
    K_singles: tuple[tuple[str, int], ...]
    K_pairs: tuple[tuple[str, int], ...]

    def S(self, m: int) -> str | None:
        """Image of w_m: the generator u_m, or None in the degenerate slot
        4m - n - 1 = 0 (and for m outside the W-range)."""
        if m not in w_range(self.n, self.M):
            raise ValueError(f"w_{m} does not exist for n={self.n}, M={self.M}")
        if 4 * m - self.n - 1 > 0:
            return f"u{m}"
        return None

    @property
    def K(self) -> tuple[tuple[str, int], ...]:
        return self.K_singles + self.K_pairs


def build_spaces(params: ModelParams) -> PaperGradedSpaces:
    n, M = params.n, params.M
    return PaperGradedSpaces(
        n=n, M=M,
        V=tuple((f"v{m}", 4 * m - 2 * n - 1) for m in v_range(n, M)),
        W=tuple((f"w{m}", 4 * m - n) for m in w_range(n, M)),
        U=tuple((f"u{m}", 4 * m - n - 1) for m in u_range(n, M)),
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
    "Why e3 builds the model only through maxdeg").  Its basis through
    maxtotal is held to BASIS_CAP before d is built.
    """
    n, M = params.n, params.M
    top = math.inf if maxtotal is None else maxtotal
    ws, us = w_range(n, M), u_range(n, M)
    gens_list: list[tuple[str, tuple[int, int]]] = []
    for m in v_range(n, M):
        if 4 * m - 2 * n - 1 <= top:
            gens_list.append((f"v{m}", (0, 4 * m - 2 * n - 1)))
    ys = [(m0, m1) for m0 in ws for m1 in us
          if 4 * (m0 + m1) - 2 * n - 1 <= top]
    for m0, m1 in ys:
        gens_list.append((f"y{m0}_{m1}", (0, 4 * (m0 + m1) - 2 * n - 1)))
    for m0, m1 in itertools.combinations(us, 2):
        # z_{m0,m1} = -d(y_{m1,m0}), of total one more
        if 4 * (m0 + m1) - 2 * n <= top + 1:
            gens_list.append((f"z{m0}_{m1}", (2, 4 * (m0 + m1) - 2 * n - 2)))
    gens = GeneratorSet(gens_list)
    if maxtotal is not None:
        check_basis_cap(gens, maxtotal)   # before the dense d-values

    diff: dict[str, dict] = {}
    for m0, m1 in ys:
        if 4 * m0 - n - 1 == 0:
            continue  # S(w_{m0}) = 0: degenerate slot
        if m0 == m1:
            continue  # wedge square of a single generator
        a, b = sorted((m0, m1))
        sign = 1 if m0 < m1 else -1
        mono = [0] * len(gens)
        mono[gens.index[f"z{a}_{b}"]] = 1
        diff[f"y{m0}_{m1}"] = {tuple(mono): sign}
    return BigradedDGA(gens, diff)


def e3_zero_column(params: ModelParams, check_k: bool = True) -> list[int]:
    """dims of H^{0,q} of the D-model, q <= maxdeg.

    Asserts H^{p,q} = 0 for p != 0 in total degrees <= maxdeg and, when
    check_k is set, that the column equals the Hilbert series of the
    exterior algebra on K.
    """
    dga = build_D_dga(params, params.maxdeg)
    table = dga.cohomology(params.maxdeg)
    for (p, q), h in sorted(table.items()):
        if p != 0 and h != 0:
            raise OracleMismatch(
                f"nonzero cohomology {h} off the zero column at "
                f"bidegree ({p},{q})")
    col = [table.get((0, q), 0) for q in range(params.maxdeg + 1)]
    if check_k:
        spaces = build_spaces(params)
        expected = fgca_dims(GeneratorSet(spaces.K), params.maxdeg)
        if col != expected:
            raise OracleMismatch(
                f"zero column {col} differs from exterior algebra on K "
                f"{expected} for n={params.n}, M={params.M}")
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


def _ac_alphabet(spec: ACAlgebraSpec) -> Alphabet:
    """The x letters of S^2 N or Lambda^2 N, then the y letters of N (x) W,
    then the z letters of N^v (x) U."""
    g, is_a = spec.g, spec.variant == "A"
    return Alphabet(g, [
        *(Letter("x", (i, j), alternating=not is_a)
          for i in range(g) for j in range(i if is_a else i + 1, g)),
        *(Letter(("y", w), (i,), exterior=not is_a)
          for i in range(g) for w in range(spec.dimW)),
        *(Letter(("z", u), (), (i,), exterior=is_a)
          for i in range(g) for u in range(spec.dimU))])


def ac_invariant_dims_bruteforce(spec: ACAlgebraSpec, p: int, q: int, r: int,
                                 group: str = "GL") -> int:
    """dim of the invariant subspace of the (p, q, r) cell.

    The cell basis is taken directly in symmetrized/antisymmetrized
    letter coordinates (multisets for symmetric factors, subsets for
    exterior ones); invariants are the joint kernel of the simple raising
    operators E_{r,r+1} on the relevant torus-weight subspace, which is
    the invariant subspace by the highest-weight argument in invariants.
    """
    if min(p, q, r) < 0:
        raise ValueError("requires nonnegative p, q, r")
    if group not in ("GL", "SL"):
        raise ValueError(f"unknown group {group!r}")
    g, is_a = spec.g, spec.variant == "A"
    nx, ny = (g * (g + 1) if is_a else g * (g - 1)) // 2, g * spec.dimW
    # (first letter id, letter count, size, exterior) of the x, y and z
    # factors
    factors = ((0, nx, p, False), (nx, ny, q, not is_a),
               (nx + ny, g * spec.dimU, r, is_a))

    def count(_lo, nlet, size, exterior):
        if exterior:
            return math.comb(nlet, size)
        if nlet == 0:
            return 1 if size == 0 else 0
        return math.comb(nlet + size - 1, size)

    dim = math.prod(count(*f) for f in factors)
    if dim == 0:
        return 0
    if dim > CELL_CAP:
        raise ValueError(f"cell dimension {dim} exceeds cap {CELL_CAP}")

    # every basis element has total torus weight summing to 2p + q - r;
    # the target is (c, ..., c), with c = 0 for GL
    wsum = 2 * p + q - r
    if wsum % g or (group == "GL" and wsum):
        return 0
    target = (wsum // g,) * g

    def factor(lo, nlet, size, exterior):
        choose = (itertools.combinations if exterior
                  else itertools.combinations_with_replacement)
        return choose(range(lo, lo + nlet), size)

    alphabet = _ac_alphabet(spec)
    basis = _weight_join([factor(*f) for f in factors], alphabet.weight,
                         target)
    if not basis:
        return 0
    rows = _action_rows(alphabet, basis, raising_pairs(g))
    return len(basis) - rank_of_int_rows(rows)


def ac_invariant_dims_formula(spec: ACAlgebraSpec, p: int, q: int) -> int:
    """Littlewood-Richardson evaluation of the (p, q, 2p+q) invariant dim."""
    from .partitions import enumerate_partitions, lr_coefficient, schur_dim
    if 2 * p + q > 8:
        raise ValueError(f"requires 2p+q <= 8 (got {2 * p + q})")
    lam_filter = "even_rows" if spec.variant == "A" else "even_cols"
    total = 0
    for lam in enumerate_partitions(2 * p, lam_filter):
        for mu in enumerate_partitions(q):
            for nu in enumerate_partitions(2 * p + q):
                if nu.height > spec.g:
                    continue
                c = lr_coefficient(lam, mu, nu)
                if not c:
                    continue
                if spec.variant == "A":
                    dw = schur_dim(mu, spec.dimW)
                    du = schur_dim(nu.conjugate(), spec.dimU)
                else:
                    dw = schur_dim(mu.conjugate(), spec.dimW)
                    du = schur_dim(nu, spec.dimU)
                total += c * dw * du
    return total


def gh_target_dims(dimW: int, dimU: int, p: int, q: int) -> int:
    """dim S^p(Lambda^2 U) * dim Lambda^q(W (x) U): the stable value."""
    if min(dimW, dimU) < 1 or min(p, q) < 0:
        raise ValueError("requires positive dims and nonnegative p, q")
    d2 = math.comb(dimU, 2)
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
    """

    def __init__(self, n: int, g: int, M: int):
        self.n, self.g, self.M = n, g, M
        gens: dict[str, tuple[tuple[int, int], Letter]] = {}
        for i in range(g):
            for j in range(i if n % 2 == 0 else i + 1, g):
                gens[f"x_{i}_{j}"] = (
                    (2, 0), Letter("x", (i, j), alternating=n % 2 == 1))
        for m in w_range(n, M):
            for i in range(g):
                gens[f"la_{i}_{m}"] = ((0, 4 * m - n), Letter(("a", m), (i,)))
        for m in u_range(n, M):
            for i in range(g):
                gens[f"lb_{i}_{m}"] = (
                    (0, 4 * m - n - 1), Letter(("b", m), (), (i,)))
        for m in v_range(n, M):
            gens[f"lu_{m}"] = ((0, 4 * m - 2 * n - 1), Letter(("u", m)))
        self.gens = GeneratorSet(
            (name, deg) for name, (deg, _) in gens.items())
        # one letter per generator, in GeneratorSet order
        self.alphabet = Alphabet(g, [
            gens[gg.name][1]._replace(exterior=gg.odd) for gg in self.gens])
        self.dga = BigradedDGA(self.gens, self._differential())

    def _differential(self) -> dict[str, dict]:
        n, g = self.n, self.g
        lead = 1 if (n + 1) % 2 == 0 else -1
        diff: dict[str, dict] = {}
        for m in w_range(n, self.M):
            if 4 * m - n - 1 == 0:
                continue
            for j in range(g):
                val: dict = {}
                for i in range(g):
                    # x_{ij} is a sign times the generator x_{ab}, a <= b
                    x = _sorted_sign((i, j), n % 2 == 1)
                    if x is None:
                        continue
                    sign, (a, b) = x
                    mono = [0] * len(self.gens)
                    mono[self.gens.index[f"x_{a}_{b}"]] = 1
                    mono[self.gens.index[f"lb_{i}_{m}"]] = 1
                    val[tuple(mono)] = lead * sign
                if val:
                    diff[f"la_{j}_{m}"] = val
        return diff

    def sl_invariant_vectors(self, p: int, q: int) -> list[dict]:
        """Basis of the SL-invariants of the (p, q) cell, as elements.

        Only x has p > 0, so the cell joins the multisets of p/2 x letters
        with the lambda monomials of bidegree (0, q), on the reduced
        weight (w_1 - w_0, ..., w_{g-1} - w_0) = 0, i.e. constant weight;
        see invariants for why the simple raising operators suffice.
        """
        if p % 2:
            return []
        gens, weight = self.gens, self.alphabet.weight
        xs = [i for i, gg in enumerate(gens) if gg.p]
        x_part = itertools.combinations_with_replacement(xs, p // 2)
        lam_part = map(mono_letters, gens.monomials_bidegree(0, q))

        def reduced(elt):
            w = weight(elt)
            return tuple(c - w[0] for c in w[1:])

        # x and lambda ids interleave in generator order
        basis = sorted(tuple(sorted(elt)) for elt in _weight_join(
            [x_part, lam_part], reduced, (0,) * (self.g - 1)))
        if not basis:
            return []
        rows = _action_rows(self.alphabet, basis, raising_pairs(self.g))
        kernel = kernel_basis_columns(rows, len(basis))
        monos = [tuple(map(elt.count, range(len(gens)))) for elt in basis]
        return [{monos[j]: v for j, v in vec.items()} for vec in kernel]


def mono_letters(mono) -> tuple[int, ...]:
    """An exponent tuple as the sorted tuple of its generator indices."""
    return tuple(i for i, e in enumerate(mono) for _ in range(e))


def e2_bruteforce_oracle(params: ModelParams) -> dict[tuple[int, int], int]:
    """Third-page dimensions from the explicit generators-and-d2 model.

    Cellwise: take SL-invariants by Lie-algebra kernel, restrict d2, and
    read off kernel-mod-image dimensions for every bidegree with total
    degree <= maxdeg.  A model with a cell whose join would build more
    than CELL_CAP factor elements is refused before any cell is built.
    """
    n, g, maxdeg = params.n, params.g, params.maxdeg
    model = E2Model(n, g, params.M)
    cells = [(p, total - p) for total in range(maxdeg + 1)
             for p in range(total + 1)]

    # the join of an even-p cell builds its x part and its lambda part
    lam = GeneratorSet((gg.name, gg.q) for gg in model.gens if not gg.p)
    lam_dims = fgca_dims(lam, maxdeg)
    nx = len(model.gens) - len(lam)
    for p, q in cells:
        size = (0 if p % 2
                else math.comb(nx + p // 2 - 1, p // 2) + lam_dims[q])
        if size > CELL_CAP:
            raise ValueError(
                f"cell ({p},{q}) of the second page at n={n}, g={g} joins "
                f"{size} factor elements, over CELL_CAP {CELL_CAP}")

    # d2 must square to zero on every generator
    try:
        model.dga.check_d_squared_on_generators(
            max(gg.total for gg in model.gens))
    except DgaError as exc:
        raise OracleMismatch(str(exc)) from None

    invdim: dict[tuple[int, int], int] = {}
    outrank: dict[tuple[int, int], int] = {}
    for p, q in cells:
        vectors = model.sl_invariant_vectors(p, q)
        invdim[(p, q)] = len(vectors)
        outrank[(p, q)] = span_rank(model.dga.d(vec) for vec in vectors)
    return {(p, q): dim - outrank[(p, q)] - outrank.get((p - 2, q + 1), 0)
            for (p, q), dim in invdim.items()}


def e2_oracle_check(params: ModelParams) -> dict[tuple[int, int], int]:
    """Run the second-page oracle and compare against the D-model cellwise.

    Returns the (agreed) table; raises OracleMismatch on the first
    differing bidegree.
    """
    table = e2_bruteforce_oracle(params)
    dga = build_D_dga(params, params.maxdeg)
    dtable = dga.cohomology(params.maxdeg)
    for (p, q), a in table.items():
        b = dtable.get((p, q), 0)
        if a != b:
            raise OracleMismatch(
                f"second-page oracle gives {a} but the D-model gives "
                f"{b} at bidegree ({p},{q}) for n={params.n}, g={params.g}")
    return table


@dataclass
class LambdaExpression:
    """A cup-product expression in the explicit generators."""

    gens: GeneratorSet
    element: dict

    def terms(self) -> list[tuple[int | Fraction, str]]:
        return [(c, self.gens.mono_str(m))
                for m, c in sorted(self.element.items(), reverse=True)]

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
    Three or more factors: zero.
    """
    if not ms:
        raise ValueError("requires a nonempty list of indices")
    n, g, M = params.n, params.g, params.M
    if any(m < 1 or m > M for m in ms):
        raise ValueError(f"requires 1 <= m <= M={M} (got {ms})")
    model = E2Model(n, g, M)
    gens = model.gens
    if len(ms) >= 3:
        return LambdaExpression(gens, {})
    if len(ms) == 1:
        m = ms[0]
        if 4 * m - 2 * n - 1 <= 0:
            raise ValueError(
                f"requires 4m - 2n - 1 > 0 for a single factor (got m={m})")
        mono = [0] * len(gens)
        mono[gens.index[f"lu_{m}"]] = 1
        return LambdaExpression(gens, mono_elem(tuple(mono)))
    m0, m1 = ms
    elem: dict = {}
    for first, second in ((m0, m1), (m1, m0)):
        if first not in w_range(n, M) or second not in u_range(n, M):
            continue
        for j in range(g):
            ma = [0] * len(gens)
            ma[gens.index[f"la_{j}_{first}"]] = 1
            mb = [0] * len(gens)
            mb[gens.index[f"lb_{j}_{second}"]] = 1
            elem = elem_add(elem, elem_mul(
                gens, mono_elem(tuple(ma)), mono_elem(tuple(mb))))
    return LambdaExpression(gens, elem)
