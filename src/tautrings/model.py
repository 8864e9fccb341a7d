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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .graded import (
    BigradedDGA,
    GeneratorSet,
    elem_add,
    elem_mul,
    fgca_dims,
    mono_elem,
    span_rank,
    substitute_generator,
)
from .invariants import raising_pairs
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


def build_D_dga(params: ModelParams) -> BigradedDGA:
    """The bigraded DGA Lambda(V + W(x)U) (x) S(Q[2,0] (x) Lambda^2 U).

    Generators: v_m at (0, 4m-2n-1); y_{m0,m1} = w_{m0}(x)u_{m1} at
    (0, 4(m0+m1)-2n-1); z_{m0,m1} = u_{m0}^u_{m1} (m0 < m1, ungraded
    wedge) at (2, 4(m0+m1)-2n-2).  The differential sends y_{m0,m1} to
    S(w_{m0})^u_{m1} and vanishes on v and z.
    """
    n, M = params.n, params.M
    ws, us = w_range(n, M), u_range(n, M)
    gens_list: list[tuple[str, tuple[int, int]]] = []
    for m in v_range(n, M):
        gens_list.append((f"v{m}", (0, 4 * m - 2 * n - 1)))
    for m0 in ws:
        for m1 in us:
            gens_list.append(
                (f"y{m0}_{m1}", (0, 4 * (m0 + m1) - 2 * n - 1)))
    for m0, m1 in itertools.combinations(us, 2):
        gens_list.append((f"z{m0}_{m1}", (2, 4 * (m0 + m1) - 2 * n - 2)))
    gens = GeneratorSet(gens_list)

    diff: dict[str, dict] = {}
    for m0 in ws:
        if 4 * m0 - n - 1 == 0:
            continue  # S(w_{m0}) = 0: degenerate slot
        for m1 in us:
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
    dga = build_D_dga(params)
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


def _x_letters(spec: ACAlgebraSpec) -> list[tuple[int, int]]:
    if spec.variant == "A":
        return [(i, j) for i in range(spec.g) for j in range(i, spec.g)]
    return [(i, j) for i in range(spec.g) for j in range(i + 1, spec.g)]


def _canonical_pair(spec_variant: str, u: int, v: int):
    """Canonical (letter, sign) for the L^2-letter with slots (u, v)."""
    if spec_variant == "A":
        return ((min(u, v), max(u, v)), 1)
    if u == v:
        return None
    if u < v:
        return ((u, v), 1)
    return ((v, u), -1)


def _multiset_basis(nletters: int, size: int):
    return itertools.combinations_with_replacement(range(nletters), size)


def _set_basis(nletters: int, size: int):
    return itertools.combinations(range(nletters), size)


def _replace_sym(elt: tuple, pos: int, new: int) -> tuple:
    return tuple(sorted(elt[:pos] + elt[pos + 1:] + (new,)))


def _replace_ext(elt: tuple, pos: int, new: int):
    """(sign, sorted tuple) or None if the new letter already occurs."""
    others = elt[:pos] + elt[pos + 1:]
    if new in others:
        return None
    old = elt[pos]
    lo, hi = (old, new) if old < new else (new, old)
    crossings = sum(1 for o in others if lo < o < hi)
    return (-1 if crossings % 2 else 1), tuple(sorted(others + (new,)))


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
    g = spec.g
    xl = _x_letters(spec)
    yl = [(i, a) for i in range(g) for a in range(spec.dimW)]
    zl = [(i, b) for i in range(g) for b in range(spec.dimU)]
    x_sym = True
    y_sym = spec.variant == "A"
    z_sym = spec.variant == "C"

    def count(nlet, size, sym):
        if sym:
            if nlet == 0:
                return 1 if size == 0 else 0
            return math.comb(nlet + size - 1, size)
        return math.comb(nlet, size)

    dim = (count(len(xl), p, x_sym) * count(len(yl), q, y_sym)
           * count(len(zl), r, z_sym))
    if dim == 0:
        return 0
    if dim > CELL_CAP:
        raise ValueError(f"cell dimension {dim} exceeds cap {CELL_CAP}")

    # every basis element has total torus weight summing to 2p + q - r
    wsum = 2 * p + q - r
    if group == "GL":
        if wsum != 0:
            return 0
        target = (0,) * g
    else:
        if wsum % g != 0:
            return 0
        c = wsum // g
        target = (c,) * g

    def weights(factor_basis, letter_weight):
        out = []
        for letters in factor_basis:
            w = [0] * g
            for li in letters:
                for i, e in letter_weight[li]:
                    w[i] += e
            out.append(tuple(w))
        return out

    xbasis = list(_multiset_basis(len(xl), p) if x_sym else _set_basis(len(xl), p))
    ybasis = list(_multiset_basis(len(yl), q) if y_sym else _set_basis(len(yl), q))
    zbasis = list(_multiset_basis(len(zl), r) if z_sym else _set_basis(len(zl), r))
    xw = weights(xbasis, [((i, 1), (j, 1)) for i, j in xl])
    yw = weights(ybasis, [((i, 1),) for i, _ in yl])
    # z factors grouped by weight, each group in basis order, so the cell
    # basis below keeps the (x, y, z) product order
    z_by_weight: dict[tuple[int, ...], list] = {}
    for zs, wz in zip(zbasis, weights(zbasis, [((i, -1),) for i, _ in zl])):
        z_by_weight.setdefault(wz, []).append(zs)
    basis = [
        (xs, ys, zs)
        for xs, wx in zip(xbasis, xw) for ys, wy in zip(ybasis, yw)
        for zs in z_by_weight.get(
            tuple(t - a - b for t, a, b in zip(target, wx, wy)), ())
    ]
    if not basis:
        return 0

    xind = {l: i for i, l in enumerate(xl)}
    yind = {l: i for i, l in enumerate(yl)}
    zind = {l: i for i, l in enumerate(zl)}

    def x_images(li, rr, ss):
        i, j = xl[li]
        out = []
        if i == ss:
            c = _canonical_pair(spec.variant, rr, j)
            if c:
                out.append((xind[c[0]], c[1]))
        if j == ss:
            c = _canonical_pair(spec.variant, i, rr)
            if c:
                out.append((xind[c[0]], c[1]))
        return out

    def y_images(li, rr, ss):
        i, a = yl[li]
        return [(yind[(rr, a)], 1)] if i == ss else []

    def z_images(li, rr, ss):
        i, b = zl[li]
        return [(zind[(ss, b)], -1)] if i == rr else []

    rows: dict[tuple, dict[int, int]] = {}

    def add(key, col, coeff):
        if coeff:
            d = rows.setdefault(key, {})
            d[col] = d.get(col, 0) + coeff
            if not d[col]:
                del d[col]

    pairs = raising_pairs(g)
    for col, (xs, ys, zs) in enumerate(basis):
        for rr, ss in pairs:
            for pos in range(len(xs)):
                for new, coeff in x_images(xs[pos], rr, ss):
                    img = (_replace_sym(xs, pos, new), ys, zs)
                    add((rr, ss, img), col, coeff)
            for pos in range(len(ys)):
                for new, coeff in y_images(ys[pos], rr, ss):
                    if y_sym:
                        img = (xs, _replace_sym(ys, pos, new), zs)
                    else:
                        rep = _replace_ext(ys, pos, new)
                        if rep is None:
                            continue
                        coeff *= rep[0]
                        img = (xs, rep[1], zs)
                    add((rr, ss, img), col, coeff)
            for pos in range(len(zs)):
                for new, coeff in z_images(zs[pos], rr, ss):
                    if z_sym:
                        img = (xs, ys, _replace_sym(zs, pos, new))
                    else:
                        rep = _replace_ext(zs, pos, new)
                        if rep is None:
                            continue
                        coeff *= rep[0]
                        img = (xs, ys, rep[1])
                    add((rr, ss, img), col, coeff)
    return len(basis) - rank_of_int_rows([d for d in rows.values() if d])


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
        gens_list: list[tuple[str, tuple[int, int]]] = []
        kind_by_name: dict[str, tuple] = {}
        if n % 2 == 0:
            xpairs = [(i, j) for i in range(g) for j in range(i, g)]
        else:
            xpairs = [(i, j) for i in range(g) for j in range(i + 1, g)]
        for i, j in xpairs:
            name = f"x_{i}_{j}"
            gens_list.append((name, (2, 0)))
            kind_by_name[name] = ("x", (i, j))
        self.a_ms = [m for m in range(1, M + 1) if 4 * m - n > 0]
        self.b_ms = [m for m in range(1, M + 1) if 4 * m - n - 1 > 0]
        self.u_ms = [m for m in range(1, M + 1) if 4 * m - 2 * n - 1 > 0]
        for m in self.a_ms:
            for i in range(g):
                name = f"la_{i}_{m}"
                gens_list.append((name, (0, 4 * m - n)))
                kind_by_name[name] = ("a", (i, m))
        for m in self.b_ms:
            for i in range(g):
                name = f"lb_{i}_{m}"
                gens_list.append((name, (0, 4 * m - n - 1)))
                kind_by_name[name] = ("b", (i, m))
        for m in self.u_ms:
            name = f"lu_{m}"
            gens_list.append((name, (0, 4 * m - 2 * n - 1)))
            kind_by_name[name] = ("u", (m,))
        self.gens = GeneratorSet(gens_list)
        self.kind = [kind_by_name[gg.name] for gg in self.gens]
        self.weights = [self._gen_weight(k) for k in self.kind]
        self.dga = BigradedDGA(self.gens, self._differential())

    def _gen_weight(self, kind) -> tuple[int, ...]:
        w = [0] * self.g
        tag, data = kind
        if tag == "x":
            i, j = data
            w[i] += 1
            w[j] += 1
        elif tag == "a":
            w[data[0]] += 1
        elif tag == "b":
            w[data[0]] -= 1
        return tuple(w)

    def x_index(self, u: int, v: int):
        """Index and sign of the canonical generator for x_{uv}."""
        n = self.n
        if n % 2 == 0:
            a, b = (u, v) if u <= v else (v, u)
            return self.gens.index[f"x_{a}_{b}"], 1
        if u == v:
            return None
        if u < v:
            return self.gens.index[f"x_{u}_{v}"], 1
        return self.gens.index[f"x_{v}_{u}"], -1

    def _differential(self) -> dict[str, dict]:
        n, g = self.n, self.g
        lead = 1 if (n + 1) % 2 == 0 else -1
        diff: dict[str, dict] = {}
        for m in self.a_ms:
            if 4 * m - n - 1 == 0:
                continue
            for j in range(g):
                val: dict = {}
                for i in range(g):
                    xi = self.x_index(i, j)
                    if xi is None:
                        continue
                    mono = [0] * len(self.gens)
                    mono[xi[0]] = 1
                    mono[self.gens.index[f"lb_{i}_{m}"]] = 1
                    val[tuple(mono)] = lead * xi[1]
                if val:
                    diff[f"la_{j}_{m}"] = val
        return diff

    def mono_weight(self, mono) -> tuple[int, ...]:
        w = [0] * self.g
        for i, e in enumerate(mono):
            if e:
                for t in range(self.g):
                    w[t] += e * self.weights[i][t]
        return tuple(w)

    def lie_action(self, mono, rr: int, ss: int) -> list[tuple[int, tuple]]:
        """E_{rr,ss} applied to a monomial: list of (coeff, monomial)."""
        out = []
        for i, e in enumerate(mono):
            if not e:
                continue
            tag, data = self.kind[i]
            if tag == "x":
                a, b = data
                for slot_is_first in (True, False):
                    src = a if slot_is_first else b
                    other = b if slot_is_first else a
                    if src != ss:
                        continue
                    xi = self.x_index(rr, other) if slot_is_first \
                        else self.x_index(other, rr)
                    if xi is None:
                        continue
                    res = substitute_generator(self.gens, mono, i, xi[0])
                    if res:
                        out.append((res[0] * xi[1], res[1]))
            elif tag == "a":
                ii, m = data
                if ii == ss:
                    tgt = self.gens.index[f"la_{rr}_{m}"]
                    res = substitute_generator(self.gens, mono, i, tgt)
                    if res:
                        out.append((res[0], res[1]))
            elif tag == "b":
                ii, m = data
                if ii == rr:
                    tgt = self.gens.index[f"lb_{ss}_{m}"]
                    res = substitute_generator(self.gens, mono, i, tgt)
                    if res:
                        out.append((-res[0], res[1]))
        return out

    def sl_invariant_vectors(self, p: int, q: int) -> list[dict]:
        """Basis of the SL-invariants of the (p, q) cell, as elements.

        The joint kernel of the simple raising operators on the monomials
        of constant weight (c, ..., c); see invariants for why these
        operators suffice.
        """
        monos = [m for m in self.gens.monomials_bidegree(p, q)
                 if len(set(self.mono_weight(m))) <= 1]
        if not monos:
            return []
        rows: dict[tuple, dict[int, int]] = {}
        pairs = raising_pairs(self.g)
        for j, mono in enumerate(monos):
            for rr, ss in pairs:
                for coeff, img in self.lie_action(mono, rr, ss):
                    d = rows.setdefault((rr, ss, img), {})
                    d[j] = d.get(j, 0) + coeff
                    if not d[j]:
                        del d[j]
        kernel = kernel_basis_columns(
            [d for d in rows.values() if d], len(monos))
        return [{monos[j]: v for j, v in vec.items()} for vec in kernel]


def e2_bruteforce_oracle(params: ModelParams) -> dict[tuple[int, int], int]:
    """Third-page dimensions from the explicit generators-and-d2 model.

    Cellwise: take SL-invariants by Lie-algebra kernel, restrict d2, and
    read off kernel-mod-image dimensions for every bidegree with total
    degree <= maxdeg.
    """
    n, g = params.n, params.g
    if n not in (5, 6):
        raise ValueError(f"requires n in {{5, 6}} (got n={n})")
    if g > 5:
        raise ValueError(f"requires g <= 5 (got g={g})")
    model = E2Model(n, g, params.M)

    # d2 must square to zero on every generator
    for i in range(len(model.gens)):
        mono = [0] * len(model.gens)
        mono[i] = 1
        dd = model.dga.d(model.dga.d(mono_elem(tuple(mono))))
        if dd:
            raise OracleMismatch(
                f"d2^2 != 0 on generator {model.gens[i].name}")

    maxdeg = params.maxdeg
    invdim: dict[tuple[int, int], int] = {}
    outrank: dict[tuple[int, int], int] = {}
    for total in range(maxdeg + 1):
        for p in range(total + 1):
            q = total - p
            vectors = model.sl_invariant_vectors(p, q)
            invdim[(p, q)] = len(vectors)
            outrank[(p, q)] = span_rank(model.dga.d(vec) for vec in vectors)
    table: dict[tuple[int, int], int] = {}
    for (p, q), dim in invdim.items():
        table[(p, q)] = dim - outrank[(p, q)] - outrank.get((p - 2, q + 1), 0)
    return table


def e2_oracle_check(params: ModelParams) -> dict[tuple[int, int], int]:
    """Run the second-page oracle and compare against the D-model cellwise.

    Returns the (agreed) table; raises OracleMismatch on the first
    differing bidegree.
    """
    table = e2_bruteforce_oracle(params)
    dga = build_D_dga(params)
    dtable = dga.cohomology(params.maxdeg)
    for total in range(params.maxdeg + 1):
        for p in range(total + 1):
            q = total - p
            a = table.get((p, q), 0)
            b = dtable.get((p, q), 0)
            if a != b:
                raise OracleMismatch(
                    f"second-page oracle gives {a} but the D-model gives "
                    f"{b} at bidegree ({p},{q}) for n={params.n}, "
                    f"g={params.g}")
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
        if first not in model.a_ms or second not in model.b_ms:
            continue
        for j in range(g):
            ma = [0] * len(gens)
            ma[gens.index[f"la_{j}_{first}"]] = 1
            mb = [0] * len(gens)
            mb[gens.index[f"lb_{j}_{second}"]] = 1
            elem = elem_add(elem, elem_mul(
                gens, mono_elem(tuple(ma)), mono_elem(tuple(mb))))
    return LambdaExpression(gens, elem)
