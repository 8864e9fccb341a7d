"""Brute-force invariant theory on mixed tensor powers of Q^g.

Invariants under GL_g (resp. SL_g) are computed as a joint kernel of the
infinitesimal gl_g action; over Q this kernel coincides with the group
invariants for the rational representations at hand.  Basis tensors are
weight vectors for the diagonal torus, so the computation first restricts
to the relevant weight subspace: weight 0 for GL_g, constant weight
(c, ..., c), i.e. sl_g-weight 0, for SL_g.

On that subspace only the simple raising operators E_{r,r+1}, r < g - 1,
are stacked, not all g(g - 1) operators E_rs.  This is exact: T^{k,l}(Q^g)
is a finite-dimensional gl_g-module over Q, hence completely reducible, so
a vector of sl_g-weight 0 killed by every E_{r,r+1} is a highest-weight
vector of weight 0 and spans a trivial summand, which every E_rs kills.
The all-pairs system stays in the tests as the oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .linalg import QMatrix, kernel_basis_columns, subspace_equal

# ambient dimension cap; beyond this the weight-zero subspace itself gets
# unwieldy and the caller should rethink
DIMENSION_CAP = 200_000


@dataclass(frozen=True)
class TensorSpaceSpec:
    """T^{k,l}(Q^g): k covariant and l contravariant slots."""

    k: int
    l: int
    g: int

    def __post_init__(self):
        if self.k < 0 or self.l < 0 or self.g < 1:
            raise ValueError("need k, l >= 0 and g >= 1")

    @property
    def dim(self) -> int:
        return self.g ** (self.k + self.l)

    def check_guard(self):
        if self.dim > DIMENSION_CAP:
            raise ValueError(
                f"tensor space dimension {self.dim} exceeds cap {DIMENSION_CAP}")


def _word_index(word: tuple[int, ...], g: int) -> int:
    # row-major, covariant slots first
    idx = 0
    for w in word:
        idx = idx * g + w
    return idx


def _weight_words(spec: TensorSpaceSpec,
                  target: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All basis words of T^{k,l} with the given torus weight, in
    lexicographic order.

    Depth-first over the slots, keeping only prefixes that can still be
    completed: `need` is the weight left to place, and only covariant
    slots spend its positive part, so that part must fit into the
    covariant slots still open.
    """
    k, l, g = spec.k, spec.l, spec.g
    need = list(target)
    surplus = sum(x for x in need if x > 0)
    if len(need) != g or sum(need) != k - l or surplus > k:
        return []
    out: list[tuple[int, ...]] = []
    word: list[int] = []

    def extend(pos: int, surplus: int):
        if pos == k + l:
            out.append(tuple(word))
            return
        covariant = pos < k
        for i in range(g):
            if covariant:
                # spend one unit at i; the positive part left must fit
                # into the covariant slots after this one
                left = surplus - 1 if need[i] > 0 else surplus
                if left > k - pos - 1:
                    continue
                step = -1
            elif need[i] < 0:
                # give one unit back; nothing is left to spend
                left, step = surplus, 1
            else:
                continue
            need[i] += step
            word.append(i)
            extend(pos + 1, left)
            word.pop()
            need[i] -= step

    extend(0, surplus)
    return out


def raising_pairs(g: int) -> list[tuple[int, int]]:
    """The simple raising operators E_{r,r+1} of gl_g, as (r, s) pairs."""
    return [(r, r + 1) for r in range(g - 1)]


def _action_rows(spec: TensorSpaceSpec, words: list[tuple[int, ...]],
                 pairs: list[tuple[int, int]]) -> list[dict[int, int]]:
    """Rows of the stacked E_{rs} actions restricted to the given words.

    E_{rs} sends a_s -> a_r on covariant slots and a^r -> -a^s on
    contravariant slots.  Rows are indexed by (r, s, image word).
    """
    k = spec.k
    rows: dict[tuple, dict[int, int]] = {}
    for j, word in enumerate(words):
        for r, s in pairs:
            for pos, i in enumerate(word):
                if pos < k and i == s:
                    img = word[:pos] + (r,) + word[pos + 1:]
                    d = rows.setdefault((r, s, img), {})
                    d[j] = d.get(j, 0) + 1
                elif pos >= k and i == r:
                    img = word[:pos] + (s,) + word[pos + 1:]
                    d = rows.setdefault((r, s, img), {})
                    d[j] = d.get(j, 0) - 1
    return [d for d in rows.values() if d]


def _invariant_basis(spec: TensorSpaceSpec, group: str) -> QMatrix:
    spec.check_guard()
    k, l, g = spec.k, spec.l, spec.g
    if group == "GL":
        # all E_{rr} eigenvalues must vanish
        words = _weight_words(spec, tuple([0] * g))
    elif group == "SL":
        # constant weight (c, ..., c); possible only when g divides k - l
        if (k - l) % g != 0:
            return QMatrix(spec.dim, 0)
        c = (k - l) // g
        words = _weight_words(spec, tuple([c] * g))
    else:
        raise ValueError(f"unknown group {group!r}")
    if not words:
        return QMatrix(spec.dim, 0)
    rows = _action_rows(spec, words, raising_pairs(g))
    kernel = kernel_basis_columns(rows, len(words))
    cols = []
    for vec in kernel:
        cols.append({_word_index(words[j], g): v for j, v in vec.items()})
    return QMatrix.from_columns(spec.dim, cols)


def gl_invariant_basis(spec: TensorSpaceSpec) -> QMatrix:
    """Basis (as columns) of the GL_g-invariant subspace of T^{k,l}(Q^g)."""
    return _invariant_basis(spec, "GL")


def sl_invariant_basis(spec: TensorSpaceSpec) -> QMatrix:
    """Basis (as columns) of the SL_g-invariant subspace of T^{k,l}(Q^g)."""
    return _invariant_basis(spec, "SL")


def sigma_matrix(m: int, g: int) -> QMatrix:
    """Permutation-tensor spanning map on T^{m,m}(Q^g), one column per
    element of the symmetric group on m letters.

    Column for s is the sum over all words (i_1..i_m) of the basis tensor
    with covariant word (i_1..i_m) and contravariant word
    (i_{s^-1(1)}..i_{s^-1(m)}).  Columns are ordered lexicographically by
    the one-line notation of s.
    """
    if m < 1 or g < 1:
        raise ValueError("need m, g >= 1")
    if m > 6:
        raise ValueError("m > 6 rejected: factorial column count")
    dim = g ** (2 * m)
    cols = []
    for perm in itertools.permutations(range(m)):
        # perm maps positions: s(pos) = perm[pos]; contra slot t carries
        # index i_{s^-1(t)}
        inv = [0] * m
        for pos, img in enumerate(perm):
            inv[img] = pos
        col: dict[int, Fraction] = {}
        for word in itertools.product(range(g), repeat=m):
            contra = tuple(word[inv[t]] for t in range(m))
            idx = _word_index(word + contra, g)
            col[idx] = col.get(idx, Fraction(0)) + 1
        cols.append(col)
    return QMatrix.from_columns(dim, cols)


@dataclass(frozen=True)
class FundamentalTheoremReport:
    m: int
    g: int
    rank: int
    surjective: bool
    injective: bool


def verify_fundamental_theorems(m: int, g: int) -> FundamentalTheoremReport:
    """Check that the permutation tensors span the GL-invariants of
    T^{m,m}(Q^g) and are independent exactly when m <= g."""
    sigma = sigma_matrix(m, g)
    inv = gl_invariant_basis(TensorSpaceSpec(m, m, g))
    rank = sigma.rank()
    surjective = subspace_equal(sigma, inv)
    injective = rank == math.factorial(m)
    return FundamentalTheoremReport(m=m, g=g, rank=rank,
                                    surjective=surjective, injective=injective)
