"""Invariant theory by Lie-algebra kernels: the one raising-operator core,
and brute-force invariants of mixed tensor powers of Q^g.

The core works on a free graded-commutative algebra whose letters carry
indices: an `Alphabet` lists each letter's indices in N = Q^g and in the
dual N^v, whether it is exterior, and whether a two-index letter is
symmetric or alternating.  From that alone it derives each letter's torus
weight and its images under E_rs, and `_action_rows` applies E_rs as a
derivation to basis elements stored as sorted tuples of letter ids.  The
tensor invariants here, the trigraded cell counts and the second-page
oracle in model only list their letters and the factors of their basis;
one meet-in-the-middle join, `_weight_join`, keeps the products of
factors that have the target weight.

Invariants under GL_g (resp. SL_g) are computed as a joint kernel of the
infinitesimal gl_g action; over Q this kernel coincides with the group
invariants for the rational representations at hand.  Basis elements are
weight vectors for the diagonal torus, so the computation first restricts
to the relevant weight subspace: weight 0 for GL_g, constant weight
(c, ..., c), i.e. sl_g-weight 0, for SL_g.

On that subspace only the simple raising operators E_{r,r+1}, r < g - 1,
are stacked, not all g(g - 1) operators E_rs.  This is exact: each cell
is a finite-dimensional gl_g-module over Q, hence completely reducible,
so a vector of sl_g-weight 0 killed by every E_{r,r+1} is a highest-weight
vector of weight 0 and spans a trivial summand, which every E_rs kills.
The all-pairs systems stay in the tests as the oracle.

The fundamental-theorem check stays in integers from end to end: the
permutation tensors are int count dicts, eliminated once for their rank,
and each int kernel vector of the GL-invariants is reduced against their
pivot rows (README, the section on reducing the kernel against sigma).
`sigma_matrix` and the invariant bases are QMatrix wrappers over the
same int columns.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub
from typing import NamedTuple

from .linalg import QMatrix, _eliminate, kernel_int_basis, reduce_against

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


def _weight_join(factors, weight, target) -> list[tuple[int, ...]]:
    """Every concatenation of one tuple from each factor whose weight is
    target; weight must be additive over concatenation.

    The last factor is grouped by weight; the product of the others is
    streamed, and each partial tuple looks up the weight it still needs.
    When each factor lists sorted letter-id tuples of one length in
    lexicographic order, its letters above those of the factor before,
    the output is sorted tuples in lexicographic order (README, "How the
    weight-restricted basis is built").
    """
    *head, last = factors
    by_weight: dict[tuple[int, ...], list] = {}
    for t in last:
        by_weight.setdefault(weight(t), []).append(t)
    pools = [[(t, weight(t)) for t in f] for f in head]
    out = []
    for parts in itertools.product(*pools):
        prefix, need = (), target
        for t, w in parts:
            prefix += t
            need = tuple(map(sub, need, w))
        out.extend(prefix + t for t in by_weight.get(need, ()))
    return out


def _weight_words(spec: TensorSpaceSpec,
                  target: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All basis words of T^{k,l} with the given torus weight, in
    lexicographic order: the join of the first ceil((k + l)/2) slots
    with the rest."""
    k, l, g = spec.k, spec.l, spec.g
    slots = [range(pos * g, pos * g + g) for pos in range(k + l)]
    h = (k + l + 1) // 2
    letters = _weight_join(
        [itertools.product(*slots[:h]), itertools.product(*slots[h:])],
        _tensor_alphabet(spec).weight, target)
    return [tuple(a % g for a in w) for w in letters]


class Letter(NamedTuple):
    """A letter of a free graded-commutative algebra on which gl_g acts.

    `up` lists its indices in N = Q^g and `down` its indices in the dual
    N^v; letters with the same tag differ only in their indices.  An
    exterior letter squares to zero and anticommutes with the other
    exterior letters.  A letter with several indices of one kind is
    symmetric or alternating in them (x_ji = x_ij or x_ji = -x_ij) and is
    listed once, with those indices sorted.
    """

    tag: object
    up: tuple[int, ...] = ()
    down: tuple[int, ...] = ()
    exterior: bool = False
    alternating: bool = False


def _sorted_sign(idx: tuple[int, ...], alternating: bool):
    """(sign, sorted indices) of a letter written with the indices idx, or
    None when an alternating letter repeats an index."""
    ordered = tuple(sorted(idx))
    if not alternating:
        return 1, ordered
    if len(set(idx)) < len(idx):
        return None
    inversions = sum(a > b for a, b in itertools.combinations(idx, 2))
    return (-1) ** inversions, ordered


class Alphabet:
    """An ordered list of letters.  A basis element of the algebra is the
    sorted tuple of the positions (ids) of its letters."""

    def __init__(self, g: int, letters):
        self.g = g
        self.letters = tuple(letters)
        self.exterior = tuple(a.exterior for a in self.letters)
        self._id = {(a.tag, a.up, a.down): i
                    for i, a in enumerate(self.letters)}

    def weight(self, elt) -> tuple[int, ...]:
        """Torus weight of a basis element: +1 per N index, -1 per N^v
        index."""
        w = [0] * self.g
        for a in elt:
            letter = self.letters[a]
            for i in letter.up:
                w[i] += 1
            for i in letter.down:
                w[i] -= 1
        return tuple(w)

    def images(self, r: int, s: int) -> list[tuple[tuple[int, int], ...]]:
        """E_rs on each letter, as (coefficient, letter id) terms.

        E_rs sends e_s to e_r in N and e^r to -e^s in N^v, one index at a
        time.
        """
        table = []
        for a in self.letters:
            terms = []
            for t, i in enumerate(a.up):
                if i == s:
                    moved = _sorted_sign(a.up[:t] + (r,) + a.up[t + 1:],
                                         a.alternating)
                    if moved:
                        c, up = moved
                        terms.append((c, self._id[a.tag, up, a.down]))
            for t, i in enumerate(a.down):
                if i == r:
                    moved = _sorted_sign(a.down[:t] + (s,) + a.down[t + 1:],
                                         a.alternating)
                    if moved:
                        c, down = moved
                        terms.append((-c, self._id[a.tag, a.up, down]))
            table.append(tuple(terms))
        return table


def raising_pairs(g: int) -> list[tuple[int, int]]:
    """The simple raising operators E_{r,r+1} of gl_g, as (r, s) pairs."""
    return [(r, r + 1) for r in range(g - 1)]


def _action_rows(alphabet: Alphabet, basis,
                 pairs: list[tuple[int, int]]) -> list[dict[int, int]]:
    """Rows of the stacked E_rs actions on the span of basis, an iterable
    of sorted tuples of letter ids.

    E_rs acts as a derivation: it replaces one letter a at a time by an
    image b.  An exterior b that already occurs kills the term; otherwise
    moving b to its sorted place costs one sign per exterior letter
    strictly between a and b.  Rows are indexed by (r, s, image) in the
    order first seen; entries that cancel are dropped.
    """
    exterior = alphabet.exterior
    tables = [(r, s, alphabet.images(r, s)) for r, s in pairs]
    rows: dict[tuple, dict[int, int]] = {}
    for j, elt in enumerate(basis):
        for r, s, table in tables:
            for pos, a in enumerate(elt):
                terms = table[a]
                if not terms:
                    continue
                others = elt[:pos] + elt[pos + 1:]
                for c, b in terms:
                    k = bisect_left(others, b)
                    if exterior[b]:
                        if k < len(others) and others[k] == b:
                            continue
                        lo, hi = ((bisect_right(others, a), k) if a < b
                                  else (k, bisect_left(others, a)))
                        if sum(exterior[o] for o in others[lo:hi]) % 2:
                            c = -c
                    key = (r, s, others[:k] + (b,) + others[k:])
                    d = rows.get(key)
                    if d is None:
                        rows[key] = {j: c}
                        continue
                    v = d.get(j, 0) + c
                    if v:
                        d[j] = v
                    else:
                        del d[j]
    return [d for d in rows.values() if d]


def _tensor_alphabet(spec: TensorSpaceSpec) -> Alphabet:
    """Letter pos*g + i is index i in slot pos: in N for the k covariant
    slots, in N^v for the l contravariant ones."""
    k, g = spec.k, spec.g
    return Alphabet(g, [Letter(pos, (i,)) if pos < k else Letter(pos, (), (i,))
                        for pos in range(k + spec.l) for i in range(g)])


def _invariant_vectors(spec: TensorSpaceSpec,
                       group: str) -> list[tuple[dict[int, int], int]]:
    """The invariant kernel as (vector, den) pairs over word indices of
    T^{k,l}: vector / den is a basis vector, vector has int entries."""
    spec.check_guard()
    k, l, g = spec.k, spec.l, spec.g
    if group not in ("GL", "SL"):
        raise ValueError(f"unknown group {group!r}")
    # constant weight (c, ..., c), so g must divide k - l; GL needs c = 0,
    # i.e. every E_{rr} eigenvalue vanishes
    if (k - l) % g or (group == "GL" and k != l):
        return []
    words = _weight_words(spec, ((k - l) // g,) * g)
    if not words:
        return []
    offsets = range(0, (k + l) * g, g)
    rows = _action_rows(_tensor_alphabet(spec),
                        (tuple(map(add, offsets, w)) for w in words),
                        raising_pairs(g))
    index = [_word_index(w, g) for w in words]
    return [({index[j]: x for j, x in v.items()}, den)
            for v, den in kernel_int_basis(rows, len(words))]


def _invariant_basis(spec: TensorSpaceSpec, group: str) -> QMatrix:
    return QMatrix.from_columns(
        spec.dim, [{i: Fraction(x, den) for i, x in v.items()}
                   for v, den in _invariant_vectors(spec, group)])


def gl_invariant_basis(spec: TensorSpaceSpec) -> QMatrix:
    """Basis (as columns) of the GL_g-invariant subspace of T^{k,l}(Q^g)."""
    return _invariant_basis(spec, "GL")


def sl_invariant_basis(spec: TensorSpaceSpec) -> QMatrix:
    """Basis (as columns) of the SL_g-invariant subspace of T^{k,l}(Q^g)."""
    return _invariant_basis(spec, "SL")


def _check_sigma_args(m: int, g: int):
    if m < 1 or g < 1:
        raise ValueError("need m, g >= 1")
    if m > 6:
        raise ValueError("m > 6 rejected: factorial column count")


def _sigma_columns(m: int, g: int) -> list[dict[int, int]]:
    """The columns of `sigma_matrix` as int count dicts."""
    _check_sigma_args(m, g)
    cols = []
    for perm in itertools.permutations(range(m)):
        # perm maps positions: s(pos) = perm[pos]; contra slot t carries
        # index i_{s^-1(t)}
        inv = [0] * m
        for pos, img in enumerate(perm):
            inv[img] = pos
        col: dict[int, int] = {}
        for word in itertools.product(range(g), repeat=m):
            contra = tuple(word[inv[t]] for t in range(m))
            idx = _word_index(word + contra, g)
            col[idx] = col.get(idx, 0) + 1
        cols.append(col)
    return cols


def sigma_matrix(m: int, g: int) -> QMatrix:
    """Permutation-tensor spanning map on T^{m,m}(Q^g), one column per
    element of the symmetric group on m letters.

    Column for s is the sum over all words (i_1..i_m) of the basis tensor
    with covariant word (i_1..i_m) and contravariant word
    (i_{s^-1(1)}..i_{s^-1(m)}).  Columns are ordered lexicographically by
    the one-line notation of s.
    """
    return QMatrix.from_columns(g ** (2 * m), _sigma_columns(m, g))


@dataclass(frozen=True)
class FundamentalTheoremReport:
    m: int
    g: int
    rank: int
    surjective: bool
    injective: bool


def verify_fundamental_theorems(m: int, g: int) -> FundamentalTheoremReport:
    """Check that the permutation tensors span the GL-invariants of
    T^{m,m}(Q^g) and are independent exactly when m <= g.

    Both bounds are checked before sigma is built.  Sigma's columns are
    eliminated once, which gives its rank; each invariant basis vector is
    then reduced against the pivot rows (README, the section on reducing
    the kernel against sigma).
    """
    _check_sigma_args(m, g)
    spec = TensorSpaceSpec(m, m, g)
    spec.check_guard()
    pivots, pivot_rows = _eliminate(_sigma_columns(m, g))
    rank = len(pivots)
    kernel = _invariant_vectors(spec, "GL")
    # the basis vectors are independent (each is nonzero at its own free
    # column only), so equal counts plus containment give equal spans
    surjective = rank == len(kernel) and not any(
        reduce_against(pivots, pivot_rows, v) for v, _ in kernel)
    injective = rank == math.factorial(m)
    return FundamentalTheoremReport(m=m, g=g, rank=rank,
                                    surjective=surjective, injective=injective)
