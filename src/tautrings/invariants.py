"""Invariant theory by Lie-algebra kernels: the one invariant-kernel core,
and brute-force invariants of mixed tensor powers of Q^g.

The core works on a free graded-commutative algebra whose letters carry
indices: an `Alphabet` lists each letter's indices in N = Q^g and in the
dual N^v, whether it is exterior, and whether a two-index letter is
symmetric or alternating.  From that alone it derives each letter's torus
weight, its images under E_rs and under the transpositions s_r of the
indices r and r + 1.  Basis elements are sorted tuples of letter ids, the
monomials of graded; this module sits above graded.

Every weight space the core reads comes from one builder, `_weight_space`:
it joins, meet in the middle, a subset or multiset of each label's letters
into the elements of the target weight, each weight packed into one int.
A tensor space is k + l labels of size 1, one per slot; model's blocks are
the labels of one content.

Invariants under GL_g (resp. SL_g) are computed as a kernel of the
infinitesimal gl_g action; over Q this kernel coincides with the group
invariants for the rational representations at hand.  The computation
first restricts to the weight subspace of the diagonal torus they lie in:
weight 0 for GL_g, constant weight (c, ..., c), sl_g-weight 0, for SL_g.

`_invariant_system` reduces that subspace once more, by the Weyl group.
Permutation matrices P_w lie in GL_g, and a signed one in SL_g acts on
weight (c, ..., c) as sgn(w)^c P_w, so every invariant is a combination of
S_g-orbit sums of basis elements, twisted by sgn^c (c = 0 for GL); an
orbit step's sign of re-sorting exterior letters is an inversion count on
bitmasks (`_odd`).  On those orbit sums it stacks E_01 alone: every
E_{r,r+1} is P_w E_01 P_w^-1 for some w, so an orbit sum killed by E_01 is
killed by every simple raising operator, hence (highest weight 0, complete
reducibility) by all of gl_g.  E_rs acts as an even derivation through
graded.apply_derivation on packed monomial codes, so no image tuple is
built, and rows that are +- an earlier row are dropped.  The stacked
simple-operator and all-pairs systems stay in the tests as oracles.

`character_dim` counts the invariants of T^{k,l} with no operator, by
Schur-Weyl duality, and `invariant_dim` as the kernel of the reduced
system; criterion 2 holds the two to each other.  The fundamental-theorem
check stays in integers, builds no kernel basis and applies E_01 to the
permutation tensor of the identity alone: the others are its images under
relabelling the contravariant slots, which commutes with gl_g (README,
"Why containment and a count decide the span").  `sigma_matrix` and the
invariant bases are QMatrix wrappers over int columns.

Work past a cap is refused with partitions.CapExceeded before the stage
it gates: JOIN_CAP on the builder's steps, ORBIT_CAP on the live orbits
before any row of the reduced system is built, and SIGMA_CAP on sigma's
slots.  The tableau count holds its shapes to partitions.SCHUR_CELL_CAP
and its partitions to partitions.PARTITION_CAP.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from operator import add, eq, mul, or_
from typing import NamedTuple

from .graded import apply_derivation, derivation_table, mono_codes
from .linalg import QMatrix, _eliminate, kernel_int_basis
from .partitions import (PARTITION_CAP, SCHUR_CELL_CAP, _hook_product,
                         _partitions_desc, check_cap)

# the caps on the steps of the weight-space join (README, "How the
# weight-restricted basis is built"), on the live orbits, the columns of the
# reduced system the tensor paths eliminate, and on the m of sigma's m! columns
JOIN_CAP = 4_000_000
ORBIT_CAP = 3_000
SIGMA_CAP = 6


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

    def __str__(self) -> str:
        return f"T^{{{self.k},{self.l}}}(Q^{self.g})"


def _word_index(word: tuple[int, ...], g: int) -> int:
    """Row-major index of a word, covariant slots first.  The word is its
    indices or its letters of `_tensor_alphabet`: letter pos*g + i has
    index i."""
    idx = 0
    for a in word:
        idx = idx * g + a % g
    return idx


def _join_weighed(head, by_weight) -> list[tuple[int, ...]]:
    """Every t + u for (t, need) in head and u in by_weight[need]."""
    out = []
    for t, need in head:
        out.extend(t + u for u in by_weight.get(need, ()))
    return out


def _charge(spent: list[int], steps: int, what: str, doing: str, *counts):
    """Add steps to the one-item list spent and refuse past JOIN_CAP,
    saying what the join would do: doing formatted with counts."""
    spent[0] += steps
    check_cap("JOIN_CAP", JOIN_CAP, spent[0], "{}: the weight-space join "
              "would " + doing + ", {} steps or more in all", what, *counts,
              spent[0])


def _weight_space(labels, alphabet, target, what: str,
                  spent: list[int] | None = None) -> list[tuple[int, ...]]:
    """The elements of weight target that take from each label (letter
    ids of alphabet, size, exterior) a subset (exterior) or a multiset of
    size of its letters, as sorted tuples in lexicographic order: the
    labels come in increasing letter order.  The product of the labels up
    to where the two products are smallest in sum is streamed against the
    rest grouped by weight, additive and packed in one int (`packed`).
    Steps are charged to spent, shared by the joins of one cell, before the
    work they count (README, "How the weight-restricted basis is built");
    the labels are read only while their sizes sum to at most JOIN_CAP and
    multiply to at most its square."""
    spent = [0] if spent is None else spent
    read, sizes, length, listed, whole = [], [], 0, 0, 1
    big = JOIN_CAP * JOIN_CAP
    for label in labels:
        letters, size, exterior = label
        n = math.comb(len(letters) + (size - 1 if size and not exterior
                                      else 0), size)
        read.append(label)
        sizes.append(n)
        length, listed, whole = length + size, listed + n, whole * n
        if listed > JOIN_CAP or whole > big:
            break
    # the sizes of the products of the first s factors and of the rest,
    # summed, for each s; the last s of least sum
    sums = list(map(add, itertools.accumulate(sizes, mul, initial=1), reversed(
        list(itertools.accumulate(reversed(sizes), mul, initial=1)))))
    elements = min(sums)
    cut = len(sums) - 1 - sums[::-1].index(elements)
    _charge(spent, listed + elements * (1 + len(target)), what,
            "list at least {} elements and weigh at least {} weight entries",
            listed + elements, elements * len(target))

    def product(part):
        if all(size == 1 for _, size, _ in part):   # the letters themselves
            return itertools.product(*(letters for letters, _, _ in part))
        return map(tuple, map(itertools.chain.from_iterable, itertools.product(
            *((itertools.combinations if exterior
               else itertools.combinations_with_replacement)(letters, size)
              for letters, size, exterior in part))))

    bits, table = alphabet.packed(length)
    if max(map(abs, target), default=0) >> bits - 1:
        return []   # past every element's weight entries
    goal = sum(t << bits * i for i, t in enumerate(target))

    def weight(t):
        return sum(map(table.__getitem__, t))

    head = [(t, goal - weight(t)) for t in product(read[:cut])]
    tail: dict[int, list] = {}   # by weight, each group in order
    for u in product(read[cut:]):
        tail.setdefault(weight(u), []).append(u)
    count = sum(len(tail.get(need, ())) for _, need in head)
    _charge(spent, count * (length + len(target)), what,
            "keep {} words of {} letters and {} weight entries",
            count, length, len(target))
    return _join_weighed(head, tail)


def _weight_words(spec: TensorSpaceSpec, alphabet: Alphabet,
                  target: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All basis words of T^{k,l} with the given weight, as letter tuples
    of `_tensor_alphabet(spec)` in lexicographic order: the weight-space
    join of k + l labels of size 1, the g letters of each slot."""
    g = spec.g
    return _weight_space(((range(pos * g, pos * g + g), 1, False)
                          for pos in range(spec.k + spec.l)),
                         alphabet, target, str(spec))


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
    return -1 if _odd(idx) else 1, ordered


def _odd(seq) -> bool:
    """Has seq, distinct ints >= 0, an odd number of inversions?  Each int
    is inverted with the earlier ones above it, the bits of seen past its
    own."""
    seen = inversions = 0
    for b in seq:
        inversions += (seen >> b >> 1).bit_count()
        seen |= 1 << b
    return inversions % 2 == 1


class Alphabet:
    """An ordered list of letters.  A basis element of the algebra is the
    sorted tuple of the positions (ids) of its letters.  The letters, an
    iterable, and each lookup table are built when first needed: an
    alphabet whose join keeps nothing builds no id dict or swap masks."""

    def __init__(self, g: int, letters):
        self.g = g
        self._letters = letters
        self._relabel: dict[int, tuple[list[int], set[int]]] = {}
        self._derivation: dict[tuple[int, int, int | None], list] = {}
        self._packed: dict[int, tuple[int, list[int]]] = {}

    @cached_property
    def letters(self) -> tuple[Letter, ...]:
        return tuple(self._letters)

    @cached_property
    def exterior(self) -> tuple[bool, ...]:
        return tuple(a.exterior for a in self.letters)

    @cached_property
    def _id(self) -> dict[tuple, int]:
        return {(a.tag, a.up, a.down): i for i, a in enumerate(self.letters)}

    @cached_property
    def weight0(self) -> list[int]:
        """Per letter, its weight at index 0."""
        return [a.up.count(0) - a.down.count(0) for a in self.letters]

    @cached_property
    def swaps(self) -> list[int]:
        """Per letter, bit r set when the swap s_r of the indices r and
        r + 1 moves one of its indices (3 << i >> 1 sets r = i - 1, i)."""
        every = (1 << (self.g - 1)) - 1
        return [reduce(or_, (3 << i >> 1 for i in a.up + a.down), 0) & every
                for a in self.letters]

    @cached_property
    def _with_index(self) -> dict[int, list[int]]:
        """Per index, the letters with it."""
        with_index: dict[int, list[int]] = {}
        for a, letter in enumerate(self.letters):
            for i in letter.up + letter.down:
                with_index.setdefault(i, []).append(a)
        return with_index

    def packed(self, length: int) -> tuple[int, list[int]]:
        """(bits, weights): per letter its torus weight w, +1 per N index
        and -1 per N^v index, as the sum of w_i * 2^(bits*i).  2^(bits - 1)
        exceeds each |w_i| of an element of length letters, so that packing
        is injective on their weights and on targets as small.  Each weight
        is built from its own letter's indices: a table of 2^(bits*i) for
        every i < g would take about bits*g^2/16 bytes.  Built once per
        alphabet and length."""
        if length not in self._packed:
            most = max((len(a.up) + len(a.down) for a in self.letters),
                       default=0)
            bits = (length * most).bit_length() + 1
            self._packed[length] = bits, [
                sum(1 << bits * i for i in a.up)
                - sum(1 << bits * i for i in a.down) for a in self.letters]
        return self._packed[length]

    def images(self, r: int, s: int) -> list[tuple[tuple[int, int], ...]]:
        """E_rs on each letter, as (coefficient, letter id) terms.

        E_rs sends e_s to e_r in N and e^r to -e^s in N^v, one index at a
        time, so only the letters with index r or s have terms.
        """
        table: list[tuple[tuple[int, int], ...]] = [()] * len(self.letters)
        with_index = self._with_index
        for k in {*with_index.get(r, ()), *with_index.get(s, ())}:
            a = self.letters[k]
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
            table[k] = tuple(terms)
        return table

    def relabel(self, r: int) -> tuple[list[int], set[int]]:
        """The swap s_r of the indices r and r + 1 on each letter, in N and
        N^v alike, as (image ids, the ids whose image has sign -1).  Built
        once per alphabet and r: a copy of the identity with the images of
        the letters s_r moves written in."""
        if r in self._relabel:
            return self._relabel[r]
        swap = {r: r + 1, r + 1: r}
        ids, flips = list(range(len(self.letters))), set()
        with_index = self._with_index
        for a in {*with_index.get(r, ()), *with_index.get(r + 1, ())}:
            letter = self.letters[a]
            up = [swap.get(i, i) for i in letter.up]
            down = [swap.get(i, i) for i in letter.down]
            if letter.alternating and _odd(up) != _odd(down):
                flips.add(a)
            ids[a] = self._id[letter.tag, tuple(sorted(up)),
                              tuple(sorted(down))]
        self._relabel[r] = ids, flips
        return ids, flips

    def derivation(self, r: int, s: int, width: int | None = None) -> list:
        """E_rs as a graded.derivation_table, on the letter codes 1 <<
        width * a if a width is given.  Built once per alphabet, (r, s) and
        width."""
        if (r, s, width) not in self._derivation:
            self._derivation[r, s, width] = derivation_table(self.exterior, {
                a: [((b,), c) for c, b in terms]
                for a, terms in enumerate(self.images(r, s))},
                None if width is None else [
                    1 << width * a for a in range(len(self.exterior))])
        return self._derivation[r, s, width]


def _action_rows(alphabet: Alphabet, basis, pairs: list[tuple[int, int]],
                 columns) -> list[dict[int, int]]:
    """Rows of the stacked E_rs actions on the span of basis, an iterable
    of sorted tuples of letter ids, over the columns that columns[j] =
    (o, e) names: element j adds e times its image into column o, and
    none where columns[j] is None.

    E_rs acts as an even derivation, applied by graded.apply_derivation to
    its images of the letters on codes (graded.mono_codes) in fields wide
    enough for the longest element acted on, whose length E_rs keeps; the
    other elements are not coded.  Each operator numbers its images as
    first seen, and rows are indexed by (operator, number) in the order
    first seen, the order of (r, s, image); entries that cancel are
    dropped.
    """
    if not pairs:
        return []
    exterior = alphabet.exterior
    acted = [(elt, column) for elt, column in zip(basis, columns)
             if column is not None]
    width = max((len(elt) for elt, _ in acted), default=0).bit_length()
    tables = [(alphabet.derivation(r, s, width), {}) for r, s in pairs]
    codes = mono_codes((elt for elt, _ in acted),
                       [1 << width * a for a in range(len(exterior))])
    rows: dict[tuple, dict[int, int]] = {}
    for (elt, (col, e)), code in zip(acted, codes):
        for op, (table, ids) in enumerate(tables):
            for image, c in apply_derivation(exterior, table, elt, 0, ids,
                                             code).items():
                key = (op, image)
                d = rows.get(key)
                if d is None:
                    rows[key] = {col: c * e}
                    continue
                v = d.get(col, 0) + c * e
                if v:
                    d[col] = v
                else:
                    del d[col]
    return [d for d in rows.values() if d]


def _orbits(alphabet: Alphabet, basis) -> list[list[tuple[int, int]]]:
    """The live S_g-orbits of basis, a list of constant-weight elements
    closed under permuting indices, as lists of (position, sign e): the
    sum of e * basis[j] is the vector on the orbit that each P_w maps to
    sgn(w)^c times itself, c the constant weight.  An element the walk
    over the s_r reaches with two signs kills every such vector, and its
    orbit is dropped (README, "Why the simple raising operators
    suffice").  s_r is an involution, so each edge is checked from one
    end: the bit r of checked[k] marks the edge from k already checked
    from its other end.

    An element with fewer letters than swaps is walked only through the
    s_r with r or r + 1 an index of one of its letters; the others fix
    it.  (A longer one is walked through every s_r, which costs no more
    than finding those.)  A fixed element conflicts with itself only when
    the twist is -1, at an odd constant weight c, and then every index
    occurs in it, so no swap is skipped there."""
    if not basis:
        return []
    exterior = alphabet.exterior
    odd = any(exterior)
    swaps, nswaps = alphabet.swaps, alphabet.g - 1
    every = (1 << nswaps) - 1
    w0 = alphabet.weight0
    position = {elt: j for j, elt in enumerate(basis)}
    sign = [0] * len(basis)
    checked = [0] * len(basis)
    tables = {}   # relabel tables by the bit of their swap
    orbits = []
    for start in range(len(basis)):
        if sign[start]:
            continue
        # s_r maps the orbit sum to sgn(s_r)^c = (-1)^c times itself
        twist = -1 if sum(map(w0.__getitem__, basis[start])) % 2 else 1
        sign[start] = 1
        orbit, live = [start], True
        for j in orbit:
            elt, ej = basis[j], twist * sign[j]
            if len(elt) < nswaps:
                todo = 0
                for a in elt:
                    todo |= swaps[a]
            else:
                todo = every
            todo &= ~checked[j]
            while todo:
                bit = todo & -todo
                todo ^= bit
                t = tables.get(bit)
                if t is None:
                    t = tables[bit] = alphabet.relabel(bit.bit_length() - 1)
                ids, flips = t
                image = [ids[a] for a in elt]
                e = ej
                if flips and sum(map(flips.__contains__, elt)) % 2:
                    e = -e
                # the sign of re-sorting the exterior images
                if odd and _odd([b for b in image if exterior[b]]):
                    e = -e
                k = position[tuple(sorted(image))]
                checked[k] |= bit
                if not sign[k]:
                    sign[k] = e
                    orbit.append(k)
                elif sign[k] != e:
                    live = False
        if live:
            orbits.append([(j, sign[j]) for j in orbit])
    return orbits


def _invariant_system(alphabet: Alphabet, basis):
    """(orbits, rows): the live orbits of basis and the rows of E_01 on
    their orbit sums, less every row that is +- an earlier one.  The
    kernel of the rows is the invariants in orbit-sum coordinates."""
    orbits = _orbits(alphabet, basis)
    return orbits, _reduced_rows(alphabet, basis, orbits)


def _reduced_rows(alphabet: Alphabet, basis, orbits) -> list[dict[int, int]]:
    """The rows of `_invariant_system` on the given live orbits, orbit o
    as column o; an orbit given as [] is not acted on."""
    columns = [None] * len(basis)
    for o, orbit in enumerate(orbits):
        for j, e in orbit:
            columns[j] = (o, e)
    rows, seen = [], set()
    for row in _action_rows(alphabet, basis,
                            [(0, 1)] if alphabet.g > 1 and orbits else [],
                            columns):
        key = tuple(sorted(row.items()))
        if key[0][1] < 0:
            key = tuple((o, -c) for o, c in key)
        if key not in seen:
            seen.add(key)
            rows.append(row)
    return rows


def _kernel_vectors(orbits, rows) -> list[dict[int, int]]:
    """A basis of the invariants from `_invariant_system`, over basis
    positions: kernel vector k gives k_o * e at each (j, e) of orbit o."""
    return [{j: x * e for o, x in vec.items() for j, e in orbits[o]}
            for vec, _ in kernel_int_basis(rows, len(orbits))]


@lru_cache(maxsize=16)
def _tensor_alphabet(spec: TensorSpaceSpec) -> Alphabet:
    """Letter pos*g + i is index i in slot pos: in N for the k covariant
    slots, in N^v for the l contravariant ones.  The last few are kept, so
    that the GL and SL paths of a space share its letter tables."""
    k, g = spec.k, spec.g
    return Alphabet(g, (Letter(pos, (i,)) if pos < k else Letter(pos, (), (i,))
                        for pos in range(k + spec.l) for i in range(g)))


def _weight_orbits(spec: TensorSpaceSpec, group: str):
    """(alphabet, basis, orbits): the tensor alphabet, the words of
    T^{k,l} of the weight a group invariant must have (0 for GL, (c, ...,
    c) with g*c = k - l for SL, which no word has unless g divides k - l),
    as its letter tuples in lexicographic order, and their live orbits."""
    if group not in ("GL", "SL"):
        raise ValueError(f"unknown group {group!r}")
    alphabet = _tensor_alphabet(spec)
    c = (spec.k - spec.l) // spec.g if group == "SL" else 0
    basis = _weight_words(spec, alphabet, (c,) * spec.g)
    return alphabet, basis, _orbits(alphabet, basis)


def _raising_system(spec: TensorSpaceSpec, group: str):
    """(basis, orbits, rows): `_weight_orbits` and the reduced rows on
    them, for the paths that eliminate the reduced system.  The live
    orbits are held to ORBIT_CAP before any row is built."""
    alphabet, basis, orbits = _weight_orbits(spec, group)
    check_cap("ORBIT_CAP", ORBIT_CAP, len(orbits),
              "{}: {} live orbits of weight words", spec, len(orbits))
    return basis, orbits, _reduced_rows(alphabet, basis, orbits)


def invariant_dim(spec: TensorSpaceSpec, group: str) -> int:
    """Dimension of the GL_g- or SL_g-invariants of T^{k,l}(Q^g): the
    number of live orbits minus the rank of the reduced system, with no
    kernel basis built."""
    _, orbits, rows = _raising_system(spec, group)
    return len(orbits) - len(_eliminate(rows)[0])


def character_dim(spec: TensorSpaceSpec, group: str) -> int:
    """Dimension of the GL_g- or SL_g-invariants of T^{k,l}(Q^g) by
    Schur-Weyl duality, with no operator: ints only.

    (Q^g)^(x k) is the sum of f^lam copies of S_lam(Q^g) over the
    partitions lam of k with at most g rows, f^lam the number of standard
    tableaux of shape lam, and the dual power likewise.  An invariant of
    S_lam (x) S_mu^v is a map S_mu -> S_lam: for GL_g there is one when
    lam = mu, and for SL_g, on which S_lam depends only on lam modulo
    columns of length g, one when lam is mu with c such columns added, g*c
    = k - l.  So the count is 0 unless g divides k - l (and, for GL, k =
    l), and else the sum of f^nu * f^(nu + |c| columns of length g) over
    the partitions nu of min(k, l) with at most g rows (README, "Why
    containment and a count decide the span").  f is the hook-length
    formula, which conjugation keeps, so the sum runs over the conjugates
    of nu, the partitions with parts at most g, and the |c| columns are
    |c| parts g put in front.  Before the sum the larger shape's cells are
    held to SCHUR_CELL_CAP, and the partitions with parts at most g, counted
    by p(j, <= m) = p(j, <= m - 1) + p(j - m, <= m), to PARTITION_CAP."""
    k, l, g = spec.k, spec.l, spec.g
    if group not in ("GL", "SL"):
        raise ValueError(f"unknown group {group!r}")
    c, rem = divmod(k - l, g)
    if rem or (group == "GL" and c):
        return 0
    n, big = min(k, l), max(k, l)
    check_cap("SCHUR_CELL_CAP", SCHUR_CELL_CAP, big,
              "{}: the character count reads a shape of {} cells", spec, big)
    counts = [1] + [0] * n
    for m in range(1, min(n, g) + 1):
        for j in range(m, n + 1):
            counts[j] += counts[j - m]
        check_cap("PARTITION_CAP", PARTITION_CAP, counts[n],
                  "{}: the character count sums over at least {} partitions"
                  " of {} with parts at most {}", spec, counts[n], n, g)
    small, large, full = math.factorial(n), math.factorial(big), (g,) * abs(c)
    return sum(small // _hook_product(cols)
               * (large // _hook_product(full + cols))
               for cols in _partitions_desc(n, g))


def _invariant_basis(spec: TensorSpaceSpec, group: str) -> QMatrix:
    basis, orbits, rows = _raising_system(spec, group)
    index = [_word_index(w, spec.g) for w in basis]
    return QMatrix.from_columns(
        spec.dim, [{index[j]: x for j, x in v.items()}
                   for v in _kernel_vectors(orbits, rows)])


def gl_invariant_basis(spec: TensorSpaceSpec) -> QMatrix:
    """Basis (as columns) of the GL_g-invariant subspace of T^{k,l}(Q^g)."""
    return _invariant_basis(spec, "GL")


def sl_invariant_basis(spec: TensorSpaceSpec) -> QMatrix:
    """Basis (as columns) of the SL_g-invariant subspace of T^{k,l}(Q^g)."""
    return _invariant_basis(spec, "SL")


def _check_sigma_args(m: int, g: int):
    if m < 1 or g < 1:
        raise ValueError("need m, g >= 1")
    check_cap("SIGMA_CAP", SIGMA_CAP, m,
              "m > {} rejected: factorial column count", SIGMA_CAP)


def _sigma_columns(m: int, g: int) -> list[dict[int, int]]:
    """The columns of `sigma_matrix` as int dicts, every entry 1: for a
    fixed s, word -> (word, word o s^-1) is injective."""
    _check_sigma_args(m, g)
    words = list(itertools.product(range(g), repeat=m))
    cols = []
    for perm in itertools.permutations(range(m)):
        # perm maps positions: s(pos) = perm[pos], and contra slot s(pos)
        # carries index i_pos; w[pos] weighs i_pos in both its slots
        w = [g ** (2 * m - 1 - pos) + g ** (m - 1 - img)
             for pos, img in enumerate(perm)]
        cols.append(dict.fromkeys((sum(map(mul, word, w)) for word in words),
                                  1))
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


def _coordinates(orbits, orbit_of, col: dict[int, int]):
    """col's orbit-sum coordinates {o: x_o} when col is a combination of
    live orbit sums, else None.  Over word indices, orbit o is the list of
    (index, e) and orbit_of[index] = (o, e).  col must hold x_o * e at
    each of its words, and as many words as the orbits it meets hold
    (each of its words lies in one of them, so it then covers them)."""
    coeff: dict[int, int] = {}
    for idx, x in col.items():
        hit = orbit_of.get(idx)
        if hit is None:
            return None
        o, e = hit
        x *= e
        if coeff.setdefault(o, x) != x:
            return None
    if sum(len(orbits[o]) for o in coeff) != len(col):
        return None
    return coeff


def _kills(by_orbit, orbits, orbit_of, col: dict[int, int]):
    """col's orbit-sum coordinates when col is an invariant, else None:
    col must be a combination of live orbit sums (`_coordinates`), and
    the reduced rows must kill it.  by_orbit[o] lists the rows' entries
    on orbit o, (row, c), for every orbit col meets."""
    coeff = _coordinates(orbits, orbit_of, col)
    if coeff is None:
        return None
    image: dict[int, int] = {}
    for o, x in coeff.items():
        for i, c in by_orbit[o]:
            image[i] = image.get(i, 0) + c * x
    return None if any(image.values()) else coeff


def _slot_permuted(orbits, orbit_of, coeff: dict[int, int], m: int, g: int):
    """For each permutation s of range(m), in `_sigma_columns`' order, the
    orbit-sum coordinates of P_s applied to the combination coeff of orbit
    sums of the weight-0 words of T^{m,m}(Q^g).  P_s moves contravariant
    slot pos to slot s(pos); it keeps the weight and commutes with
    permuting the indices, so it takes the sum on orbit o to e * e' times
    the sum on the orbit of the image of o's first word (live, as every
    orbit of these words is), e and e' the two words' signs: one relabel
    and one lookup per orbit."""
    size = g ** m
    firsts = []
    for o, x in coeff.items():
        idx, e = orbits[o][0]
        contra = idx % size
        firsts.append((idx - contra, [contra // g ** (m - 1 - pos) % g
                                      for pos in range(m)], x * e))
    for perm in itertools.permutations(range(m)):
        w = [g ** (m - 1 - img) for img in perm]
        image = {}
        for cov, digits, x in firsts:
            o, e = orbit_of[cov + sum(map(mul, digits, w))]
            image[o] = x * e
        yield image


def verify_fundamental_theorems(m: int, g: int) -> FundamentalTheoremReport:
    """Check that the permutation tensors span the GL-invariants of
    T^{m,m}(Q^g) and are independent exactly when m <= g.

    Every bound is checked before sigma is built: m, the words of weight
    0, and the partitions of m and the cells of each shape that the
    character count reads.  The dimension of the invariants is
    `character_dim`; no system is eliminated for it.  Sigma spans them
    exactly when every column of sigma is an invariant and rank sigma is
    that dimension (README, "Why containment and a count decide the
    span").  Every column must be a combination of live orbit sums
    (`_coordinates`).  Sigma's first column, sigma_id, must be killed by
    the reduced rows, built on the orbits it meets only (`_kills`).  Each
    column sigma_s must have the coordinates of P_s sigma_id
    (`_slot_permuted`): P_s commutes with gl_g, so sigma_s is then an
    invariant too.  A column that fails a step, or one past the m!
    permutations, is not an invariant.  Orbit sums have disjoint
    supports, so rank sigma is the rank of those orbit-sum coordinates;
    sigma is eliminated over its words only when some column is not an
    invariant.
    """
    _check_sigma_args(m, g)
    spec = TensorSpaceSpec(m, m, g)
    alphabet, basis, live = _weight_orbits(spec, "GL")
    dim = character_dim(spec, "GL")
    orbits = [[(_word_index(basis[j], g), e) for j, e in orbit]
              for orbit in live]
    orbit_of = {idx: (o, e)
                for o, orbit in enumerate(orbits) for idx, e in orbit}
    sigma = _sigma_columns(m, g)
    coords = [_coordinates(orbits, orbit_of, col) for col in sigma]
    killed = None not in coords and len(sigma) <= math.factorial(m)
    if killed and sigma:
        # the reduced rows on sigma_id's orbits, their entries grouped by
        # orbit, so R applied to sigma_id is one pass over its coordinates
        met = coords[0]
        rows = _reduced_rows(alphabet, basis, [
            orbit if o in met else [] for o, orbit in enumerate(live)])
        by_orbit: dict[int, list[tuple[int, int]]] = {o: [] for o in met}
        for i, row in enumerate(rows):
            for o, c in row.items():
                by_orbit[o].append((i, c))
        killed = (_kills(by_orbit, orbits, orbit_of, sigma[0]) is not None
                  and all(map(eq, coords,
                              _slot_permuted(orbits, orbit_of, met, m, g))))
    rank = len(_eliminate(coords if killed else sigma)[0])
    return FundamentalTheoremReport(m=m, g=g, rank=rank,
                                    surjective=killed and rank == dim,
                                    injective=rank == math.factorial(m))
