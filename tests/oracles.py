"""Oracles the tests hold the program's invariant kernels to.

Each invariant kernel in the program is the kernel of E_01 on the
Weyl-orbit sums of a weight space (`invariants._invariant_system`).  The
system it replaced stacks operators E_rs on the whole weight space, over
basis positions: the g - 1 simple raising operators, or, as the oracle
for those, all g(g - 1) operators.  Both stay here, built by the E_rs
action loop the program had before its derivations shared one kernel.

Littlewood-Richardson coefficients are held to the cell-wise search the
program had before it expanded each product one strip of letters at a
time: `cellwise_lr_count` fills the skew shape kappa/lam one cell at a
time, once for each triple.

Criterion 3 checks the LR symmetries on whole expansions;
`triplewise_lr_symmetries` is the loop it replaced, two
`lr_coefficient` comparisons per (lam, mu, kappa) triple.

The trigraded brute force is held to the count it had before it split a
cell into label-content blocks: `whole_cell_dim` runs the kernel once on
the cell's whole weight space, `reference_ac_basis`.  Both are computed
once per cell and process, and hand out immutable values (a tuple of
tuples, an int), so no test can change what another reads.  Its sorted
contents, the partitions of the bounded-length walk
`partitions._partitions_desc`, are held to `recursive_sorted_contents`,
the walk with one generator per (part, count) run that the program had
before.

`guard_joins` wraps the program's one weight-space join so that a test
fails if a join lists, weighs or keeps anything once its count has passed
`invariants.JOIN_CAP`: the cap must be checked before each stage.  The
join weighs on packed ints; `tuple_weight_space` is the join as it was
before, weighing each element as a g-tuple (`torus_weight`), which the
packed join must equal, charges and refusals included.

The fundamental-theorem check reads rank sigma off sigma's orbit-sum
coordinates; `sigma_word_rank` eliminates sigma over its words, as the
check did before, and `column_rank` gives the check's rank form: rank of
sigma stacked with the invariant basis equals rank of sigma.  The
kernel-reduction form before that reduced each invariant against sigma's
pivot rows, by `reduce_against`, which the span tests also check
`linalg.subspace_equal`'s rank form against.  Its containment check
counts a column's words; `walked_kills` is the check as it was before,
which walked every word of every orbit the column meets.

`every_column_check` is the fundamental-theorem check as it was before
it applied E_01 to the permutation tensor of the identity alone: the
reduced rows on every live orbit, and `_kills` on every column.

`shortest_row_eliminate` is the elimination as it was before singleton
columns pivoted first, with its count of row updates: the work-count
test holds `_eliminate` to never more.  `walked_images` is
`Alphabet.images` as it was before it read only the letters with the
operator's indices.

The matrix operations the tests build their cases with (`entry`,
`identity`, `scale`, `hstack`, `column`, `matmul`, `kernel_basis`,
`random_matrix`) are plain functions on `QMatrix` here; the program needs
none of them.  The graded engine takes int coefficients only: `int_rows`
and `over_common_denominator` clear a test's rational maps and elements
by one common denominator, as the map-file reader does, which changes no
rank, span or cohomology.
"""

import functools
import heapq
import itertools
import math
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from operator import add, mul, sub

from tautrings import invariants, model

from tautrings.invariants import (
    _action_rows,
    _invariant_system,
    _orbits,
    _sigma_columns,
    _tensor_alphabet,
    _weight_words,
)
from tautrings.linalg import QMatrix, kernel_basis_columns, rank_of_int_rows
from tautrings.model import _ac_alphabet
from tautrings.partitions import (
    CapExceeded,
    Partition,
    check_agree,
    enumerate_partitions,
    lr_coefficient,
)


def previous_action_rows(alphabet, basis, pairs: list[tuple[int, int]],
                         columns) -> list[dict[int, int]]:
    """Rows of the stacked E_rs actions on the span of basis, an iterable
    of sorted tuples of letter ids, over the columns that columns[j] =
    (o, e) names: element j adds e times its image into column o, and
    none where columns[j] is None.

    E_rs acts as a derivation: it replaces one letter a at a time by an
    image b.  An exterior b that already occurs kills the term; otherwise
    moving b to its sorted place costs one sign per exterior letter
    strictly between a and b.  Rows are indexed by (r, s, image) in the
    order first seen; entries that cancel are dropped.

    This is `invariants._action_rows` before it went through the shared
    derivation kernel `graded.apply_derivation`, with its own insertion
    and sign loop; the program's rows must equal these, in order.
    """
    exterior = alphabet.exterior
    tables = [(r, s, alphabet.images(r, s)) for r, s in pairs]
    rows: dict[tuple, dict[int, int]] = {}
    for elt, column in zip(basis, columns):
        if column is None:
            continue
        col, e = column
        for r, s, table in tables:
            for pos, a in enumerate(elt):
                terms = table[a]
                if not terms:
                    continue
                others = elt[:pos] + elt[pos + 1:]
                for c, b in terms:
                    c *= e
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
                        rows[key] = {col: c}
                        continue
                    v = d.get(col, 0) + c
                    if v:
                        d[col] = v
                    else:
                        del d[col]
    return [d for d in rows.values() if d]


def simple_pairs(g: int) -> list[tuple[int, int]]:
    """The simple raising operators E_{r,r+1} of gl_g, as (r, s) pairs."""
    return [(r, r + 1) for r in range(g - 1)]


def all_pairs(g: int) -> list[tuple[int, int]]:
    """Every E_rs with r != s."""
    return [(r, s) for r in range(g) for s in range(g) if r != s]


def row_systems(alphabet, basis, every_pair=True):
    """The (pairs, columns) of every E_rs system the program and these
    oracles build on basis: E_01 over the live orbits of
    `invariants._orbits`, as `invariants._invariant_system` builds it,
    and over every other one, then the simple raising operators and,
    with every_pair, all E_rs over basis positions, as the stacked
    systems do."""
    columns = [None] * len(basis)
    for o, orbit in enumerate(_orbits(alphabet, basis)):
        for j, e in orbit:
            columns[j] = (o, e)
    # every other live orbit, as the fundamental-theorem check acts on
    # the orbits sigma_id meets only
    some = [c if c and c[0] % 2 else None for c in columns]
    positions = [(j, 1) for j in range(len(basis))]
    g = alphabet.g
    e01 = [(0, 1)] if g > 1 else []
    return [(e01, columns), (e01, some),
            (simple_pairs(g), positions),
            *([(all_pairs(g), positions)] if every_pair else [])]


def same_rows_as_previous(alphabet, basis, every_pair=True) -> bool:
    """Does `invariants._action_rows` give the rows of
    `previous_action_rows`, entries and their order included, in the same
    order, on every system of `row_systems`?"""
    for pairs, columns in row_systems(alphabet, basis, every_pair):
        got = _action_rows(alphabet, basis, pairs, columns)
        want = previous_action_rows(alphabet, basis, pairs, columns)
        if [list(r.items()) for r in got] != [list(r.items()) for r in want]:
            return False
    return True


def stacked_rows(alphabet, basis, pairs=None) -> list[dict[int, int]]:
    """The rows of the operators in pairs (the simple raising operators
    by default) stacked on the span of basis, over basis positions."""
    return previous_action_rows(
        alphabet, basis, simple_pairs(alphabet.g) if pairs is None else pairs,
        [(j, 1) for j in range(len(basis))])


def stacked_dim(alphabet, basis, pairs=None) -> int:
    return len(basis) - rank_of_int_rows(stacked_rows(alphabet, basis, pairs))


def stacked_kernel(alphabet, basis, pairs=None):
    """A kernel basis of the stacked system, over basis positions."""
    return kernel_basis_columns(stacked_rows(alphabet, basis, pairs),
                                len(basis))


def tensor_cell(spec, group):
    """The words of T^{k,l}(Q^g) of the weight a GL- or SL-invariant must
    have, as letter-id tuples of `invariants._tensor_alphabet(spec)`:
    weight 0 for GL, and for SL the constant weight (c, ..., c) with
    g*c = k - l, none when g does not divide k - l."""
    k, l, g = spec.k, spec.l, spec.g
    if (k - l) % g or (group == "GL" and k != l):
        return []
    return _weight_words(spec, _tensor_alphabet(spec), ((k - l) // g,) * g)


def stacked_tensor_system(spec, group):
    """(words, rows): the weight words of `tensor_cell` and the stacked
    simple raising operators on their span."""
    words = tensor_cell(spec, group)
    return words, stacked_rows(_tensor_alphabet(spec), words)


def sigma_word_rank(m, g) -> int:
    """The rank of the m! permutation tensors on T^{m,m}(Q^g), eliminated
    over their g^m-entry word columns."""
    return rank_of_int_rows(_sigma_columns(m, g))


@functools.cache
def reference_ac_basis(spec, p, q, r, group) -> tuple:
    """The trigraded cell basis as it was built before the shared join:
    full x and y factor bases, joined with the z factors grouped by
    weight.  A tuple, computed once per cell."""
    g, is_a = spec.g, spec.variant == "A"
    wsum = 2 * p + q - r
    if wsum % g or (group == "GL" and wsum):
        return ()
    target = (wsum // g,) * g
    nx, ny = (g * (g + 1) if is_a else g * (g - 1)) // 2, g * spec.dimW
    factors = ((0, nx, p, False), (nx, ny, q, not is_a),
               (nx + ny, g * spec.dimU, r, is_a))
    alphabet = _ac_alphabet(spec)

    def factor_basis(lo, nlet, size, exterior):
        choose = (itertools.combinations if exterior
                  else itertools.combinations_with_replacement)
        return [(fs, torus_weight(alphabet, fs))
                for fs in choose(range(lo, lo + nlet), size)]

    xbasis, ybasis, zbasis = (factor_basis(*f) for f in factors)
    z_by_weight = {}
    for zs, wz in zbasis:
        z_by_weight.setdefault(wz, []).append(zs)
    return tuple(xs + ys + zs
                 for xs, wx in xbasis for ys, wy in ybasis
                 for zs in z_by_weight.get(
                     tuple(t - a - b for t, a, b in zip(target, wx, wy)), ()))


def recursive_sorted_contents(size: int, labels: int, most: int):
    """The partitions of size into at most `labels` parts, each at most
    `most`, in descending lexicographic order, as (part, count) runs: a
    recursion, one generator per run."""
    if size == 0:
        yield ()
        return
    for v in range(min(size, most), -(-size // labels) - 1, -1):
        for c in range(min(size // v, labels),
                       max(1, size - labels * (v - 1)) - 1, -1):
            for rest in recursive_sorted_contents(size - c * v, labels - c,
                                                  v - 1):
                yield ((v, c),) + rest


def whole_cell_dim(spec, p, q, r, group) -> int:
    """The invariants of the (p, q, r) cell, counted by the kernel on the
    whole weight space at once; computed once per cell, and once for a GL
    cell and the SL cell of the same weight 0 (r = 2p + q)."""
    return _whole_cell_dim(spec, p, q, r, "GL" if r == 2 * p + q else group)


@functools.cache
def _whole_cell_dim(spec, p, q, r, group) -> int:
    basis = reference_ac_basis(spec, p, q, r, group)
    if not basis:
        return 0
    orbits, rows = _invariant_system(_ac_alphabet(spec), basis)
    return len(orbits) - rank_of_int_rows(rows)


def triplewise_lr_symmetries(max_size: int) -> int:
    """`acceptance.lr_symmetries` one triple at a time: c^kappa_{lam mu} =
    c^kappa_{mu lam} = c^kappa'_{lam' mu'} for every triple with |kappa| =
    |lam| + |mu| <= max_size, in the same order and through the same
    check, so with the same text at the first failure; returns the number
    of triples."""
    checked = 0
    by_size = [enumerate_partitions(s) for s in range(max_size + 1)]
    for s, kappas in enumerate(by_size):
        for a in range(0, s + 1):
            for lam, mu, kappa in itertools.product(
                    by_size[a], by_size[s - a], kappas):
                check_agree("LR coefficient", f"{lam},{mu},{kappa}",
                            ("lam*mu", lr_coefficient(lam, mu, kappa)),
                            ("mu*lam", lr_coefficient(mu, lam, kappa)),
                            ("(lam'*mu')'", lr_coefficient(
                                lam.conjugate(), mu.conjugate(),
                                kappa.conjugate())))
                checked += 1
    return checked


def _lr_fillings(kappa: Partition, lam: Partition, mu: Partition) -> int:
    """Count Littlewood-Richardson skew tableaux of shape kappa/lam, content mu.

    Cells are filled in reverse reading order (rows top to bottom, each row
    right to left), which is exactly the order in which the lattice-word
    condition constrains letter counts.
    """
    shape = kappa.parts
    inner = lam.parts + (0,) * (kappa.height - lam.height)
    nrows = len(shape)
    counts = [0] * (mu.height + 1)
    grid: dict[tuple[int, int], int] = {}

    all_cells = [
        (i, j)
        for i in range(nrows)
        for j in range(shape[i] - 1, inner[i] - 1, -1)
    ]

    def rec(pos: int) -> int:
        if pos == len(all_cells):
            return 1
        i, j = all_cells[pos]
        total = 0
        for v in range(1, mu.height + 1):
            if counts[v] >= mu.parts[v - 1]:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue  # lattice-word prefix condition
            right = grid.get((i, j + 1))
            if right is not None and v > right:
                continue  # weakly increasing along rows
            above = grid.get((i - 1, j))
            if i > 0 and j < shape[i - 1] and j >= inner[i - 1] and above is None:
                raise AssertionError("fill order violated")
            if above is not None and above >= v:
                continue  # strictly increasing down columns
            grid[(i, j)] = v
            counts[v] += 1
            total += rec(pos + 1)
            counts[v] -= 1
            del grid[(i, j)]
        return total

    return rec(0)


def cellwise_lr_count(lam: Partition, mu: Partition, kappa: Partition) -> int:
    """c^kappa_{lam mu} by `_lr_fillings`, behind the program's former
    zeros for a size mismatch, kappa not containing lam, and mu empty."""
    if kappa.size != lam.size + mu.size:
        return 0
    if not kappa.contains(lam):
        return 0
    if mu.size == 0:
        return 1
    return _lr_fillings(kappa, lam, mu)


def reduce_against(pivots: list[int], pivot_rows: list[dict[int, int]],
                   vec: dict[int, int]) -> dict[int, int]:
    """The residual of an int vector against the pivot rows of an
    elimination, in step order: empty exactly when vec lies in the span of
    the eliminated rows.

    Step k clears pivot column k by v <- m1*v - m2*row with m1 > 0, which
    later steps leave at zero, since pivot row k is zero at every earlier
    pivot column.  The residual is thus zero at every pivot column; a
    nonzero combination of pivot rows is not (at the pivot column of its
    first row), so the residual vanishes iff vec is in their span.
    """
    v = {c: x for c, x in vec.items() if x}
    gcd = math.gcd
    for c, pr in zip(pivots, pivot_rows):
        x = v.get(c)
        if not x:
            continue
        pv = pr[c]
        if x % pv:
            m1 = abs(pv) // gcd(x, pv)
            for cc in v:
                v[cc] *= m1
            x *= m1
        m2 = x // pv
        for cc, vv in pr.items():
            nv = v.get(cc, 0) - vv * m2
            if nv:
                v[cc] = nv
            else:
                v.pop(cc, None)
    return v


def shortest_row_eliminate(rows: list[dict[int, int]]):
    """The elimination as it was before singleton columns pivoted first:
    (pivots, pivot_rows, row updates).

    Each step pivots on the live row least in (length, index), at its
    column with the fewest rows (ties to the lowest column), and clears
    that column from every other row; each such row is one row update.
    Rows are divided by their content after every update.
    """
    rows_d = {i: {c: v for c, v in r.items() if v}
              for i, r in enumerate(rows)}
    rows_d = {i: r for i, r in rows_d.items() if r}
    cols_rows: dict[int, set[int]] = {}
    for i, r in rows_d.items():
        for c in r:
            cols_rows.setdefault(c, set()).add(i)
    heap = [(len(r), i) for i, r in rows_d.items()]
    heapq.heapify(heap)
    pivots, pivot_rows, updates = [], [], 0
    while heap:
        n, prow_i = heapq.heappop(heap)
        pr = rows_d.get(prow_i)
        if pr is None or len(pr) != n:
            continue
        c = min(pr, key=lambda cc: (len(cols_rows[cc]), cc))
        pv = pr[c]
        pivots.append(c)
        pivot_rows.append(pr)
        for i in list(cols_rows[c] - {prow_i}):
            updates += 1
            ri = rows_d[i]
            g = math.gcd(pv, ri[c])
            m1, m2 = pv // g, ri[c] // g
            if m1 < 0:
                m1, m2 = -m1, -m2
            ri = {cc: x * m1 for cc, x in ri.items()}
            for cc, vv in pr.items():
                nv = ri.get(cc, 0) - vv * m2
                if nv:
                    ri[cc] = nv
                    cols_rows[cc].add(i)
                else:
                    ri.pop(cc, None)
                    cols_rows[cc].discard(i)
            if ri:
                g = math.gcd(*ri.values())
                rows_d[i] = {cc: x // g for cc, x in ri.items()}
                heapq.heappush(heap, (len(ri), i))
            else:
                del rows_d[i]
        for cc in pr:
            cols_rows[cc].discard(prow_i)
        del rows_d[prow_i]
    return pivots, pivot_rows, updates


def walked_kills(by_orbit, orbits, orbit_of, col: dict[int, int]):
    """`invariants._kills` as it was before it counted words: after the
    coefficients are read, every word of every orbit col meets is
    walked and checked."""
    coeff: dict[int, int] = {}
    for idx, x in col.items():
        hit = orbit_of.get(idx)
        if hit is None:
            return None
        o, e = hit
        coeff.setdefault(o, x * e)
    if any(col.get(idx) != x * e
           for o, x in coeff.items() for idx, e in orbits[o]):
        return None
    image: dict[int, int] = {}
    for o, x in coeff.items():
        for i, c in by_orbit[o]:
            image[i] = image.get(i, 0) + c * x
    return None if any(image.values()) else coeff


def every_column_check(m, g):
    """`invariants.verify_fundamental_theorems` as it was before it
    applied E_01 to sigma_id alone: the reduced rows on every live orbit,
    then `invariants._kills` on every column of sigma.  It reads the
    program's routines through the module, so a test's tampering reaches
    both."""
    invariants._check_sigma_args(m, g)
    spec = invariants.TensorSpaceSpec(m, m, g)
    alphabet, basis, orbits = invariants._weight_orbits(spec, "GL")
    dim = invariants.character_dim(spec, "GL")
    rows = invariants._reduced_rows(alphabet, basis, orbits)
    orbits = [[(invariants._word_index(basis[j], g), e) for j, e in orbit]
              for orbit in orbits]
    orbit_of = {idx: (o, e)
                for o, orbit in enumerate(orbits) for idx, e in orbit}
    by_orbit: list[list[tuple[int, int]]] = [[] for _ in orbits]
    for i, row in enumerate(rows):
        for o, c in row.items():
            by_orbit[o].append((i, c))
    sigma = invariants._sigma_columns(m, g)
    coords = [invariants._kills(by_orbit, orbits, orbit_of, col)
              for col in sigma]
    killed = None not in coords
    rank = len(invariants._eliminate(coords if killed else sigma)[0])
    return invariants.FundamentalTheoremReport(
        m=m, g=g, rank=rank, surjective=killed and rank == dim,
        injective=rank == math.factorial(m))


def walked_images(alphabet, r: int, s: int):
    """`Alphabet.images(r, s)` as it was before it read the letters with
    index r or s: every letter's indices are walked."""
    table = []
    for a in alphabet.letters:
        terms = []
        for t, i in enumerate(a.up):
            if i == s:
                moved = invariants._sorted_sign(
                    a.up[:t] + (r,) + a.up[t + 1:], a.alternating)
                if moved:
                    c, up = moved
                    terms.append((c, alphabet._id[a.tag, up, a.down]))
        for t, i in enumerate(a.down):
            if i == r:
                moved = invariants._sorted_sign(
                    a.down[:t] + (s,) + a.down[t + 1:], a.alternating)
                if moved:
                    c, down = moved
                    terms.append((-c, alphabet._id[a.tag, a.up, down]))
        table.append(tuple(terms))
    return table


def entry(m: QMatrix, i: int, j: int):
    """Entry (i, j) of m, 0 where none is stored."""
    if not (0 <= i < m.rows and 0 <= j < m.cols):
        raise IndexError((i, j))
    return m.entries.get((i, j), 0)


def identity(n: int) -> QMatrix:
    return QMatrix(n, n, {(i, i): Fraction(1) for i in range(n)})


def scale(m: QMatrix, c) -> QMatrix:
    c = Fraction(c)
    return QMatrix(m.rows, m.cols,
                   {k: v * c for k, v in m.entries.items()} if c else {})


def hstack(a: QMatrix, b: QMatrix) -> QMatrix:
    if a.rows != b.rows:
        raise ValueError("row count mismatch")
    e = dict(a.entries)
    for (i, j), v in b.entries.items():
        e[(i, j + a.cols)] = v
    return QMatrix(a.rows, a.cols + b.cols, e)


def random_matrix(rows: int, cols: int, rng: random.Random,
                  lo: int = -9, hi: int = 9) -> QMatrix:
    """A rows x cols int matrix, entries drawn row by row from [lo, hi]."""
    e = {}
    for i in range(rows):
        for j in range(cols):
            v = rng.randint(lo, hi)
            if v:
                e[(i, j)] = v
    return QMatrix(rows, cols, e)


def over_common_denominator(elements) -> list[dict]:
    """The elements, dicts key -> int or Fraction, times L, the lcm of all
    their denominators, as dicts key -> int."""
    elements = list(elements)
    den = math.lcm(*(Fraction(c).denominator for e in elements
                     for c in e.values()))
    return [{k: int(c * den) for k, c in e.items()} for e in elements]


def int_rows(m: QMatrix) -> list[dict[int, int]]:
    """The rows of m over one common denominator, one dict column -> int
    per row, empty rows included: a map as `graded.koszul_cohomology_dims`
    takes it."""
    rows: list[dict] = [{} for _ in range(m.rows)]
    for (i, j), v in sorted(m.entries.items()):
        rows[i][j] = v
    return over_common_denominator(rows)


def column(m: QMatrix, j: int) -> dict:
    return {i: v for (i, jj), v in m.entries.items() if jj == j}


def matmul(a: QMatrix, b: QMatrix) -> QMatrix:
    """The product a b, summed entry by entry in Fractions."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    by_row: dict = {}
    for (i, k), v in a.entries.items():
        by_row.setdefault(i, {})[k] = v
    bcols: dict = {}
    for (k, j), v in b.entries.items():
        bcols.setdefault(k, {})[j] = v
    e = {}
    for i, rowd in by_row.items():
        acc: dict = {}
        for k, v in rowd.items():
            for j, w in bcols.get(k, {}).items():
                acc[j] = acc.get(j, Fraction(0)) + v * w
        for j, v in acc.items():
            if v:
                e[(i, j)] = v
    return QMatrix(a.rows, b.cols, e)


def kernel_basis(m: QMatrix) -> QMatrix:
    """A matrix whose columns form a basis of the right kernel of m."""
    return QMatrix.from_columns(
        m.cols, kernel_basis_columns(m._int_rows(), m.cols))


def column_rank(*matrices: QMatrix) -> int:
    """Dimension of the span of the columns of all the given matrices,
    eliminating the columns themselves: few long vectors, where a tall
    matrix has many short rows."""
    if len({m.rows for m in matrices}) > 1:
        raise ValueError("ambient dimensions differ")
    return rank_of_int_rows([col for m in matrices
                             for col in m._int_rows(columns=True)])


def elem_add(e1: dict, e2: dict, c=1) -> dict:
    """e1 + c * e2 as a new element: the copy-and-add the program summed
    derivations and products with before it summed them in place."""
    out = dict(e1)
    for m, v in e2.items():
        nv = out.get(m, 0) + c * v
        if nv:
            out[m] = nv
        else:
            out.pop(m, None)
    return out


def torus_weight(alphabet, elt) -> tuple[int, ...]:
    """Torus weight of a basis element of alphabet: +1 per N index, -1 per
    N^v index."""
    w = [0] * alphabet.g
    for a in elt:
        letter = alphabet.letters[a]
        for i in letter.up:
            w[i] += 1
        for i in letter.down:
            w[i] -= 1
    return tuple(w)


def tuple_weight_space(labels, alphabet, target, what, spent=None):
    """`invariants._weight_space` before it packed weights: the same
    labels, split, charges and order, with each element weighed as its
    g-tuple `torus_weight` and each head element's need a g-tuple."""
    spent = [0] if spent is None else spent
    read, sizes, length, listed, whole = [], [], 0, 0, 1
    big = invariants.JOIN_CAP * invariants.JOIN_CAP
    for label in labels:
        letters, size, exterior = label
        n = math.comb(len(letters) + (size - 1 if size and not exterior
                                      else 0), size)
        read.append(label)
        sizes.append(n)
        length, listed, whole = length + size, listed + n, whole * n
        if listed > invariants.JOIN_CAP or whole > big:
            break
    sums = list(map(add, itertools.accumulate(sizes, mul, initial=1), reversed(
        list(itertools.accumulate(reversed(sizes), mul, initial=1)))))
    elements = min(sums)
    cut = len(sums) - 1 - sums[::-1].index(elements)
    invariants._charge(
        spent, listed + elements * (1 + len(target)), what,
        "list at least {} elements and weigh at least {} weight entries",
        listed + elements, elements * len(target))

    def product(part):
        return map(tuple, map(itertools.chain.from_iterable, itertools.product(
            *((itertools.combinations if exterior
               else itertools.combinations_with_replacement)(letters, size)
              for letters, size, exterior in part))))

    def weight(t):
        return torus_weight(alphabet, t)

    head = [(t, tuple(map(sub, target, weight(t))))
            for t in product(read[:cut])]
    tail = {}
    for u in product(read[cut:]):
        tail.setdefault(weight(u), []).append(u)
    count = sum(len(tail.get(need, ())) for _, need in head)
    invariants._charge(spent, count * (length + len(target)), what,
                       "keep {} words of {} letters and {} weight entries",
                       count, length, len(target))
    return [t + u for t, need in head for u in tail.get(need, ())]


def join_both_ways(labels, alphabet, target):
    """((elements, steps), (elements, steps)): the packed join
    `invariants._weight_space` and `tuple_weight_space` on the same labels,
    each charging a count of its own; a refusal is returned as its text in
    place of the elements."""
    labels, out = list(labels), []
    for join in (invariants._weight_space, tuple_weight_space):
        spent = [0]
        try:
            out.append((join(labels, alphabet, target, "join", spent),
                        spent[0]))
        except CapExceeded as exc:
            out.append((str(exc), spent[0]))
    return tuple(out)


def guard_joins(monkeypatch):
    """Wrap `invariants._weight_space`, wherever the program calls it, so
    that the test fails if the join that passes JOIN_CAP has already done
    the work it was refused for: weighed an element (which it does once it
    has the letters' packed weights, `Alphabet.packed`) when refused
    before listing, or kept a word when refused before keeping."""
    real_join, real_keep = invariants._weight_space, invariants._join_weighed
    real_packed = invariants.Alphabet.packed
    done = []   # what the join in progress has done

    def join(labels, alphabet, target, what, spent=None):
        done.clear()
        try:
            return real_join(labels, alphabet, target, what, spent)
        except ValueError as exc:
            stage = "kept" if "would keep" in str(exc) else "weighed"
            assert stage not in done, f"{what}: {stage} past the cap"
            raise

    def packed(self, length):
        done.append("weighed")
        return real_packed(self, length)

    def keep(*args):
        done.append("kept")
        return real_keep(*args)

    for module in (invariants, model):
        monkeypatch.setattr(module, "_weight_space", join)
    monkeypatch.setattr(invariants.Alphabet, "packed", packed)
    monkeypatch.setattr(invariants, "_join_weighed", keep)
