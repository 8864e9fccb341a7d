"""Partitions, Schur-functor dimensions and Littlewood-Richardson coefficients.

Partitions are written with weakly decreasing positive parts.  All listing
functions use a fixed deterministic order (descending lexicographic within a
fixed size) so that downstream fixtures are reproducible.

Littlewood-Richardson coefficients come from one cached expansion per
(lam, mu) pair, over every kappa at once: the LR tableaux of content mu
on lam, built one horizontal strip of equal letters at a time.
`lr_expansion` reads a whole expansion, `lr_coefficient` one kappa of it.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from functools import lru_cache
from itertools import accumulate, groupby
from math import comb, isqrt, prod
from operator import ge
from typing import Iterable, Iterator


class CapExceeded(ValueError):
    """Work past a named cap, refused before it is done.  name, limit and
    count are the cap's name, its value and the count that passed it."""

    def __init__(self, name: str, limit: int, count: int, text: str):
        super().__init__(f"{text}, over the cap of {limit} ({name})")
        self.name, self.limit, self.count = name, limit, count


def check_cap(name: str, limit: int, count: int, text: str, *args) -> None:
    """Raise CapExceeded if count passes limit.  Its text is text
    formatted with args, built only then."""
    if count > limit:
        raise CapExceeded(name, limit, count, text.format(*args))


class OracleMismatch(RuntimeError):
    """Two independent computations of the same quantity disagree.  From
    check_agree it carries the quantity, the case and the legs, (leg name,
    value) pairs; a summary of several is its text alone."""

    def __init__(self, text: str, quantity=None, case=None, legs=()):
        super().__init__(text)
        self.quantity, self.case, self.legs = quantity, case, legs


@contextmanager
def whole_ints():
    """Lift the interpreter's limit on an int's decimal digits (4 300)
    inside the block, and put it back after."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def check_agree(quantity: str, case: str, *legs) -> None:
    """Raise OracleMismatch unless the legs, (leg name, value) pairs with
    JSON-representable values (ints, bools, strings, and lists or tuples
    of them), all agree.  Its text, `<quantity> at <case>: <leg> <value>
    != <leg> <value>`, is built only then, with every digit."""
    value = legs[0][1]
    for leg in legs:
        if leg[1] != value:
            break
    else:
        return
    with whole_ints():
        raise OracleMismatch(f"{quantity} at {case}: " + " != ".join(
            f"{name} {v}" for name, v in legs), quantity, case, legs)


@contextmanager
def mismatch_case(case: str):
    """Name case after the case of an OracleMismatch from check_agree
    raised inside: a caller adds what it knows of the case."""
    try:
        yield
    except OracleMismatch as exc:
        check_agree(exc.quantity, f"{exc.case}, {case}", *exc.legs)


class Partition:
    """An integer partition, i.e. a Young diagram.

    Immutable and hashable; parts are strictly positive and weakly
    decreasing.  The empty partition is allowed.
    """

    __slots__ = ("parts", "size")

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(int(p) for p in parts)
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts must be weakly decreasing: {parts}")
        if parts and parts[-1] <= 0:
            raise ValueError(f"parts must be positive: {parts}")
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "size", sum(parts))

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @property
    def height(self) -> int:
        return len(self.parts)

    def conjugate(self) -> "Partition":
        """Transpose the Young diagram (rows become columns)."""
        return _conjugate(self.parts)

    def contains(self, other: "Partition") -> bool:
        """Diagram containment: other fits inside self."""
        return (len(other.parts) <= len(self.parts)
                and all(map(ge, self.parts, other.parts)))

    def has_even_rows(self) -> bool:
        return all(p % 2 == 0 for p in self.parts)

    def has_even_columns(self) -> bool:
        return self.conjugate().has_even_rows()

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(("Partition", self.parts))

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"

    def __str__(self) -> str:
        return "(" + ",".join(str(p) for p in self.parts) + ")"


EMPTY = Partition()


@lru_cache(maxsize=None)
def _conjugate(parts: tuple[int, ...]) -> Partition:
    # one shared instance per shape: Partition is immutable
    if not parts:
        return EMPTY
    return Partition(sum(1 for p in parts if p > j) for j in range(parts[0]))


def _partitions_desc(n: int, maxpart: int,
                     maxlen: int | None = None) -> Iterator[tuple[int, ...]]:
    """The partitions of n with parts at most maxpart and, given maxlen,
    at most maxlen parts, in descending lexicographic order, with no frame
    per part: each lowers by one the last part of the one before whose
    cells and those after it still fit in the parts left, and fills them
    with the largest parts it may take."""
    if n == 0:
        yield ()
    maxlen = n if maxlen is None else maxlen
    if n <= 0 or maxpart <= 0 or n > maxpart * maxlen:
        return
    top, rem = divmod(n, maxpart)
    parts = [maxpart] * top + [rem] * (rem > 0)
    while True:
        yield tuple(parts)
        # the 1s at the end go at once; every part before them is >= 2
        k = parts.index(1) if parts[-1] == 1 else len(parts)
        free = len(parts) - k   # the cells to fill after the lowered part
        del parts[k:]
        while parts:
            r = parts.pop() - 1
            free += 1
            if free <= (maxlen - len(parts) - 1) * r:
                break
            free += r
        else:
            return
        q, s = divmod(free, r)
        parts += [r] * (q + 1) + [s] * (s > 0)


# p(k) for k < len, filled by partition_count
_COUNTS = [1]

# partitions enumerate_partitions may list, the cap the tensor spaces and
# the brute-force cells use; p(49) = 173 525 is under it, p(50) is not
PARTITION_CAP = 200_000

# cells of a partition whose Schur dimension schur_dim evaluates; 10 000
# take about 0.1 s
SCHUR_CELL_CAP = 10_000

# cells |lam| + |mu| of a product whose LR expansion lr_coefficient and
# schur_product_expand build; the slowest pair found at 36 cells,
# (6,5,4,3,2,1) * (5,4,3,2,1), takes about 0.8 s, and the cost grows
# 12-15x per added staircase row
LR_CELL_CAP = 36


def partition_count(n: int) -> int:
    """p(n) by Euler's pentagonal recurrence
    p(m) = sum_{k >= 1} (-1)^(k+1) (p(m - k(3k-1)/2) + p(m - k(3k+1)/2))."""
    if n < 0:
        return 0
    counts = _COUNTS
    for m in range(len(counts), n + 1):
        total, k = 0, 1
        while (g := k * (3 * k - 1) // 2) <= m:
            term = counts[m - g] + (counts[m - g - k] if g + k <= m else 0)
            total += term if k % 2 else -term
            k += 1
        counts.append(total)
    return counts[n]


def check_partition_cap(n: int) -> None:
    """Raise CapExceeded, before any partition is built, if n has more
    than PARTITION_CAP partitions.  p grows with n, so past n = 1000 the
    message names p(1000) as a lower bound rather than compute p(n)."""
    m = min(n, 1000)
    count = partition_count(m)
    check_cap("PARTITION_CAP", PARTITION_CAP, count,
              "n={0} has too many partitions to list: p({0}) {1} {2}", n,
              "=" if m == n else f">= p({m}) =", count)


def enumerate_partitions(n: int, filter: str = "all") -> list[Partition]:
    """All partitions of n, in descending lexicographic order.

    filter: "all", "even_rows" (every part even) or "even_cols" (every
    column even, i.e. the conjugate has even rows).  Every partition of n
    is listed before the filter, so n is refused (CapExceeded) when p(n)
    exceeds PARTITION_CAP.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if filter not in ("all", "even_rows", "even_cols"):
        raise ValueError(f"unknown filter {filter!r}")
    check_partition_cap(n)
    out = [Partition(p) for p in _partitions_desc(n, n if n else 1)]
    if filter == "even_rows":
        out = [p for p in out if p.has_even_rows()]
    elif filter == "even_cols":
        out = [p for p in out if p.has_even_columns()]
    return out


def _hook_product(parts: tuple[int, ...]) -> int:
    """The product of the hook lengths of the cells of the diagram: the
    arm and the leg of each cell and the cell itself."""
    conj = _conjugate(parts).parts
    hooks = 1
    for i, row in enumerate(parts):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    return hooks


@lru_cache(maxsize=None)
def _schur_dim(parts: tuple[int, ...], g: int) -> int:
    # hook content formula: dim = prod over cells (g + j - i) / hook(i,j)
    if len(parts) > g:
        return 0
    num = 1
    for i, row in enumerate(parts):
        for j in range(row):
            num *= g + j - i
    hooks = _hook_product(parts)
    assert num % hooks == 0
    return num // hooks


def schur_dim(lam: Partition, g: int) -> int:
    """Dimension of the Schur functor applied to a g-dimensional space.

    Counts semistandard Young tableaux of shape lam with entries <= g;
    zero exactly when the diagram has more than g rows.  The hook-content
    product walks every cell, so lam is refused (CapExceeded) past
    SCHUR_CELL_CAP cells.
    """
    if g < 1:
        raise ValueError("g must be positive")
    check_cap("SCHUR_CELL_CAP", SCHUR_CELL_CAP, lam.size,
              "partition of {} cells for a Schur dimension", lam.size)
    return _schur_dim(lam.parts, g)


def weyl_dim(lam: Partition, g: int) -> int:
    """Dimension of the Schur functor applied to a g-dimensional space by
    Weyl's formula, prod over i < j <= g of (lam_i - lam_j + j - i)/(j - i)
    with lam_i = 0 past the l = len(lam) rows, in ints; 0 when l > g.  It
    shares no step with the hook-content count of `schur_dim`, which the
    CLI checks it against; g >= 1 and the cell cap are schur_dim's to check.

    The factors come in closed binomial quotients, so the work grows with
    neither g nor l^2:
    - row i's factors with l < j <= g multiply to
      C(lam_i + g - i, lam_i) / C(lam_i + l - i, lam_i);
    - two rows of equal parts give 1;
    - the rows i = p..q of one part a against the rows j = s..e of a
      smaller part b, c = a - b, give C(c + e - i, c) / C(c + s - 1 - i, c)
      for each i, and over i the lower arguments run |B| = e - s + 1 below
      the upper ones, so all but min(|A|, |B|) of each cancel.
    Every binomial but the first kind's numerators has arguments at most
    lam_1 + l.  Those are kept as powers of factorials and cancelled prime
    by prime, as their products before cancelling would grow as l^2
    factors (about 1 s against 0.02 s at the staircase of 140 rows).
    """
    parts = lam.parts
    ell = len(parts)
    if ell > g:
        return 0
    fact = [0] * ((parts[0] if parts else 0) + ell + 1)   # the power of n!

    def binomials(c, tops, sign):
        for t in tops:   # C(c + t, c) = (c + t)! / (c! t!)
            fact[c + t] += sign
            fact[c] -= sign
            fact[t] -= sign

    blocks = []   # (part, its first row, its last row)
    for a, rows in groupby(enumerate(parts, 1), key=lambda row: row[1]):
        rows = [i for i, _ in rows]
        blocks.append((a, rows[0], rows[-1]))
    for x, (a, p, q) in enumerate(blocks):
        for b, s, e in blocks[x + 1:]:
            binomials(a - b, range(max(e - q, s - p), e - p + 1), 1)
            binomials(a - b, range(s - 1 - q, min(s - p, e - q)), -1)
    for i, a in enumerate(parts, 1):
        binomials(a, (ell - i,), -1)
    while len(fact) > 1 and not fact[-1]:   # no sieve past the last power
        fact.pop()
    # n!^f is k^f for each k <= n; then, from the top, each composite k
    # hands its power to its least prime factor p and to k // p
    power = list(accumulate(reversed(fact)))[::-1]
    least = list(range(len(power)))
    for p in range(2, isqrt(len(power) - 1) + 1):
        if least[p] == p:
            for k in range(p * p, len(power), p):
                least[k] = min(least[k], p)
    for k in range(len(power) - 1, 3, -1):
        p = least[k]
        if p < k:
            power[p] += power[k]
            power[k // p] += power[k]
            power[k] = 0
    num = prod(comb(a + g - i, a) for i, a in enumerate(parts, 1))
    num *= prod(k ** e for k, e in enumerate(power) if k > 1 and e > 0)
    return num // prod(k ** -e for k, e in enumerate(power) if k > 1 and e < 0)


def _add_strip(shape: tuple[int, ...], prev: tuple[int, ...] | None,
               m: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every way to add m copies of the next letter to shape as a
    horizontal strip, as (new shape, the letter's count in each row).

    Row i takes at most the overhang of row i - 1 over row i, so no two
    copies share a column; the strip may open one new row.  prev, the
    previous letter's row counts (None for the first letter), imposes the
    lattice rule: the copies in rows <= i are at most prev's in rows < i.
    """
    rows = shape + (0,)
    partial = [((), m)]  # (counts in the rows so far, copies left)
    above = 0  # prev's copies in the rows above row i
    for i, r in enumerate(rows):
        room = rows[i - 1] - r if i else m
        nxt = []
        for counts, left in partial:
            hi = min(left, room)
            if prev is not None:
                hi = min(hi, above - (m - left))
            # the overhangs below row i sum to r
            for a in range(max(0, left - r), hi + 1):
                nxt.append((counts + (a,), left - a))
        partial = nxt
        if prev is not None and i < len(prev):
            above += prev[i]
    out = []
    for counts, _ in partial:
        new = tuple(r + a for r, a in zip(rows, counts) if r + a)
        out.append((new, counts[:len(new)]))
    return out


@lru_cache(maxsize=None)
def _lr_count_cached(lam: tuple, mu: tuple) -> dict[tuple, int]:
    """c^kappa_{lam mu} for every kappa, keyed by kappa's parts.

    Counts the LR tableaux of content mu on lam by adding the letters
    1..len(mu) one horizontal strip at a time.  Partial tableaux with the
    same shape and the same row counts of their last letter have the same
    completions, so each such pair is one state with a multiplicity.
    Every caller gets the same dict, so callers only read it.
    """
    states: dict = {(lam, None): 1}
    for m in mu:
        nxt: dict = {}
        for (shape, prev), mult in states.items():
            for key in _add_strip(shape, prev, m):
                nxt[key] = nxt.get(key, 0) + mult
        states = nxt
    out: dict[tuple, int] = {}
    for (shape, _), mult in states.items():
        out[shape] = out.get(shape, 0) + mult
    return out


def lr_expansion(lam: Partition, mu: Partition) -> dict[tuple, int]:
    """The product lam * mu over every kappa: c^kappa_{lam mu} by kappa's
    parts, nonzero coefficients only.  The dict is the cached expansion
    itself, so callers only read it.  Refused (CapExceeded) past
    LR_CELL_CAP cells."""
    n = lam.size + mu.size
    check_cap("LR_CELL_CAP", LR_CELL_CAP, n, "partitions of {} and {} cells: "
              "{} cells for a Littlewood-Richardson expansion",
              lam.size, mu.size, n)
    return _lr_count_cached(lam.parts, mu.parts)


def lr_coefficient(lam: Partition, mu: Partition, kappa: Partition) -> int:
    """Littlewood-Richardson coefficient: multiplicity of kappa in lam * mu.

    Read from the cached expansion of lam * mu over every kappa, which is
    refused (CapExceeded) past LR_CELL_CAP cells."""
    if kappa.size != lam.size + mu.size or not kappa.contains(lam):
        return 0
    if not mu.parts:
        return 1
    return lr_expansion(lam, mu).get(kappa.parts, 0)


def schur_product_expand(lam: Partition, mu: Partition) -> dict[Partition, int]:
    """Expand the product of two Schur functors as a multiset of partitions,
    in enumerate_partitions order."""
    counts = lr_expansion(lam, mu)
    return {Partition(k): counts[k] for k in sorted(counts, reverse=True)}
