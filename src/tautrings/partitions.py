"""Partitions, Schur-functor dimensions and Littlewood-Richardson coefficients.

Partitions are written with weakly decreasing positive parts.  All listing
functions use a fixed deterministic order (descending lexicographic within a
fixed size) so that downstream fixtures are reproducible.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator


class Partition:
    """An integer partition, i.e. a Young diagram.

    Immutable and hashable; parts are strictly positive and weakly
    decreasing.  The empty partition is allowed.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        parts = tuple(int(p) for p in parts)
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts must be weakly decreasing: {parts}")
        if parts and parts[-1] <= 0:
            raise ValueError(f"parts must be positive: {parts}")
        object.__setattr__(self, "parts", parts)

    def __setattr__(self, name, value):
        raise AttributeError("Partition is immutable")

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def height(self) -> int:
        return len(self.parts)

    def conjugate(self) -> "Partition":
        """Transpose the Young diagram (rows become columns)."""
        return _conjugate(self.parts)

    def contains(self, other: "Partition") -> bool:
        """Diagram containment: other fits inside self."""
        if other.height > self.height:
            return False
        return all(s >= o for s, o in zip(self.parts, other.parts))

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


def _partitions_desc(n: int, maxpart: int) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, maxpart), 0, -1):
        for rest in _partitions_desc(n - first, first):
            yield (first,) + rest


# p(k) for k < len, filled by partition_count
_COUNTS = [1]

# partitions enumerate_partitions may list, the cap the tensor spaces and
# the brute-force cells use; p(49) = 173 525 is under it, p(50) is not
PARTITION_CAP = 200_000


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
    """Raise ValueError, before any partition is built, if n has more
    than PARTITION_CAP partitions.  p grows with n, so past n = 1000 the
    message names p(1000) as a lower bound rather than compute p(n)."""
    m = min(n, 1000)
    count = partition_count(m)
    if count > PARTITION_CAP:
        rel = "=" if m == n else f">= p({m}) ="
        raise ValueError(
            f"n={n} has too many partitions to list: p({n}) {rel} {count}, "
            f"over the cap of {PARTITION_CAP}")


def enumerate_partitions(n: int, filter: str = "all") -> list[Partition]:
    """All partitions of n, in descending lexicographic order.

    filter: "all", "even_rows" (every part even) or "even_cols" (every
    column even, i.e. the conjugate has even rows).  Every partition of n
    is listed before the filter, so n is refused (ValueError) when p(n)
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


@lru_cache(maxsize=None)
def _schur_dim(parts: tuple[int, ...], g: int) -> int:
    # hook content formula: dim = prod over cells (g + j - i) / hook(i,j)
    lam = Partition(parts)
    if lam.height > g:
        return 0
    conj = lam.conjugate().parts
    num = 1
    den = 1
    for i, row in enumerate(lam.parts):
        for j in range(row):
            num *= g + j - i
            hook = (row - j) + (conj[j] - i) - 1
            den *= hook
    assert num % den == 0
    return num // den


def schur_dim(lam: Partition, g: int) -> int:
    """Dimension of the Schur functor applied to a g-dimensional space.

    Counts semistandard Young tableaux of shape lam with entries <= g;
    zero exactly when the diagram has more than g rows.
    """
    if g < 1:
        raise ValueError("g must be positive")
    return _schur_dim(lam.parts, g)


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


def lr_coefficient(lam: Partition, mu: Partition, kappa: Partition) -> int:
    """Littlewood-Richardson coefficient: multiplicity of kappa in lam * mu."""
    if kappa.size != lam.size + mu.size:
        return 0
    if not kappa.contains(lam):
        return 0
    if mu.size == 0:
        return 1
    return _lr_count_cached(lam.parts, mu.parts, kappa.parts)


@lru_cache(maxsize=None)
def _lr_count_cached(lam: tuple, mu: tuple, kappa: tuple) -> int:
    return _lr_fillings(Partition(kappa), Partition(lam), Partition(mu))


def schur_product_expand(lam: Partition, mu: Partition) -> dict[Partition, int]:
    """Expand the product of two Schur functors as a multiset of partitions."""
    n = lam.size + mu.size
    out: dict[Partition, int] = {}
    for kappa in enumerate_partitions(n):
        c = lr_coefficient(lam, mu, kappa)
        if c:
            out[kappa] = c
    return out
