"""Cohomology ring presentations: the Thom-spectrum ring, the
diffeomorphism-group ring via three presentations, and the
block-diffeomorphism / tangential stages.

Presentation c of the diffeomorphism-group ring is its one independent
leg; a and b are one helper, `_diff_presentation`, called with the same
(n, maxdeg) and two naming rules, so they agree by construction.

All answers are exterior algebras in the computed range; presentations
are stored as generators plus the names of the generators they kill, and
evaluated as the free algebra on the surviving generators.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graded import SERIES_CAP, GeneratorSet, fgca_dims
from .model import (
    borel_generators,
    k_pair_generators,
    k_single_generators,
    minimal_M,
)
from .partitions import OracleMismatch, check_agree, check_cap


@dataclass(frozen=True)
class RingPresentation:
    """Free graded-commutative generators, named relations, and dims."""

    generators: tuple[tuple[str, int], ...]
    relations: tuple[str, ...]
    dims: tuple[int, ...]


def _multisets_in_degree(lo: int, hi: int, shift: int, maxdeg: int):
    """Weakly increasing tuples c with entries in [lo, hi] and
    0 < 4*sum(c) - shift <= maxdeg, in lexicographic order.  c is walked
    on one list, with no frame per entry, and the tuples listed times the
    maxdeg + 1 degrees of their Hilbert series are held to SERIES_CAP as
    they are listed."""
    out, acc, total, m = [], [], 0, lo   # m: the next entry to try
    while True:
        if m <= hi and 4 * (total + m) - shift <= maxdeg:
            acc.append(m)   # and try m again after it
            total += m
            if 4 * total > shift:
                out.append(tuple(acc))
                check_cap("SERIES_CAP", SERIES_CAP, len(out) * (maxdeg + 1),
                          "{} multisets of indices in [{}, {}] listed through"
                          " degree {}, {} Hilbert-series steps or more",
                          len(out), lo, hi, maxdeg, len(out) * (maxdeg + 1))
        elif acc:
            m = acc.pop()
            total -= m
            m += 1
        else:
            return out


def _mu_name(c: tuple[int, ...]) -> str:
    return "mu_" + "_".join(str(m) for m in c)


def _kappa_name(c: tuple[int, ...]) -> str:
    return "kappa_" + "_".join(str(m) for m in c)


def mt_generators(n: int, maxdeg: int) -> list[tuple[tuple[int, ...], int]]:
    """Exterior generators mu_c: weakly increasing multisets c of L-class
    indices in [ceil((n+1)/4), n], degree 4*sum(c) - (2n+1) in (0, maxdeg]."""
    mlo = -((-(n + 1)) // 4)
    shift = 2 * n + 1
    return [(c, 4 * sum(c) - shift)
            for c in _multisets_in_degree(mlo, n, shift, maxdeg)]


def mt_cohomology(n: int, maxdeg: int) -> RingPresentation:
    """The free exterior algebra on the mu_c generators, by degree."""
    if n < 2:
        raise ValueError(f"requires n >= 2 (got n={n})")
    if maxdeg < 1:
        raise ValueError("requires maxdeg >= 1")
    gens = tuple((_mu_name(c), d) for c, d in mt_generators(n, maxdeg))
    dims = fgca_dims(GeneratorSet(gens), maxdeg)
    return RingPresentation(generators=gens, relations=(), dims=tuple(dims))


def _drop_generators(gens: list[tuple[str, int]], killed: list[str],
                     maxdeg: int) -> tuple[RingPresentation, list[int]]:
    """The free graded-commutative algebra on gens modulo the named
    generators, which is the free algebra on the survivors."""
    dead = set(killed)
    dims = fgca_dims(GeneratorSet([g for g in gens if g[0] not in dead]),
                     maxdeg)
    pres = RingPresentation(generators=tuple(gens), relations=tuple(killed),
                            dims=tuple(dims))
    return pres, dims


def _diff_presentation(n: int, maxdeg: int,
                       name) -> tuple[RingPresentation, list[int]]:
    """Presentation a or b, its generators named by name(c): both keep
    the multisets c with indices m >= ceil((n+1)/4) = n//4 + 1 and kill
    the single classes and those of degree 1, which have two indices."""
    shift = 2 * n + 1
    cs = _multisets_in_degree(n // 4 + 1, (shift + maxdeg) // 4, shift, maxdeg)
    return _drop_generators(
        [(name(c), 4 * sum(c) - shift) for c in cs],
        [name(c) for c in cs if len(c) == 1 or 4 * sum(c) - shift == 1],
        maxdeg)


def _diff_presentation_a(n: int, maxdeg: int) -> tuple[RingPresentation, list[int]]:
    """Quotient of the Thom-spectrum ring by (all mu_{L_m}) + (degree 1)."""
    return _diff_presentation(n, maxdeg, _mu_name)


def _diff_presentation_b(n: int, maxdeg: int) -> tuple[RingPresentation, list[int]]:
    """Quotient of the desuspended-characteristic-class algebra.

    Generators kappa_c for L-monomials c of degree 4*sum(c) > 2n+1,
    placed in degree 4*sum(c) - (2n+1) and truncated at maxdeg.
    Relations: every kappa_{L_m}; every kappa_c containing an index with
    4m <= n; every degree-1 pair kappa_{L_{m0}L_{m1}}, 4(m0+m1) = 2n+2.
    A killed generator just drops out of the free algebra, so the
    kappa_c with an index m <= n/4 are never enumerated: the indices
    start at n//4 + 1.
    """
    return _diff_presentation(n, maxdeg, _kappa_name)


def _diff_presentation_c(n: int, maxdeg: int) -> tuple[RingPresentation, list[int]]:
    """Exterior algebra on the pair generators of K."""
    M = minimal_M(max(n, 5)) + maxdeg  # comfortably beyond any pair in range
    pairs = k_pair_generators(n, M, maxdeg)
    dims = fgca_dims(GeneratorSet(pairs), maxdeg)
    pres = RingPresentation(generators=tuple(pairs), relations=(),
                            dims=tuple(dims))
    return pres, dims


@dataclass(frozen=True)
class DiffCohomology:
    n: int
    maxdeg: int
    dims: tuple[int, ...]
    presentation_a: RingPresentation
    presentation_b: RingPresentation
    presentation_c: RingPresentation

    @property
    def basis(self) -> tuple[tuple[str, int], ...]:
        return self.presentation_c.generators


def diff_cohomology(n: int, maxdeg: int,
                    g: int | None = None) -> DiffCohomology:
    """Ring of the diffeomorphism classifying space, three ways.

    The three presentations (Thom-spectrum quotient, desuspended-algebra
    quotient, exterior algebra on pair generators) must agree degreewise;
    a mismatch raises OracleMismatch naming the degree.  Only c is an
    independent leg: a and b come from `_diff_presentation` with the same
    (n, maxdeg), so they agree by construction.
    """
    if n < 4:
        raise ValueError(f"requires n >= 4 (got n={n})")
    if maxdeg < 1 or maxdeg > n - 3:
        raise ValueError(
            f"requires 1 <= maxdeg <= n-3 (got maxdeg={maxdeg}, n={n})")
    if g is not None and 2 * maxdeg > g - 4:
        raise ValueError(
            f"requires maxdeg <= (g-4)/2 (got maxdeg={maxdeg}, g={g})")
    pa, da = _diff_presentation_a(n, maxdeg)
    pb, db = _diff_presentation_b(n, maxdeg)
    pc, dc = _diff_presentation_c(n, maxdeg)
    for d in range(maxdeg + 1):
        check_agree("diff ring presentations", f"degree {d}, n={n}",
                    ("a", da[d]), ("b", db[d]), ("c", dc[d]))
    return DiffCohomology(n=n, maxdeg=maxdeg, dims=tuple(da),
                          presentation_a=pa, presentation_b=pb,
                          presentation_c=pc)


@dataclass(frozen=True)
class BlockDiffCohomology:
    n: int
    maxdeg: int
    tangential: bool
    generators: tuple[tuple[str, int], ...]
    dims: tuple[int, ...]


def blockdiff_cohomology(n: int, maxdeg: int | None = None,
                         tangential: bool = False) -> BlockDiffCohomology:
    """Exterior algebra on K-pairs plus the stable degree-(4k+1)
    generators; with tangential=True the single generators k_m are kept
    as well and the range extends by one degree."""
    if n < 5:
        raise ValueError(f"requires n >= 5 (got n={n})")
    bound = n - 3 if tangential else n - 4
    if maxdeg is None:
        maxdeg = bound
    if maxdeg < 1 or maxdeg > bound:
        raise ValueError(
            f"requires 1 <= maxdeg <= {'n-3' if tangential else 'n-4'} "
            f"(got maxdeg={maxdeg}, n={n})")
    M = minimal_M(n) + maxdeg
    gens = k_pair_generators(n, M, maxdeg)
    if tangential:
        gens += [(name, d) for name, d in k_single_generators(n, M)
                 if d <= maxdeg]
    gens += borel_generators(maxdeg)
    gens.sort(key=lambda t: (t[1], t[0]))
    dims = fgca_dims(GeneratorSet(gens), maxdeg)
    return BlockDiffCohomology(n=n, maxdeg=maxdeg, tangential=tangential,
                               generators=tuple(gens), dims=tuple(dims))
