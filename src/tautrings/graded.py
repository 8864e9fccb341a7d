"""Free graded-commutative algebras, ideal quotients, Koszul complexes and
bigraded differential graded algebras.

Generators carry a bidegree (p, q); singly graded algebras use (0, d).  A
generator is exterior iff its total degree is odd, polynomial otherwise.
Monomials are exponent tuples over the (fixed, name-sorted) generator
list; elements are dicts monomial -> int or Fraction.  The engine's own
elements have int coefficients; Fraction ones from callers mix in freely.

A derivation walks only the sparse support of each term of d(x_i), with
one sign flip per odd letter of the monomial strictly between slot i and
each odd letter of the term (README, "Why one sign per odd letter in
between"); the rank of d on a cell is taken over int column ids.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress

from .linalg import rank_of_int_rows


@dataclass(frozen=True)
class Generator:
    name: str
    p: int
    q: int

    @property
    def total(self) -> int:
        return self.p + self.q

    @property
    def odd(self) -> bool:
        return self.total % 2 == 1


class GeneratorSet:
    """An ordered set of generators; order is (total degree, name)."""

    def __init__(self, gens):
        """gens: iterable of (name, degree) or (name, (p, q))."""
        parsed = []
        for item in gens:
            name, deg = item
            if isinstance(deg, tuple):
                p, q = deg
            else:
                p, q = 0, deg
            if p < 0 or q < 0 or p + q < 1:
                raise ValueError(f"bad degree for generator {name}: {(p, q)}")
            parsed.append(Generator(str(name), p, q))
        parsed.sort(key=lambda g: (g.total, g.name))
        names = [g.name for g in parsed]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
        self.gens: tuple[Generator, ...] = tuple(parsed)
        self.index = {g.name: i for i, g in enumerate(parsed)}
        self.odd: tuple[bool, ...] = tuple(g.odd for g in parsed)
        # (p, q, total, odd) per generator, built once for the hot loops
        self.degs: tuple[tuple[int, int, int, bool], ...] = tuple(
            (g.p, g.q, g.total, g.odd) for g in parsed)
        # (gcd of p, gcd of q) over generators i.. (0 for none), so a cell
        # whose remainder is no multiple of it has no monomial in i..
        gcds = [(0, 0)]
        for g in reversed(parsed):
            gp, gq = gcds[-1]
            gcds.append((math.gcd(gp, g.p), math.gcd(gq, g.q)))
        self.suffix_gcds: tuple[tuple[int, int], ...] = tuple(reversed(gcds))
        # the first generator j >= i with p = 0 (resp. q = 0), or len:
        # once nothing is left in p (resp. q), the search jumps there
        n = len(parsed)
        zero_p, zero_q = [n] * (n + 1), [n] * (n + 1)
        for i in range(n - 1, -1, -1):
            zero_p[i] = i if parsed[i].p == 0 else zero_p[i + 1]
            zero_q[i] = i if parsed[i].q == 0 else zero_q[i + 1]
        self.next_zero = (tuple(zero_p), tuple(zero_q))

    def __len__(self) -> int:
        return len(self.gens)

    def __iter__(self):
        return iter(self.gens)

    def __getitem__(self, i: int) -> Generator:
        return self.gens[i]

    def mono_bidegree(self, mono) -> tuple[int, int]:
        p = sum(e * d[0] for e, d in zip(mono, self.degs))
        q = sum(e * d[1] for e, d in zip(mono, self.degs))
        return p, q

    def mono_total(self, mono) -> int:
        return sum(e * d[2] for e, d in zip(mono, self.degs))

    def mono_str(self, mono) -> str:
        parts = []
        for e, g in zip(mono, self.gens):
            if e == 1:
                parts.append(g.name)
            elif e > 1:
                parts.append(f"{g.name}^{e}")
        return "*".join(parts) if parts else "1"

    def monomials_total(self, degree: int) -> list[tuple[int, ...]]:
        """All monomials of the given total degree, lexicographic order."""
        out = []

        def rec(i, remaining, acc):
            if remaining == 0:
                out.append(tuple(acc) + (0,) * (len(self.gens) - i))
                return
            if i == len(self.gens):
                return
            g = self.gens[i]
            cap = 1 if g.odd else remaining // g.total
            for e in range(cap, -1, -1):
                if e * g.total <= remaining:
                    rec(i + 1, remaining - e * g.total, acc + [e])

        rec(0, degree, [])
        out.sort(reverse=True)
        return out

    def monomials_bidegree(self, p: int, q: int) -> list[tuple[int, ...]]:
        """All monomials of bidegree (p, q), in the order of
        monomials_total.  Recurses on the remaining (p, q), so only this
        cell is visited.  Exponent 0 and the generators the remainder
        cannot use are stepped over in a loop, not a call; with nothing
        left in p (or q) the loop jumps to the next generator with none
        there.  The search stops as soon as the remainder is no multiple
        of the suffix gcds."""
        degs, gcds = self.degs, self.suffix_gcds
        n = len(degs)
        out = []
        acc = [0] * n
        zero_p, zero_q = self.next_zero

        def rec(i, rp, rq):
            if rp == 0 and rq == 0:
                out.append(tuple(acc))
                return
            # generators are sorted by total degree
            while True:
                if not rp:
                    i = zero_p[i]
                elif not rq:
                    i = zero_q[i]
                if i == n or degs[i][2] > rp + rq:
                    return
                dp, dq = gcds[i]
                if (rp % dp if dp else rp) or (rq % dq if dq else rq):
                    return
                gp, gq, _, odd = degs[i]
                cap = min(rp // gp if gp else rp + rq,
                          rq // gq if gq else rp + rq)
                if odd:
                    cap = min(cap, 1)
                for e in range(cap, 0, -1):
                    acc[i] = e
                    rec(i + 1, rp - e * gp, rq - e * gq)
                acc[i] = 0
                i += 1

        rec(0, p, q)
        return out


def mono_mul(gens: GeneratorSet, m1, m2):
    """Product of two canonical monomials: (sign, monomial) or None if zero."""
    odd = gens.odd
    sign = 1
    # odd letters of m2 must move left past the odd letters of m1 with
    # larger generator index
    odd1 = [i for i, e in enumerate(m1) if e and odd[i]]
    for j, e in enumerate(m2):
        if not e or not odd[j]:
            continue
        if m1[j]:
            return None
        crossings = sum(1 for i in odd1 if i > j)
        if crossings % 2:
            sign = -sign
    return sign, tuple(a + b for a, b in zip(m1, m2))


def elem_mul(gens: GeneratorSet, e1: dict, e2: dict) -> dict:
    out: dict = {}
    for m1, c1 in e1.items():
        for m2, c2 in e2.items():
            r = mono_mul(gens, m1, m2)
            if r is None:
                continue
            sign, m = r
            v = out.get(m, 0) + sign * c1 * c2
            if v:
                out[m] = v
            else:
                out.pop(m, None)
    return out


def elem_add(e1: dict, e2: dict, c=1) -> dict:
    out = dict(e1)
    for m, v in e2.items():
        nv = out.get(m, 0) + c * v
        if nv:
            out[m] = nv
        else:
            out.pop(m, None)
    return out


def mono_elem(mono) -> dict:
    return {mono: 1}


def _derivation_terms(gens: GeneratorSet, dvals: dict[int, dict]):
    """The terms of each d-value as (coefficient, support, odd letters):
    support is the term's sparse ((j, e_j), ...) and odd letters its odd
    j in increasing order."""
    odd = gens.odd
    table = {}
    for i, val in dvals.items():
        table[i] = terms = []
        for m, c in val.items():
            supp = tuple((j, e) for j, e in enumerate(m) if e)
            terms.append((c, supp, tuple(j for j, _ in supp if odd[j])))
    return table


def apply_derivation(gens: GeneratorSet, dvals: dict[int, dict], mono,
                     *, terms=None) -> dict:
    """Extend generator values to a derivation with the Koszul sign rule.

    dvals maps generator index -> element; absent indices have derivative
    zero.  d(xy) = dx y + (-1)^{|x|} x dy on total degree, so slot i of
    mono contributes e_i (-1)^{k} x_<i term x_i^{e_i - 1} x_>i for each
    term of d(x_i), k the number of odd letters of mono before slot i.
    Its image is mono - e_i + term, zero if an odd letter of the term is
    already in the rest of mono.  Moving the term's odd letters to their
    sorted places costs one sign per odd letter of mono strictly between
    slot i and each of them.  terms is _derivation_terms(gens, dvals);
    callers applying d to many monomials build it once and pass it.
    """
    if terms is None:
        terms = _derivation_terms(gens, dvals)
    odd = gens.odd
    letters = list(compress(range(len(mono)), mono))
    opos = [j for j in letters if odd[j]]   # odd letters of mono, increasing
    out: dict = {}
    k = 0   # odd letters of mono before slot i
    for i in letters:
        ts = terms.get(i)
        if ts:
            e = mono[i]
            base = list(mono)
            base[i] = e - 1
            # opos[:k] lie below slot i, opos[khi:] above it
            khi = k + odd[i]
            factor = -e if k % 2 else e
            for c, supp, odds in ts:
                flips = 0
                for b in odds:
                    if base[b]:
                        break
                    kb = bisect_left(opos, b)
                    flips += kb - khi if b > i else k - kb
                else:
                    img = base[:]
                    for j, ej in supp:
                        img[j] += ej
                    img = tuple(img)
                    v = out.get(img, 0) + (-factor if flips % 2 else factor) * c
                    if v:
                        out[img] = v
                    else:
                        del out[img]
        if odd[i]:
            k += 1
    return out


def fgca_dims(gens: GeneratorSet, maxdeg: int) -> list[int]:
    """Hilbert series coefficients of the free graded-commutative algebra."""
    series = [0] * (maxdeg + 1)
    series[0] = 1
    for _, _, d, odd in gens.degs:
        if odd:
            new = series[:]
            for k in range(maxdeg + 1 - d):
                new[k + d] += series[k]
            series = new
        else:
            # multiply by 1/(1 - t^d)
            for k in range(d, maxdeg + 1):
                series[k] += series[k - d]
    return series


def fgca_bidims(gens: GeneratorSet, maxtotal: int) -> list[list[int]]:
    """The bigraded Hilbert series of the free graded-commutative algebra:
    out[p][q] is the number of monomials of bidegree (p, q), p + q <=
    maxtotal."""
    series = [[0] * (maxtotal + 1 - p) for p in range(maxtotal + 1)]
    series[0][0] = 1
    for gp, gq, d, odd in gens.degs:
        if d > maxtotal:
            break   # generators are sorted by total degree
        # an odd generator multiplies the series by 1 + t, an even one by
        # 1/(1 - t), t of bidegree (gp, gq): each cell adds into the one t
        # above it, in descending order (old values) or ascending (new)
        cells = [(p, q) for p in range(maxtotal - d + 1)
                 for q in range(maxtotal - d - p + 1)]
        if odd:
            cells.reverse()
        for p, q in cells:
            series[p + gp][q + gq] += series[p][q]
    return series


# basis monomials through the requested total degree that
# BigradedDGA.cohomology may build; a 6x6 Koszul map at degree 10 has
# 8 008 and takes about 3 s on a shared Xeon
BASIS_CAP = 20_000


def check_basis_cap(gens: GeneratorSet, maxtotal: int) -> None:
    """Raise ValueError if the free algebra on gens has more than
    BASIS_CAP monomials of total degree <= maxtotal."""
    count = sum(fgca_dims(gens, maxtotal))
    if count > BASIS_CAP:
        raise ValueError(
            f"free algebra on {len(gens)} generators has {count} basis "
            f"monomials through total degree {maxtotal}, over the cap of "
            f"{BASIS_CAP}")


def span_rank(rows) -> int:
    """Rank over Q of rows given as dicts key -> int or Fraction.

    Each row's denominators are cleared (which leaves its span unchanged)
    before exact integer elimination; an all-int row passes as it is.
    """
    int_rows = []
    for row in rows:
        if all(type(v) is int for v in row.values()):
            int_rows.append(row)
            continue
        den = math.lcm(*(v.denominator for v in row.values()))
        int_rows.append({k: int(v * den) for k, v in row.items()})
    return rank_of_int_rows(int_rows)


def _homogeneous_degree(gens: GeneratorSet, elem: dict) -> int:
    degs = {gens.mono_total(m) for m in elem}
    if len(degs) != 1:
        raise ValueError(f"relation is not homogeneous: degrees {sorted(degs)}")
    return degs.pop()


def quotient_dims(gens: GeneratorSet, relations: list[dict], maxdeg: int) -> list[int]:
    """Dimensions of F(gens)/(relations) in degrees 0..maxdeg.

    Relations must be homogeneous elements.  The ideal is spanned
    degreewise by products relation * monomial; the span's rank is exact.
    """
    rels = [r for r in relations if r]
    rel_degs = [_homogeneous_degree(gens, r) for r in rels]
    free = fgca_dims(gens, maxdeg)
    out = [free[0]]
    for d in range(1, maxdeg + 1):
        rows = []
        for r, dr in zip(rels, rel_degs):
            if dr > d:
                continue
            for mm in gens.monomials_total(d - dr):
                prod = elem_mul(gens, r, mono_elem(mm))
                if prod:
                    rows.append(prod)
        out.append(free[d] - span_rank(rows))
    return out


class DgaError(ValueError):
    """Raised when a claimed differential fails to square to zero."""


class BigradedDGA:
    """Finitely generated bigraded GCA with a derivation differential of
    bidegree (2, -1)."""

    def __init__(self, gens: GeneratorSet, differential: dict[str, dict]):
        """differential maps generator name -> element (exponent-tuple dict)."""
        self.gens = gens
        self.dvals: dict[int, dict] = {}
        for name, val in differential.items():
            i = gens.index[name]
            if val:
                gp, gq = gens[i].p, gens[i].q
                for m in val:
                    mp, mq = gens.mono_bidegree(m)
                    if (mp, mq) != (gp + 2, gq - 1):
                        raise ValueError(
                            f"differential of {name} not of bidegree (2,-1)")
                self.dvals[i] = val
        self._terms = _derivation_terms(gens, self.dvals)

    def d(self, elem: dict) -> dict:
        out: dict = {}
        for m, c in elem.items():
            out = elem_add(out, apply_derivation(self.gens, self.dvals, m,
                                                 terms=self._terms), c)
        return out

    def check_d_squared(self, maxtotal: int):
        """Verify d^2 = 0 on every monomial of total degree <= maxtotal;
        the reference for check_d_squared_on_generators."""
        for d in range(maxtotal + 1):
            for m in self.gens.monomials_total(d):
                dd = self.d(self.d(mono_elem(m)))
                if dd:
                    raise DgaError(
                        f"d^2 != 0 on monomial {self.gens.mono_str(m)}")

    def check_d_squared_on_generators(self, maxtotal: int):
        """Verify d^2 = 0 on every generator of total degree <= maxtotal.

        Equivalent to check_d_squared(maxtotal): d is an odd derivation,
        so d^2 = [d, d]/2 is a derivation, and on a monomial it is a sum
        of terms each carrying d^2 of one of its letters, whose total
        degrees are at most the monomial's.
        """
        for i, val in self.dvals.items():
            if self.gens[i].total <= maxtotal and self.d(val):
                raise DgaError(
                    f"d^2 != 0 on generator {self.gens[i].name}")

    def _cell_rank(self, basis) -> int:
        """Rank of d on the span of basis, the monomials of one cell.

        Image monomials become dense int column ids in first-seen order,
        so that elimination hashes ints, not exponent tuples."""
        ids: dict = {}
        rows = []
        for m in basis:
            img = apply_derivation(self.gens, self.dvals, m, terms=self._terms)
            rows.append({ids.setdefault(x, len(ids)): c for x, c in img.items()})
        return span_rank(rows)

    def cohomology(self, maxtotal: int, check: bool = True) -> dict[tuple[int, int], int]:
        """dim H^{p,q} for all bidegrees with p + q <= maxtotal.

        Raises ValueError, before any cell is built, if the cells hold more
        than BASIS_CAP monomials in all.  The bigraded series then gives
        each cell's size, and only the nonempty cells are enumerated.
        """
        check_basis_cap(self.gens, maxtotal)
        if check:
            self.check_d_squared_on_generators(maxtotal)
        sizes = fgca_bidims(self.gens, maxtotal)
        cells = [(p, total - p) for total in range(maxtotal + 1)
                 for p in range(total + 1)]
        ranks = {(p, q): self._cell_rank(self.gens.monomials_bidegree(p, q))
                 for p, q in cells if sizes[p][q]}
        return {(p, q): sizes[p][q] - ranks.get((p, q), 0)
                - ranks.get((p - 2, q + 1), 0) for p, q in cells}


def koszul_cohomology_dims(F, maxdeg: int) -> list[int]:
    """Cohomology dimensions of the Koszul complex of a linear map.

    F is a QMatrix X x Y (a map from Y to X); the exterior generators sit
    in degree 1, the polynomial generators in degree 2.  Returns dims of
    H^0..H^maxdeg.  Raises ValueError, before any cell is built, if the
    complex has more than BASIS_CAP basis monomials up to maxdeg.
    """
    ny, nx = F.cols, F.rows
    gens = GeneratorSet(
        [(f"y{i:03d}", (0, 1)) for i in range(ny)]
        + [(f"x{j:03d}", (2, 0)) for j in range(nx)])
    check_basis_cap(gens, maxdeg)   # before the differential is built
    # L*F has the same kernel and image as F, so the engine works over Z
    den = math.lcm(*(c.denominator for c in F.entries.values()))
    diff: dict[str, dict] = {}
    for i in range(ny):
        val: dict = {}
        for j in range(nx):
            c = F[j, i]
            if c:
                mono = [0] * len(gens)
                mono[gens.index[f"x{j:03d}"]] = 1
                val[tuple(mono)] = int(c * den)
        if val:
            diff[f"y{i:03d}"] = val
    dga = BigradedDGA(gens, diff)
    table = dga.cohomology(maxdeg)
    dims = [0] * (maxdeg + 1)
    for (p, q), h in table.items():
        if p + q <= maxdeg:
            dims[p + q] += h
    return dims


def kernel_cokernel_dims(kernel_dim: int, cokernel_dim: int,
                         maxdeg: int) -> list[int]:
    """The expected Koszul cohomology of a map: the Hilbert series of the
    exterior algebra on the kernel (degree 1) tensor the symmetric algebra
    on the cokernel (degree 2), in degrees 0..maxdeg."""
    return fgca_dims(GeneratorSet(
        [(f"k{i}", 1) for i in range(kernel_dim)]
        + [(f"c{i}", 2) for i in range(cokernel_dim)]), maxdeg)
