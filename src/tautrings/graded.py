"""Free graded-commutative algebras, ideal quotients, Koszul complexes and
bigraded differential graded algebras.

Generators carry a bidegree (p, q); singly graded algebras use (0, d).  A
generator is exterior iff its total degree is odd, polynomial otherwise.
A monomial is the sorted tuple of its generator ids (positions in the
(total degree, name)-sorted generator list), an id once per unit of its
exponent; elements are dicts monomial -> coefficient, all ints: the
engine refuses any other value and builds no `QMatrix`.

`apply_derivation` applies every derivation on such letter-id tuples: d
on the bigraded model and the second page (odd) and E_rs on the letters
of invariants (even), with one sign flip per odd letter of the monomial
between a letter and each odd letter of its image, counted on bitmasks
of odd letters (README, "Why one sign per odd letter in between").  The
rank of d on a cell is taken over int column ids, on the monomials that
are not pivots of d into the cell; there, and in the rows of E_rs in
invariants, a monomial is its packed code (`mono_codes`), and an image's
code is its monomial's plus a shift per term, with no tuple built.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import groupby

from .linalg import _eliminate, rank_of_int_rows
from .partitions import check_agree, check_cap


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
        self._reach: tuple[int, list[list[int]], list[list[int]]] = (
            -1, [], [])

    def _reachable(self, top: int):
        """(reach, use): bit b of reach[i][a] is set iff the generators i..
        make a monomial of bidegree (a, b), and bit b of use[i][a] iff they
        make one with generator i in it, for a + b <= top.  Built for the
        largest total asked so far, at least doubling it, so a walk up the
        totals builds them a logarithmic number of times."""
        if top <= self._reach[0]:
            return self._reach[1:]
        top = max(top, 2 * self._reach[0])
        masks = [(1 << (top + 1 - a)) - 1 for a in range(top + 1)]
        n = len(self.degs)
        reach = [[1] + [0] * top] * (n + 1)
        use = [[0] * (top + 1)] * n
        for i in range(n - 1, -1, -1):
            gp, gq, d, odd = self.degs[i]
            if d > top:
                continue
            nxt = reach[i + 1]
            row, used = nxt[:], [0] * (top + 1)
            for a in range(gp, top + 1):
                if odd:   # exponent 1 on a monomial of i + 1..
                    x = nxt[a - gp] << gq & masks[a]
                elif gp:   # one more i on a monomial of i..
                    x = row[a - gp] << gq & masks[a]
                else:   # any positive multiple of gq, by doubling shifts
                    x, shift = nxt[a] << gq & masks[a], gq
                    while shift <= top - a:
                        x |= x << shift & masks[a]
                        shift *= 2
                used[a] = x
                row[a] |= x
            reach[i], use[i] = row, used
        self._reach = (top, reach, use)
        return reach, use

    def __len__(self) -> int:
        return len(self.gens)

    def __iter__(self):
        return iter(self.gens)

    def __getitem__(self, i: int) -> Generator:
        return self.gens[i]

    def mono_bidegree(self, mono) -> tuple[int, int]:
        degs = self.degs
        return sum(degs[a][0] for a in mono), sum(degs[a][1] for a in mono)

    def mono_total(self, mono) -> int:
        return sum(self.degs[a][2] for a in mono)

    def mono_str(self, mono) -> str:
        powers = [(self.gens[a].name, len(list(run)))
                  for a, run in groupby(mono)]
        return "*".join(x if e == 1 else f"{x}^{e}" for x, e in powers) or "1"

    def terms(self, elem) -> list[tuple[int, str]]:
        """(coefficient, mono_str) of each term of elem, by monomial."""
        return [(c, self.mono_str(m)) for m, c in sorted(elem.items())]

    def monomials_total(self, degree: int) -> list[tuple[int, ...]]:
        """All monomials of the given total degree, in increasing order:
        the cells (p, degree - p) of `monomials_bidegree`, merged."""
        return sorted(m for p in range(degree + 1)
                      for m in self.monomials_bidegree(p, degree - p))

    def monomials_bidegree(self, p: int, q: int) -> list[tuple[int, ...]]:
        """All monomials of bidegree (p, q), in increasing order: a larger
        exponent of the first generator comes first.  Recurses on the
        remaining (p, q), and only where the reachability tables
        (`_reachable`) say the generators left can make it, so every call
        ends in at least one monomial.  Exponent 0 and the generators the
        remainder cannot use (a clear use bit) are stepped over in a loop,
        not a call."""
        if p < 0 or q < 0:
            return []
        degs = self.degs
        reach, use = self._reachable(p + q)
        out = []

        def rec(i, rp, rq, acc):
            # the generators i.. make (rp, rq)
            if rp == 0 and rq == 0:
                out.append(acc)
                return
            while True:
                nxt = reach[i + 1]
                if use[i][rp] >> rq & 1:
                    gp, gq, _, odd = degs[i]
                    cap = min(rp // gp if gp else rp + rq,
                              rq // gq if gq else rp + rq)
                    if odd:
                        cap = min(cap, 1)
                    for e in range(cap, 0, -1):
                        sp, sq = rp - e * gp, rq - e * gq
                        if nxt[sp] >> sq & 1:
                            rec(i + 1, sp, sq, acc + (i,) * e)
                if not nxt[rp] >> rq & 1:
                    return
                i += 1

        if reach[0][p] >> q & 1:
            rec(0, p, q, ())
        return out


def mono_mul(gens: GeneratorSet, m1, m2):
    """Product of two monomials: (sign, monomial) or None if zero."""
    odd = gens.odd
    odd1 = [a for a in m1 if odd[a]]
    sign = 1
    # each odd letter of m2 moves left past the odd letters of m1 above it
    for b in m2:
        if odd[b]:
            k = bisect_right(odd1, b)
            if k and odd1[k - 1] == b:
                return None
            if (len(odd1) - k) % 2:
                sign = -sign
    return sign, tuple(sorted(m1 + m2))


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


def add_into(out: dict, e2: dict, c=1) -> dict:
    """Add c * e2 into out, in place, and return out."""
    for m, v in e2.items():
        nv = out.get(m, 0) + c * v
        if nv:
            out[m] = nv
        else:
            out.pop(m, None)
    return out


def mono_elem(mono) -> dict:
    return {mono: 1}


# basis monomials through the requested total degree that
# BigradedDGA.cohomology may build; a 6x6 Koszul map at degree 10 has
# 8 008 and takes 0.22-0.24 s at rank 4 (0.28-0.29 s at rank 6) on a
# shared 2-vCPU Xeon
BASIS_CAP = 20_000


# bits per letter in a packed monomial code.  An image of a cell that
# BigradedDGA.cohomology admits has total degree at most maxtotal + 1, so
# a letter of total t has exponent at most (maxtotal + 1) / t in it, at
# most the number of its powers of total <= maxtotal, each a basis
# monomial: at most BASIS_CAP < 2^CODE_WIDTH
CODE_WIDTH = BASIS_CAP.bit_length()


def mono_codes(monos, codes) -> list[int]:
    """The packed code of each monomial, a sorted tuple of letter ids, from
    codes, the code 1 << width * a of each letter a (CODE_WIDTH in a
    BigradedDGA): its exponent vector in fields of width bits.  Distinct
    monomials whose exponents stay below 2^width have distinct codes."""
    code = codes.__getitem__
    return [sum(map(code, m)) for m in monos]


def derivation_table(odd, values, codes=None) -> list:
    """The value of a derivation on each letter, as apply_derivation takes
    it: per letter id a, a tuple of (coefficient, term, zero, flip, shift)
    per term.  zero has bit b for each odd letter b != a of the term: one
    of them in the rest of a monomial makes the product zero.  flip is the
    XOR over those b of the bits strictly between a and b.  With codes,
    the letters' codes (mono_codes), shift is the code of the term less
    that of a, which takes the code of a monomial to that of its image;
    otherwise it is None.  values maps a letter id to its value as (term,
    coefficient) pairs, terms sorted tuples of letter ids; the other
    letters have value zero."""
    table = [()] * len(odd)
    for a, pairs in values.items():
        entries = []
        for t, c in pairs:
            zero = flip = 0
            for b in t:
                if odd[b] and b != a:
                    zero |= 1 << b
                    flip ^= (1 << max(a, b)) - (2 << min(a, b))
            shift = None if codes is None else (
                sum(codes[b] for b in t) - codes[a])
            entries.append((c, t, zero, flip, shift))
        table[a] = tuple(entries)
    return table


def apply_derivation(odd, table, mono, parity: int, ids=None,
                     code: int = 0) -> dict:
    """The derivation of the given parity (1 odd, 0 even) whose letter
    values are table (derivation_table) on one monomial, a sorted tuple
    of letter ids; odd[a] says whether letter a is odd.  With ids, a dict
    code -> int, a table built with codes and code the code of mono
    (mono_codes), the result is keyed by ids.setdefault(code of the image,
    len(ids)) instead of the image: the column ids of a caller's rows,
    found with no image tuple built.

    d(xy) = dx y + (-1)^{parity |x|} x dy, so a letter a, e times in mono,
    contributes e (-1)^{parity k} (mono less one a, times a term) for each
    term of d(a), k the number of odd letters of mono before a.  The
    product is zero if an odd letter of the term is already in the rest of
    mono: its zero mask meets the mask of mono's odd letters.  Otherwise
    moving each odd letter b of the term to its sorted place costs one
    sign per odd letter of mono strictly between a and b, so the sign is
    the parity of the odd letters of mono in the term's flip mask.  The
    image's code is mono's code plus the term's shift.  Repeated images add
    up: E_rs on x_ss is 2 x_rs.
    """
    out: dict = {}
    omask = None   # bits of the odd letters of mono, once a term needs them
    k = 0   # odd letters of mono before letter a
    prev = None
    n = len(mono)
    for i, a in enumerate(mono):
        if a == prev:
            continue
        prev = a
        ts = table[a]
        if ts:
            j = i + 1
            while j < n and mono[j] == a:
                j += 1
            if ids is None:
                rest = mono[:i] + mono[i + 1:]
            factor = i - j if parity and k % 2 else j - i
            for c, t, zero, flip, shift in ts:
                if zero:
                    if omask is None:
                        omask = sum(1 << b for b in mono if odd[b])
                    if zero & omask:
                        continue
                    if (flip & omask).bit_count() % 2:
                        c = -c
                if ids is None:
                    img = tuple(sorted(rest + t))
                else:
                    img = ids.setdefault(code + shift, len(ids))
                v = out.get(img, 0) + factor * c
                if v:
                    out[img] = v
                else:
                    del out[img]
        k += odd[a]
    return out


def derive(odd, table, elem: dict, parity: int) -> dict:
    """apply_derivation on an element, a dict monomial -> coefficient."""
    out: dict = {}
    for m, c in elem.items():
        add_into(out, apply_derivation(odd, table, m, parity), c)
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


# generators listed times the maxdeg + 1 degrees of the Hilbert series of
# the free algebra on them, which `fgca_dims` sums, counted as the ring
# presentations list them; `cohomology --space diff` admits n <= 857, which
# takes about 0.9 s, and `mt --n 9` maxdeg <= 247
SERIES_CAP = 10_000_000


def check_basis_cap(gens: GeneratorSet, maxtotal: int) -> None:
    """Raise CapExceeded if the free algebra on gens has more than
    BASIS_CAP monomials of total degree <= maxtotal."""
    count = sum(fgca_dims(gens, maxtotal))
    check_cap("BASIS_CAP", BASIS_CAP, count, "free algebra on {} generators "
              "has {} basis monomials through total degree {}", len(gens),
              count, maxtotal)


def _int_coefficients(elem: dict, what: str) -> dict:
    """elem, once each of its coefficients is checked to be an int."""
    for c in elem.values():
        if type(c) is not int:
            raise ValueError(f"{what} has the coefficient {c!r}, not an int")
    return elem


def _homogeneous_degree(gens: GeneratorSet, elem: dict) -> int:
    degs = {gens.mono_total(m) for m in elem}
    if len(degs) != 1:
        raise ValueError(f"relation is not homogeneous: degrees {sorted(degs)}")
    return degs.pop()


def quotient_dims(gens: GeneratorSet, relations: list[dict], maxdeg: int) -> list[int]:
    """Dimensions of F(gens)/(relations) in degrees 0..maxdeg.

    Relations must be homogeneous int elements.  The ideal is spanned
    degreewise by products relation * monomial; the span's rank is exact.
    """
    rels = [_int_coefficients(r, "a relation") for r in relations if r]
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
        out.append(free[d] - rank_of_int_rows(rows))
    return out


class BigradedDGA:
    """Finitely generated bigraded GCA with a derivation differential of
    bidegree (2, -1)."""

    def __init__(self, gens: GeneratorSet, differential: dict[str, dict]):
        """differential: generator name -> element with int coefficients;
        zero coefficients are dropped."""
        self.gens = gens
        self.dvals: dict[int, dict] = {}
        for name, val in differential.items():
            i = gens.index[name]
            val = {m: c for m, c in val.items() if c}
            if val:
                gp, gq = gens[i].p, gens[i].q
                for m in val:
                    mp, mq = gens.mono_bidegree(m)
                    if (mp, mq) != (gp + 2, gq - 1):
                        raise ValueError(
                            f"differential of {name} not of bidegree (2,-1)")
                self.dvals[i] = _int_coefficients(val, f"d({name})")
        self._table = derivation_table(
            gens.odd, {i: val.items() for i, val in self.dvals.items()})

    def d(self, elem: dict) -> dict:
        return derive(self.gens.odd, self._table, elem, 1)

    def check_d_squared(self, maxtotal: int):
        """Verify d^2 = 0 on every monomial of total degree <= maxtotal;
        the reference for check_d_squared_on_generators."""
        for d in range(maxtotal + 1):
            for m in self.gens.monomials_total(d):
                check_agree("d^2", f"monomial {self.gens.mono_str(m)}", (
                    "d^2", self.gens.terms(self.d(self.d(mono_elem(m))))),
                    ("zero", []))

    def check_d_squared_on_generators(self, maxtotal: int):
        """Verify d^2 = 0 on every generator of total degree <= maxtotal.

        Equivalent to check_d_squared(maxtotal): d is an odd derivation,
        so d^2 = [d, d]/2 is a derivation, and on a monomial it is a sum
        of terms each carrying d^2 of one of its letters, whose total
        degrees are at most the monomial's.
        """
        for i, val in self.dvals.items():
            if self.gens[i].total <= maxtotal:
                check_agree("d^2", f"generator {self.gens[i].name}", (
                    "d^2", self.gens.terms(self.d(val))), ("zero", []))

    def _cell_rank(self, basis, codes, table) -> tuple[int, set]:
        """Rank of d on the span of basis, monomials of one cell, and the
        codes (`mono_codes`) of the image monomials at the pivot columns of
        its elimination; codes are those of basis, table d's on codes.

        Each row is built on dense int column ids, image codes in
        first-seen order, so that elimination hashes small ints, and no
        image tuple is built.  Two terms of d(m) are equal only if some
        d(a) has a term a*s, s of bidegree (2, -1), which no monomial has;
        so no image cancels, and no id goes to a monomial that is in no
        row."""
        odd, ids = self.gens.odd, {}
        rows = [apply_derivation(odd, table, m, 1, ids, code)
                for m, code in zip(basis, codes)]
        pivots, _ = _eliminate(rows)
        codes = list(ids)
        return len(pivots), {codes[c] for c in pivots}

    def cohomology(self, maxtotal: int) -> dict[tuple[int, int], int]:
        """dim H^{p,q} for all bidegrees with p + q <= maxtotal.

        Raises CapExceeded, before any cell is built, if the cells hold more
        than BASIS_CAP monomials in all, and OracleMismatch if d^2 != 0.  The
        bigraded series then gives each cell's size.  d has bidegree
        (2, -1), so it is zero on a cell with q = 0 or an empty target
        (p + 2, q - 1): such a cell has rank 0 and no pivots, and is not
        enumerated.  The other nonempty cells are enumerated in increasing
        p, and d is ranked on the monomials of a cell that are not pivots
        of the elimination of d into it: the pivot rows complete them to a
        basis of the cell, and d^2 = 0 kills the pivot rows (README, "How
        cohomology plans its cells").
        """
        check_basis_cap(self.gens, maxtotal)
        self.check_d_squared_on_generators(maxtotal)
        # through maxtotal + 1, the totals d maps the cells into
        sizes = fgca_bidims(self.gens, maxtotal + 1)
        # each letter's code and d's table on codes: only the ranks read them
        letters = [1 << CODE_WIDTH * a for a in range(len(self.gens))]
        table = derivation_table(self.gens.odd, {
            i: val.items() for i, val in self.dvals.items()}, letters)
        ranks: dict = {}
        incoming: dict = {}   # cell -> codes of the pivots of d into it
        for p in range(maxtotal + 1):
            for q in range(maxtotal + 1 - p):
                pivots = incoming.pop((p, q), ())
                if sizes[p][q] and q and sizes[p + 2][q - 1]:
                    basis = self.gens.monomials_bidegree(p, q)
                    codes = mono_codes(basis, letters)
                    if pivots:
                        basis = [m for m, code in zip(basis, codes)
                                 if code not in pivots]
                        codes = [code for code in codes if code not in pivots]
                    ranks[(p, q)], incoming[(p + 2, q - 1)] = (
                        self._cell_rank(basis, codes, table))
        cells = [(p, total - p) for total in range(maxtotal + 1)
                 for p in range(total + 1)]
        return {(p, q): sizes[p][q] - ranks.get((p, q), 0)
                - ranks.get((p - 2, q + 1), 0) for p, q in cells}


def koszul_cohomology_dims(rows: list[dict[int, int]], ncols: int,
                           maxdeg: int) -> list[int]:
    """Cohomology dimensions of the Koszul complex of a linear map.

    rows: the map's rows, one per x, as dicts column -> int (a rational
    map's over one common denominator); d(y_i) is column i, the exterior y
    sit in degree 1 and the polynomial x in degree 2.  Returns
    dims of H^0..H^maxdeg.  Raises CapExceeded, before any cell is built,
    if the complex has more than BASIS_CAP basis monomials up to maxdeg.
    """
    gens = GeneratorSet(
        [(f"y{i:03d}", (0, 1)) for i in range(ncols)]
        + [(f"x{j:03d}", (2, 0)) for j in range(len(rows))])
    check_basis_cap(gens, maxdeg)   # before the differential is built
    diff: dict[str, dict] = {}
    for (i, j), c in sorted(((i, j), c) for j, row in enumerate(rows)
                            for i, c in row.items()):
        diff.setdefault(f"y{i:03d}", {})[gens.index[f"x{j:03d}"],] = c
    dga = BigradedDGA(gens, diff)
    table = dga.cohomology(maxdeg)
    dims = [0] * (maxdeg + 1)
    for (p, q), h in table.items():
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
