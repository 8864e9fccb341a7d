import contextlib
import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tautrings.graded import (
    BASIS_CAP,
    CODE_WIDTH,
    BigradedDGA,
    GeneratorSet,
    apply_derivation,
    derivation_table,
    elem_mul,
    fgca_bidims,
    fgca_dims,
    kernel_cokernel_dims,
    koszul_cohomology_dims,
    mono_codes,
    mono_elem,
    mono_mul,
    quotient_dims,
)
from tautrings import graded
from tautrings.linalg import QMatrix, rank_of_int_rows
from tautrings.model import E2Model, ModelParams, build_D_dga, minimal_M
from tautrings.partitions import OracleMismatch

from oracles import (
    elem_add,
    identity,
    int_rows,
    matmul,
    over_common_denominator,
    random_matrix,
    scale,
)


def single(gens, name):
    return (gens.index[name],)


def letters(dense):
    """An exponent tuple as the sorted tuple of its generator ids."""
    return tuple(i for i, e in enumerate(dense) for _ in range(e))


def dense_monomials_total(gens, degree):
    """The exponent tuples of the given total degree in descending order:
    the enumerator the program had before its monomials became sorted
    generator-id tuples, the reference order for
    `GeneratorSet.monomials_total`."""
    out = []

    def rec(i, remaining, acc):
        if remaining == 0:
            out.append(tuple(acc) + (0,) * (len(gens) - i))
            return
        if i == len(gens):
            return
        g = gens[i]
        cap = 1 if g.odd else remaining // g.total
        for e in range(cap, -1, -1):
            if e * g.total <= remaining:
                rec(i + 1, remaining - e * g.total, acc + [e])

    rec(0, degree, [])
    out.sort(reverse=True)
    return out


def bidegree_filter(gens, p, q):
    """Reference enumeration of a (p, q) cell: filter the exponent-tuple
    enumeration of its total degree, through `letters`."""
    return [m for m in map(letters, dense_monomials_total(gens, p + q))
            if gens.mono_bidegree(m) == (p, q)]


def previous_monomials_bidegree(gens, p, q):
    """The (p, q) search with one call per generator, exponent 0
    included, over exponent tuples: the reference order for
    `GeneratorSet.monomials_bidegree` (through `letters`)."""
    degs = gens.degs
    n = len(degs)
    # (gcd of p, gcd of q) over generators i.. (0 for none): a remainder
    # that is no multiple of it has no monomial in i..
    gcds = [(0, 0)] * (n + 1)
    for i in range(n - 1, -1, -1):
        gp, gq = gcds[i + 1]
        gcds[i] = (math.gcd(gp, degs[i][0]), math.gcd(gq, degs[i][1]))
    out = []
    acc = [0] * n

    def rec(i, rp, rq):
        if rp == 0 and rq == 0:
            out.append(tuple(acc))
            return
        if i == n or degs[i][2] > rp + rq:
            return
        dp, dq = gcds[i]
        if (rp % dp if dp else rp) or (rq % dq if dq else rq):
            return
        gp, gq, _, odd = degs[i]
        cap = min(rp // gp if gp else rp + rq, rq // gq if gq else rp + rq)
        if odd:
            cap = min(cap, 1)
        for e in range(cap, 0, -1):
            acc[i] = e
            rec(i + 1, rp - e * gp, rq - e * gq)
        acc[i] = 0
        rec(i + 1, rp, rq)

    rec(0, p, q)
    return out


@functools.lru_cache(maxsize=None)
def model_gens(kind, n, g):
    if kind == "D":
        return build_D_dga(ModelParams(n=n, g=g, M=minimal_M(n),
                                       maxdeg=n - 3)).gens
    return E2Model(n, g, minimal_M(n)).gens


def random_dga(rng, closed):
    """A small bigraded DGA with random values of d on random generators.

    closed: the "sink" generators have d = 0, and every other
    generator, in GeneratorSet order, takes a combination of the
    monomials in the sinks of the target bidegree plus d(e), for e a
    random rational combination of the monomials of its own bidegree in
    the generators before it.  d^2 = 0 on those generators makes d(e)
    closed; where e has two letters with d != 0, d(e) has several terms
    whose d vanishes only by exact cancellation.  So d^2 = 0.
    Otherwise d^2 may or may not vanish.
    """
    if closed:
        # even sinks x (2, 0) and w (0, 2), odd s (0, 1) whose values are
        # combinations of the x, and one or two more, whose own bidegree
        # holds products of the s, x and w
        sink_degs = [(2, 0)] * rng.randint(1, 3) + [(0, 2)] * rng.randint(0, 1)
        others = [(0, 1)] * rng.randint(1, 3) + [
            rng.choice([(0, 2), (0, 3), (1, 2), (2, 1)])
            for _ in range(rng.randint(1, 2))]
        gens = GeneratorSet([(f"g{i}", d)
                             for i, d in enumerate(sink_degs + others)])
        sinks = {gens.index[f"g{i}"] for i in range(len(sink_degs))}
    else:
        degs = [(0, 1), (0, 2), (0, 3), (1, 2), (2, 0), (2, 1), (2, 2),
                (3, 1), (4, 0), (4, 1), (5, 0)]
        gens = GeneratorSet([(f"g{i}", rng.choice(degs))
                             for i in range(rng.randint(2, 7))])
        sinks = set()
    coeffs = [1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 4)]
    diff, dvals = {}, {}
    for i, g in enumerate(gens):
        if i in sinks:
            continue
        targets = [m for m in bidegree_filter(gens, g.p + 2, g.q - 1)
                   if not closed or all(j in sinks for j in m)]
        val = {}
        for m in targets:
            if rng.random() < 0.7:
                val[m] = rng.choice(coeffs)
        if closed:
            for m in bidegree_filter(gens, g.p, g.q):
                if m[-1] < i and rng.random() < 0.7:
                    val = elem_add(val, derive(gens, dvals, m),
                                   rng.choice(coeffs))
        if val:
            diff[g.name] = dvals[i] = val
    return BigradedDGA(gens, dict(zip(diff, over_common_denominator(
        diff.values()))))


def rational_closed_differential(rng):
    """(gens, differential) of a closed bigraded DGA whose d-values are
    rational combinations of several monomials: d vanishes on the even
    sinks x_i (2, 0) and w_j (0, 2) and takes the odd sources s_k of
    bidegree (0, 1), (0, 3) and (2, 1) to sink monomials.  A source drawn
    after others of its bidegree gets, half the time, a rational
    combination of their values, so that ranks fall short on exact
    rational dependencies."""
    sinks = ([(f"x{i}", (2, 0)) for i in range(rng.randint(1, 3))]
             + [(f"w{j}", (0, 2)) for j in range(rng.randint(0, 2))])
    sources = [(f"s{k}", rng.choice([(0, 1), (0, 3), (2, 1)]))
               for k in range(rng.randint(1, 5))]
    gens = GeneratorSet(sinks + sources)
    coeffs = [1, -1, 2, Fraction(1, 2), Fraction(-3, 4), Fraction(2, 3)]
    diff, earlier = {}, {}
    for name, (p, q) in sources:
        same = earlier.setdefault((p, q), [])
        val = {}
        if same and rng.random() < 0.5:
            for v in same:
                val = elem_add(val, v, rng.choice(coeffs))
        else:
            for m in bidegree_filter(gens, p + 2, q - 1):
                if (all(gens[a].name[0] != "s" for a in m)
                        and rng.random() < 0.7):
                    val[m] = rng.choice(coeffs)
        same.append(val)
        diff[name] = val
    return gens, diff


def merge_mul(gens, m1, m2):
    """m1 * m2 on sorted generator-id tuples, written apart from
    `graded.mono_mul`: merge the two tuples, m1's letter first on a tie,
    and count one crossing for each odd letter of m2 taken while odd
    letters of m1 remain.  (sign, monomial), or None when an odd letter
    repeats."""
    odd = gens.odd
    out, i, crossings = [], 0, 0
    for b in m2:
        while i < len(m1) and m1[i] <= b:
            out.append(m1[i])
            i += 1
        if odd[b]:
            crossings += sum(odd[a] for a in m1[i:])
        out.append(b)
    out += m1[i:]
    if any(a == b and odd[a] for a, b in zip(out, out[1:])):
        return None
    return (-1) ** crossings, tuple(out)


def letter_codes(letters):
    """The packed code of each letter, as BigradedDGA.cohomology builds
    them."""
    return [1 << CODE_WIDTH * a for a in range(letters)]


def coded(dga):
    """Each letter's code and d's table on codes, as `cohomology` builds
    them for `_cell_rank`."""
    letters = letter_codes(len(dga.gens))
    return letters, derivation_table(dga.gens.odd, {
        i: v.items() for i, v in dga.dvals.items()}, letters)


def derive(gens, dvals, mono, parity=1):
    """The derivation of the given parity with generator values dvals on
    one monomial."""
    table = derivation_table(gens.odd, {i: v.items() for i, v in dvals.items()})
    return apply_derivation(gens.odd, table, mono, parity)


def reference_derivation(gens, dvals, mono, parity=1):
    """apply_derivation by products: each letter of mono, repeated ones
    one by one, is replaced by each term of its d-value as
    prefix * (term * rest) through two merge_mul calls, with the sign of
    an odd d passing the prefix."""
    out = {}
    for pos, a in enumerate(mono):
        val = dvals.get(a)
        if not val:
            continue
        prefix, rest = mono[:pos], mono[pos + 1:]
        factor = -1 if parity and gens.mono_total(prefix) % 2 else 1
        for m, c in val.items():
            r = merge_mul(gens, m, rest)
            if r is None:
                continue
            s1, m1 = r
            r = merge_mul(gens, prefix, m1)
            if r is None:
                continue
            s2, m2 = r
            out = elem_add(out, {m2: factor * s1 * s2 * c})
    return out


def random_derivation(rng):
    """Generators of mixed parity and bidegree, at least six of them odd,
    and d-values of random multi-letter terms: each letter occurs with
    probability 1/2, an even one to a power up to 3.  The terms are not
    homogeneous; the sign rule does not need them to be."""
    odd_degs = [(0, 1), (1, 0), (0, 3), (1, 2), (2, 1)]
    even_degs = [(0, 2), (2, 0), (1, 1), (2, 2)]
    degs = [rng.choice(odd_degs) for _ in range(6)]
    degs += [rng.choice(odd_degs + even_degs) for _ in range(rng.randint(1, 3))]
    gens = GeneratorSet([(f"g{i}", pq) for i, pq in enumerate(degs)])
    dvals = {}
    for i in range(len(gens)):
        if rng.random() < 0.3:
            continue
        val = {}
        for _ in range(rng.randint(1, 3)):
            term = tuple(
                j for j in range(len(gens)) if rng.random() >= 0.5
                for _ in range(1 if gens.odd[j] else rng.randint(1, 3)))
            val[term] = rng.choice([1, -1, 2, -3, Fraction(1, 2)])
        dvals[i] = val
    return gens, dvals


def d_squared_passes(check, maxtotal):
    try:
        check(maxtotal)
    except OracleMismatch:
        return False
    return True


class TestGeneratorSet:
    def test_parity_from_total_degree(self):
        g = GeneratorSet([("x", 3), ("e", (2, 0))])
        assert g[g.index["x"]].odd
        assert not g[g.index["e"]].odd

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSet([("x", 1), ("x", 2)])

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSet([("x", (0, 0))])


class TestMonomialBasis:
    def test_odd_square_vanishes(self):
        g = GeneratorSet([("x", 3)])
        assert g.monomials_total(6) == []

    def test_even_powers(self):
        g = GeneratorSet([("e", 2)])
        assert g.monomials_total(6) == [(0, 0, 0)]

    def test_two_odds(self):
        g = GeneratorSet([("x", 1), ("y", 1)])
        assert g.monomials_total(2) == [(0, 1)]

    def test_bidegree_filter(self):
        g = GeneratorSet([("a", (2, 0)), ("b", (0, 2))])
        assert g.monomials_bidegree(2, 2) == [(0, 1)]
        assert g.monomials_bidegree(4, 0) == [(0, 0)]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 9))
    def test_total_same_as_exponent_tuple_enumerator(self, seed, degree):
        """The same monomials in the same order as the enumerator over
        exponent tuples, through `letters`."""
        rng = random.Random(seed)
        degs = [(a, b) for a in range(4) for b in range(4) if a + b]
        gens = GeneratorSet([(f"g{i}", rng.choice(degs))
                             for i in range(rng.randint(0, 7))])
        assert gens.monomials_total(degree) == [
            letters(m) for m in dense_monomials_total(gens, degree)]

    def test_mono_str(self):
        g = GeneratorSet([("x", 1), ("e", 2), ("f", 2)])
        assert g.mono_str(()) == "1"
        assert g.mono_str((0, 1, 1, 2)) == "x*e^2*f"

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 6), st.integers(0, 6))
    def test_bidegree_matches_total_degree_filter(self, seed, p, q):
        rng = random.Random(seed)
        degs = [(a, b) for a in range(4) for b in range(4) if a + b]
        gens = GeneratorSet([(f"g{i}", rng.choice(degs))
                             for i in range(rng.randint(0, 7))])
        assert gens.monomials_bidegree(p, q) == bidegree_filter(gens, p, q)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 5), st.integers(0, 4), st.integers(0, 9),
           st.integers(0, 7))
    def test_bidegree_koszul_generators(self, ny, nx, p, q):
        """Koszul generators, y at (0, 1) and x at (2, 0), as
        koszul_cohomology_dims builds them; p may be odd and q above ny,
        cells the suffix-gcd prune cuts off."""
        gens = GeneratorSet([(f"y{i:03d}", (0, 1)) for i in range(ny)]
                            + [(f"x{j:03d}", (2, 0)) for j in range(nx)])
        assert gens.monomials_bidegree(p, q) == bidegree_filter(gens, p, q)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bidegree_same_as_previous_search(self, data):
        """The same monomials in the same order as the search with one
        call per generator, on Koszul generators and on the generators of
        the D-model and of the second page."""
        kind = data.draw(st.sampled_from(["koszul", "D", "E2"]))
        if kind == "koszul":
            ny, nx = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 5))
            gens = GeneratorSet([(f"y{i:03d}", (0, 1)) for i in range(ny)]
                                + [(f"x{j:03d}", (2, 0)) for j in range(nx)])
            top = 10
        else:
            n = data.draw(st.integers(5, 9))
            gens = model_gens(kind, n, data.draw(st.sampled_from([n - 2, n - 1])))
            top = n
        p = data.draw(st.integers(0, top))
        q = data.draw(st.integers(0, top - p))
        assert gens.monomials_bidegree(p, q) \
            == [letters(m) for m in previous_monomials_bidegree(gens, p, q)]

    @pytest.mark.parametrize("n", range(5, 13))
    def test_bidegree_d_model_generators(self, n):
        """Every cell the D-model's cohomology visits, and the cells next
        to them."""
        params = ModelParams(n=n, g=n - 2, M=minimal_M(n), maxdeg=n - 3)
        gens = build_D_dga(params).gens
        for total in range(n):
            for p in range(total + 1):
                assert gens.monomials_bidegree(p, total - p) \
                    == bidegree_filter(gens, p, total - p)

    def test_cells_cached_through_the_largest_top(self):
        """A smaller total reads the table listed through the largest one
        asked, and each of its cells is the one a pass through that cell's
        own total lists."""
        params = ModelParams(n=12, g=10, M=minimal_M(12), maxdeg=9)
        gens = build_D_dga(params).gens
        table = gens.cells(9)
        assert gens.cells(4) is table
        for total in range(10):
            fresh = build_D_dga(params).gens.cells(total)
            for p in range(total + 1):
                assert table[p][total - p] == fresh[p][total - p]

    @pytest.mark.parametrize("n", [45, 50])
    def test_bidegree_d_model_generators_large_n(self, n):
        """Every cell the D-model's cohomology visits at maxdeg n - 3, where
        most of the search's branches once led to no monomial: the cell's
        size from the bigraded series, each monomial of its bidegree, in
        strictly increasing order, which makes them the whole cell."""
        params = ModelParams(n=n, g=n - 2, M=minimal_M(n), maxdeg=n - 3)
        gens = build_D_dga(params).gens
        sizes = fgca_bidims(gens, params.maxdeg)
        for total in range(params.maxdeg + 1):
            for p in range(total + 1):
                monos = gens.monomials_bidegree(p, total - p)
                assert len(monos) == sizes[p][total - p], (p, total - p)
                assert all(gens.mono_bidegree(m) == (p, total - p)
                           for m in monos)
                assert all(a < b for a, b in zip(monos, monos[1:]))


class TestFgcaDims:
    def test_exterior(self):
        g = GeneratorSet([("x", 3)])
        assert fgca_dims(g, 6) == [1, 0, 0, 1, 0, 0, 0]

    def test_polynomial(self):
        g = GeneratorSet([("e", 2)])
        assert fgca_dims(g, 5) == [1, 0, 1, 0, 1, 0]

    def test_two_lines(self):
        g = GeneratorSet([("x", 1), ("y", 1)])
        assert fgca_dims(g, 3) == [1, 2, 1, 0]

    def test_matches_enumeration(self):
        g = GeneratorSet([("x", 1), ("y", 3), ("e", 2), ("f", 4)])
        dims = fgca_dims(g, 9)
        for d in range(10):
            assert dims[d] == len(g.monomials_total(d))


class TestFgcaBidims:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_cell_sizes_match_enumeration(self, data):
        """Every cell of random generator sets and of the Koszul, D-model
        and second-page generators, rows summing to fgca_dims."""
        kind = data.draw(st.sampled_from(["random", "koszul", "D", "E2"]))
        if kind == "random":
            rng = random.Random(data.draw(st.integers(0, 10**6)))
            degs = [(a, b) for a in range(4) for b in range(4) if a + b]
            gens = GeneratorSet([(f"g{i}", rng.choice(degs))
                                 for i in range(rng.randint(0, 7))])
            top = 8
        elif kind == "koszul":
            ny, nx = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 5))
            gens = GeneratorSet([(f"y{i:03d}", (0, 1)) for i in range(ny)]
                                + [(f"x{j:03d}", (2, 0)) for j in range(nx)])
            top = 10
        else:
            n = data.draw(st.integers(5, 9))
            gens = model_gens(kind, n, data.draw(st.sampled_from([n - 2, n - 1])))
            top = n
        sizes = fgca_bidims(gens, top)
        for total in range(top + 1):
            for p in range(total + 1):
                assert sizes[p][total - p] == len(
                    gens.monomials_bidegree(p, total - p)), (p, total - p)
        assert [sum(sizes[p][t - p] for p in range(t + 1))
                for t in range(top + 1)] == fgca_dims(gens, top)


class TestProducts:
    def test_koszul_sign(self):
        g = GeneratorSet([("x", 1), ("y", 1)])
        x, y = single(g, "x"), single(g, "y")
        xy = elem_mul(g, mono_elem(x), mono_elem(y))
        yx = elem_mul(g, mono_elem(y), mono_elem(x))
        assert elem_add(xy, yx) == {}

    def test_odd_square_zero(self):
        g = GeneratorSet([("x", 1)])
        x = mono_elem(single(g, "x"))
        assert elem_mul(g, x, x) == {}

    def test_even_commutes(self):
        g = GeneratorSet([("e", 2), ("x", 1)])
        e, x = mono_elem(single(g, "e")), mono_elem(single(g, "x"))
        assert elem_mul(g, e, x) == elem_mul(g, x, e)

    @settings(max_examples=100)
    @given(st.data())
    def test_sign_rule_for_derivations(self, data):
        # d(ab) = da b + (-1)^{|a|} a db for all monomial pairs to degree 8
        gens = GeneratorSet([("x", (0, 1)), ("y", (0, 1)), ("u", (0, 3)),
                             ("e", (2, 0)), ("f", (2, 2))])
        # degree-(+1) derivation: d(x) = e, d(u) = e^2
        dvals = {gens.index["x"]: mono_elem(single(gens, "e")),
                 gens.index["u"]: elem_mul(gens,
                                           mono_elem(single(gens, "e")),
                                           mono_elem(single(gens, "e")))}
        deg_a = data.draw(st.integers(0, 4))
        deg_b = data.draw(st.integers(0, 4))
        basis_a = gens.monomials_total(deg_a)
        basis_b = gens.monomials_total(deg_b)
        if not basis_a or not basis_b:
            return
        a = data.draw(st.sampled_from(basis_a))
        b = data.draw(st.sampled_from(basis_b))
        prod = elem_mul(gens, mono_elem(a), mono_elem(b))
        d_prod = {}
        for m, c in prod.items():
            d_prod = elem_add(d_prod, derive(gens, dvals, m), c)
        da_b = elem_mul(gens, derive(gens, dvals, a), mono_elem(b))
        sign = Fraction(-1 if gens.mono_total(a) % 2 else 1)
        a_db = elem_mul(gens, mono_elem(a), derive(gens, dvals, b))
        rhs = elem_add(da_b, a_db, sign)
        assert d_prod == rhs

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([1, 0]))
    def test_derivation_matches_products(self, seed, parity):
        """The one-pass kernel equals prefix * (term * rest) on every
        monomial up to total degree 6, for an odd and an even
        derivation."""
        gens, dvals = random_derivation(random.Random(seed))
        for d in range(7):
            for m in gens.monomials_total(d):
                assert (derive(gens, dvals, m, parity)
                        == reference_derivation(gens, dvals, m, parity)), m

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([1, 0]))
    def test_code_path_matches_tuple_path(self, seed, parity):
        """With ids, rows keyed by packed codes are the tuple rows, the
        same images with the same coefficients in the same order, on
        random derivations with odd, even and repeated letters in their
        terms; the tuple rows are the products'.  These terms may cancel,
        which d never does, and a cancelled image keeps the id it was
        given, so the first-seen order of ids is checked on the cells of
        `test_code_rows_are_the_tuple_rows`."""
        gens, dvals = random_derivation(random.Random(seed))
        values = {i: v.items() for i, v in dvals.items()}
        plain = derivation_table(gens.odd, values)
        codes = letter_codes(len(gens))
        coded = derivation_table(gens.odd, values, codes)
        monos = [m for d in range(7) for m in gens.monomials_total(d)]
        by_code = {}
        for m, code in zip(monos, mono_codes(monos, codes)):
            images = apply_derivation(gens.odd, plain, m, parity)
            assert images == reference_derivation(gens, dvals, m, parity)
            row = apply_derivation(gens.odd, coded, m, parity, by_code, code)
            ids = list(by_code)
            image_codes = mono_codes(images, codes)
            assert [(ids[i], c) for i, c in row.items()] == list(
                zip(image_codes, images.values())), m

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.sampled_from([1, 0]))
    def test_derive_sums_as_copy_and_add(self, seed, parity):
        """graded.derive sums the images of an element's monomials in
        place; summed by copy-and-add (oracles.elem_add) they are the same
        element, terms in the same order, on elements of up to 200
        monomials whose images overlap and cancel."""
        rng = random.Random(seed)
        gens, dvals = random_derivation(rng)
        table = derivation_table(gens.odd,
                                 {i: v.items() for i, v in dvals.items()})
        monos = [m for d in range(7) for m in gens.monomials_total(d)]
        elem = {m: rng.choice([1, -1, 2, -3])
                for m in rng.sample(monos, min(len(monos), 200))}
        want = {}
        for m, c in elem.items():
            want = elem_add(want, apply_derivation(gens.odd, table, m,
                                                   parity), c)
        got = graded.derive(gens.odd, table, elem, parity)
        assert list(got.items()) == list(want.items())

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_mono_mul_matches_merge(self, seed):
        """mono_mul equals the merge and crossing count on random pairs of
        monomials up to total degree 4."""
        gens, _ = random_derivation(random.Random(seed))
        monos = [m for d in range(5) for m in gens.monomials_total(d)]
        rng = random.Random(seed)
        for _ in range(50):
            a, b = rng.choice(monos), rng.choice(monos)
            assert mono_mul(gens, a, b) == merge_mul(gens, a, b), (a, b)


def fraction_rank(rows):
    """Rank by plain Fraction Gauss-Jordan over the sorted union of keys."""
    keys = sorted({k for r in rows for k in r})
    dense = [[Fraction(r.get(k, 0)) for k in keys] for r in rows]
    rank = 0
    for c in range(len(keys)):
        pivot = next((i for i in range(rank, len(dense)) if dense[i][c]), None)
        if pivot is None:
            continue
        dense[rank], dense[pivot] = dense[pivot], dense[rank]
        for i in range(len(dense)):
            if i != rank and dense[i][c]:
                f = dense[i][c] / dense[rank][c]
                dense[i] = [a - f * b for a, b in zip(dense[i], dense[rank])]
        rank += 1
    return rank


class TestSpanRank:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_int_and_fraction_rows_against_gauss_jordan(self, data):
        """Int and Fraction rows over one common denominator, as the
        map-file reader clears a map, have their rank over Q; multiples
        of earlier rows, int and Fraction, make the rank fall short."""
        key = st.tuples(st.integers(0, 2), st.integers(0, 2))
        value = st.one_of(st.integers(-3, 3),
                          st.fractions(-3, 3, max_denominator=4))
        rows = data.draw(st.lists(st.dictionaries(key, value, max_size=5),
                                  max_size=7))
        for _ in range(data.draw(st.integers(0, 3))):
            if not rows:
                break
            src = data.draw(st.sampled_from(rows))
            factor = data.draw(st.sampled_from([2, -1, Fraction(1, 3)]))
            rows.append({k: v * factor for k, v in src.items()})
        copy = [dict(r) for r in rows]
        assert rank_of_int_rows(over_common_denominator(rows)) \
            == fraction_rank(rows)
        assert rows == copy


class TestQuotientDims:
    def test_kill_generator(self):
        g = GeneratorSet([("x", 3), ("y", 5)])
        rel = mono_elem(single(g, "x"))
        assert quotient_dims(g, [rel], 8) == [1, 0, 0, 0, 0, 1, 0, 0, 0]

    def test_empty_ideal(self):
        g = GeneratorSet([("x", 1), ("e", 2)])
        assert quotient_dims(g, [], 6) == fgca_dims(g, 6)

    def test_truncated_polynomial(self):
        g = GeneratorSet([("e", 2)])
        rel = {(0, 0): 1}
        assert quotient_dims(g, [rel], 8) == [1, 0, 1, 0, 0, 0, 0, 0, 0]

    def test_inhomogeneous_rejected(self):
        g = GeneratorSet([("x", 1), ("e", 2)])
        rel = elem_add(mono_elem(single(g, "x")), mono_elem(single(g, "e")))
        with pytest.raises(ValueError):
            quotient_dims(g, [rel], 4)

    def test_nonmonomial_relation(self):
        # S(a, b)/(a - b) has one generator left
        g = GeneratorSet([("a", 2), ("b", 2)])
        rel = elem_add(mono_elem(single(g, "a")),
                       mono_elem(single(g, "b")), -1)
        assert quotient_dims(g, [rel], 6) == [1, 0, 1, 0, 1, 0, 1]

    def test_monotone_under_more_relations(self):
        g = GeneratorSet([("x", 1), ("y", 1), ("e", 2)])
        rels = [mono_elem(single(g, "x")),
                {(2,): 1},
                elem_mul(g, mono_elem(single(g, "y")),
                         mono_elem(single(g, "e")))]
        prev = fgca_dims(g, 6)
        for i in range(len(rels) + 1):
            cur = quotient_dims(g, rels[:i], 6)
            assert all(c <= p for c, p in zip(cur, prev))
            prev = cur

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_killing_generators_leaves_survivors(self, data):
        """F(gens)/(killed generators) is the free algebra on the
        survivors: the span-rank path agrees with their Hilbert series."""
        bidegree = st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(
            lambda pq: 1 <= sum(pq) <= 4)
        degs = data.draw(st.lists(bidegree, min_size=1, max_size=5))
        gens = GeneratorSet([(f"g{i}", pq) for i, pq in enumerate(degs)])
        killed = data.draw(st.sets(st.sampled_from([g.name for g in gens])))
        maxdeg = data.draw(st.integers(1, 8))
        rels = [mono_elem(single(gens, name)) for name in sorted(killed)]
        survivors = GeneratorSet([(g.name, (g.p, g.q)) for g in gens
                                  if g.name not in killed])
        assert (quotient_dims(gens, rels, maxdeg)
                == fgca_dims(survivors, maxdeg))


def rank_r_map(rng, rows, cols, rank):
    """A rows x rank times rank x cols product of random rationals."""
    def factor(r, c):
        return QMatrix(r, c, {
            (i, j): Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                             rng.randint(1, 9))
            for i in range(r) for j in range(c)})

    return matmul(factor(rows, rank), factor(rank, cols))


def koszul_dims(F: QMatrix, maxdeg: int) -> list[int]:
    """`koszul_cohomology_dims` of F, its rows over one common
    denominator."""
    return koszul_cohomology_dims(int_rows(F), F.cols, maxdeg)


class TestKoszul:
    def test_acyclic_identity(self):
        assert koszul_dims(identity(1), 5) == [1, 0, 0, 0, 0, 0]

    def test_zero_map(self):
        got = koszul_dims(QMatrix(1, 1), 6)
        assert got == kernel_cokernel_dims(1, 1, 6)

    def test_surjective_with_kernel(self):
        got = koszul_dims(QMatrix.from_rows([[1, 1]]), 5)
        assert got == [1, 1, 0, 0, 0, 0]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_maps_match_kernel_cokernel_model(self, seed):
        rng = random.Random(seed)
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        F = random_matrix(rows, cols, rng, lo=-3, hi=3)
        rank = F.rank()
        expected = kernel_cokernel_dims(cols - rank, rows - rank, 8)
        assert koszul_dims(F, 8) == expected

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_rational_maps_match_kernel_cokernel_model(self, seed):
        rng = random.Random(seed)
        rows, cols = rng.randint(0, 4), rng.randint(0, 4)
        F = QMatrix(rows, cols, {
            (i, j): Fraction(rng.randint(-3, 3), rng.randint(1, 7))
            for i in range(rows) for j in range(cols)})
        rank = F.rank()
        expected = kernel_cokernel_dims(cols - rank, rows - rank, 7)
        assert koszul_dims(F, 7) == expected

    @pytest.mark.slow
    @pytest.mark.parametrize("rows, cols, rank, seed", [
        (6, 6, 6, 1), (6, 6, 4, 2), (6, 6, 3, 3), (7, 5, 3, 4)])
    def test_maps_past_criterion_5(self, rows, cols, rank, seed):
        F = rank_r_map(random.Random(seed), rows, cols, rank)
        assert F.rank() == rank
        expected = kernel_cokernel_dims(cols - rank, rows - rank, 8)
        assert koszul_dims(F, 8) == expected

    @pytest.mark.slow
    def test_six_by_six_rank_4_at_degree_10(self):
        # 8 008 basis monomials, the size quoted beside BASIS_CAP
        F = rank_r_map(random.Random(10), 6, 6, 4)
        assert F.rank() == 4
        assert koszul_dims(F, 10) == kernel_cokernel_dims(2, 2, 10)

    def test_work_cap(self):
        # 7 + 7 generators to degree 11 span 31 824 monomials (19 448 to 10)
        with pytest.raises(ValueError, match="31824 basis monomials"):
            koszul_dims(identity(7), 11)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6),
           st.fractions().filter(lambda c: c != 0))
    def test_invariant_under_rational_scaling(self, seed, c):
        rng = random.Random(seed)
        F = random_matrix(rng.randint(0, 4), rng.randint(0, 4), rng,
                          lo=-3, hi=3)
        assert koszul_dims(F, 6) == koszul_dims(scale(F, c), 6)


@contextlib.contextmanager
def counting_cell_rank():
    """Record (dga, number of monomials) for each BigradedDGA._cell_rank
    call while the context is open."""
    seen = []
    original = BigradedDGA._cell_rank

    def counting(self, basis, *args):
        seen.append((self, len(basis)))
        return original(self, basis, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BigradedDGA, "_cell_rank", counting)
        yield seen


def koszul_dga(F):
    """The DGA `koszul_cohomology_dims` builds for the map F: exterior y
    at (0, 1), polynomial x at (2, 0), d(y_i) column i of F over one
    common denominator."""
    gens = GeneratorSet([(f"y{i:03d}", (0, 1)) for i in range(F.cols)]
                        + [(f"x{j:03d}", (2, 0)) for j in range(F.rows)])
    diff = {}
    for j, row in enumerate(int_rows(F)):
        for i, c in row.items():
            diff.setdefault(f"y{i:03d}", {})[gens.index[f"x{j:03d}"],] = c
    return BigradedDGA(gens, diff)


def criterion_5_maps():
    """The 50 maps of criterion 5, in its order."""
    rng = random.Random(57721)
    return [random_matrix(rng.randint(0, 5), rng.randint(0, 5), rng,
                          lo=-3, hi=3) for _ in range(50)]


def complement_rows(dga, maxtotal):
    """The sum over the cells of p + q <= maxtotal that d can map to a
    nonzero value, q > 0 and a nonempty target (p + 2, q - 1), of size
    minus the rank of d into the cell, that rank taken on the full basis
    of the cell d comes from: the rows the complement walk ranks."""
    gens, total = dga.gens, 0
    for t in range(maxtotal + 1):
        for p in range(t + 1):
            if p == t or not gens.monomials_bidegree(p + 2, t - p - 1):
                continue
            size = len(gens.monomials_bidegree(p, t - p))
            if size and p >= 2:
                source = gens.monomials_bidegree(p - 2, t - p + 1)
                size -= rank_of_int_rows([dga.d(mono_elem(m))
                                          for m in source])
            total += size
    return total


class TestBigradedDGA:
    def test_zero_differential_gives_algebra(self):
        gens = GeneratorSet([("a", (0, 1)), ("b", (2, 0))])
        dga = BigradedDGA(gens, {})
        table = dga.cohomology(4)
        for (p, q), h in table.items():
            assert h == len(gens.monomials_bidegree(p, q))

    @pytest.mark.parametrize("zero", [0, Fraction(0)])
    def test_explicit_zero_coefficient(self, zero):
        """A zero coefficient in a value of d is dropped: the DGA is the
        one with d(y) = 0."""
        gens = GeneratorSet([("y", (0, 1)), ("x", (2, 0))])
        dga = BigradedDGA(gens, {"y": {single(gens, "x"): zero}})
        assert dga.dvals == {}
        assert dga.cohomology(3) == BigradedDGA(gens, {}).cohomology(3)

    def test_wrong_bidegree_rejected(self):
        gens = GeneratorSet([("a", (0, 1)), ("b", (4, 0))])
        with pytest.raises(ValueError):
            BigradedDGA(gens, {"a": mono_elem(single(gens, "b"))})

    def test_koszul_pair_embeds(self):
        # single Koszul pair at bidegrees (0,1) -> (2,0)
        gens = GeneratorSet([("y", (0, 1)), ("x", (2, 0))])
        dga = BigradedDGA(gens, {"y": mono_elem(single(gens, "x"))})
        table = dga.cohomology(6)
        regraded = [0] * 7
        for (p, q), h in table.items():
            if p + q <= 6:
                regraded[p + q] += h
        assert regraded == koszul_dims(identity(1), 6)

    def test_d_squared_witness_names_monomial(self):
        gens = GeneratorSet([("y", (0, 2)), ("x", (2, 1)), ("z", (4, 0))])
        dga = BigradedDGA(gens, {
            "y": mono_elem(single(gens, "x")),
            "x": mono_elem(single(gens, "z"))})
        with pytest.raises(OracleMismatch) as info:
            dga.check_d_squared(4)
        assert str(info.value) == (
            "d^2 at monomial y: d^2 [(1, 'z')] != zero []")
        with pytest.raises(OracleMismatch) as info:
            dga.cohomology(4)
        assert str(info.value) == (
            "d^2 at generator y: d^2 [(1, 'z')] != zero []")

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6), st.booleans(), st.integers(0, 7))
    def test_d_squared_on_generators_matches_all_monomials(
            self, seed, closed, maxtotal):
        dga = random_dga(random.Random(seed), closed)
        on_gens = d_squared_passes(dga.check_d_squared_on_generators,
                                   maxtotal)
        assert on_gens == d_squared_passes(dga.check_d_squared, maxtotal)
        if closed:
            assert on_gens

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 7))
    def test_planned_cells_match_every_cell(self, seed, maxtotal):
        """The same dict, keys in order and zeros included, as ranking d
        on every cell."""
        dga = random_dga(random.Random(seed), True)
        letters, d_table = coded(dga)
        table = {}
        ranks = {}
        for total in range(maxtotal + 1):
            for p in range(total + 1):
                basis = dga.gens.monomials_bidegree(p, total - p)
                table[(p, total - p)] = len(basis)
                ranks[(p, total - p)] = dga._cell_rank(
                    basis, mono_codes(basis, letters), d_table)[0]
        expected = [((p, q), dim - ranks[(p, q)] - ranks.get((p - 2, q + 1), 0))
                    for (p, q), dim in table.items()]
        assert list(dga.cohomology(maxtotal).items()) == expected

    @pytest.mark.parametrize("kind", ["koszul", "e2"])
    def test_code_rows_are_the_tuple_rows(self, kind):
        """On the rows `_cell_rank` builds, where no image cancels, the
        code ids are the tuple images' first-seen ids: the same rows,
        entry for entry, and the same column order."""
        if kind == "koszul":
            dga = koszul_dga(criterion_5_maps()[3])
        else:
            dga = E2Model(7, 6, minimal_M(7)).dga
        gens = dga.gens
        letters, table = coded(dga)
        plain = derivation_table(gens.odd, {
            i: v.items() for i, v in dga.dvals.items()})
        for t in range(7):
            for p in range(t + 1):
                basis = gens.monomials_bidegree(p, t - p)
                by_code, by_image, tuple_rows = {}, {}, []
                rows = [apply_derivation(gens.odd, table, m, 1, by_code,
                                         code)
                        for m, code in zip(basis, mono_codes(basis,
                                                             letters))]
                for m in basis:
                    images = apply_derivation(gens.odd, plain, m, 1)
                    tuple_rows.append([
                        (by_image.setdefault(image, len(by_image)), c)
                        for image, c in images.items()])
                assert [list(r.items()) for r in rows] == tuple_rows
                assert list(by_code) == mono_codes(by_image, letters)

    def test_codes_injective_on_criterion_5_cells(self):
        """Every monomial of every cell that criterion 5's maps rank, and
        of the cells their images fall in, has its own packed code."""
        for shape in sorted({(F.rows, F.cols) for F in criterion_5_maps()}):
            gens = koszul_dga(QMatrix(*shape)).gens
            monos = [m for t in range(10) for p in range(t + 1)
                     for m in gens.monomials_bidegree(p, t - p)]
            codes = letter_codes(len(gens))
            assert len(set(mono_codes(monos, codes))) == len(monos)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 7))
    def test_ranks_only_the_complement_of_incoming_pivots(self, seed,
                                                          maxtotal):
        dga = random_dga(random.Random(seed), True)
        with counting_cell_rank() as seen:
            dga.cohomology(maxtotal)
        assert sum(n for _, n in seen) == complement_rows(dga, maxtotal)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 7))
    def test_koszul_ranks_only_the_complement(self, seed, maxdeg):
        rng = random.Random(seed)
        rows, cols = rng.randint(0, 4), rng.randint(0, 4)
        F = QMatrix(rows, cols, {
            (i, j): Fraction(rng.randint(-3, 3), rng.randint(1, 7))
            for i in range(rows) for j in range(cols)})
        with counting_cell_rank() as seen:
            dims = koszul_dims(F, maxdeg)
        rank = F.rank()
        assert dims == kernel_cokernel_dims(cols - rank, rows - rank, maxdeg)
        assert sum(n for _, n in seen) == complement_rows(koszul_dga(F),
                                                          maxdeg)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 7), st.booleans())
    def test_table_matches_full_bases(self, seed, maxtotal, koszul):
        """The table, which ranks no cell that d maps to zero by
        bidegree and no pivot of d into a cell, equals each cell's size
        less the ranks of d out of it and into it on full bases."""
        rng = random.Random(seed)
        if koszul:
            dga = koszul_dga(random_matrix(rng.randint(0, 4),
                                           rng.randint(0, 4), rng, lo=-3,
                                           hi=3))
        else:
            dga = random_dga(rng, True)
        gens = dga.gens

        def rank(p, q):
            if p < 0:
                return 0
            return rank_of_int_rows([dga.d(mono_elem(m))
                                     for m in gens.monomials_bidegree(p, q)])

        expected = {(p, t - p): len(gens.monomials_bidegree(p, t - p))
                    - rank(p, t - p) - rank(p - 2, t - p + 1)
                    for t in range(maxtotal + 1) for p in range(t + 1)}
        assert dga.cohomology(maxtotal) == expected

    def test_cap_refuses_before_any_cell(self, monkeypatch):
        def never(*args):
            pytest.fail("a cell was listed before the cap was checked")

        monkeypatch.setattr(GeneratorSet, "cells", never)
        gens = GeneratorSet([(f"x{i}", (0, 1)) for i in range(8)]
                            + [(f"e{i}", (2, 0)) for i in range(8)])
        count = sum(fgca_dims(gens, 12))
        assert count > BASIS_CAP
        with pytest.raises(ValueError, match=(
                f"^free algebra on 16 generators has {count} basis monomials "
                rf"through total degree 12, over the cap of {BASIS_CAP} "
                r"\(BASIS_CAP\)$")):
            BigradedDGA(gens, {}).cohomology(12)

    @pytest.mark.parametrize("koszul", [True, False])
    def test_one_listing_per_call(self, monkeypatch, koszul):
        """cohomology asks `GeneratorSet.cells` for its monomials once
        per call, through maxtotal, and never for a single cell; a second
        call on the same generators asks once more and gets the same
        table."""
        rng = random.Random(7)
        dga = koszul_dga(random_matrix(4, 5, rng, lo=-3, hi=3)) if koszul \
            else random_dga(rng, True)
        calls = []
        original = GeneratorSet.cells

        def listing(gens, top):
            calls.append(top)
            return original(gens, top)

        monkeypatch.setattr(GeneratorSet, "cells", listing)
        first = dga.cohomology(6)
        assert calls == [6]
        assert dga.cohomology(6) == first
        assert calls == [6, 6]

    def test_random_dgas_cover_both_outcomes(self):
        # the property above must see differentials with d^2 != 0 as well
        outcomes = {d_squared_passes(
            random_dga(random.Random(seed), False).check_d_squared, 7)
            for seed in range(200)}
        assert outcomes == {True, False}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6), st.integers(0, 6))
    def test_rational_differential_against_fraction_ranks(self, seed,
                                                          maxtotal):
        """The engine ranks L*d in ints, d over one common denominator
        as the test hands it on; each cell's size less the
        Fraction Gauss-Jordan ranks of the unscaled d out of it and into
        it gives the same table."""
        gens, diff = rational_closed_differential(random.Random(seed))
        dvals = {gens.index[name]: val for name, val in diff.items()}

        def rank(p, q):
            if p < 0:
                return 0
            return fraction_rank([derive(gens, dvals, m)
                                  for m in gens.monomials_bidegree(p, q)])

        expected = {(p, t - p): len(gens.monomials_bidegree(p, t - p))
                    - rank(p, t - p) - rank(p - 2, t - p + 1)
                    for t in range(maxtotal + 1) for p in range(t + 1)}
        cleared = dict(zip(diff, over_common_denominator(diff.values())))
        assert BigradedDGA(gens, cleared).cohomology(maxtotal) == expected
