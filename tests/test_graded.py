import functools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tautrings.graded import (
    BASIS_CAP,
    BigradedDGA,
    DgaError,
    GeneratorSet,
    apply_derivation,
    elem_add,
    elem_mul,
    fgca_bidims,
    fgca_dims,
    kernel_cokernel_dims,
    koszul_cohomology_dims,
    mono_elem,
    mono_mul,
    quotient_dims,
    span_rank,
)
from tautrings.linalg import QMatrix, random_matrix
from tautrings.model import E2Model, ModelParams, build_D_dga, minimal_M


def single(gens, name):
    mono = [0] * len(gens)
    mono[gens.index[name]] = 1
    return tuple(mono)


def bidegree_filter(gens, p, q):
    """Reference enumeration of a (p, q) cell: filter its total degree."""
    return [m for m in gens.monomials_total(p + q)
            if gens.mono_bidegree(m) == (p, q)]


def previous_monomials_bidegree(gens, p, q):
    """The (p, q) search with one call per generator, exponent 0
    included: the reference order for `GeneratorSet.monomials_bidegree`."""
    degs, gcds = gens.degs, gens.suffix_gcds
    n = len(degs)
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

    closed: only "source" generators get a value, a combination of
    monomials in the "sink" generators, on which d vanishes; so d^2 = 0.
    Otherwise d^2 may or may not vanish.
    """
    degs = [(0, 1), (0, 2), (0, 3), (1, 2), (2, 0), (2, 1), (2, 2),
            (3, 1), (4, 0), (4, 1), (5, 0)]
    gens = GeneratorSet([(f"g{i}", rng.choice(degs))
                         for i in range(rng.randint(2, 7))])
    sinks = {i for i in range(len(gens)) if closed and rng.random() < 0.5}
    coeffs = [1, -1, 2, -2, Fraction(1, 2), Fraction(-3, 4)]
    diff = {}
    for i, g in enumerate(gens):
        if i in sinks:
            continue
        targets = [m for m in bidegree_filter(gens, g.p + 2, g.q - 1)
                   if not closed or all(e == 0 or j in sinks
                                        for j, e in enumerate(m))]
        val = {}
        for m in targets:
            if rng.random() < 0.7:
                val[m] = rng.choice(coeffs)
        if val:
            diff[g.name] = val
    return BigradedDGA(gens, diff)


def reference_derivation(gens, dvals, mono):
    """apply_derivation by products: each term of d(x_i) is multiplied
    into mono as prefix * (term * rest) through two mono_mul calls."""
    out = {}
    prefix_parity = 0
    for i, e in enumerate(mono):
        if not e:
            continue
        val = dvals.get(i)
        if val:
            prefix = mono[:i] + (0,) * (len(mono) - i)
            rest = (0,) * i + (e - 1,) + mono[i + 1:]
            factor = -e if prefix_parity % 2 else e
            for m, c in val.items():
                r = mono_mul(gens, m, rest)
                if r is None:
                    continue
                s1, m1 = r
                r = mono_mul(gens, prefix, m1)
                if r is None:
                    continue
                s2, m2 = r
                out = elem_add(out, {m2: factor * s1 * s2 * c})
        prefix_parity += e * gens[i].total
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
                0 if rng.random() < 0.5 else 1 if gens.odd[j]
                else rng.randint(1, 3) for j in range(len(gens)))
            val[term] = rng.choice([1, -1, 2, -3, Fraction(1, 2)])
        dvals[i] = val
    return gens, dvals


def d_squared_passes(check, maxtotal):
    try:
        check(maxtotal)
    except DgaError:
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
        assert g.monomials_total(6) == [(3,)]

    def test_two_odds(self):
        g = GeneratorSet([("x", 1), ("y", 1)])
        assert g.monomials_total(2) == [(1, 1)]

    def test_bidegree_filter(self):
        g = GeneratorSet([("a", (2, 0)), ("b", (0, 2))])
        assert g.monomials_bidegree(2, 2) == [(1, 1)]
        assert g.monomials_bidegree(4, 0) == [(2, 0)]

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
            == previous_monomials_bidegree(gens, p, q)

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
            d_prod = elem_add(d_prod, apply_derivation(gens, dvals, m), c)
        da_b = elem_mul(gens, apply_derivation(gens, dvals, a), mono_elem(b))
        sign = Fraction(-1 if gens.mono_total(a) % 2 else 1)
        a_db = elem_mul(gens, mono_elem(a), apply_derivation(gens, dvals, b))
        rhs = elem_add(da_b, a_db, sign)
        assert d_prod == rhs

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_derivation_matches_products(self, seed):
        """The one-pass kernel equals prefix * (term * rest) on every
        monomial up to total degree 6."""
        gens, dvals = random_derivation(random.Random(seed))
        for d in range(7):
            for m in gens.monomials_total(d):
                assert (apply_derivation(gens, dvals, m)
                        == reference_derivation(gens, dvals, m)), m


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
        """All-int rows pass to elimination as they are, rows with a
        Fraction have their denominators cleared; multiples of earlier
        rows, int and Fraction, make the rank fall short."""
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
        assert span_rank(rows) == fraction_rank(rows)
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
        rel = {(2,): Fraction(1)}
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
                       mono_elem(single(g, "b")), Fraction(-1))
        assert quotient_dims(g, [rel], 6) == [1, 0, 1, 0, 1, 0, 1]

    def test_monotone_under_more_relations(self):
        g = GeneratorSet([("x", 1), ("y", 1), ("e", 2)])
        rels = [mono_elem(single(g, "x")),
                {(0, 0, 1): Fraction(1)},
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


class TestKoszul:
    def test_acyclic_identity(self):
        assert koszul_cohomology_dims(QMatrix.identity(1), 5) == [1, 0, 0, 0, 0, 0]

    def test_zero_map(self):
        got = koszul_cohomology_dims(QMatrix.zeros(1, 1), 6)
        assert got == kernel_cokernel_dims(1, 1, 6)

    def test_surjective_with_kernel(self):
        got = koszul_cohomology_dims(QMatrix.from_rows([[1, 1]]), 5)
        assert got == [1, 1, 0, 0, 0, 0]

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 10**6))
    def test_random_maps_match_kernel_cokernel_model(self, seed):
        rng = random.Random(seed)
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        F = random_matrix(rows, cols, rng, lo=-3, hi=3)
        rank = F.rank()
        expected = kernel_cokernel_dims(cols - rank, rows - rank, 8)
        assert koszul_cohomology_dims(F, 8) == expected

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
        assert koszul_cohomology_dims(F, 7) == expected

    @pytest.mark.slow
    @pytest.mark.parametrize("rows, cols, rank, seed", [
        (6, 6, 6, 1), (6, 6, 4, 2), (6, 6, 3, 3), (7, 5, 3, 4)])
    def test_maps_past_criterion_5(self, rows, cols, rank, seed):
        # a rows x rank times rank x cols product of random rationals
        rng = random.Random(seed)

        def factor(r, c):
            return QMatrix(r, c, {
                (i, j): Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                 rng.randint(1, 9))
                for i in range(r) for j in range(c)})

        F = factor(rows, rank) @ factor(rank, cols)
        assert F.rank() == rank
        expected = kernel_cokernel_dims(cols - rank, rows - rank, 8)
        assert koszul_cohomology_dims(F, 8) == expected

    def test_work_cap(self):
        # 7 + 7 generators to degree 11 span 31 824 monomials (19 448 to 10)
        with pytest.raises(ValueError, match="31824 basis monomials"):
            koszul_cohomology_dims(QMatrix.identity(7), 11)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6),
           st.fractions().filter(lambda c: c != 0))
    def test_invariant_under_rational_scaling(self, seed, c):
        rng = random.Random(seed)
        F = random_matrix(rng.randint(0, 4), rng.randint(0, 4), rng,
                          lo=-3, hi=3)
        assert koszul_cohomology_dims(F, 6) == koszul_cohomology_dims(
            F.scale(c), 6)


class TestBigradedDGA:
    def test_zero_differential_gives_algebra(self):
        gens = GeneratorSet([("a", (0, 1)), ("b", (2, 0))])
        dga = BigradedDGA(gens, {})
        table = dga.cohomology(4)
        for (p, q), h in table.items():
            assert h == len(gens.monomials_bidegree(p, q))

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
        assert regraded == koszul_cohomology_dims(QMatrix.identity(1), 6)

    def test_d_squared_witness_names_monomial(self):
        gens = GeneratorSet([("y", (0, 2)), ("x", (2, 1)), ("z", (4, 0))])
        dga = BigradedDGA(gens, {
            "y": mono_elem(single(gens, "x")),
            "x": mono_elem(single(gens, "z"))})
        with pytest.raises(DgaError, match="y"):
            dga.check_d_squared(4)
        with pytest.raises(DgaError, match="y"):
            dga.cohomology(4)

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
        table = {}
        ranks = {}
        for total in range(maxtotal + 1):
            for p in range(total + 1):
                basis = dga.gens.monomials_bidegree(p, total - p)
                table[(p, total - p)] = len(basis)
                ranks[(p, total - p)] = dga._cell_rank(basis)
        expected = [((p, q), dim - ranks[(p, q)] - ranks.get((p - 2, q + 1), 0))
                    for (p, q), dim in table.items()]
        assert list(dga.cohomology(maxtotal).items()) == expected

    def test_cap_refuses_before_any_cell(self, monkeypatch):
        def never(*args):
            pytest.fail("a cell was enumerated before the cap was checked")

        monkeypatch.setattr(GeneratorSet, "monomials_bidegree", never)
        gens = GeneratorSet([(f"x{i}", (0, 1)) for i in range(8)]
                            + [(f"e{i}", (2, 0)) for i in range(8)])
        count = sum(fgca_dims(gens, 12))
        assert count > BASIS_CAP
        with pytest.raises(ValueError, match=(
                f"{count} basis monomials through total degree 12, over "
                f"the cap of {BASIS_CAP}")):
            BigradedDGA(gens, {}).cohomology(12)

    def test_random_dgas_cover_both_outcomes(self):
        # the property above must see differentials with d^2 != 0 as well
        outcomes = {d_squared_passes(
            random_dga(random.Random(seed), False).check_d_squared, 7)
            for seed in range(200)}
        assert outcomes == {True, False}
