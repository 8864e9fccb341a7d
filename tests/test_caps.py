"""Every cap refuses through one check, `partitions.check_cap`, with one
type, `CapExceeded`, that carries the cap's name, its limit and the count
that passed it; and the inputs past a cap are refused before the work it
bounds, in well under a second."""

import argparse
import math
import pathlib
import sys
import time

import pytest

import tautrings
from tautrings import cli, graded, model, rings
from tautrings.cli import main
from tautrings.invariants import (
    TensorSpaceSpec,
    character_dim,
    invariant_dim,
    sigma_matrix,
)
from tautrings.model import (
    ModelParams,
    build_D_dga,
    build_spaces,
    e3_zero_column,
    gh_target_dims,
    k_count,
    minimal_M,
)
from tautrings.partitions import (
    CapExceeded,
    Partition,
    check_cap,
    enumerate_partitions,
    lr_expansion,
    schur_dim,
)
from tautrings.rings import blockdiff_cohomology, mt_cohomology

SRC = pathlib.Path(tautrings.__file__).parent


def e3_params(n):
    return ModelParams(n=n, g=n - 2, M=minimal_M(n), maxdeg=n - 3)


def never(*args):
    pytest.fail("work past a cap was started")


# (id, call, name, limit, count, text before ", over the cap of")
SITES = [
    ("join", lambda: invariant_dim(TensorSpaceSpec(1, 0, 1999), "GL"),
     "JOIN_CAP", 4_000_000, 4_001_999,
     "T^{1,0}(Q^1999): the weight-space join would list at least 3999 "
     "elements and weigh at least 3998000 weight entries, 4001999 steps or "
     "more in all"),
    ("orbits", lambda: invariant_dim(TensorSpaceSpec(16, 0, 2), "SL"),
     "ORBIT_CAP", 3_000, 6_435,
     "T^{16,0}(Q^2): 6435 live orbits of weight words"),
    ("character-cells",
     lambda: character_dim(TensorSpaceSpec(10002, 0, 2), "SL"),
     "SCHUR_CELL_CAP", 10_000, 10_002,
     "T^{10002,0}(Q^2): the character count reads a shape of 10002 cells"),
    ("character-partitions",
     lambda: character_dim(TensorSpaceSpec(50, 50, 50), "GL"),
     "PARTITION_CAP", 200_000, 200_720,
     "T^{50,50}(Q^50): the character count sums over at least 200720 "
     "partitions of 50 with parts at most 50"),
    ("sigma", lambda: sigma_matrix(7, 1), "SIGMA_CAP", 6, 7,
     "m > 6 rejected: factorial column count"),
    ("partitions", lambda: enumerate_partitions(50), "PARTITION_CAP",
     200_000, 204_226, "n=50 has too many partitions to list: p(50) = 204226"),
    ("schur-dim", lambda: schur_dim(Partition([10001]), 2), "SCHUR_CELL_CAP",
     10_000, 10_001, "partition of 10001 cells for a Schur dimension"),
    ("lr", lambda: lr_expansion(Partition([10, 9]), Partition([9, 9])),
     "LR_CELL_CAP", 36, 37,
     "partitions of 19 and 18 cells: 37 cells for a Littlewood-Richardson "
     "expansion"),
    ("basis", lambda: e3_zero_column(e3_params(54)), "BASIS_CAP", 20_000,
     26_424, "free algebra on 146 generators has 26424 basis monomials "
     "through total degree 51"),
    ("basis-generators", lambda: build_D_dga(e3_params(801), 798),
     "BASIS_CAP", 20_000, 20_100,
     "the model at n=801, M=600 has 20100 generators v and y of total "
     "degree at most 798, each a basis monomial"),
    ("cauchy", lambda: cli._cmd_cauchy_check(
        argparse.Namespace(dims="100000,100000", maxdeg=1)),
     "CAUCHY_CAP", 2_000, 20_000_000_000,
     "--dims 100000,100000 --maxdeg 1: 20000000000 identity checks"),
    ("series-multisets", lambda: mt_cohomology(9, 248), "SERIES_CAP",
     10_000_000, 10_000_089,
     "40161 multisets of indices in [3, 9] listed through degree 248, "
     "10000089 Hilbert-series steps or more"),
    ("k", lambda: build_spaces(ModelParams(n=9, g=7, M=284, maxdeg=6)),
     "K_CAP", 40_000, 40_183, "the model at n=9, M=284 has 40183 generators "
     "of K"),
    ("series-pairs", lambda: blockdiff_cohomology(100000), "SERIES_CAP",
     10_000_000, 10_099_697,
     "101 pair generators of K listed through degree 99996, 10099697 "
     "Hilbert-series steps or more"),
    ("target", lambda: gh_target_dims(2, 100000, 23810, 0), "TARGET_CAP",
     500_000, 500_012, "the stable value at dimW=2, dimU=100000, "
     "(p,q)=(23810,0) may have 500012 bits"),
]


@pytest.mark.parametrize("call,name,limit,count,text",
                         [site[1:] for site in SITES],
                         ids=[site[0] for site in SITES])
def test_site_refuses_through_the_check(call, name, limit, count, text):
    with pytest.raises(CapExceeded) as info:
        call()
    exc = info.value
    assert (exc.name, exc.limit, exc.count) == (name, limit, count)
    assert str(exc) == f"{text}, over the cap of {limit} ({name})"


def test_one_refusal_type():
    """CapExceeded is a ValueError, so the CLI exits 1 on it, and only
    the check formats a cap's refusal."""
    assert issubclass(CapExceeded, ValueError)
    assert tautrings.CapExceeded is CapExceeded
    assert "CapExceeded" in tautrings.__all__
    hits = [(path.name, line) for path in sorted(SRC.glob("*.py"))
            for line in path.read_text().splitlines()
            if "over the cap" in line]
    assert hits == [("partitions.py",
                     '        super().__init__(f"{text}, over the cap of '
                     '{limit} ({name})")')]


def test_check_builds_no_text_under_the_cap():
    """The text is formatted only on refusal: a format that cannot be
    filled passes unread under the cap."""
    check_cap("JOIN_CAP", 10, 10, "{} {}")
    with pytest.raises(IndexError):
        check_cap("JOIN_CAP", 10, 11, "{} {}")


class TestE3GeneratorCount:
    """e3 counts its v and y of total <= maxdeg, each a basis monomial,
    before it lists any generator."""

    def test_largest_admitted_and_first_refused(self, monkeypatch):
        """At n = 800 the 19 900 generators pass the count, so the model is
        built and refused by the whole series; at n = 801 the 20 100 are
        refused before any generator is listed.  Past n = 801 every n is
        refused by the count."""
        class Built(Exception):
            pass

        def built(gens):
            raise Built

        monkeypatch.setattr(model, "GeneratorSet", built)
        with pytest.raises(Built):
            build_D_dga(e3_params(800), 797)
        monkeypatch.setattr(model, "GeneratorSet", never)
        with pytest.raises(CapExceeded, match="20100 generators v and y"):
            build_D_dga(e3_params(801), 798)

    @pytest.mark.parametrize("n,count", [("2000", 124750),
                                         ("100000", 312487500)])
    def test_large_n_refused_fast(self, capsys, monkeypatch, n, count):
        monkeypatch.setattr(model, "GeneratorSet", never)
        t0 = time.perf_counter()
        code = main(["e3", "--n", n])
        assert time.perf_counter() - t0 < 5.0
        out = capsys.readouterr()
        top = int(n) - 3
        assert (code, out.out) == (1, "")
        assert out.err == (
            f"error: the model at n={n}, M={minimal_M(int(n))} has {count} "
            f"generators v and y of total degree at most {top}, each a "
            f"basis monomial, over the cap of 20000 (BASIS_CAP)\n")


class TestKCap:
    """K, whose pairs grow as M^2, is counted from the degree table and
    held to K_CAP before any pair is listed, and the D-model walks only
    the pairs under its degree."""

    def test_count_is_the_listing(self, monkeypatch):
        for n in range(5, 41):
            for M in range(minimal_M(n), minimal_M(n) + 12):
                params = ModelParams(n=n, g=n - 2, M=M, maxdeg=n - 3)
                size = len(build_spaces(params).K)
                with monkeypatch.context() as m:
                    m.setattr(model, "K_CAP", size - 1)
                    m.setattr(model, "k_pair_generators", never)
                    with pytest.raises(CapExceeded) as info:
                        build_spaces(params)
                assert info.value.count == size, (n, M)

    def test_largest_admitted_and_first_refused(self, monkeypatch):
        """At n = 9, M = 283 has 39 900 generators of K and is answered;
        M = 284 has 40 183 and is refused before any pair is listed."""
        params = ModelParams(n=9, g=7, M=283, maxdeg=6)
        assert len(build_spaces(params).K) == 39_900
        monkeypatch.setattr(model, "k_pair_generators", never)
        with pytest.raises(CapExceeded, match="40183 generators of K"):
            build_spaces(ModelParams(n=9, g=7, M=284, maxdeg=6))

    @pytest.mark.parametrize("M,count", [("2000", 1_998_997),
                                         ("100000", 4_999_949_997)])
    def test_large_M_refused_fast(self, capsys, monkeypatch, M, count):
        monkeypatch.setattr(model, "k_pair_generators", never)
        t0 = time.perf_counter()
        code = main(["e3", "--n", "9", "--M", M])
        assert time.perf_counter() - t0 < 5.0
        out = capsys.readouterr()
        assert (code, out.out) == (1, "")
        assert out.err == (
            f"error: the model at n=9, M={M} has {count} generators of K, "
            f"over the cap of 40000 (K_CAP)\n")

    def test_closed_form_is_the_table_sum(self):
        """k_count equals the count read off the whole degree table: a
        single per v, and for each m0 of w the m1 in [max(m0, low - m0),
        M]."""
        for n in range(1, 70):
            for M in [*range(0, 90), 283, 284, 1000]:
                v, w, _ = model.vwu_degrees(n, M)
                low = (2 * n + 2) // 4 + 1
                count = len(v) + sum(max(0, M + 1 - max(m0, low - m0))
                                     for m0 in w)
                assert k_count(n, M) == count, (n, M)

    def test_huge_M_refused_in_well_under_a_second(self, capsys):
        """No degree table of M entries is built before the refusal: the
        D-model's tables stop at maxdeg, and K is counted from n and M."""
        t0 = time.perf_counter()
        code = main(["e3", "--n", "9", "--M", "1000000000"])
        assert time.perf_counter() - t0 < 1.0
        out = capsys.readouterr()
        assert (code, out.out) == (1, "")
        assert out.err == (
            "error: the model at n=9, M=1000000000 has 499999999499999997 "
            "generators of K, over the cap of 40000 (K_CAP)\n")

    def test_model_walks_only_pairs_under_its_degree(self):
        """The cut model at M = 100 000 keeps what it keeps at M = 100."""
        small, large = (build_D_dga(ModelParams(n=9, g=7, M=M, maxdeg=6), 6)
                        for M in (100, 100_000))
        assert [g.name for g in large.gens] == [g.name for g in small.gens]
        assert large.dvals == small.dvals


class TestTargetCap:
    """The stable value's bits are bounded from its binomials' arguments
    and held to TARGET_CAP before any binomial is computed."""

    def test_largest_admitted_and_first_refused(self, capsys):
        """At dimU = 100 000 and q = 0, p = 23 809 is answered (about half
        a second, printing included) and p = 23 810 refused."""
        argv = ["ac-dims", "--variant", "A", "--g", "1", "--dimu",
                "100000", "--q", "0", "--mode", "target", "--p"]
        assert main(argv + ["23809"]) == 0
        out = capsys.readouterr().out
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert str(gh_target_dims(2, 100000, 23809, 0)) in out
        finally:
            sys.set_int_max_str_digits(limit)
        assert main(argv + ["23810"]) == 1
        assert capsys.readouterr().err == (
            "error: the stable value at dimW=2, dimU=100000, (p,q)="
            "(23810,0) may have 500012 bits, over the cap of 500000 "
            "(TARGET_CAP)\n")

    def test_bound_holds(self):
        for N in range(0, 120):
            for k in range(-2, N + 3):
                assert (math.comb(N, max(k, 0)).bit_length()
                        <= model._comb_bits(N, k)), (N, k)

    @pytest.mark.parametrize("argv", [
        ["--dimw", "1", "--dimu", "100000", "--p", "100000", "--q", "0"],
        ["--dimw", "1000", "--dimu", "1000", "--p", "0", "--q", "500000"],
    ])
    def test_large_inputs_refused_fast(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(model.math, "comb", never)
        t0 = time.perf_counter()
        code = main(["ac-dims", "--variant", "A", "--g", "1", "--mode",
                     "target", *argv])
        assert time.perf_counter() - t0 < 1.0
        assert code == 1
        assert capsys.readouterr().err.endswith(
            ", over the cap of 500000 (TARGET_CAP)\n")


class TestSeriesCap:
    """The rings hold generators listed times degrees to SERIES_CAP as
    they list them, with no frame per multiset entry."""

    def test_mt_largest_admitted_and_first_refused(self):
        """mt at n = 9 admits maxdeg 247, 40 230 generators times 248
        degrees, and refuses 248 once 40 161 are listed."""
        assert len(mt_cohomology(9, 247).generators) == 40230
        assert 40230 * 248 <= graded.SERIES_CAP
        with pytest.raises(CapExceeded, match="40161 multisets"):
            mt_cohomology(9, 248)

    @pytest.mark.parametrize("argv", [
        ["mt", "--n", "9", "--maxdeg", "20000"],
        ["mt", "--n", "9", "--maxdeg", "1000000"],
        ["cohomology", "--space", "diff", "--n", "100000"],
        ["cohomology", "--space", "blockdiff", "--n", "100000"],
        ["cohomology", "--space", "tangential", "--n", "100000"],
    ], ids=["mt-20000", "mt-1000000", "diff", "blockdiff", "tangential"])
    def test_large_inputs_refused_fast(self, capsys, monkeypatch, argv):
        """The walk of mt at maxdeg 20 000 goes about 1 670 entries deep,
        past the interpreter's recursion limit; it is refused at 500
        generators, with no traceback."""
        monkeypatch.setattr(rings, "fgca_dims", never)
        t0 = time.perf_counter()
        code = main(argv)
        assert time.perf_counter() - t0 < 5.0
        out = capsys.readouterr()
        assert (code, out.out) == (1, "")
        assert out.err.startswith("error: ")
        assert out.err.endswith(
            " over the cap of 10000000 (SERIES_CAP)\n")
        assert out.err.count("\n") == 1

    def test_reach_kept(self, capsys):
        """README's reach: n = 400 for diff, blockdiff and tangential, and
        mt at n = 400 through degree 397."""
        for argv in (["cohomology", "--space", "diff", "--n", "400"],
                     ["cohomology", "--space", "blockdiff", "--n", "400"],
                     ["cohomology", "--space", "tangential", "--n", "400"],
                     ["mt", "--n", "400", "--maxdeg", "397"]):
            assert main(argv) == 0, argv
            capsys.readouterr()


class TestLambdaProductValidatesFirst:
    def test_large_n_under_a_second(self, capsys):
        """At n = 300 the second page has 44 551 x generators; the
        validation error and a two-index product build none of them."""
        t0 = time.perf_counter()
        code = main(["lambda-product", "--n", "300", "--ms", "1"])
        out = capsys.readouterr()
        assert (code, out.out) == (1, "")
        assert out.err == ("error: requires 4m - 2n - 1 > 0 for a single "
                           "factor (got m=1)\n")
        code = main(["lambda-product", "--n", "300", "--ms", "80,81"])
        out = capsys.readouterr()
        assert time.perf_counter() - t0 < 5.0
        assert code == 0
        assert out.out.count('"monomial"') == 2 * 298
