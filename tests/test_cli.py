import argparse
import csv
import json
import pathlib
import sys
import time
from types import SimpleNamespace

import pytest

from tautrings import acceptance, cli, invariants, model, partitions
from tautrings.cli import main
from tautrings.graded import BigradedDGA, GeneratorSet
from tautrings.model import OracleMismatch, minimal_M

from oracles import guard_joins

DATA = pathlib.Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestBasicCommands:
    def test_lr(self, capsys):
        rep = run_json(capsys, "lr", "1", "1", "2")
        assert rep["c"] == 1

    def test_lr_empty_partition(self, capsys):
        rep = run_json(capsys, "lr", "2,1", "-", "2,1")
        assert rep["c"] == 1

    def test_schur_dim(self, capsys):
        rep = run_json(capsys, "schur-dim", "2,1", "3")
        assert rep["dim"] == 8

    def test_partitions(self, capsys):
        rep = run_json(capsys, "partitions", "4", "--filter", "even_rows")
        assert rep["partitions"] == [[4], [2, 2]]

    def test_invariants_vanishing(self, capsys):
        rep = run_json(capsys, "invariants", "1", "2", "3", "--group", "GL")
        assert rep["dim"] == 0

    def test_fft_check(self, capsys):
        rep = run_json(capsys, "fft-check", "2", "2")
        assert rep["rank"] == 2
        assert rep["surjective"] and rep["injective"]

    def test_cauchy_check(self, capsys):
        rep = run_json(capsys, "cauchy-check", "--dims", "2,2",
                       "--maxdeg", "4")
        assert rep["ok"] is True

    def test_ac_dims_modes_agree(self, capsys):
        args = ["--variant", "A", "--g", "2", "--p", "1", "--q", "0"]
        brute = run_json(capsys, "ac-dims", *args, "--mode", "brute")
        formula = run_json(capsys, "ac-dims", *args, "--mode", "formula")
        assert brute["dim"] == formula["dim"] == 1

    @pytest.mark.parametrize("variant,g,dimw,dimu,q,group,dim", [
        ("A", 1, 40, 1, 1, "GL", 40),
        ("A", 1, 30, 2, 2, "GL", 465),
        ("C", 1, 2, 30, 2, "GL", 465),
        ("C", 2, 2, 40, 2, "SL", 3160),
    ])
    def test_ac_dims_many_labels(self, capsys, variant, g, dimw, dimu, q,
                                 group, dim):
        """Small cells over many W or U labels: the label contents are
        listed up to rearrangement, not over every labeling (2^40 of them
        for the first)."""
        t0 = time.perf_counter()
        rep = run_json(capsys, "ac-dims", "--mode", "brute", "--variant",
                       variant, "--g", str(g), "--dimw", str(dimw),
                       "--dimu", str(dimu), "--p", "0", "--q", str(q),
                       "--r", str(q), "--group", group)
        assert time.perf_counter() - t0 < 5.0
        assert rep["dim"] == dim

    def test_ac_dims_zero_by_weight_past_cap(self, capsys):
        """A GL cell with 2p + q - r != 0 has no invariants, whatever the
        size of the cell (378 378 here): it has no block to join."""
        rep = run_json(capsys, "ac-dims", "--variant", "C", "--g", "3",
                       "--dimw", "3", "--dimu", "3", "--p", "0", "--q", "4",
                       "--r", "6")
        assert rep["dim"] == 0

    def test_ac_dims_small_blocks_past_ambient_cap(self, capsys):
        """The SL cell (0, 4, 7) is 810 810-dimensional, but its blocks
        restrict 1 * 39 * 1515 = 59 085 elements in all."""
        rep = run_json(capsys, "ac-dims", "--mode", "brute", "--variant",
                       "C", "--g", "3", "--dimw", "3", "--dimu", "3", "--p",
                       "0", "--q", "4", "--r", "7", "--group", "SL")
        assert rep["dim"] == 126

    def test_ac_dims_block_cap_before_join(self, capsys, monkeypatch):
        """The first block of cell (14, 2, 30) joins the C(23, 14) = 817 190
        x multisets with 60 y and z elements, and lists and weighs them
        past JOIN_CAP: refused before its join weighs anything.  (Cell
        (8, 2, 18) at dimU = 5, refused by the earlier cap on the blocks'
        elements, is answered: 0.)"""
        def never(alphabet, length):
            pytest.fail("a block was joined before the cap was checked")

        monkeypatch.setattr(invariants.Alphabet, "packed", never)
        code, out, err = run(capsys, "ac-dims", "--mode", "brute",
                             "--variant", "A", "--g", "4", "--dimw", "1",
                             "--dimu", "8", "--p", "14", "--q", "2", "--r",
                             "30")
        assert code == 1
        assert err == ("error: cell (14,2,30): the weight-space join would "
                       "list at least 1634457 elements and weigh at least "
                       "3269000 weight entries, 4903457 steps or more in "
                       "all, over the cap of 4000000 (JOIN_CAP)\n")

    @pytest.mark.parametrize("q", ["100", "400"])
    def test_ac_dims_many_labels_refused_fast(self, capsys, monkeypatch, q):
        """At g = 1 every block is small, but q y letters over q W labels
        have p(q) sorted contents (about 1.9e8 at q = 100); the blocks'
        joins share one count, which passes the cap after some thousands
        of blocks, and no join builds anything past it."""
        guard_joins(monkeypatch)
        t0 = time.perf_counter()
        code, out, err = run(capsys, "ac-dims", "--mode", "brute",
                             "--variant", "A", "--g", "1", "--dimw", q,
                             "--dimu", q, "--p", "0", "--q", q, "--r", q)
        assert time.perf_counter() - t0 < 5.0
        assert code == 1
        assert err.startswith(
            f"error: cell (0,{q},{q}): the weight-space join would keep 1 "
            f"words of {2 * int(q)} letters and 1 weight entries, ")
        assert err.endswith(" over the cap of 4000000 (JOIN_CAP)\n")

    def test_mt(self, capsys):
        rep = run_json(capsys, "mt", "--n", "9", "--maxdeg", "1")
        assert rep["dims"] == [1, 1]

    def test_mt_routes_agree(self, capsys):
        """`mt` and `cohomology --space mt` report the same ring."""
        mt = run_json(capsys, "mt", "--n", "11", "--maxdeg", "8")
        space = run_json(capsys, "cohomology", "--space", "mt", "--n", "11",
                         "--maxdeg", "8")
        for key in ("dims", "generators", "provenance"):
            assert mt[key] == space[key]
        assert mt["dims"][1] == 2 and len(mt["generators"]) > 2

    def test_cohomology_diff(self, capsys):
        rep = run_json(capsys, "cohomology", "--space", "diff", "--n", "9",
                       "--g", "30", "--maxdeg", "5")
        assert rep["dims"] == [1, 0, 0, 0, 0, 1]

    def test_cohomology_blockdiff(self, capsys):
        rep = run_json(capsys, "cohomology", "--space", "blockdiff",
                       "--n", "9")
        assert rep["dims"] == [1, 0, 0, 0, 0, 2]

    def test_cohomology_tangential(self, capsys):
        rep = run_json(capsys, "cohomology", "--space", "tangential",
                       "--n", "9")
        assert rep["dims"][1] == 1

    def test_e3(self, capsys):
        rep = run_json(capsys, "e3", "--n", "5", "--maxdeg", "2")
        assert rep["dims"] == [1, 1, 0]

    def test_oracle_e2(self, capsys):
        rep = run_json(capsys, "oracle-e2", "--n", "5", "--g", "4")
        assert rep["table"]["(0,1)"] == 1

    def test_lambda_product(self, capsys):
        rep = run_json(capsys, "lambda-product", "--n", "5", "--ms", "2,3")
        assert len(rep["terms"]) == 6

    def test_lambda_triple_zero(self, capsys):
        rep = run_json(capsys, "lambda-product", "--n", "5", "--M", "4",
                       "--ms", "2,3,4")
        assert rep["expression"] == "0"


class TestKoszul:
    def test_map_file(self, capsys, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("1 2\n1/2 1/2\n")
        rep = run_json(capsys, "koszul", "--map-file", str(path),
                       "--maxdeg", "5")
        assert rep["rank"] == 1
        assert rep["dims"] == [1, 1, 0, 0, 0, 0]

    def test_rational_maps_report_as_before(self, capsys, tmp_path):
        """data/koszul_maps.json holds 45 maps and the report the program
        printed for each when a map travelled as Fractions, its path
        written MAP: the 40 maps bench/workloads.write_maps writes for
        seeds 1-5, and shapes 0x3, 3x0, 2x2, 5x1 and 1x5 with
        denominators up to 97.  Read as int rows, each report is the
        same, byte for byte."""
        cases = json.loads((DATA / "koszul_maps.json").read_text())
        assert len(cases) == 45
        for name, case in cases.items():
            path = tmp_path / f"{name}.txt"
            path.write_text(case["map"])
            code, out, err = run(capsys, "koszul", "--map-file", str(path),
                                 "--maxdeg", "8")
            assert (code, err) == (0, "")
            assert out.replace(str(path), "MAP") == case["report"], name

    def test_bad_map_file(self, capsys, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("2 2\n1 2 3\n")
        code, out, err = run(capsys, "koszul", "--map-file", str(path))
        assert code == 1
        assert "entries" in err

    @pytest.mark.parametrize("header", ["x 2", "-1 -1"])
    def test_bad_map_header(self, capsys, tmp_path, header):
        path = tmp_path / "map.txt"
        path.write_text(f"{header}\n")
        code, out, err = run(capsys, "koszul", "--map-file", str(path))
        assert code == 1
        assert err.startswith(f"error: map file {path}: ")
        assert "rows and cols must be integers >= 0" in err

    def test_koszul_work_cap(self, capsys, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("12 12\n" + "1 " * 144 + "\n")
        code, out, err = run(capsys, "koszul", "--map-file", str(path),
                             "--maxdeg", "12")
        assert code == 1
        assert err.startswith("error:")
        assert "cap of 20000" in err

    def test_zero_denominator_entry(self, capsys, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("1 2\n1/0 1\n")
        code, out, err = run(capsys, "koszul", "--map-file", str(path))
        assert code == 1
        assert err.startswith("error:")
        assert str(path) in err and "1/0" in err

    def test_negative_maxdeg(self, capsys, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("1 2\n1 1\n")
        code, out, err = run(capsys, "koszul", "--map-file", str(path),
                             "--maxdeg", "-1")
        assert code == 1
        assert err.startswith("error:")
        assert "maxdeg >= 0" in err


class TestExitCodes:
    def test_invalid_params_names_bound(self, capsys):
        code, out, err = run(capsys, "e3", "--n", "5", "--M", "1")
        assert code == 1
        assert "4M >= 3n-5" in err

    @pytest.mark.parametrize("argv,message", [
        (["e3", "--n", "abc"], "tautrings e3: error: argument --n: invalid "
         "int value: 'abc'\n"),
        (["invariants", "2", "2"], "tautrings invariants: error: the "
         "following arguments are required: g\n"),
        (["e3", "--n", "8", "--bogus"], "tautrings: error: unrecognized "
         "arguments: --bogus\n"),
    ], ids=["bad-int", "missing", "unknown"])
    def test_usage_error_exits_1(self, capsys, argv, message):
        """A usage error is invalid parameters: argparse's usage text and
        message, and exit 1; exit 2 is kept for disagreements."""
        with pytest.raises(SystemExit) as info:
            main(argv)
        err = capsys.readouterr().err
        assert info.value.code == 1
        assert err.startswith("usage: tautrings") and err.endswith(message)

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["e3", "--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: tautrings e3")

    def test_invalid_partition(self, capsys):
        code, out, err = run(capsys, "lr", "1,2", "1", "2")
        assert code == 1

    @pytest.mark.parametrize("mode", ["formula", "target"])
    def test_ac_dims_r_off_the_diagonal_refused(self, capsys, mode):
        """formula and target count the r = 2p + q cell alone: another
        --r is refused, naming both, where brute answers it (0 here, as
        criterion 4 proves off r = 2p + q).  --r = 2p + q reads as none."""
        argv = ["ac-dims", "--variant", "A", "--g", "2", "--p", "0", "--q",
                "1", "--mode"]
        assert run(capsys, *argv, mode, "--r", "5") == (
            1, "", f"error: --mode {mode} computes r = 2p+q = 1, not the "
            "given --r 5\n")
        assert run_json(capsys, *argv, "brute", "--r", "5")["dim"] == 0
        assert run(capsys, *argv, mode, "--r", "1") == run(capsys, *argv,
                                                           mode)

    @pytest.mark.parametrize("p,q", [("-1", "1"), ("0", "-1")])
    def test_ac_dims_formula_negative_p_q(self, capsys, p, q):
        assert run(capsys, "ac-dims", "--variant", "A", "--g", "2", "--p", p,
                   "--q", q, "--mode", "formula") == (
            1, "", "error: requires nonnegative p, q\n")

    def test_oracle_guard(self, capsys):
        code, out, err = run(capsys, "oracle-e2", "--n", "14", "--g", "30")
        assert code == 1
        assert err == (
            "error: cell (4,4) of the second page at n=14, g=30: the "
            "weight-space join would list at least 271500 elements and "
            "weigh at least 4072500 weight entries, 4344000 steps or more "
            "in all, over the cap of 4000000 (JOIN_CAP)\n")

    @pytest.mark.parametrize("m,g,bound", [
        ("6", "5", "T^{6,6}(Q^5): the weight-space join would keep 2241225 "
                   "words of 12 letters and 5 weight entries, 38288385 "
                   "steps or more in all, over the cap of 4000000"),
        ("5", "6", "T^{5,5}(Q^6): the weight-space join would keep 384156 "
                   "words of 10 letters and 6 weight entries, 6255420 "
                   "steps or more in all, over the cap of 4000000"),
        ("7", "1", "m > 6 rejected"),
    ])
    def test_fft_bounds_before_sigma(self, capsys, monkeypatch, m, g, bound):
        def never(*args):
            pytest.fail("sigma built before the bounds were checked")

        monkeypatch.setattr(invariants, "_sigma_columns", never)
        monkeypatch.setattr(invariants, "sigma_matrix", never)
        monkeypatch.setattr(invariants, "_action_rows", never)
        code, out, err = run(capsys, "fft-check", m, g)
        assert code == 1
        assert bound in err

    def test_fft_injectivity_mismatch(self, capsys, monkeypatch):
        """fft-check exits 2 when independence disagrees with m <= g."""
        monkeypatch.setattr(
            acceptance, "verify_fundamental_theorems",
            lambda m, g: invariants.FundamentalTheoremReport(
                m, g, rank=1, surjective=True, injective=False))
        code, out, err = run(capsys, "fft-check", "2", "2")
        assert code == 2 and out == ""
        assert err == ("consistency failure: permutation tensors independent "
                       "at m=2, g=2: rank 1 = m! False != m <= g True\n")

    def test_invariants_past_the_former_cap(self, capsys):
        """T^{4,4}(Q^5), 5^8 = 390 625 words in all, was refused for that
        size; its join builds 7 885 words in 131 live orbits."""
        rep = run_json(capsys, "invariants", "4", "4", "5")
        assert (rep["dim"], rep["ambient_dim"]) == (24, 390625)

    @pytest.mark.parametrize("group", ["GL", "SL"])
    def test_invariants_huge_mixed_space(self, capsys, group):
        """A GL space with k != l has no invariants, but a huge one is
        still refused by the count of its join, from its first 14 slots,
        before any report is written."""
        code, out, err = run(capsys, "invariants", "5000", "0", "10",
                             "--group", group)
        assert (code, out) == (1, "")
        assert err == (
            "error: T^{5000,0}(Q^10): the weight-space join would list at "
            "least 20000140 elements and weigh at least 200000000 weight "
            "entries, 220000140 steps or more in all, over the cap of "
            "4000000 (JOIN_CAP)\n")

    def test_invariants_character_mismatch(self, capsys, monkeypatch):
        """invariants checks the kernel count against the character count,
        as criterion 2 does, and exits 2 when they differ."""
        character = acceptance.character_dim
        monkeypatch.setattr(acceptance, "character_dim",
                            lambda spec, group: character(spec, group) + 1)
        assert run(capsys, "invariants", "2", "2", "2") == (
            2, "", "consistency failure: GL-invariants at k=2, l=2, g=2: "
                   "kernel 2 != character 3\n")

    def test_invariants_kernel_refuses_first(self, capsys):
        """T^{20000,0}(Q^10) is past the caps of both legs; the kernel's,
        checked first, is the one named."""
        code, out, err = run(capsys, "invariants", "20000", "0", "10",
                             "--group", "SL")
        assert (code, out) == (1, "")
        assert err.startswith("error: T^{20000,0}(Q^10): the weight-space "
                              "join would list at least 20000140 elements")
        assert err.endswith("(JOIN_CAP)\n")

    @pytest.mark.parametrize("k,l,group", [(10_001, 10_001, "GL"),
                                           (10_001, 0, "SL")])
    def test_invariants_past_the_character_cap(self, capsys, k, l, group):
        """T^{k,l}(Q^1) with max(k, l) past SCHUR_CELL_CAP: the kernel
        answers, the character count would refuse, and the kernel count
        is printed alone, as before the character leg."""
        rep = run_json(capsys, "invariants", str(k), str(l), "1",
                       "--group", group)
        assert (rep["dim"], rep["ambient_dim"]) == (1, 1)

    def test_schur_dim_weyl_mismatch(self, capsys, monkeypatch):
        """schur-dim checks the hook-content count against Weyl's formula
        and exits 2 when they differ."""
        monkeypatch.setattr(cli, "weyl_dim",
                            lambda lam, g: partitions.weyl_dim(lam, g) - 1)
        assert run(capsys, "schur-dim", "2,1", "3") == (
            2, "", "consistency failure: Schur functor dimension at "
                   "lam=(2,1), g=3: hook-content 8 != Weyl 7\n")

    def test_mismatch_past_the_digit_limit(self, capsys, monkeypatch):
        """A mismatch of dimensions past the interpreter's 4 300 printed
        digits is still a consistency failure, printed whole, and the
        limit is as it was after it."""
        monkeypatch.setattr(cli, "weyl_dim",
                            lambda lam, g: partitions.weyl_dim(lam, g) + 1)
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "schur-dim", "10000", "100000")
        assert sys.get_int_max_str_digits() == limit
        dim = partitions.schur_dim(partitions.Partition([10000]), 100000)
        with partitions.whole_ints():
            want = (f"consistency failure: Schur functor dimension at "
                    f"lam=(10000), g=100000: hook-content {dim} != Weyl "
                    f"{dim + 1}\n")
        assert len(want) > limit
        assert (code, out, err) == (2, "", want)

    @pytest.mark.parametrize("n, filter, count", [
        (8, "all", 22), (8, "even_rows", 5), (8, "even_cols", 5),
        (9, "all", 30)])
    def test_partitions_count_mismatch(self, capsys, monkeypatch, n, filter,
                                       count):
        """partitions checks the listed count against Euler's recurrence,
        p(n) for all and p(n/2) for the even filters, and exits 2 when one
        partition is dropped from the listing."""
        assert run_json(capsys, "partitions", str(n), "--filter",
                        filter)["count"] == count
        monkeypatch.setattr(cli, "enumerate_partitions",
                            lambda n, f: partitions.enumerate_partitions(
                                n, f)[1:])
        assert run(capsys, "partitions", str(n), "--filter", filter) == (
            2, "", f"consistency failure: partition count at n={n}, "
                   f"filter={filter}: listed {count - 1} != Euler {count}\n")

    def test_partitions_odd_n_even_filters(self, capsys):
        for filter in ("even_rows", "even_cols"):
            assert run_json(capsys, "partitions", "7", "--filter",
                            filter)["count"] == 0

    def test_lr_expansion_mismatch(self, capsys, monkeypatch):
        """lr checks the whole expansion against the dimension of the
        induced representation, C(4, 3) f^(2,1) f^(1) = 8, and exits 2
        when one coefficient is bumped."""
        expansion = partitions._lr_count_cached

        def bumped(lam, mu):
            counts = dict(expansion(lam, mu))
            counts[(2, 2)] += 1
            return counts

        monkeypatch.setattr(partitions, "_lr_count_cached", bumped)
        assert run(capsys, "lr", "2,1", "1", "2,2") == (
            2, "", "consistency failure: LR expansion dimension at "
                   "lam=(2,1), mu=(1): sum c f 10 != induced 8\n")

    def never(self, *args):
        pytest.fail("work started before the cap was checked")

    def test_partitions_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(partitions, "_partitions_desc", self.never)
        code, out, err = run(capsys, "partitions", "90")
        assert code == 1
        assert "n=90" in err and "p(90) = 56634173" in err
        assert "cap of 200000" in err

    def test_cauchy_check_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(partitions, "_partitions_desc", self.never)
        code, out, err = run(capsys, "cauchy-check", "--maxdeg", "30")
        assert code == 1
        assert err == ("error: n=60 has too many partitions to list: "
                       "p(60) = 966467, over the cap of 200000 "
                       "(PARTITION_CAP)\n")

    def test_cauchy_check_count_cap(self, capsys, monkeypatch):
        """10^10 identity checks are refused before the first one."""
        monkeypatch.setattr(acceptance, "cauchy_identities", self.never)
        code, out, err = run(capsys, "cauchy-check", "--dims",
                             "100000,100000", "--maxdeg", "1")
        assert code == 1
        assert err == ("error: --dims 100000,100000 --maxdeg 1: "
                       "20000000000 identity checks, over the cap of 2000 "
                       "(CAUCHY_CAP)\n")

    def test_cauchy_check_negative_maxdeg(self, capsys, monkeypatch):
        """A negative degree bound is refused, as koszul refuses it, not
        reported ok with no identity checked."""
        monkeypatch.setattr(acceptance, "cauchy_sweep", self.never)
        code, out, err = run(capsys, "cauchy-check", "--maxdeg", "-1")
        assert (code, out) == (1, "")
        assert err == "error: requires maxdeg >= 0 (got -1)\n"

    @pytest.mark.parametrize("argv,err", [
        (["cauchy-check", "--dims", "a,b"],
         "error: --dims wants comma-separated ints, got 'a,b'\n"),
        (["lambda-product", "--n", "5", "--ms", "1,x"],
         "error: --ms wants comma-separated ints, got '1,x'\n"),
    ], ids=["dims", "ms"])
    def test_comma_list_names_option(self, capsys, argv, err):
        assert run(capsys, *argv) == (1, "", err)

    def test_schur_dim_cell_cap(self, capsys, monkeypatch):
        """A one-row partition of 10^9 cells is refused before the hook
        product walks them."""
        monkeypatch.setattr(partitions, "_schur_dim", self.never)
        code, out, err = run(capsys, "schur-dim", "1000000000", "2")
        assert code == 1
        assert err == ("error: partition of 1000000000 cells for a Schur "
                       "dimension, over the cap of 10000 (SCHUR_CELL_CAP)\n")

    def test_schur_dim_past_the_digit_limit(self, capsys):
        """A dimension of more decimal digits than the interpreter prints
        by default (4 300) is printed whole, in JSON and in text, and the
        limit is as it was after the call."""
        limit = sys.get_int_max_str_digits()
        rep = run_json(capsys, "schur-dim", "10000", "100000")
        code, text, _ = run(capsys, "schur-dim", "10000", "100000",
                            "--format", "text")
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            want = str(partitions.schur_dim(partitions.Partition([10000]),
                                            100000))
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(want) > limit
        assert rep["dim"] == want
        assert code == 0 and f"dim = {want}\n" in text

    def test_emit_error_is_an_error_line(self, capsys, monkeypatch):
        """A ValueError while the report is written exits 1 with an
        error: line, like one while it is computed."""
        def bad(obj):
            raise ValueError("cannot write this report")

        monkeypatch.setattr(cli, "_jsonable", bad)
        assert run(capsys, "schur-dim", "2,1", "3") == (
            1, "", "error: cannot write this report\n")

    def test_lr_cell_cap(self, capsys, monkeypatch):
        """A product of 19 + 18 cells is refused before its LR expansion
        is built."""
        monkeypatch.setattr(partitions, "_lr_count_cached", self.never)
        code, out, err = run(capsys, "lr", "10,9", "9,9", "19,18")
        assert code == 1
        assert err == ("error: partitions of 19 and 18 cells: 37 cells for a "
                       "Littlewood-Richardson expansion, over the cap of 36 "
                       "(LR_CELL_CAP)\n")

    def test_e3_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(GeneratorSet, "cells", self.never)
        monkeypatch.setattr(BigradedDGA, "__init__", self.never)
        code, out, err = run(capsys, "e3", "--n", "200")
        assert code == 1
        assert "48554404087 basis monomials through total degree 197" in err
        assert "cap of 20000" in err


class TestParserReuse:
    def call(self, capsys, argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_same_output_as_a_fresh_parser(self, capsys, monkeypatch,
                                           tmp_path):
        """Each call of one process sharing the parser prints what the
        same call prints on a freshly built parser; --g comes back as
        None, csv goes back to json, and an argparse error leaves none of
        its state behind."""
        path = tmp_path / "map.txt"
        path.write_text("1 2\n1/2 1/2\n")
        sequence = [
            ["e3", "--n", "7", "--g", "6"],
            ["e3", "--n", "7"],
            ["koszul", "--map-file", str(path), "--maxdeg", "4"],
            ["mt", "--n", "9", "--maxdeg", "4", "--format", "csv"],
            ["e3", "--n", "8", "--bogus"],
            ["mt", "--n", "9", "--maxdeg", "4"],
            ["--help"],
            ["e3", "--help"],
        ]
        cli.build_parser.cache_clear()
        cli.command_parser.cache_clear()
        shared = [self.call(capsys, argv) for argv in sequence]
        with monkeypatch.context() as m:
            m.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
            m.setattr(cli, "command_parser", cli.command_parser.__wrapped__)
            fresh = [self.call(capsys, argv) for argv in sequence]
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 0, 0, 0, 1, 0, 0, 0]
        assert '"g": 6' in shared[0][1] and '"g": 5' in shared[1][1]
        assert shared[3][1].startswith("degree,dim\n")
        assert shared[5][1].startswith("{")

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()
        assert cli.command_parser("e3") is cli.command_parser("e3")


def subparsers():
    """The full parser's subparser of each subcommand, by name."""
    action, = (a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return action.choices


def usage_corpus():
    """Per subcommand: an unknown option, an extra positional, a missing
    required argument, a bad int, a bad choice and -h; then --help, no
    arguments and a bad name."""
    corpus = [["--help"], [], ["bogus"], ["E3", "--n", "7"]]
    # a valid call, and the same call with one int replaced by "x"
    for name, argv, bad_int in [
            ("lr", ["2,1", "1", "2,2"], None),
            ("schur-dim", ["2,1", "3"], ["2,1", "x"]),
            ("partitions", ["4"], ["x"]),
            ("invariants", ["2", "2", "2"], ["2", "x", "2"]),
            ("fft-check", ["2", "2"], ["x", "2"]),
            ("cauchy-check", ["--maxdeg", "2"], ["--maxdeg", "x"]),
            ("ac-dims", ["--variant", "A", "--g", "2", "--p", "1", "--q", "0"],
             ["--variant", "A", "--g", "2", "--p", "x", "--q", "0"]),
            ("koszul", ["--map-file", "m.txt"],
             ["--map-file", "m.txt", "--maxdeg", "x"]),
            ("e3", ["--n", "7"], ["--n", "x"]),
            ("oracle-e2", ["--n", "5"], ["--n", "5", "--g", "x"]),
            ("lambda-product", ["--n", "5", "--ms", "2,3"],
             ["--n", "5", "--M", "x", "--ms", "2,3"]),
            ("mt", ["--n", "9", "--maxdeg", "5"],
             ["--n", "9", "--maxdeg", "x"]),
            ("cohomology", ["--space", "diff", "--n", "9"],
             ["--space", "diff", "--n", "x"]),
            ("verify-all", [], None)]:
        corpus += [[name, *argv, "--bogus"], [name, *argv, "extra"],
                   [name, *argv, "--format", "xml"], [name, "-h"]]
        if argv:
            corpus += [[name], [name, *argv[:-1]]]
        if bad_int:
            corpus.append([name, *bad_int])
    return corpus


class TestCommandParser:
    """A call that names a subcommand parses with that subcommand's parser
    alone; it must read exactly as the full parser does."""

    @pytest.mark.parametrize("name", list(cli.COMMANDS))
    def test_help_and_usage_as_the_subparser(self, name):
        lone, sub = cli.command_parser(name), subparsers()[name]
        assert lone.format_help() == sub.format_help()
        assert lone.format_usage() == sub.format_usage()

    @pytest.mark.parametrize("argv", usage_corpus(), ids=" ".join)
    def test_usage_errors_as_the_full_parser(self, capsys, monkeypatch,
                                             argv):
        """Byte-identical stdout, stderr and exit code whether the call
        takes the lone parser or, handed an argument it cannot place, the
        full one."""
        def call():
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            out = capsys.readouterr()
            return code, out.out, out.err

        lone = call()
        unplaced = SimpleNamespace(
            parse_known_args=lambda rest: (None, ["not placed"]))
        monkeypatch.setattr(cli, "command_parser", lambda name: unplaced)
        assert call() == lone
        assert lone[0] in (0, 1) and lone[1:] != ("", "")

    def test_one_parser_per_call(self, capsys, monkeypatch):
        """e3 builds its own parser and no other."""
        progs = []
        init = cli._Parser.__init__

        def counted(self, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        def never():
            pytest.fail("the full parser was built")

        cli.build_parser.cache_clear()
        cli.command_parser.cache_clear()
        monkeypatch.setattr(cli._Parser, "__init__", counted)
        monkeypatch.setattr(cli, "build_parser", never)
        assert main(["e3", "--n", "7"]) == 0
        assert progs == ["tautrings e3"]
        capsys.readouterr()


class TestOutputs:
    def test_determinism(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        for p in (p1, p2):
            code = main(["cohomology", "--space", "diff", "--n", "9",
                         "--g", "30", "--maxdeg", "5", "--output", str(p)])
            assert code == 0
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_projection(self, capsys):
        code, out, err = run(capsys, "mt", "--n", "9", "--maxdeg", "2",
                             "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "degree,dim"
        assert out.splitlines()[1] == "0,1"

    def test_csv_oracle_e2_table(self, capsys):
        """One p,q,dim row per cell, matching the JSON table."""
        table = run_json(capsys, "oracle-e2", "--n", "6", "--g", "4")["table"]
        code, out, err = run(capsys, "oracle-e2", "--n", "6", "--g", "4",
                             "--format", "csv")
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0] == "p,q,dim"
        rows = [tuple(int(t) for t in line.split(",")) for line in lines[1:]]
        assert rows == [(p, q, table[f"({p},{q})"]) for p, q, _ in rows]
        assert len(rows) == len(table) == 10
        assert (0, 3, 2) in rows

    @pytest.mark.parametrize("n", [0, 4, 6])
    def test_csv_partitions(self, capsys, n):
        """A header, then one row per partition with its parts in one
        space-separated field, matching the JSON list."""
        parts = run_json(capsys, "partitions", str(n))["partitions"]
        code, out, err = run(capsys, "partitions", str(n), "--format", "csv")
        assert code == 0, err
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["parts"]
        assert all(len(row) == 1 for row in rows)
        assert [[int(t) for t in row[0].split()] for row in rows[1:]] == parts

    @pytest.mark.parametrize("ms", ["2,3", "2,3,4"])
    def test_csv_lambda_product(self, capsys, ms):
        """A coeff,monomial header, then one row per term of the JSON."""
        argv = ["lambda-product", "--n", "5", "--M", "4", "--ms", ms]
        terms = run_json(capsys, *argv)["terms"]
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert code == 0, err
        rows = list(csv.DictReader(out.splitlines()))
        assert rows == terms
        assert len(rows) == (6 if ms == "2,3" else 0)

    def test_text_projection(self, capsys):
        code, out, err = run(capsys, "lr", "1", "1", "2", "--format", "text")
        assert code == 0
        assert "c = 1" in out

    def test_golden_file(self, capsys):
        """The documented JSON schema, pinned byte for byte."""
        code, out, err = run(capsys, "cohomology", "--space", "diff",
                             "--n", "9", "--g", "30", "--maxdeg", "5")
        assert code == 0
        golden = (DATA / "cohomology_diff_n9.json").read_text()
        assert out == golden

    def test_golden_file_lambda_product(self, capsys):
        """lambda-product at n = 5..12, minimal M: one index, two distinct
        indices and a repeated one; the terms come in monomial order."""
        parts = []
        for n in range(5, 13):
            M = minimal_M(n)
            single = min(m for m in range(1, M + 1) if 4 * m - 2 * n - 1 > 0)
            for ms in (f"{single}", f"{M - 1},{M}", f"{M},{M}"):
                argv = ["lambda-product", "--n", str(n), "--ms", ms]
                code, out, err = run(capsys, *argv)
                assert code == 0, err
                parts.append(f"$ tautrings {' '.join(argv)}\n{out}")
        golden = (DATA / "lambda_product_n5_12.txt").read_text()
        assert "".join(parts) == golden

    def test_golden_file_lr(self, capsys):
        code, out, err = run(capsys, "lr", "1", "1", "2")
        assert code == 0
        golden = (DATA / "lr_1_1_2.json").read_text()
        assert out == golden


class TestVerifyAll:
    @pytest.mark.slow
    def test_verify_all(self, capsys):
        """One JSON object, a text projection of exactly the nine PASS
        lines, pinned with their counts in tests/data, and one
        number,passed csv row per criterion."""
        rep = run_json(capsys, "verify-all")
        criteria = rep["criteria"]
        assert [c["number"] for c in criteria] == list(range(1, 10))
        assert all(c["passed"] for c in criteria)
        assert set(criteria[0]) == {"number", "name", "passed", "detail"}
        code, out, err = run(capsys, "verify-all", "--format", "text")
        assert code == 0, err
        assert out == (DATA / "verify_all.txt").read_text()
        code, out, err = run(capsys, "verify-all", "--format", "csv")
        assert code == 0, err
        assert out.splitlines() == ["number,passed"] + [
            f"{i},True" for i in range(1, 10)]

    def test_failure_names_each_criterion(self, capsys, monkeypatch):
        """A failed criterion makes verify-all exit 2 with no report, and
        stderr names each failing criterion with its detail."""
        def failing(number, name):
            @acceptance.criterion(number, name)
            def check():
                raise OracleMismatch(f"wrong at case {number}")
            return check

        monkeypatch.setattr(acceptance, "ALL_CRITERIA", [
            failing(1, "one"), acceptance.criterion_9, failing(2, "two")])
        code, out, err = run(capsys, "verify-all")
        assert code == 2 and out == ""
        assert err == ("consistency failure: FAIL criterion 1 (one): wrong "
                       "at case 1; FAIL criterion 2 (two): wrong at case 2\n")
