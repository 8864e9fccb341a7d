import json
import pathlib

import pytest

from tautrings.cli import main

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

    def test_mt(self, capsys):
        rep = run_json(capsys, "mt", "--n", "9", "--maxdeg", "1")
        assert rep["dims"] == [1, 1]

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

    def test_bad_map_file(self, capsys, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("2 2\n1 2 3\n")
        code, out, err = run(capsys, "koszul", "--map-file", str(path))
        assert code == 1
        assert "entries" in err


class TestExitCodes:
    def test_invalid_params_names_bound(self, capsys):
        code, out, err = run(capsys, "e3", "--n", "5", "--M", "1")
        assert code == 1
        assert "4M >= 3n-5" in err

    def test_invalid_partition(self, capsys):
        code, out, err = run(capsys, "lr", "1,2", "1", "2")
        assert code == 1

    def test_oracle_guard(self, capsys):
        code, out, err = run(capsys, "oracle-e2", "--n", "8")
        assert code == 1
        assert "n in" in err


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

    def test_golden_file_lr(self, capsys):
        code, out, err = run(capsys, "lr", "1", "1", "2")
        assert code == 0
        golden = (DATA / "lr_1_1_2.json").read_text()
        assert out == golden


class TestVerifyAll:
    @pytest.mark.slow
    def test_verify_all(self, capsys):
        code, out, err = run(capsys, "verify-all")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith("PASS")]
        assert len(lines) == 9
