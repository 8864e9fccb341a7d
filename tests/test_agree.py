"""Every disagreement between two computations goes through one check,
`partitions.check_agree`, and one type, `OracleMismatch`, that carries
the quantity, the case and each leg's value; a d^2 failure is one too,
so it is a FAIL line in verify-all and exit 2 in the CLI."""

import pathlib

import pytest

import tautrings
from tautrings import acceptance, graded, model, rings
from tautrings.cli import main
from tautrings.partitions import OracleMismatch, check_agree, mismatch_case

SRC = pathlib.Path(tautrings.__file__).parent


class Unprintable:
    """Equal to every other, and refuses to be printed."""

    def __eq__(self, other):
        return True

    def __str__(self):
        raise AssertionError("text built while the legs agree")


def test_no_text_while_the_legs_agree():
    check_agree("q", Unprintable(), ("a", Unprintable()), ("b", 1), ("c", 1))


def test_two_legs():
    with pytest.raises(OracleMismatch) as info:
        check_agree("H^1", "n=7", ("computed", 1), ("by n mod 4", 2))
    exc = info.value
    assert str(exc) == "H^1 at n=7: computed 1 != by n mod 4 2"
    assert (exc.quantity, exc.case) == ("H^1", "n=7")
    assert exc.legs == (("computed", 1), ("by n mod 4", 2))


def test_three_legs_chain():
    with pytest.raises(OracleMismatch) as info:
        check_agree("dims", "degree 1, n=7", ("a", [0]), ("b", [0]),
                    ("c", [1]))
    assert str(info.value) == "dims at degree 1, n=7: a [0] != b [0] != c [1]"
    assert info.value.legs == (("a", [0]), ("b", [0]), ("c", [1]))


def test_a_caller_adds_its_case():
    with pytest.raises(OracleMismatch) as info:
        with mismatch_case("trial 3"):
            check_agree("dims", "a 1x1 map", ("complex", 1), ("model", 2))
    exc = info.value
    assert str(exc) == "dims at a 1x1 map, trial 3: complex 1 != model 2"
    assert (exc.quantity, exc.case) == ("dims", "a 1x1 map, trial 3")
    assert exc.legs == (("complex", 1), ("model", 2))


def test_one_type_one_raise():
    """Each module exports the one class, DgaError is gone, and only the
    check and verify-all's summary of failed criteria raise it."""
    for module in (tautrings, model, rings, acceptance):
        assert module.OracleMismatch is OracleMismatch
    assert issubclass(OracleMismatch, RuntimeError)
    assert not hasattr(graded, "DgaError")
    hits = [(path.name, line.strip()) for path in sorted(SRC.glob("*.py"))
            for line in path.read_text().splitlines()
            if "raise OracleMismatch" in line]
    assert hits == [("cli.py", 'raise OracleMismatch("; ".join(failed))'),
                    ("partitions.py", "raise OracleMismatch(f\"{quantity} "
                     "at {case}: \" + \" != \".join(")]


class TestDSquaredFailure:
    """d^2 forced to fail: d of anything is the first generator."""

    @pytest.fixture(autouse=True)
    def broken_d(self, monkeypatch):
        monkeypatch.setattr(graded.BigradedDGA, "d",
                            lambda self, elem: {(0,): 1})

    def test_verify_all_prints_fail_lines(self, capsys):
        code = main(["verify-all", "--format", "text"])
        out = capsys.readouterr()
        assert (code, out.out) == (2, "")
        assert out.err == (
            "consistency failure: "
            "FAIL criterion 5 (Koszul cohomology): d^2 at generator y000, "
            "trial 0: d^2 [(1, 'y000')] != zero []; "
            "FAIL criterion 6 (D-model zero column): d^2 at generator y3_4, "
            "n=10, M=7: d^2 [(1, 'v6')] != zero []; "
            "FAIL criterion 7 (second-page oracle): d^2 at generator la_0_2, "
            "n=5, g=3: d^2 [(1, 'lu_3')] != zero []; "
            "FAIL criterion 8 (final rings): d^2 at generator y3_4, n=10, "
            "M=7: d^2 [(1, 'v6')] != zero []\n")

    def test_e3_exits_2(self, capsys):
        code = main(["e3", "--n", "10"])
        out = capsys.readouterr()
        assert (code, out.out) == (2, "")
        assert out.err == ("consistency failure: d^2 at generator y3_4, "
                           "n=10, M=7: d^2 [(1, 'v6')] != zero []\n")

    def test_koszul_exits_2(self, capsys, tmp_path):
        path = tmp_path / "map.txt"
        path.write_text("1 1\n1\n")
        code = main(["koszul", "--map-file", str(path)])
        out = capsys.readouterr()
        assert (code, out.out) == (2, "")
        assert out.err == ("consistency failure: d^2 at generator y000: "
                           "d^2 [(1, 'y000')] != zero []\n")
