"""Past the input boundary every coefficient is an int: the engine modules
and the acceptance suite import nothing from fractions, the map-file
reader clears a map's denominators once, the graded engine refuses any
other coefficient, and the kernel vectors, public invariant bases,
second-page vectors and differentials they hand on hold int entries
only."""

import ast
import pathlib
import random
import re
from fractions import Fraction

import pytest

from tautrings import acceptance, cli, graded, invariants, linalg, model
from tautrings.graded import BigradedDGA, GeneratorSet, quotient_dims
from tautrings.invariants import (
    TensorSpaceSpec,
    _invariant_system,
    _kernel_vectors,
    gl_invariant_basis,
    sl_invariant_basis,
)
from tautrings.linalg import QMatrix, kernel_basis_columns
from tautrings.model import ACAlgebraSpec, E2Model, _ac_alphabet, _ac_blocks

from oracles import int_rows, random_matrix


def all_int(elements):
    return all(type(c) is int for e in elements for c in e.values())


@pytest.mark.parametrize("module", [graded, invariants, model, acceptance])
def test_no_fractions_import(module):
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "fractions"
                       for a in node.names), ast.unparse(node)
        elif isinstance(node, ast.ImportFrom):
            assert node.module != "fractions", ast.unparse(node)
            assert all(a.name != "Fraction" for a in node.names), (
                ast.unparse(node))


def test_kernel_vectors_are_int():
    # the one block of this cell has a kernel whose basis, 1 at its own
    # free columns, holds halves
    spec = ACAlgebraSpec("A", 2, 1, 1)
    (_, _, block), = _ac_blocks(spec, 1, 2, 0, "SL")
    basis = block()
    orbits, rows = _invariant_system(_ac_alphabet(spec), basis)
    columns = kernel_basis_columns(rows, len(orbits))
    assert any(x.denominator > 1 for col in columns for x in col.values())
    vectors = _kernel_vectors(orbits, rows)
    assert len(vectors) == len(columns) > 0
    assert all_int(vectors)


def test_second_page_vectors_are_int():
    vectors = E2Model(6, 4, 4).sl_invariant_vectors(0, 3)
    assert vectors and all_int(vectors)


@pytest.mark.parametrize("module", [graded, acceptance])
def test_no_rational_arithmetic(module):
    """No lcm and no denominator: the reader clears a map's denominators
    once, and the engine and the acceptance suite take ints only."""
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    attrs = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)}
    assert not {"lcm", "denominator", "numerator"} & attrs
    if module is graded:
        assert "math" not in {node.id for node in ast.walk(tree)
                              if isinstance(node, ast.Name)}


def test_rational_differential_is_scaled_once(tmp_path):
    """The reader reads 1/2 and -2/3 as 3 and -4 over L = 6, the lcm of the
    map's denominators, and dvals and d() hold those ints."""
    path = tmp_path / "map.txt"
    path.write_text("2 1\n1/2\n-2/3\n")
    rows, cols, F = cli._read_map_file(str(path))
    assert (rows, cols, F) == (2, 1, [{0: 3}, {0: -4}])
    gens = GeneratorSet([("y", (0, 1)), ("x", (2, 0)), ("z", (2, 0))])
    y, x, z = (gens.index[name] for name in "yxz")
    dga = BigradedDGA(gens, {"y": {(x,): F[0][0], (z,): F[1][0]}})
    assert dga.dvals == {y: {(x,): 3, (z,): -4}}
    assert all_int(dga.dvals.values())
    assert all_int([dga.d({(y,): 1})])


@pytest.mark.parametrize("spec", [TensorSpaceSpec(2, 2, 2),
                                  TensorSpaceSpec(3, 3, 3),
                                  TensorSpaceSpec(4, 1, 3),
                                  TensorSpaceSpec(2, 0, 2)])
def test_public_bases_are_int(spec):
    """The bases hand on the int kernel vectors as QMatrix entries."""
    for basis in (gl_invariant_basis(spec), sl_invariant_basis(spec)):
        assert all(type(v) is int for v in basis.entries.values())
    assert sl_invariant_basis(spec).entries


def test_qmatrix_converts_only_other_values():
    m = QMatrix(1, 3, {(0, 0): 2, (0, 1): Fraction(1, 2), (0, 2): 0.5})
    assert [type(v) for v in m.entries.values()] == [int, Fraction, Fraction]
    assert m.entries[(0, 2)] == Fraction(1, 2)


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(3), 0.5, True])
def test_engine_refuses_other_coefficients(bad):
    """BigradedDGA and quotient_dims take int coefficients only, and name
    the value they refuse."""
    gens = GeneratorSet([("y", (0, 1)), ("x", (2, 0))])
    x = gens.index["x"]
    with pytest.raises(ValueError, match=re.escape(
            f"d(y) has the coefficient {bad!r}, not an int")):
        BigradedDGA(gens, {"y": {(x,): bad}})
    with pytest.raises(ValueError, match=re.escape(
            f"a relation has the coefficient {bad!r}, not an int")):
        quotient_dims(gens, [{(x,): bad}], 4)


def test_criterion_5_rows_are_random_matrix_entries(monkeypatch):
    """Criterion 5 draws random_matrix's maps for seed 57721, map for map,
    as int rows."""
    seen = []
    monkeypatch.setattr(acceptance, "koszul_check",
                        lambda rows, ncols, maxdeg: seen.append(
                            (rows, ncols)) or ([], 0))
    acceptance.criterion_5()
    rng = random.Random(57721)
    want = []
    for _ in range(50):
        F = random_matrix(rng.randint(0, 5), rng.randint(0, 5), rng, lo=-3,
                          hi=3)
        want.append((int_rows(F), F.cols))
    assert seen == want
    assert all_int(row for rows, _ in seen for row in rows)


def test_koszul_and_verify_all_build_no_qmatrix(monkeypatch, tmp_path,
                                                capsys):
    def never(*args, **kwargs):
        pytest.fail("a QMatrix was built")

    monkeypatch.setattr(linalg.QMatrix, "__init__", never)
    path = tmp_path / "map.txt"
    path.write_text("2 3\n1/2 -2/3 5\n1 4/7 0\n")
    assert cli.main(["koszul", "--map-file", str(path)]) == 0
    assert cli.main(["verify-all"]) == 0
