"""Past the input boundary every coefficient is an int: the engine modules
import nothing from fractions, and the kernel vectors, public invariant
bases, second-page vectors and differentials they hand on hold int
entries only."""

import ast
import pathlib
from fractions import Fraction

import pytest

from tautrings import graded, invariants, model
from tautrings.graded import BigradedDGA, GeneratorSet
from tautrings.invariants import (
    TensorSpaceSpec,
    _invariant_system,
    _kernel_vectors,
    gl_invariant_basis,
    sl_invariant_basis,
)
from tautrings.linalg import QMatrix, kernel_basis_columns
from tautrings.model import ACAlgebraSpec, E2Model, _ac_alphabet, _ac_blocks


def all_int(elements):
    return all(type(c) is int for e in elements for c in e.values())


@pytest.mark.parametrize("module", [graded, invariants, model])
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


def test_rational_differential_is_scaled_once():
    """dvals and d() hold L*d, L = 6 the lcm of d's denominators."""
    gens = GeneratorSet([("y", (0, 1)), ("x", (2, 0)), ("z", (2, 0))])
    y, x, z = (gens.index[name] for name in "yxz")
    dga = BigradedDGA(gens, {"y": {(x,): Fraction(1, 2),
                                   (z,): Fraction(-2, 3)}})
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
