"""The benchmark's tracer wraps functions of the program by name, and
`install()` raises AttributeError when one of them is missing.  Loading it
here makes a rename or deletion of a wrapped function fail the test suite,
not only the benchmark's own tests.  The benchmark's tests and workloads
read the program in a few more ways, held here too."""

import importlib.util
from fractions import Fraction
from pathlib import Path

from tautrings import graded, invariants, linalg, model, partitions

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def test_install_and_restore_every_wrapped_name():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    original = invariants.verify_fundamental_theorems
    tr = tracer.install()
    try:
        assert invariants.verify_fundamental_theorems is not original
        assert invariants._eliminate.__wrapped__ is linalg._eliminate.__wrapped__
    finally:
        tr.restore()
    assert invariants.verify_fundamental_theorems is original
    assert not hasattr(linalg._eliminate, "__wrapped__")


def test_lr_cache_is_readable():
    """A traced pass reads the LR cache's hit ratio from this function."""
    info = partitions._lr_count_cached.cache_info()
    assert info.hits >= 0 and info.misses >= 0


def test_rank_of_fraction_rows():
    """The benchmark holds its Fraction Gauss-Jordan rank of a map to
    QMatrix.from_rows(rows).rank()."""
    rows = [[Fraction(1, 2), 1, Fraction(-2, 3)], [1, 2, Fraction(-4, 3)]]
    assert linalg.QMatrix.from_rows(rows).rank() == 1
    assert linalg.QMatrix.from_rows(rows + [[0, 0, 1]]).rank() == 2


def test_invariant_bases_have_cols():
    """The tensor tasks report gl_invariant_basis(spec).cols and
    sl_invariant_basis(spec).cols."""
    spec = invariants.TensorSpaceSpec(2, 2, 2)
    assert invariants.gl_invariant_basis(spec).cols == 2
    assert invariants.sl_invariant_basis(spec).cols == 2
    assert invariants.sl_invariant_basis(
        invariants.TensorSpaceSpec(2, 0, 2)).cols == 1


def test_rank_of_int_rows_is_imported_by_name():
    """The tracer's wrapper must see calls through graded's and model's
    names, which the benchmark's tests check are one function."""
    assert graded.rank_of_int_rows is model.rank_of_int_rows
    assert graded.rank_of_int_rows is linalg.rank_of_int_rows
