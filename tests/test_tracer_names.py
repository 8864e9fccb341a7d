"""The benchmark's tracer wraps functions of the program by name, and
`install()` raises AttributeError when one of them is missing.  Loading it
here makes a rename or deletion of a wrapped function fail the test suite,
not only the benchmark's own tests."""

import importlib.util
from pathlib import Path

from tautrings import invariants, linalg, partitions

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
