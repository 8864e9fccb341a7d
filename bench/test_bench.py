"""Tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

They run a few cheap tasks of each workload in-process, plus one short
`bench/run.py` invocation, so they take well under a minute.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fnmatch import fnmatch
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import passrun  # noqa: E402
import run as bench_run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

import tautrings  # noqa: E402
from tautrings import graded, linalg  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# cheap tasks of each workload, by name
QUICK = {
    "verify-all": ["c2", "c3", "c6", "c7", "c8", "c9"],
    "model-ladder": ["e3 --n 9", "e3 --n 13", "cohomology --space diff --n 12",
                     "cohomology --space blockdiff --n 9",
                     "cohomology --space tangential --n 9",
                     "mt --n 9 --maxdeg 6"],
    "invariants-ladder": ["GL T^3,3(Q^3)", "SL T^5,2(Q^3)", "fft m=3 g=3",
                          "e2 n=6 g=4"],
    "koszul-maps": ["koszul map0_3x3", "koszul map2_4x3"],
}


def quick_tasks(workload, workdir):
    tasks = [t for t in workloads.build(workload, 11, workdir)
             if t.name in QUICK[workload]]
    assert [t.name for t in tasks] == QUICK[workload]
    return tasks


def results(pass_result):
    return [(t["name"], t["result"], t["error"]) for t in pass_result["tasks"]]


def traced_pass(tasks):
    tr = tracer.install()
    try:
        res = passrun.run_tasks(tasks)
    finally:
        tr.restore()
    return tr, res


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_predictions_name_real_metrics_and_workloads():
    layer_names = [m["name"] for m in SPEC["per_layer"]]
    metric_names = layer_names + [m["name"] for m in SPEC["end_to_end"]]
    doc = json.loads((BENCH / "predictions.json").read_text())
    for pred in doc["predictions"]:
        for pattern in pred["layers"]:
            assert any(fnmatch(n, pattern) for n in layer_names), pattern
        for entry in pred["moves"] + pred["unmoved"]:
            metric, workload = entry.split("@")
            assert metric in metric_names and workload in workloads.WORKLOADS, entry


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_returns_the_untraced_results(workload, tmp_path):
    plain = passrun.run_tasks(quick_tasks(workload, tmp_path))
    tr, traced = traced_pass(quick_tasks(workload, tmp_path))
    assert results(traced) == results(plain)
    assert all(error is None for _, _, error in results(plain))
    assert tr.spans, "the tracer saw no call"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_named_metric_is_reported(workload, tmp_path):
    tr, res = traced_pass(quick_tasks(workload, tmp_path))
    res.update(traced=True, setup_s=0.1, peak_rss_mb=50.0)
    res["layers"] = tracer.layer_metrics(
        tr, tautrings.partitions._lr_count_cached.cache_info())
    untraced = dict(res, traced=False)
    layer = bench_run.layer_metrics([res, untraced])
    e2e = bench_run.end_to_end_metrics([untraced])
    assert sorted(layer) == sorted(m["name"] for m in SPEC["per_layer"])
    assert sorted(e2e) == sorted(m["name"] for m in SPEC["end_to_end"])


def _bindings():
    """Every function reachable by name from tautrings modules, classes and
    module-level lists, by identity."""
    out = {}
    for name, mod in sys.modules.items():
        if name != "tautrings" and not name.startswith("tautrings."):
            continue
        for key, value in vars(mod).items():
            if isinstance(value, type) and value.__module__ == name:
                for attr, member in vars(value).items():
                    out[(name, key, attr)] = id(member)
            elif isinstance(value, list):
                out[(name, key)] = [id(v) for v in value]
            else:
                out[(name, key)] = id(value)
    return out


def test_every_wrapper_is_restored(tmp_path):
    before = _bindings()
    tr = tracer.install()
    try:
        during = _bindings()
        passrun.run_tasks(quick_tasks("invariants-ladder", tmp_path))
    finally:
        tr.restore()
    assert during != before
    assert _bindings() == before


def test_wrapper_sees_calls_through_every_imported_name():
    original = linalg.rank_of_int_rows
    tr = tracer.install()
    try:
        # rank_of_int_rows is imported by name into graded and model
        assert graded.rank_of_int_rows is tautrings.model.rank_of_int_rows
        assert graded.rank_of_int_rows.__wrapped__ is original
        graded.rank_of_int_rows([{0: 1}])
        tautrings.model.rank_of_int_rows([{0: 1}])
    finally:
        tr.restore()
    assert tr.calls["linalg.rank_of_int_rows"] == 2
    assert tr.calls["linalg.eliminate"] == 2


def test_wrong_pinned_value_counts_as_failure(tmp_path):
    tasks = quick_tasks("model-ladder", tmp_path)
    tasks[0].expected = [1, 1, 0, 0, 0, 2, 3]  # the true last dim is 2
    res = passrun.run_tasks(tasks)
    errors = [t["error"] for t in res["tasks"]]
    assert errors[0] and "expected" in errors[0]
    assert all(e is None for e in errors[1:]), "the pass must go on"


def test_raising_task_counts_as_failure_and_pass_goes_on(tmp_path):
    tasks = quick_tasks("invariants-ladder", tmp_path)

    def boom():
        raise tautrings.OracleMismatch("disagreement")

    tasks[0].run = boom
    res = passrun.run_tasks(tasks)
    assert "OracleMismatch" in res["tasks"][0]["error"]
    assert all(t["error"] is None for t in res["tasks"][1:])


def test_nonzero_exit_counts_as_failure(tmp_path):
    task = quick_tasks("koszul-maps", tmp_path)[0]
    task.run = lambda: 2
    res = passrun.run_tasks([task])
    assert "exit code 2" in res["tasks"][0]["error"]


def test_maps_depend_only_on_the_seed(tmp_path):
    a = workloads.write_maps(5, tmp_path / "a")
    b = workloads.write_maps(5, tmp_path / "b")
    c = workloads.write_maps(6, tmp_path / "c")
    assert [p.read_bytes() for p, _ in a] == [p.read_bytes() for p, _ in b]
    assert [p.read_bytes() for p, _ in a] != [p.read_bytes() for p, _ in c]
    assert any("/" in p.read_text() for p, _ in a), "entries must be p/q"


def test_benchmark_oracles_agree_with_the_program():
    rng = random.Random(3)
    for rows, cols, r in workloads.KOSZUL_SHAPES:
        m = workloads.random_map(rng, rows, cols, r)
        q = linalg.QMatrix.from_rows(m)
        assert workloads.rank(m) == q.rank()
    for k in range(4):
        for c in range(4):
            gens = graded.GeneratorSet([(f"k{i}", 1) for i in range(k)]
                                       + [(f"c{i}", 2) for i in range(c)])
            assert workloads.koszul_model_dims(k, c, 8) == graded.fgca_dims(gens, 8)
    assert workloads.rank([[Fraction(1, 2), 1], [1, 2]]) == 1


def test_run_prints_the_contract_line():
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "koszul-maps",
         "--seed", "4", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    header, last = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    assert last["attempted"] == len(workloads.KOSZUL_SHAPES)
    assert list(last["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in last["metrics"].values())
    assert header["seed"] == 4 and header["trace"] == 0
    for key in ("python", "nproc", "cpu_model", "git_commit"):
        assert header[key]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-all",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout == ""
