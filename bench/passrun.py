"""One pass of a workload, in a fresh interpreter.

    python3 -I bench/passrun.py ROOT WORKLOAD SEED TRACE

ROOT is the repository root (its src/ holds the program).  The pass imports
tautrings, writes the workload's inputs, runs every task once in order and
prints one JSON line: the monotonic time at which set-up ended (so the
caller can measure set-up from process start), wall and CPU seconds of the
tasks, each task's seconds, result and error, and the peak RSS.
With TRACE=1 the tracer wraps the program first, the JSON line carries the
per-layer metrics, and the spans are written to ROOT/.bench_out/spans/.

Between tasks the pass times `reference()`, a fixed computation that does
not use tautrings: a few times before the first task and, after each task,
about once per 0.4 s the task took.  On a shared host the speed available
to one process drifts by a fifth or more within minutes.  A task's time
divided by the mean reference time over a window around it (as long as the
task on each side, at least 1 s) is its `_ref` figure: that cancels most of
the drift while still moving one for one with the program's own cost.
"""

from __future__ import annotations

import gc
import json
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path


def reference() -> int:
    """Fixed pure-Python work like the program's own (sparse fraction-free
    integer elimination, Fraction sums); about 25 ms on a 2.1 GHz Xeon."""
    rng = random.Random(12345)
    n = 60
    rows = [{j: v for j in rng.sample(range(n), 8) if (v := rng.randint(-5, 5))}
            for _ in range(n)]
    rank = 0
    for c in range(n):
        pr = next((r for r in rows if r.get(c)), None)
        if pr is None:
            continue
        rows.remove(pr)
        rank += 1
        reduced = []
        for r in rows:
            if r.get(c):
                g = math.gcd(pr[c], r[c])
                m1, m2 = pr[c] // g, r[c] // g
                r = {k: x * m1 for k, x in r.items()}
                for k, x in pr.items():
                    y = r.get(k, 0) - x * m2
                    if y:
                        r[k] = y
                    else:
                        r.pop(k, None)
                g = math.gcd(*r.values()) if r else 1
                if g > 1:
                    r = {k: x // g for k, x in r.items()}
            if r:
                reduced.append(r)
        rows = reduced
    total = sum((Fraction(i % 7 + 1, i % 11 + 1) for i in range(1, 3000)), Fraction(0))
    return rank + total.numerator % 2


def time_reference() -> tuple[float, float, float]:
    """(start, wall, CPU) seconds of one reference() call, with the cyclic
    garbage collector off so that the program's heap does not slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        w0, c0 = time.perf_counter(), time.process_time()
        reference()
        return w0, time.perf_counter() - w0, time.process_time() - c0
    finally:
        if enabled:
            gc.enable()


def normalize(start: float, seconds: float, cpu: float, refs) -> tuple[float, float]:
    """(wall, CPU) time of a task in units of the mean reference time over
    the window around it."""
    pad = max(seconds, 1.0)
    near = [r for r in refs
            if r[0] + r[1] >= start - pad and r[0] <= start + seconds + pad]
    return (seconds * len(near) / sum(r[1] for r in near),
            cpu * len(near) / sum(r[2] for r in near))


def run_tasks(tasks) -> dict:
    """Run the tasks in order, then check each answer.

    A task that raises is recorded as failed and the pass continues; the
    checks run after the timed region so they do not count as wall time.
    """
    raw = []
    setup_done = time.monotonic()
    refs = [time_reference() for _ in range(4)]
    for task in tasks:
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            value, error = task.run(), None
        except Exception as exc:  # a failing task must not stop the pass
            value, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - w0
        raw.append((w0, seconds, time.process_time() - c0, value, error))
        refs += [time_reference() for _ in range(min(10, math.ceil(seconds / 0.4)))]

    out = []
    for task, (start, seconds, cpu, value, error) in zip(tasks, raw):
        result = None
        if error is None:
            try:
                result = task.summarize(value)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
            else:
                if result != task.expected:
                    error = f"got {result!r}, expected {task.expected!r}"
        wall_ref, cpu_ref = normalize(start, seconds, cpu, refs)
        out.append({"name": task.name, "seconds": seconds, "cpu_s": cpu,
                    "wall_ref": wall_ref, "cpu_ref": cpu_ref,
                    "result": result, "error": error})
    return {"setup_done": setup_done,
            "wall_s": sum(t["seconds"] for t in out),
            "cpu_s": sum(t["cpu_s"] for t in out),
            "reference_s": [r[1] for r in refs],
            "tasks": out}


def run_pass(root: Path, workload: str, seed: int, trace: bool) -> dict:
    import resource

    import tautrings.partitions
    import tracer as tracing
    import workloads

    workdir = root / ".bench_out"
    tr = tracing.install() if trace else None
    try:
        tasks = workloads.build(workload, seed, workdir)
        res = run_tasks(tasks)
    finally:
        if tr is not None:
            tr.restore()
    res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tr is not None:
        res["layers"] = tracing.layer_metrics(
            tr, tautrings.partitions._lr_count_cached.cache_info())
        res["spans_file"] = str(write_spans(tr, workdir, workload, seed))
    return res


def write_spans(tr, workdir: Path, workload: str, seed: int) -> Path:
    spandir = workdir / "spans"
    spandir.mkdir(parents=True, exist_ok=True)
    path = spandir / f"{workload}-seed{seed}.json"
    doc = {
        "workload": workload, "seed": seed,
        "span_fields": ["name", "start", "end", "parent"],
        "names": tr.names,
        "spans": tr.spans,
        "aggregates": {name: {"calls": tr.calls[name], "s": tr.incl[name],
                              "self_s": tr.self_time[name]}
                       for name in sorted(tr.calls)},
        "counts": dict(sorted(tr.counts.items())),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def main(argv: list[str]) -> int:
    root, workload, seed, trace = Path(argv[0]), argv[1], int(argv[2]), argv[3] == "1"
    sys.path[:0] = [str(root / "src"), str(Path(__file__).resolve().parent)]
    res = run_pass(root, workload, seed, trace)
    sys.stdout.write(json.dumps(res) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
