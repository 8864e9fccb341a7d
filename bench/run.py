"""The tautrings benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of one workload until S seconds have gone by.  Each pass is a
fresh single-threaded interpreter (bench/passrun.py), so the program's
caches start cold as they do in a user's `tautrings` process.  Every task's
answer is checked; a failing task counts in `failed` and the run goes on.

With --trace 0 the result carries the end-to-end metrics, each the median
over passes.  Task times are reported in units of a reference computation
timed next to each task in the same process (`_ref` metrics, see
passrun.py), because on a shared host plain seconds drift too much from
run to run to show a regression of a few percent; the plain seconds are in
the run description line.  With --trace 1 traced and untraced passes
alternate and the result carries the per-layer metrics, in plain seconds
and counts (medians over traced passes), with `trace.overhead_s` = median
traced wall seconds - median untraced wall seconds.

Output: a JSON line describing the run (Python, nproc, CPU model, commit,
seed, tracing, per-task median seconds, failures), then, as the last line,
{"correct", "attempted", "failed", "metrics"}.  The metric names and units
come from BENCHMARK.json at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# every run, set-up included, must end well inside 180 seconds
RUN_BUDGET_S = 170.0


class PassError(RuntimeError):
    """A pass did not produce a result (crash or timeout)."""


def spawn_pass(workload: str, seed: int, trace: bool, timeout: float) -> dict:
    cmd = [sys.executable, "-I", str(ROOT / "bench" / "passrun.py"),
           str(ROOT), workload, str(seed), "1" if trace else "0"]
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise PassError(f"pass timed out after {timeout:.0f} s") from None
    if proc.returncode != 0 or not out.strip():
        raise PassError(f"pass exited {proc.returncode}: {err.strip()[-2000:]}")
    res = json.loads(out.strip().splitlines()[-1])
    res["setup_s"] = res["setup_done"] - spawned
    return res


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Passes until `seconds` have gone by; traced runs alternate traced and
    untraced passes and make at least one of each."""
    start = time.monotonic()
    passes = []
    while True:
        traced = trace and len(passes) % 2 == 0
        res = spawn_pass(workload, seed, traced,
                         RUN_BUDGET_S - (time.monotonic() - start))
        res["traced"] = traced
        passes.append(res)
        if time.monotonic() - start >= seconds and (not trace or len(passes) >= 2):
            return passes


def end_to_end_metrics(passes: list[dict]) -> dict[str, float]:
    """Medians over passes.  `_ref` figures are task times divided by the
    in-pass reference time (see passrun.py); `_s` figures are raw seconds."""
    def med(per_pass):
        return statistics.median(per_pass(p) for p in passes)

    return {
        "wall_ref": med(lambda p: sum(t["wall_ref"] for t in p["tasks"])),
        "cpu_ref": med(lambda p: sum(t["cpu_ref"] for t in p["tasks"])),
        "max_task_ref": med(lambda p: max(t["wall_ref"] for t in p["tasks"])),
        "setup_s": med(lambda p: p["setup_s"]),
        "peak_rss_mb": med(lambda p: p["peak_rss_mb"]),
    }


def raw_seconds(passes: list[dict]) -> dict[str, float]:
    """The end-to-end times in plain seconds, medians over passes."""
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "max_task_s": statistics.median(max(t["seconds"] for t in p["tasks"])
                                        for p in passes),
        "reference_s": statistics.median(r for p in passes for r in p["reference_s"]),
    }


def layer_metrics(passes: list[dict]) -> dict[str, float]:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    out = {name: statistics.median(p["layers"][name] for p in traced)
           for name in traced[0]["layers"]}
    out["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                               - statistics.median(p["wall_s"] for p in plain))
    return out


def git_commit() -> str:
    """HEAD of the checkout's git repository, read from .git, if any."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tautrings").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_header(args, passes: list[dict], attempted: int, failed: int) -> dict:
    names = [t["name"] for t in passes[0]["tasks"]]
    plain = [p for p in passes if not p["traced"]]
    failures = sorted({f"{t['name']}: {t['error']}" for p in passes
                       for t in p["tasks"] if t["error"]})
    return {
        "benchmark": "tautrings",
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "passes": len(passes),
        "traced_passes": len(passes) - len(plain),
        "failed_ratio": failed / attempted,
        "failures": failures[:20],
        "seconds_median": raw_seconds(plain),
        "task_median_s": {name: statistics.median(p["tasks"][i]["seconds"]
                                                  for p in plain)
                          for i, name in enumerate(names)},
        "spans_file": next((p["spans_file"] for p in passes if p["traced"]), None),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tautrings" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'tautrings'}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    try:
        passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        listed, values = spec["per_layer"], layer_metrics(passes)
    else:
        listed = spec["end_to_end"]
        values = end_to_end_metrics([p for p in passes if not p["traced"]])
    if sorted(values) != sorted(m["name"] for m in listed):
        print("error: measured metrics differ from BENCHMARK.json: "
              f"{sorted(set(values) ^ {m['name'] for m in listed})}", file=sys.stderr)
        return 1

    attempted = sum(len(p["tasks"]) for p in passes)
    failed = sum(1 for p in passes for t in p["tasks"] if t["error"])
    print(json.dumps(run_header(args, passes, attempted, failed)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
