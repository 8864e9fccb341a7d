"""The benchmark's workloads: the tasks each one runs and how each task's
answer is checked.

Every task calls a public entry point of tautrings through its module
attribute (looked up at call time, so that the tracer's wrappers are seen).
A task's `run` is the timed call; `summarize` turns its return value into a
JSON value after the timed region, raising TaskFailed on an answer the
program itself flags as wrong; the summary must then equal `expected`.

Expected values are pinned in expected.json from the program at the commit
that introduced the benchmark, except for koszul-maps, whose maps come from
the seed and whose expected answers the benchmark computes itself.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable

import tautrings.acceptance
import tautrings.cli
import tautrings.invariants
import tautrings.model

HERE = Path(__file__).resolve().parent

with open(HERE / "expected.json") as _fh:
    EXPECTED: dict[str, dict[str, object]] = json.load(_fh)

WORKLOADS = ("verify-all", "model-ladder", "invariants-ladder", "koszul-maps")


class TaskFailed(Exception):
    """A task's answer failed one of the program's own checks."""


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    summarize: Callable[[object], object]
    expected: object


def build(workload: str, seed: int, workdir: Path) -> list[Task]:
    """The tasks of one workload; inputs are written under workdir."""
    if workload == "verify-all":
        return _verify_all()
    if workload == "model-ladder":
        return _model_ladder(workdir / "out" / "model-ladder")
    if workload == "invariants-ladder":
        return _invariants_ladder()
    if workload == "koszul-maps":
        return _koszul_maps(seed, workdir / "maps" / f"seed{seed}",
                            workdir / "out" / "koszul-maps")
    raise ValueError(f"unknown workload {workload!r}")


def _pinned(workload: str, name: str, run, summarize) -> Task:
    return Task(name, run, summarize, EXPECTED[workload][name])


# ---------------------------------------------------------------------------
# verify-all: the nine acceptance criteria in order, as `tautrings
# verify-all` runs them

def _verify_all() -> list[Task]:
    def criterion(i):
        return lambda: tautrings.acceptance.ALL_CRITERIA[i]()

    return [_pinned("verify-all", f"c{i + 1}", criterion(i),
                    lambda res: res.passed)
            for i in range(len(tautrings.acceptance.ALL_CRITERIA))]


# ---------------------------------------------------------------------------
# model-ladder: the paper's tables through the CLI over an n-ladder

E3_NS = (9, 13, 17, 18, 19, 20, 21)
DIFF_NS = (12, 16, 20, 24, 26, 27, 28)
RING_NS = (9, 17, 28)


def _cli_task(workload: str, name: str, argv: list[str], out: Path) -> Task:
    def run():
        return tautrings.cli.main(argv + ["--output", str(out)])

    def summarize(code):
        if code != 0:
            raise TaskFailed(f"exit code {code}")
        with open(out) as fh:
            return json.load(fh)["dims"]

    return _pinned(workload, name, run, summarize)


def _model_ladder(outdir: Path) -> list[Task]:
    outdir.mkdir(parents=True, exist_ok=True)
    argvs = [["e3", "--n", str(n)] for n in E3_NS]
    argvs += [["cohomology", "--space", "diff", "--n", str(n)] for n in DIFF_NS]
    for space in ("blockdiff", "tangential"):
        argvs += [["cohomology", "--space", space, "--n", str(n)]
                  for n in RING_NS]
    argvs += [["mt", "--n", str(n), "--maxdeg", str(n - 3)] for n in RING_NS]
    tasks = []
    for argv in argvs:
        name = " ".join(argv)
        out = outdir / (name.replace(" ", "_").replace("-", "") + ".json")
        tasks.append(_cli_task("model-ladder", name, argv, out))
    return tasks


# ---------------------------------------------------------------------------
# invariants-ladder: the invariant-theory library past criterion 2's range

GL_SPACES = ((3, 3, 2), (3, 3, 3), (3, 3, 4), (4, 4, 2), (4, 4, 3))
SL_SPACES = ((3, 3, 3), (4, 1, 3), (5, 2, 3), (6, 0, 3), (5, 1, 4), (4, 0, 4))
FFT_CASES = ((3, 3), (4, 2), (4, 3), (4, 4))
AC_CELLS = tuple((p, q) for p in range(3) for q in range(5 - 2 * p))
E2_CASES = ((5, 3), (5, 4), (5, 5), (6, 4), (6, 5))


def _invariants_ladder() -> list[Task]:
    inv, mod = tautrings.invariants, tautrings.model
    w = "invariants-ladder"
    tasks = []
    for group, spaces in (("GL", GL_SPACES), ("SL", SL_SPACES)):
        for k, l, g in spaces:
            def run(k=k, l=l, g=g, group=group):
                spec = inv.TensorSpaceSpec(k, l, g)
                if group == "GL":
                    return inv.gl_invariant_basis(spec)
                return inv.sl_invariant_basis(spec)
            tasks.append(_pinned(w, f"{group} T^{k},{l}(Q^{g})", run,
                                 lambda basis: basis.cols))

    def fft_summary(m, g):
        def summarize(rep):
            if not rep.surjective or rep.injective != (m <= g):
                raise TaskFailed(f"fundamental theorems fail: {rep}")
            return rep.rank
        return summarize

    for m, g in FFT_CASES:
        tasks.append(_pinned(w, f"fft m={m} g={g}",
                             lambda m=m, g=g: inv.verify_fundamental_theorems(m, g),
                             fft_summary(m, g)))

    def ac_sweep(variant):
        spec = mod.ACAlgebraSpec(variant, 4, 2, 2)
        return [(mod.ac_invariant_dims_bruteforce(spec, p, q, 2 * p + q),
                 mod.ac_invariant_dims_formula(spec, p, q))
                for p, q in AC_CELLS]

    def ac_summary(pairs):
        if any(brute != formula for brute, formula in pairs):
            raise TaskFailed(f"brute force != LR formula: {pairs}")
        return [brute for brute, _ in pairs]

    for variant in ("A", "C"):
        tasks.append(_pinned(w, f"ac {variant} g=4 W=2 U=2",
                             lambda v=variant: ac_sweep(v), ac_summary))

    for n, g in E2_CASES:
        def run(n=n, g=g):
            params = mod.ModelParams(n=n, g=g, M=mod.minimal_M(n), maxdeg=n - 3)
            return mod.e2_oracle_check(params)
        tasks.append(_pinned(w, f"e2 n={n} g={g}", run,
                             lambda table: {f"{p},{q}": v
                                            for (p, q), v in sorted(table.items())}))
    return tasks


# ---------------------------------------------------------------------------
# koszul-maps: seeded rational maps through `tautrings koszul --map-file`

# (rows, cols, rank); a map is a product of random rows x rank and
# rank x cols factors with nonzero entries p/q, |p|, q <= 9
KOSZUL_SHAPES = ((3, 3, 3), (3, 4, 2), (4, 3, 3), (4, 4, 4), (4, 4, 2),
                 (3, 5, 3), (5, 3, 2), (4, 5, 3))
KOSZUL_MAXDEG = 8


def random_map(rng: random.Random, rows: int, cols: int, rank: int):
    def factor(r, c):
        return [[Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
                 for _ in range(c)] for _ in range(r)]

    a, b = factor(rows, rank), factor(rank, cols)
    return [[sum((a[i][t] * b[t][j] for t in range(rank)), Fraction(0))
             for j in range(cols)] for i in range(rows)]


def map_file_text(matrix) -> str:
    rows, cols = len(matrix), len(matrix[0])
    lines = [f"{rows} {cols}"] + [" ".join(str(v) for v in row) for row in matrix]
    return "\n".join(lines) + "\n"


def rank(matrix) -> int:
    """Rank by Gaussian elimination over Fractions, independent of the
    program's fraction-free sparse elimination."""
    m = [list(row) for row in matrix]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def koszul_model_dims(kernel: int, cokernel: int, maxdeg: int) -> list[int]:
    """Hilbert series of exterior(kernel in degree 1) (x) symmetric(cokernel
    in degree 2), the Koszul cohomology of a linear map."""
    out = []
    for d in range(maxdeg + 1):
        total = 0
        for e in range(min(kernel, d) + 1):
            if (d - e) % 2 == 0:
                s = (d - e) // 2
                total += comb(kernel, e) * (
                    comb(cokernel + s - 1, s) if cokernel else int(s == 0))
        out.append(total)
    return out


def write_maps(seed: int, mapdir: Path) -> list[tuple[Path, list]]:
    """Map files for the seed; the same seed writes byte-identical files."""
    mapdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    out = []
    for i, (rows, cols, r) in enumerate(KOSZUL_SHAPES):
        matrix = random_map(rng, rows, cols, r)
        path = mapdir / f"map{i}_{rows}x{cols}.txt"
        path.write_text(map_file_text(matrix))
        out.append((path, matrix))
    return out


def _koszul_maps(seed: int, mapdir: Path, outdir: Path) -> list[Task]:
    outdir.mkdir(parents=True, exist_ok=True)
    tasks = []
    for path, matrix in write_maps(seed, mapdir):
        out = outdir / f"seed{seed}_{path.stem}.json"
        argv = ["koszul", "--map-file", str(path),
                "--maxdeg", str(KOSZUL_MAXDEG), "--output", str(out)]

        def run(argv=argv):
            return tautrings.cli.main(argv)

        def summarize(code, out=out):
            if code != 0:
                raise TaskFailed(f"exit code {code}")
            with open(out) as fh:
                rep = json.load(fh)
            return [rep["rank"], rep["kernel_dim"], rep["cokernel_dim"], rep["dims"]]

        r = rank(matrix)
        k, c = len(matrix[0]) - r, len(matrix) - r
        expected = [r, k, c, koszul_model_dims(k, c, KOSZUL_MAXDEG)]
        tasks.append(Task(f"koszul {path.stem}", run, summarize, expected))
    return tasks
