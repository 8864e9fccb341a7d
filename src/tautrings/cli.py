"""Command-line front end.

Every subcommand validates its parameters, runs one computation, and
emits a machine-readable report (JSON by default; csv/text are
projections of the same data).  Exit codes: 0 success, 1 invalid
parameters, 2 internal consistency failure (two independent computations
of the same quantity disagreed).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from fractions import Fraction

from . import acceptance
from .invariants import TensorSpaceSpec, invariant_dim
from .model import (
    ACAlgebraSpec,
    ModelParams,
    OracleMismatch,
    ac_invariant_dims_bruteforce,
    ac_invariant_dims_formula,
    build_spaces,
    e2_oracle_check,
    e3_zero_column,
    gh_target_dims,
    lambda_relations,
    minimal_M,
)
from .partitions import (
    Partition,
    check_cap,
    check_partition_cap,
    enumerate_partitions,
    lr_coefficient,
    schur_dim,
)
from .rings import blockdiff_cohomology, diff_cohomology, mt_cohomology

INT64_MAX = 2**63 - 1

# (dimV, dimW, degree) triples cauchy-check may check; the default 3,3 to
# degree 6 is 63, and 2 000 triples at degree 6 take about 3 s
CAUCHY_CAP = 2_000


def _jsonable(obj):
    """Ints that may not fit in 64 bits become strings; everything nests."""
    if isinstance(obj, int):
        return str(obj) if abs(obj) > INT64_MAX else obj
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _parse_partition(text: str) -> Partition:
    text = text.strip()
    if text in ("-", "0", ""):
        return Partition()
    try:
        parts = [int(t) for t in text.replace(" ", "").split(",")]
        return Partition(parts)
    except ValueError as exc:
        raise ValueError(f"bad partition {text!r}: {exc}") from None


def _emit(report: dict, args) -> None:
    """Write the report in its format, with the interpreter's limit on an
    int's decimal digits (4 300) lifted while its text is built."""
    fmt = getattr(args, "format", "json")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if fmt == "json":
            text = json.dumps(_jsonable(report), indent=2,
                              sort_keys=True) + "\n"
        elif fmt == "csv":
            lines = []
            if "dims" in report:
                lines.append("degree,dim")
                for d, v in enumerate(report["dims"]):
                    lines.append(f"{d},{v}")
            elif "table" in report:
                # cells keyed "(p,q)", in (p, q) order
                lines.append("p,q,dim")
                for cell, v in report["table"].items():
                    lines.append(f"{cell.strip('()')},{v}")
            elif "partitions" in report:
                # parts space-separated; the empty partition is a quoted ""
                lines.append("parts")
                for parts in report["partitions"]:
                    lines.append(" ".join(map(str, parts)) or '""')
            elif "terms" in report:
                lines.append("coeff,monomial")
                for t in report["terms"]:
                    lines.append(f"{t['coeff']},{t['monomial']}")
            elif "criteria" in report:
                lines.append("number,passed")
                for c in report["criteria"]:
                    lines.append(f"{c['number']},{c['passed']}")
            else:
                for k in sorted(report):
                    if k in ("inputs", "provenance"):
                        continue
                    lines.append(f"{k},{report[k]}")
            text = "\n".join(lines) + "\n"
        elif "criteria" in report:
            text = "".join(acceptance.CriterionResult(**c).line() + "\n"
                           for c in report["criteria"])
        else:
            lines = [f"{k} = {report[k]}" for k in sorted(report)
                     if k != "inputs"]
            text = "\n".join(lines) + "\n"
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    out = getattr(args, "output", None)
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_lr(args) -> dict:
    lam = _parse_partition(args.lam)
    mu = _parse_partition(args.mu)
    kappa = _parse_partition(args.kappa)
    return {
        "inputs": {"lam": str(lam), "mu": str(mu), "kappa": str(kappa)},
        "c": lr_coefficient(lam, mu, kappa),
        "provenance": "Littlewood-Richardson coefficient by lattice-word "
                      "skew tableaux",
    }


def _cmd_schur_dim(args) -> dict:
    lam = _parse_partition(args.lam)
    return {
        "inputs": {"lam": str(lam), "g": args.g},
        "dim": schur_dim(lam, args.g),
        "provenance": "Schur functor dimension by hook-content count",
    }


def _cmd_partitions(args) -> dict:
    parts = enumerate_partitions(args.n, args.filter)
    return {
        "inputs": {"n": args.n, "filter": args.filter},
        "count": len(parts),
        "partitions": [list(p.parts) for p in parts],
        "provenance": "partition enumeration with row/column parity filters",
    }


def _cmd_invariants(args) -> dict:
    spec = TensorSpaceSpec(args.k, args.l, args.g)
    return {
        "inputs": {"k": args.k, "l": args.l, "g": args.g,
                   "group": args.group},
        "dim": invariant_dim(spec, args.group),
        "ambient_dim": spec.dim,
        "provenance": "invariants of mixed tensor powers as the kernel of "
                      "the infinitesimal action",
    }


def _cmd_fft_check(args) -> dict:
    rep = acceptance.fundamental_theorems(args.m, args.g)
    return {
        "inputs": {"m": args.m, "g": args.g},
        "rank": rep.rank,
        "surjective": rep.surjective,
        "injective": rep.injective,
        "provenance": "fundamental theorems for tensor invariants of the "
                      "general linear group",
    }


def _int_list(option: str, text: str) -> list[int]:
    """The comma-separated ints of an option's value."""
    try:
        return [int(t) for t in text.split(",")]
    except ValueError:
        raise ValueError(
            f"{option} wants comma-separated ints, got {text!r}") from None


def _cmd_cauchy_check(args) -> dict:
    dims = _int_list("--dims", args.dims)
    if len(dims) != 2 or min(dims) < 1:
        raise ValueError(f"--dims wants two positive ints, got {args.dims!r}")
    if args.maxdeg < 0:
        raise ValueError(f"requires maxdeg >= 0 (got {args.maxdeg})")
    check_partition_cap(2 * args.maxdeg)   # the largest degree's partitions
    checks = dims[0] * dims[1] * (args.maxdeg + 1)
    check_cap("CAUCHY_CAP", CAUCHY_CAP, checks, "--dims {} --maxdeg {}: {} "
              "identity checks", args.dims, args.maxdeg, checks)
    acceptance.cauchy_sweep(dims[0], dims[1], args.maxdeg)
    return {
        "inputs": {"dims": dims, "maxdeg": args.maxdeg},
        "ok": True,
        "provenance": "four Cauchy dimension identities against binomial "
                      "counts",
    }


def _cmd_ac_dims(args) -> dict:
    spec = ACAlgebraSpec(args.variant, args.g, args.dimw, args.dimu)
    if args.mode == "brute":
        r = args.r if args.r is not None else 2 * args.p + args.q
        dim = ac_invariant_dims_bruteforce(spec, args.p, args.q, r,
                                           group=args.group)
    elif args.mode == "formula":
        r = 2 * args.p + args.q
        dim = ac_invariant_dims_formula(spec, args.p, args.q)
    else:
        r = 2 * args.p + args.q
        dim = gh_target_dims(args.dimw, args.dimu, args.p, args.q)
    return {
        "inputs": {"variant": args.variant, "g": args.g, "dimW": args.dimw,
                   "dimU": args.dimu, "p": args.p, "q": args.q, "r": r,
                   "mode": args.mode, "group": args.group},
        "dim": dim,
        "provenance": "invariant dimensions of the trigraded "
                      "symmetric/exterior algebras",
    }


def _read_map_file(path: str) -> tuple[int, int, list[dict[int, int]]]:
    """(rows, cols, each row as a dict column -> int): entries p/q times
    the lcm of their denominators, which changes no rank or cohomology."""
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError(f"map file {path}: needs 'rows cols' header")
    if not (tokens[0].isdecimal() and tokens[1].isdecimal()):
        raise ValueError(
            f"map file {path}: rows and cols must be integers >= 0 "
            f"(got {tokens[0]!r} {tokens[1]!r})")
    rows, cols = int(tokens[0]), int(tokens[1])
    body = tokens[2:]
    if len(body) != rows * cols:
        raise ValueError(
            f"map file {path}: expected {rows * cols} entries, "
            f"got {len(body)}")
    entries = []
    for tok in body:
        try:
            entries.append(Fraction(tok))
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"map file {path}: bad entry {tok!r}") from None
    den = math.lcm(*(v.denominator for v in entries))
    return rows, cols, [
        {j: v.numerator * (den // v.denominator)
         for j, v in enumerate(entries[i * cols:(i + 1) * cols]) if v}
        for i in range(rows)]


def _cmd_koszul(args) -> dict:
    if args.maxdeg < 0:
        raise ValueError(f"requires maxdeg >= 0 (got {args.maxdeg})")
    rows, cols, F = _read_map_file(args.map_file)
    dims, rank = acceptance.koszul_check(F, cols, args.maxdeg)
    return {
        "inputs": {"map_file": args.map_file, "rows": rows,
                   "cols": cols, "maxdeg": args.maxdeg},
        "rank": rank,
        "kernel_dim": cols - rank,
        "cokernel_dim": rows - rank,
        "dims": dims,
        "provenance": "Koszul complex cohomology vs "
                      "exterior(kernel) (x) symmetric(cokernel)",
    }


def _params_from_args(args) -> ModelParams:
    n = args.n
    M = args.M if args.M is not None else minimal_M(n)
    g = args.g if args.g is not None else n - 2
    maxdeg = args.maxdeg if args.maxdeg is not None else n - 3
    return ModelParams(n=n, g=g, M=M, maxdeg=maxdeg)


def _cmd_e3(args) -> dict:
    params = _params_from_args(args)
    col = e3_zero_column(params)
    spaces = build_spaces(params)
    return {
        "inputs": {"n": params.n, "g": params.g, "M": params.M,
                   "maxdeg": params.maxdeg},
        "dims": col,
        "k_generators": [{"name": name, "degree": d} for name, d in spaces.K],
        "provenance": "third-page zero column of the bigraded model vs "
                      "the exterior algebra on K",
    }


def _cmd_oracle_e2(args) -> dict:
    params = _params_from_args(args)
    table = e2_oracle_check(params)
    cells = {f"({p},{q})": v for (p, q), v in sorted(table.items())}
    return {
        "inputs": {"n": params.n, "g": params.g, "M": params.M,
                   "maxdeg": params.maxdeg},
        "table": cells,
        "provenance": "brute-force second page with explicit differential "
                      "vs the bigraded model",
    }


def _ring(dims, generators, provenance: str) -> dict:
    return {
        "dims": list(dims),
        "generators": [{"name": name, "degree": d} for name, d in generators],
        "provenance": provenance,
    }


def _mt_ring(n: int, maxdeg: int) -> dict:
    res = mt_cohomology(n, maxdeg)
    return _ring(res.dims, res.generators, "exterior-generator presentation "
                 "of the Thom-spectrum cohomology")


def _cmd_mt(args) -> dict:
    return {"inputs": {"n": args.n, "maxdeg": args.maxdeg},
            **_mt_ring(args.n, args.maxdeg)}


def _cmd_cohomology(args) -> dict:
    n = args.n
    maxdeg = args.maxdeg
    if args.space == "mt":
        if maxdeg is None:
            raise ValueError("requires --maxdeg for --space mt")
        ring = _mt_ring(n, maxdeg)
    elif args.space == "diff":
        if maxdeg is None:
            maxdeg = max(1, n - 3)
        res = diff_cohomology(n, maxdeg, g=args.g)
        ring = _ring(res.dims, res.basis, "diffeomorphism-group cohomology "
                     "by triple presentation")
    else:
        tangential = args.space == "tangential"
        res = blockdiff_cohomology(n, maxdeg, tangential=tangential)
        maxdeg = res.maxdeg
        ring = _ring(res.dims, res.generators, (
            "tangential-stage cohomology: exterior algebra on K plus "
            "stable generators" if tangential else
            "block-diffeomorphism cohomology: exterior algebra on pair and "
            "stable generators"))
    return {"inputs": {"space": args.space, "n": n, "g": args.g, "M": args.M,
                       "maxdeg": maxdeg},
            **ring}


def _cmd_lambda(args) -> dict:
    params = _params_from_args(args)
    ms = _int_list("--ms", args.ms)
    expr = lambda_relations(params, ms)
    return {
        "inputs": {"n": params.n, "g": params.g, "M": params.M, "ms": ms},
        "expression": str(expr),
        "terms": [{"coeff": str(c), "monomial": s} for c, s in expr.terms()],
        "provenance": "cup products of the lambda-classes",
    }


def _cmd_verify_all(args) -> dict:
    results = acceptance.run_all()
    failed = [res.line() for res in results if not res.passed]
    if failed:
        raise OracleMismatch("; ".join(failed))
    return {"inputs": {},
            "criteria": [dataclasses.asdict(res) for res in results],
            "provenance": "full acceptance suite"}


class _Parser(argparse.ArgumentParser):
    """A usage error exits 1, invalid parameters, as every other does;
    its subcommands' parsers are of this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared after it.

    Each parse_args call starts from a fresh namespace, so reusing the
    parser carries no state from one main() call to the next.  Each
    subcommand's handler is bound here, when the parser is built:
    replacing a cli._cmd_* function after the first call has no effect.
    """
    parser = _Parser(
        prog="tautrings",
        description="Exact computation of tautological cohomology rings.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--output", help="write the report to this path")
        p.add_argument("--format", choices=["json", "csv", "text"],
                       default="json")
        return p

    p = add("lr", _cmd_lr, help="Littlewood-Richardson coefficient")
    p.add_argument("lam")
    p.add_argument("mu")
    p.add_argument("kappa")

    p = add("schur-dim", _cmd_schur_dim, help="Schur functor dimension")
    p.add_argument("lam")
    p.add_argument("g", type=int)

    p = add("partitions", _cmd_partitions, help="enumerate partitions")
    p.add_argument("n", type=int)
    p.add_argument("--filter", choices=["all", "even_rows", "even_cols"],
                   default="all")

    p = add("invariants", _cmd_invariants,
            help="invariant dimensions of mixed tensor powers")
    p.add_argument("k", type=int)
    p.add_argument("l", type=int)
    p.add_argument("g", type=int)
    p.add_argument("--group", choices=["GL", "SL"], default="GL")

    p = add("fft-check", _cmd_fft_check,
            help="verify the fundamental theorems at one (m, g)")
    p.add_argument("m", type=int)
    p.add_argument("g", type=int)

    p = add("cauchy-check", _cmd_cauchy_check,
            help="verify the Cauchy dimension identities")
    p.add_argument("--dims", default="3,3",
                   help="max dims 'dimV,dimW' (default 3,3)")
    p.add_argument("--maxdeg", type=int, default=6)

    p = add("ac-dims", _cmd_ac_dims,
            help="invariant dimension of one trigraded cell")
    p.add_argument("--variant", choices=["A", "C"], required=True)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--dimw", type=int, default=2)
    p.add_argument("--dimu", type=int, default=2)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--mode", choices=["brute", "formula", "target"],
                   default="brute")
    p.add_argument("--group", choices=["GL", "SL"], default="GL")

    p = add("koszul", _cmd_koszul, help="Koszul complex cohomology")
    p.add_argument("--map-file", required=True,
                   help="text matrix: 'rows cols' then row-major entries")
    p.add_argument("--maxdeg", type=int, default=8)

    for name, fn, hlp in [
        ("e3", _cmd_e3, "third-page zero column of the bigraded model"),
        ("oracle-e2", _cmd_oracle_e2,
         "brute-force second-page oracle vs the model"),
    ]:
        p = add(name, fn, help=hlp)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--g", type=int, default=None)
        p.add_argument("--M", type=int, default=None)
        p.add_argument("--maxdeg", type=int, default=None)

    p = add("lambda-product", _cmd_lambda,
            help="cup products of the lambda-classes")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--g", type=int, default=None)
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--maxdeg", type=int, default=None)
    p.add_argument("--ms", required=True,
                   help="comma-separated L-class indices")

    p = add("mt", _cmd_mt, help="Thom-spectrum cohomology ring")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--maxdeg", type=int, required=True)

    p = add("cohomology", _cmd_cohomology,
            help="final cohomology rings by space")
    p.add_argument("--space", choices=["mt", "blockdiff", "diff",
                                       "tangential"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--g", type=int, default=None)
    p.add_argument("--M", type=int, default=None)
    p.add_argument("--maxdeg", type=int, default=None)

    add("verify-all", _cmd_verify_all, help="run the full acceptance suite")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _emit(args.fn(args), args)
    except OracleMismatch as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
