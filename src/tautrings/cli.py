"""Command-line front end.

Every subcommand validates its parameters, runs one computation, and
emits a machine-readable report (JSON by default; csv/text are
projections of the same data).  Exit codes: 0 success, 1 invalid
parameters, 2 internal consistency failure (two independent computations
of the same quantity disagreed).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import acceptance
from .graded import kernel_cokernel_dims, koszul_cohomology_dims
from .invariants import (
    TensorSpaceSpec,
    gl_invariant_basis,
    sl_invariant_basis,
    verify_fundamental_theorems,
)
from .linalg import QMatrix
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
from .partitions import Partition, enumerate_partitions, lr_coefficient, schur_dim
from .rings import blockdiff_cohomology, diff_cohomology, mt_cohomology

INT64_MAX = 2**63 - 1


def _jsonable(obj):
    """Ints that may not fit in 64 bits become strings; everything nests."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) > INT64_MAX else obj
    if isinstance(obj, Fraction):
        return str(obj)
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
    fmt = getattr(args, "format", "json")
    if fmt == "json":
        text = json.dumps(_jsonable(report), indent=2, sort_keys=True) + "\n"
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
        else:
            for k in sorted(report):
                if k in ("inputs", "provenance"):
                    continue
                lines.append(f"{k},{report[k]}")
        text = "\n".join(lines) + "\n"
    else:
        lines = [f"{k} = {report[k]}" for k in sorted(report)
                 if k != "inputs"]
        text = "\n".join(lines) + "\n"
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
    basis = (gl_invariant_basis(spec) if args.group == "GL"
             else sl_invariant_basis(spec))
    return {
        "inputs": {"k": args.k, "l": args.l, "g": args.g,
                   "group": args.group},
        "dim": basis.cols,
        "ambient_dim": spec.dim,
        "provenance": "invariants of mixed tensor powers as the kernel of "
                      "the infinitesimal action",
    }


def _cmd_fft_check(args) -> dict:
    rep = verify_fundamental_theorems(args.m, args.g)
    report = {
        "inputs": {"m": args.m, "g": args.g},
        "rank": rep.rank,
        "surjective": rep.surjective,
        "injective": rep.injective,
        "provenance": "fundamental theorems for tensor invariants of the "
                      "general linear group",
    }
    if not rep.surjective:
        raise OracleMismatch(
            f"permutation tensors fail to span the invariants at "
            f"m={args.m}, g={args.g}")
    return report


def _cmd_cauchy_check(args) -> dict:
    dims = [int(t) for t in args.dims.split(",")]
    if len(dims) != 2 or min(dims) < 1:
        raise ValueError(f"--dims wants two positive ints, got {args.dims!r}")
    for dv in range(1, dims[0] + 1):
        for dw in range(1, dims[1] + 1):
            for d in range(0, args.maxdeg + 1):
                ok, which = acceptance.cauchy_identities(dv, dw, d)
                if not ok:
                    raise OracleMismatch(
                        f"Cauchy identity {which} fails at dims "
                        f"({dv},{dw}), degree {d}")
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


def _read_map_file(path: str) -> QMatrix:
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError(f"map file {path}: needs 'rows cols' header")
    rows, cols = int(tokens[0]), int(tokens[1])
    body = tokens[2:]
    if len(body) != rows * cols:
        raise ValueError(
            f"map file {path}: expected {rows * cols} entries, "
            f"got {len(body)}")
    entries = {}
    for idx, tok in enumerate(body):
        v = Fraction(tok)
        if v:
            entries[(idx // cols, idx % cols)] = v
    return QMatrix(rows, cols, entries)


def _cmd_koszul(args) -> dict:
    F = _read_map_file(args.map_file)
    dims = koszul_cohomology_dims(F, args.maxdeg)
    rank = F.rank()
    kdim, cdim = F.cols - rank, F.rows - rank
    expected = kernel_cokernel_dims(kdim, cdim, args.maxdeg)
    if dims != expected:
        raise OracleMismatch(
            f"Koszul cohomology {dims} differs from the kernel/cokernel "
            f"model {expected}")
    return {
        "inputs": {"map_file": args.map_file, "rows": F.rows,
                   "cols": F.cols, "maxdeg": args.maxdeg},
        "rank": rank,
        "kernel_dim": kdim,
        "cokernel_dim": cdim,
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
    col = e3_zero_column(params, check_k=True)
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


def _cmd_mt(args) -> dict:
    res = mt_cohomology(args.n, args.maxdeg)
    return {
        "inputs": {"n": args.n, "maxdeg": args.maxdeg},
        "dims": list(res.dims),
        "generators": [{"name": name, "degree": d}
                       for name, d in res.generators],
        "provenance": "exterior-generator presentation of the "
                      "Thom-spectrum cohomology",
    }


def _cmd_cohomology(args) -> dict:
    n = args.n
    maxdeg = args.maxdeg
    if args.space == "mt":
        if maxdeg is None:
            raise ValueError("requires --maxdeg for --space mt")
        res = mt_cohomology(n, maxdeg)
        gens = res.generators
        dims = list(res.dims)
        prov = "Thom-spectrum cohomology ring"
    elif args.space == "diff":
        if maxdeg is None:
            maxdeg = max(1, n - 3)
        res = diff_cohomology(n, maxdeg, g=args.g)
        gens = res.basis
        dims = list(res.dims)
        prov = "diffeomorphism-group cohomology by triple presentation"
    elif args.space == "blockdiff":
        res = blockdiff_cohomology(n, maxdeg, tangential=False)
        gens = res.generators
        dims = list(res.dims)
        maxdeg = res.maxdeg
        prov = "block-diffeomorphism cohomology: exterior algebra on "\
               "pair and stable generators"
    else:
        res = blockdiff_cohomology(n, maxdeg, tangential=True)
        gens = res.generators
        dims = list(res.dims)
        maxdeg = res.maxdeg
        prov = "tangential-stage cohomology: exterior algebra on K plus "\
               "stable generators"
    return {
        "inputs": {"space": args.space, "n": n, "g": args.g, "M": args.M,
                   "maxdeg": maxdeg},
        "dims": dims,
        "generators": [{"name": name, "degree": d} for name, d in gens],
        "provenance": prov,
    }


def _cmd_lambda(args) -> dict:
    params = _params_from_args(args)
    ms = [int(t) for t in args.ms.split(",")]
    expr = lambda_relations(params, ms)
    return {
        "inputs": {"n": params.n, "g": params.g, "M": params.M, "ms": ms},
        "expression": str(expr),
        "terms": [{"coeff": str(c), "monomial": s} for c, s in expr.terms()],
        "provenance": "cup products of the lambda-classes",
    }


def _cmd_verify_all(args) -> dict:
    lines = []
    ok = acceptance.run_all(report=lines.append)
    for line in lines:
        print(line)
    if not ok:
        raise OracleMismatch("acceptance suite failed")
    return {"inputs": {}, "ok": True, "criteria": len(lines),
            "provenance": "full acceptance suite"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        report = args.fn(args)
    except OracleMismatch as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(report, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
