"""Command-line front end.

Every subcommand validates its parameters, runs one computation, and
emits a machine-readable report (JSON by default; csv/text are
projections of the same data).  Exit codes: 0 success, 1 invalid
parameters, 2 internal consistency failure (two independent computations
of the same quantity disagreed).

Each subcommand is declared once, in COMMANDS.  A call that names one is
parsed by that subcommand's parser alone (`command_parser`); the full
parser (`build_parser`), whose 14 subparsers take most of a first call's
time to build, is built from the same table only for --help, a missing or
unknown name, and arguments the subcommand cannot place, which argparse
reports from the top level.  Both print the same help, usage and errors.
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
from .invariants import TensorSpaceSpec
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
    check_agree,
    check_cap,
    check_partition_cap,
    enumerate_partitions,
    lr_coefficient,
    schur_dim,
    weyl_dim,
    whole_ints,
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
    with whole_ints():
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
    dim = schur_dim(lam, args.g)
    check_agree("Schur functor dimension", f"lam={lam}, g={args.g}",
                ("hook-content", dim), ("Weyl", weyl_dim(lam, args.g)))
    return {
        "inputs": {"lam": str(lam), "g": args.g},
        "dim": dim,
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
        "dim": acceptance.invariant_count(spec, args.group),
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


def _arg(*flags, **kwargs):
    """One add_argument call of a subcommand's parser."""
    return flags, kwargs


_MODEL_ARGS = (_arg("--n", type=int, required=True), _arg("--g", type=int),
               _arg("--M", type=int), _arg("--maxdeg", type=int))

# Every subcommand once, in the order `tautrings --help` lists them: its
# handler, its help line and its arguments past --output and --format.
COMMANDS = {
    "lr": (_cmd_lr, "Littlewood-Richardson coefficient",
           (_arg("lam"), _arg("mu"), _arg("kappa"))),
    "schur-dim": (_cmd_schur_dim, "Schur functor dimension",
                  (_arg("lam"), _arg("g", type=int))),
    "partitions": (_cmd_partitions, "enumerate partitions", (
        _arg("n", type=int),
        _arg("--filter", choices=["all", "even_rows", "even_cols"],
             default="all"))),
    "invariants": (_cmd_invariants,
                   "invariant dimensions of mixed tensor powers", (
        _arg("k", type=int), _arg("l", type=int), _arg("g", type=int),
        _arg("--group", choices=["GL", "SL"], default="GL"))),
    "fft-check": (_cmd_fft_check,
                  "verify the fundamental theorems at one (m, g)",
                  (_arg("m", type=int), _arg("g", type=int))),
    "cauchy-check": (_cmd_cauchy_check,
                     "verify the Cauchy dimension identities", (
        _arg("--dims", default="3,3",
             help="max dims 'dimV,dimW' (default 3,3)"),
        _arg("--maxdeg", type=int, default=6))),
    "ac-dims": (_cmd_ac_dims, "invariant dimension of one trigraded cell", (
        _arg("--variant", choices=["A", "C"], required=True),
        _arg("--g", type=int, required=True),
        _arg("--dimw", type=int, default=2),
        _arg("--dimu", type=int, default=2),
        _arg("--p", type=int, required=True),
        _arg("--q", type=int, required=True),
        _arg("--r", type=int),
        _arg("--mode", choices=["brute", "formula", "target"],
             default="brute"),
        _arg("--group", choices=["GL", "SL"], default="GL"))),
    "koszul": (_cmd_koszul, "Koszul complex cohomology", (
        _arg("--map-file", required=True,
             help="text matrix: 'rows cols' then row-major entries"),
        _arg("--maxdeg", type=int, default=8))),
    "e3": (_cmd_e3, "third-page zero column of the bigraded model",
           _MODEL_ARGS),
    "oracle-e2": (_cmd_oracle_e2,
                  "brute-force second-page oracle vs the model", _MODEL_ARGS),
    "lambda-product": (_cmd_lambda, "cup products of the lambda-classes", (
        *_MODEL_ARGS,
        _arg("--ms", required=True, help="comma-separated L-class indices"))),
    "mt": (_cmd_mt, "Thom-spectrum cohomology ring", (
        _arg("--n", type=int, required=True),
        _arg("--maxdeg", type=int, required=True))),
    "cohomology": (_cmd_cohomology, "final cohomology rings by space", (
        _arg("--space", choices=["mt", "blockdiff", "diff", "tangential"],
             required=True),
        *_MODEL_ARGS)),
    "verify-all": (_cmd_verify_all, "run the full acceptance suite", ()),
}


class _Parser(argparse.ArgumentParser):
    """A usage error exits 1, invalid parameters, as every other does;
    its subcommands' parsers are of this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_arguments(parser: _Parser, name: str) -> _Parser:
    """Give parser subcommand name's handler and arguments."""
    fn, _, arguments = COMMANDS[name]
    parser.set_defaults(fn=fn)
    parser.add_argument("--output", help="write the report to this path")
    parser.add_argument("--format", choices=["json", "csv", "text"],
                        default="json")
    for flags, kwargs in arguments:
        parser.add_argument(*flags, **kwargs)
    return parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's full parser, with a subparser per subcommand, built on
    the first call and shared after it.

    Each parse_args call starts from a fresh namespace, so reusing the
    parser carries no state from one main() call to the next.  Each
    subcommand's handler is the one in COMMANDS, bound at import.
    """
    parser = _Parser(
        prog="tautrings",
        description="Exact computation of tautological cohomology rings.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, hlp, _) in COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=hlp), name)
    return parser


@functools.cache
def command_parser(name: str) -> argparse.ArgumentParser:
    """Subcommand name's parser alone, built on the first call and shared
    after it: the parser the full one hands name's arguments to, with the
    same prog, so its help, usage and errors read the same."""
    return _add_arguments(_Parser(prog=f"tautrings {name}"), name)


def main(argv=None) -> int:
    """Run one subcommand.  A call that names one parses with its parser
    alone; the full parser is built only for anything else (--help, no
    arguments, an unknown name) and for arguments the subcommand does not
    know, which argparse reports from the top level."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in COMMANDS:
        args, extras = command_parser(argv[0]).parse_known_args(argv[1:])
        if extras:
            args = build_parser().parse_args(argv)
    else:
        args = build_parser().parse_args(argv)
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
