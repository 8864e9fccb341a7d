"""Spans and counters recorded around calls into tautrings.

The tracer wraps functions of the program from the outside: it replaces a
function in every tautrings module (and module-level list) that holds it by
name, so calls made through any of those names pass through the wrapper.
`Tracer.restore` puts every original back.

A span is (name, start, end, parent).  Each boundary also aggregates calls,
inclusive seconds and self seconds (duration minus the time covered by
direct child spans), so the self time of a layer is exact even for the
high-frequency boundaries whose individual spans are not kept.
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("partitions", "linalg", "invariants", "graded", "model", "rings",
          "acceptance", "cli")

# boundaries called once per monomial or per LR triple: aggregated only,
# so that the span list stays small
_AGGREGATE_ONLY = ("partitions.lr_coefficient", "partitions.schur_dim",
                   "graded.apply_derivation")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # (name index, start, end, parent index); a slot is reserved when a
        # span opens so that its children can point to it
        self.spans: list[tuple[int, float, float, int] | None] = []
        # frame: [child seconds, span name, index of nearest kept span]
        self._stack: list[list] = [[0.0, "", -1]]
        self.calls: Counter = Counter()
        self.incl: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self._patched: list[tuple[object, object, object]] = []

    def parent_name(self) -> str:
        """Name of the innermost open span (valid inside an after-hook)."""
        return self._stack[-1][1]

    def span(self, name: str, fn, after=None):
        """Wrap fn in a span; after(tracer, args, result) runs on return."""
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        calls, incl, self_time = self.calls, self.incl, self.self_time
        keep = name not in _AGGREGATE_ONLY
        nid = len(self.names)
        self.names.append(name)

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            idx = parent[2]
            if keep:
                idx = len(spans)
                spans.append(None)
            frame = [0.0, name, idx]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                parent[0] += d
                calls[name] += 1
                incl[name] += d
                self_time[name] += d - frame[0]
                if keep:
                    spans[idx] = (nid, t0, t1, parent[2])
            if after is not None:
                after(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        """Wrap fn so that each call only bumps counts[name]."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, module, attr: str, make_wrapper):
        """Replace module.attr (or module.Class.method) everywhere in
        tautrings by make_wrapper(original)."""
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, make_wrapper(original))
            self._patched.append((cls, meth, original))
            return
        original = getattr(module, attr)
        wrapper = make_wrapper(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "tautrings" and not mod_name.startswith("tautrings."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._patched.append((mod, key, original))
                elif isinstance(value, list):
                    for i, item in enumerate(value):
                        if item is original:
                            value[i] = wrapper
                            self._patched.append((value, i, original))

    def restore(self):
        for owner, key, original in reversed(self._patched):
            if isinstance(owner, list):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patched.clear()


# ---------------------------------------------------------------------------
# the boundaries and the counts taken at them

def _count_eliminate(tr, args, result):
    rows = [r for r in args[0] if r]
    pivots, pivot_rows = result
    c = tr.counts
    c["linalg.eliminate.rows_in"] += len(rows)
    c["linalg.eliminate.nnz_in"] += sum(len(r) for r in rows)
    c["linalg.eliminate.nnz_out"] += sum(len(r) for r in pivot_rows)
    c["linalg.eliminate.pivots"] += len(pivots)
    if len(rows) > c["linalg.eliminate.max_rows"]:
        c["linalg.eliminate.max_rows"] = len(rows)


def _count_weight_words(tr, args, result):
    spec = args[0]
    tr.counts["invariants.weight_words.scanned"] += spec.g ** (spec.k + spec.l)
    tr.counts["invariants.weight_words.kept"] += len(result)


def _count_action_rows(tr, args, result):
    tr.counts["invariants.action_rows.rows"] += len(result)


def _count_monomials_total(tr, args, result):
    tr.counts["graded.monomials_total.monomials"] += len(result)
    parent = tr.parent_name()
    if parent == "graded.monomials_bidegree":
        tr.counts["graded.monomials_bidegree.scanned"] += len(result)
    elif parent == "graded.check_d_squared":
        tr.counts["graded.check_d_squared.monomials"] += len(result)


def _count_monomials_bidegree(tr, args, result):
    tr.counts["graded.monomials_bidegree.kept"] += len(result)
    if tr.parent_name() == "graded.cell_rank":
        tr.counts["graded.cell_rank.cell_dim"] += len(result)


def _count_quotient_dims(tr, args, result):
    tr.counts["graded.quotient_dims.relations"] += len(args[1])


def _count_build_D_dga(tr, args, result):
    tr.counts["model.build_D_dga.generators"] += len(result.gens)


def _ac_cell_dim(spec, p, q, r) -> int:
    """Ambient dimension of the (p, q, r) cell before weight restriction."""
    def count(nletters, size, symmetric):
        if symmetric:
            return math.comb(nletters + size - 1, size) if nletters else int(size == 0)
        return math.comb(nletters, size)

    g = spec.g
    nx = g * (g + 1) // 2 if spec.variant == "A" else g * (g - 1) // 2
    a = spec.variant == "A"
    return (count(nx, p, True) * count(g * spec.dimW, q, a)
            * count(g * spec.dimU, r, not a))


def _count_ac_bruteforce(tr, args, result):
    tr.counts["model.ac_bruteforce.cell_dim"] += _ac_cell_dim(*args[:4])


def _count_presentation_b(tr, args, result):
    pres = result[0]
    tr.counts["rings.presentation_b.generators"] += len(pres.generators)
    tr.counts["rings.presentation_b.killed"] += len(pres.relations)


# (module, attribute, span name, after-hook)
SPANS = [
    ("partitions", "lr_coefficient", "partitions.lr_coefficient", None),
    ("partitions", "schur_dim", "partitions.schur_dim", None),
    ("partitions", "enumerate_partitions", "partitions.enumerate_partitions", None),
    ("linalg", "_eliminate", "linalg.eliminate", _count_eliminate),
    ("linalg", "kernel_basis_columns", "linalg.kernel_basis_columns", None),
    ("linalg", "rank_of_int_rows", "linalg.rank_of_int_rows", None),
    ("linalg", "subspace_equal", "linalg.subspace_equal", None),
    ("linalg", "QMatrix.rank", "linalg.QMatrix.rank", None),
    ("invariants", "_weight_words", "invariants.weight_words", _count_weight_words),
    ("invariants", "_action_rows", "invariants.action_rows", _count_action_rows),
    ("invariants", "sigma_matrix", "invariants.sigma_matrix", None),
    ("invariants", "gl_invariant_basis", "invariants.gl_invariant_basis", None),
    ("invariants", "sl_invariant_basis", "invariants.sl_invariant_basis", None),
    ("invariants", "verify_fundamental_theorems",
     "invariants.verify_fundamental_theorems", None),
    ("graded", "GeneratorSet.monomials_total", "graded.monomials_total",
     _count_monomials_total),
    ("graded", "GeneratorSet.monomials_bidegree", "graded.monomials_bidegree",
     _count_monomials_bidegree),
    ("graded", "BigradedDGA.check_d_squared", "graded.check_d_squared", None),
    ("graded", "BigradedDGA._cell_rank", "graded.cell_rank", None),
    ("graded", "BigradedDGA.cohomology", "graded.cohomology", None),
    ("graded", "apply_derivation", "graded.apply_derivation", None),
    ("graded", "quotient_dims", "graded.quotient_dims", _count_quotient_dims),
    ("graded", "fgca_dims", "graded.fgca_dims", None),
    ("graded", "koszul_cohomology_dims", "graded.koszul_cohomology_dims", None),
    ("model", "build_D_dga", "model.build_D_dga", _count_build_D_dga),
    ("model", "e3_zero_column", "model.e3_zero_column", None),
    ("model", "ac_invariant_dims_bruteforce", "model.ac_bruteforce",
     _count_ac_bruteforce),
    ("model", "ac_invariant_dims_formula", "model.ac_formula", None),
    ("model", "E2Model.sl_invariant_vectors", "model.sl_invariant_vectors", None),
    ("model", "e2_oracle_check", "model.e2_oracle", None),
    ("rings", "_diff_presentation_a", "rings.presentation_a", None),
    ("rings", "_diff_presentation_b", "rings.presentation_b", _count_presentation_b),
    ("rings", "_diff_presentation_c", "rings.presentation_c", None),
    ("rings", "mt_cohomology", "rings.mt_cohomology", None),
    ("rings", "blockdiff_cohomology", "rings.blockdiff_cohomology", None),
    ("rings", "diff_cohomology", "rings.diff_cohomology", None),
    *[("acceptance", f"criterion_{i}", f"acceptance.c{i}", None)
      for i in range(1, 10)],
    ("cli", "main", "cli.main", None),
]

# (module, attribute, counter name): calls counted, not timed, because they
# are too frequent for a span each
COUNTERS = [
    ("graded", "elem_mul", "graded.elem_mul"),
]


def install() -> Tracer:
    """Wrap every boundary; the caller must call restore() on the result."""
    import importlib

    # import every module first, so that each one's by-name imports exist
    # before the scan for them
    modules = {layer: importlib.import_module(f"tautrings.{layer}")
               for layer in LAYERS}
    tr = Tracer()
    try:
        for mod_name, attr, name, after in SPANS:
            tr.patch(modules[mod_name], attr,
                     lambda fn, n=name, a=after: tr.span(n, fn, a))
        for mod_name, attr, name in COUNTERS:
            tr.patch(modules[mod_name], attr, lambda fn, n=name: tr.counter(n, fn))
    except BaseException:
        tr.restore()
        raise
    return tr


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer, lr_cache_info) -> dict[str, float]:
    """Per-layer metrics of one traced pass, by metric name."""
    c, calls, incl, self_time = tr.counts, tr.calls, tr.incl, tr.self_time
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum((v for k, v in self_time.items()
                                    if k.split(".", 1)[0] == layer), 0.0)
    for i in range(1, 10):
        m[f"acceptance.c{i}_s"] = incl[f"acceptance.c{i}"]
    m["cli.main.calls"] = calls["cli.main"]

    for name in ("partitions.lr_coefficient", "partitions.schur_dim"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = incl[name]
    m["partitions.lr_cache.hit_ratio"] = _ratio(
        lr_cache_info.hits, lr_cache_info.hits + lr_cache_info.misses)

    m["linalg.eliminate.calls"] = calls["linalg.eliminate"]
    m["linalg.eliminate.s"] = incl["linalg.eliminate"]
    for k in ("rows_in", "nnz_in", "max_rows", "pivots"):
        m[f"linalg.eliminate.{k}"] = c[f"linalg.eliminate.{k}"]
    m["linalg.eliminate.fill_ratio"] = _ratio(
        c["linalg.eliminate.nnz_out"], c["linalg.eliminate.nnz_in"])
    m["linalg.kernel_backsub.s"] = self_time["linalg.kernel_basis_columns"]

    m["invariants.weight_words.s"] = incl["invariants.weight_words"]
    m["invariants.weight_words.scanned"] = c["invariants.weight_words.scanned"]
    m["invariants.weight_words.kept"] = c["invariants.weight_words.kept"]
    m["invariants.weight_words.kept_ratio"] = _ratio(
        c["invariants.weight_words.kept"], c["invariants.weight_words.scanned"])
    m["invariants.action_rows.s"] = incl["invariants.action_rows"]
    m["invariants.action_rows.rows"] = c["invariants.action_rows.rows"]
    m["invariants.sigma_matrix.s"] = incl["invariants.sigma_matrix"]

    m["graded.monomials_total.calls"] = calls["graded.monomials_total"]
    m["graded.monomials_total.s"] = incl["graded.monomials_total"]
    m["graded.monomials_total.monomials"] = c["graded.monomials_total.monomials"]
    m["graded.monomials_bidegree.kept_ratio"] = _ratio(
        c["graded.monomials_bidegree.kept"], c["graded.monomials_bidegree.scanned"])
    m["graded.check_d_squared.s"] = incl["graded.check_d_squared"]
    m["graded.check_d_squared.monomials"] = c["graded.check_d_squared.monomials"]
    m["graded.cell_rank.calls"] = calls["graded.cell_rank"]
    m["graded.cell_rank.s"] = incl["graded.cell_rank"]
    m["graded.cell_rank.cell_dim"] = c["graded.cell_rank.cell_dim"]
    m["graded.apply_derivation.calls"] = calls["graded.apply_derivation"]
    m["graded.apply_derivation.s"] = incl["graded.apply_derivation"]
    m["graded.elem_mul.calls"] = c["graded.elem_mul"]
    m["graded.quotient_dims.s"] = incl["graded.quotient_dims"]
    m["graded.quotient_dims.relations"] = c["graded.quotient_dims.relations"]
    m["graded.fgca_dims.s"] = incl["graded.fgca_dims"]

    m["model.build_D_dga.s"] = incl["model.build_D_dga"]
    m["model.build_D_dga.generators"] = c["model.build_D_dga.generators"]
    m["model.ac_bruteforce.calls"] = calls["model.ac_bruteforce"]
    m["model.ac_bruteforce.s"] = incl["model.ac_bruteforce"]
    m["model.ac_bruteforce.cell_dim"] = c["model.ac_bruteforce.cell_dim"]
    m["model.ac_formula.s"] = incl["model.ac_formula"]
    m["model.sl_invariant_vectors.s"] = incl["model.sl_invariant_vectors"]
    m["model.e2_oracle.s"] = incl["model.e2_oracle"]

    for p in "abc":
        m[f"rings.presentation_{p}.s"] = incl[f"rings.presentation_{p}"]
    gens = c["rings.presentation_b.generators"]
    m["rings.presentation_b.generators"] = gens
    m["rings.presentation_b.kept_ratio"] = _ratio(
        gens - c["rings.presentation_b.killed"], gens)
    m["rings.mt_cohomology.s"] = incl["rings.mt_cohomology"]
    m["rings.blockdiff_cohomology.s"] = incl["rings.blockdiff_cohomology"]
    return m
