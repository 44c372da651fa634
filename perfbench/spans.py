"""Outside-in tracing of jacring's layers.

`Tracer.installed()` replaces each traced function by a wrapper under every
name a jacring module binds it to (for example both `jacring.homology.rank`
and `jacring.linalg.rank`), so the caller's own lookup reaches the wrapper;
leaving the context puts the originals back. Spans are kept in memory as
[name, start, end, parent index, job id, info]; `layer_metrics` turns one
pass of spans into the per-layer metrics. The wrappers only read arguments
and results, so stdout stays byte-identical to an untraced run.
"""
from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter

# layer -> [(module, function, span name)]
TRACED = {
    "cli": [("cli", "main", "cli.main"),
            ("cli", "parse_input", "cli.parse"),
            ("cli", "_emit", "cli.emit")],
    "certify": [("certify", "smooth_ci_certificate", "certify.smooth_ci"),
                ("certify", "no_common_zero_certificate", "certify.ncz"),
                ("certify", "m_primary_certificate", "certify.m_primary"),
                ("certify", "jacobian_minors", "certify.minors"),
                ("certify", "jacobian_determinant", "certify.determinant"),
                ("certify", "ideal_membership", "certify.membership")],
    "quotients": [("quotients", "quotient_slice", "quotients.slice"),
                  ("quotients", "quotient_dim", "quotients.dim"),
                  ("linalg", "rref_rows", "quotients.rref")],
    "hilbert": [("hilbert", "closed_form_H", "hilbert.closed_form"),
                ("hilbert", "hodge_table", "hilbert.hodge_table")],
    "forms": [("forms", "basis", "forms.basis")],
    "homology": [("homology", "boundary_matrix", "homology.assemble"),
                 ("homology", "_boundary_rank", "homology.brank"),
                 ("homology", "cohomology_report", "homology.report"),
                 ("homology", "verify_predictions", "homology.verify"),
                 ("homology", "joint_wedge_kernel", "homology.wedge_kernel"),
                 ("homology", "wedge_division_solve", "homology.wedge_solve")],
    "linalg": [("linalg", "rank", "linalg.rank"),
               ("linalg", "solve", "linalg.solve"),
               ("linalg", "kernel_basis", "linalg.kernel")],
}
LAYER_OF = {span: layer for layer, fns in TRACED.items()
            for _, _, span in fns}


def _rank_info(args, result, _pre):
    mat = args[0]
    if mat.field.kind == "Q":
        engine = "q"
    else:
        limit = sys.modules["jacring.linalg"]._NUMPY_P_LIMIT
        engine = "modp" if mat.field.p < limit else "bigp"
    # rank() returns 0 before densifying a matrix without entries
    return (engine, mat.nrows, mat.ncols, len(mat.entries), result,
            bool(mat.entries))


def _matrix_info(_args, result, _pre):
    return (result.nrows, result.ncols, len(result.entries))


def _rref_info(args, _result, _pre):
    rows = args[0]
    return (len(rows), len(rows[0]) if rows else 0)


def _basis_hit(problem, k, q, p):
    return ("basis", k, q, p) in problem._cache


def _brank_hit(problem, k, q, p):
    # _boundary_rank answers 0 before its cache lookup outside the complex
    if k < 0 or p < 0 or k > problem.n + problem.r:
        return None
    return ("brank", k, q, p) in problem._cache


def _state(_args, _result, state):
    return state


HOOKS = {
    "linalg.rank": (None, _rank_info),
    "homology.assemble": (None, _matrix_info),
    "quotients.rref": (None, _rref_info),
    "forms.basis": (lambda args: _basis_hit(*args), _state),
    "homology.brank": (lambda args: _brank_hit(*args), _state),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.job = None
        self._stack: list = []

    def _wrap(self, name: str, fn):
        pre, post = HOOKS.get(name, (None, None))
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
            state = pre(args) if pre else None
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if post:
                rec[5] = post(args, result, state)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "jacring" or name.startswith("jacring.")]
        patched = []
        try:
            for fns in TRACED.values():
                for mod, fname, span in fns:
                    original = getattr(sys.modules[f"jacring.{mod}"], fname)
                    wrapper = self._wrap(span, original)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is original:
                                setattr(m, attr, wrapper)
                                patched.append((m, attr, original))
            yield self
        finally:
            for m, attr, original in reversed(patched):
                setattr(m, attr, original)


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one pass. `X.s` is the time inside spans of X
    (including what they call), `X.self_s` excludes time in child spans."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _job, _info in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    total: dict = {}
    self_t: dict = {}
    calls: dict = {}
    layer_self = {layer: 0.0 for layer in TRACED}
    for i, (name, t0, t1, parent, _job, _info) in enumerate(spans):
        dur = t1 - t0
        nested = parent >= 0 and spans[parent][0] == name
        if not nested:
            total[name] = total.get(name, 0.0) + dur
        self_t[name] = self_t.get(name, 0.0) + dur - child[i]
        calls[name] = calls.get(name, 0) + 1
        layer_self[LAYER_OF[name]] += dur - child[i]

    def infos(name):
        # a span whose call raised has no info
        return [s[5] for s in spans if s[0] == name and s[5] is not None]

    m = {f"{layer}.self_s": layer_self[layer]
         for layer in ("cli", "certify", "quotients", "homology", "linalg")}

    ranks = infos("linalg.rank")
    for engine in ("q", "modp"):
        mine = [s for s in spans
                if s[0] == "linalg.rank" and s[5] and s[5][0] == engine]
        m[f"rank.{engine}.s"] = sum(s[2] - s[1] for s in mine)
        m[f"rank.{engine}.calls"] = len(mine)
    modp = [r for r in ranks if r[0] == "modp"]
    m["rank.nnz"] = sum(r[3] for r in modp)
    m["rank.dense_bytes"] = sum(r[1] * r[2] * 8 for r in modp if r[5])
    short = sum(min(r[1], r[2]) for r in modp)
    m["rank.pivot_ratio"] = sum(r[4] for r in modp) / short if short else 0.0

    assembled = infos("homology.assemble")
    m["assemble.self_s"] = self_t.get("homology.assemble", 0.0)
    m["assemble.calls"] = calls.get("homology.assemble", 0)
    m["assemble.nnz"] = sum(a[2] for a in assembled)
    m["assemble.cells"] = sum(a[0] * a[1] for a in assembled)

    m["basis.s"] = total.get("forms.basis", 0.0)
    m["basis.hit_ratio"] = _ratio(infos("forms.basis"))
    m["brank.hit_ratio"] = _ratio(infos("homology.brank"))

    m["quotients.slices"] = calls.get("quotients.slice", 0)
    m["quotients.s"] = total.get("quotients.slice", 0.0)
    rrefs = infos("quotients.rref")
    m["rref.s"] = total.get("quotients.rref", 0.0)
    m["rref.cells"] = sum(a * b for a, b in rrefs)

    m["hilbert.s"] = layer_self["hilbert"]
    m["hilbert.closed_form.calls"] = calls.get("hilbert.closed_form", 0)

    m["solve.s"] = total.get("linalg.solve", 0.0)
    m["solve.calls"] = calls.get("linalg.solve", 0)
    m["kernel.s"] = total.get("linalg.kernel", 0.0)
    m["kernel.calls"] = calls.get("linalg.kernel", 0)

    m["verify.self_s"] = self_t.get("homology.verify", 0.0)
    m["cli.parse.s"] = total.get("cli.parse", 0.0)
    return m


def _ratio(hits: list) -> float:
    """Share of cache lookups that hit."""
    return sum(hits) / len(hits) if hits else 0.0
