"""In-memory spans around the public entry points of each limcone layer.

The tracer patches module attributes from outside the package: nothing
under src/ is edited.  A span records its name, start, end, parent span
and operation id; spans stay in a list until the run writes them out.
Importing this module imports no numpy and no limcone, so the traced
traced CLI entry script can time `import limcone.cli` itself.
"""

import importlib
import time
from contextlib import contextmanager

# (module, attribute, span name).  A name bound in several modules is
# patched in each, because callers look it up where they imported it.
ATTACH_POINTS = [
    ("words", "class_level_arrays", "words.class_level_arrays"),
    ("words", "word_level_array", "words.word_level_array"),
    ("bulk", "batched_cartan", "spectra.batched_cartan"),
    ("bulk", "batched_jordan", "spectra.batched_jordan"),
    # the CLI `spectra` subcommand imports the kernels from spectra at call time
    ("spectra", "batched_cartan", "spectra.batched_cartan"),
    ("spectra", "batched_jordan", "spectra.batched_jordan"),
    ("bulk", "class_spectra", "bulk.class_spectra"),
    ("bulk", "element_spectra", "bulk.element_spectra"),
    ("counting", "class_spectra", "bulk.class_spectra"),
    ("counting", "element_spectra", "bulk.element_spectra"),
    ("pressure", "class_spectra", "bulk.class_spectra"),
    ("growth", "class_spectra", "bulk.class_spectra"),
    ("pressure", "pressure_root", "pressure.pressure_root"),
    ("growth", "pressure_root", "pressure.pressure_root"),
    ("growth", "gibbs_direction", "pressure.gibbs_direction"),
    ("pressure", "pressure_table", "pressure.pressure_table"),
    ("growth", "limit_cone", "counting.limit_cone"),
    ("counting", "limit_cone", "counting.limit_cone"),
    ("counting", "asymptotic_cone", "counting.asymptotic_cone"),
    ("counting", "critical_exponent_direct", "counting.critical_exponent_direct"),
    ("counting", "growth_indicator_direct", "counting.growth_indicator_direct"),
    ("growth", "boundary_curve", "growth.boundary_curve"),
    ("growth", "psi_from_duality", "growth.psi_from_duality"),
    ("growth", "growth_form", "growth.growth_form"),
    ("growth", "concavity_audit", "growth.concavity_audit"),
]

# span name -> per-layer self-time metric
SELF_TIME_METRIC = {
    "words.class_level_arrays": "words.enum_s",
    "words.word_level_array": "words.enum_s",
    "bulk.class_spectra": "bulk.class_s",
    "bulk.element_spectra": "bulk.element_s",
    "spectra.batched_jordan": "spectra.jordan_s",
    "spectra.batched_cartan": "spectra.cartan_s",
    "pressure.pressure_root": "pressure.root_s",
    "pressure.gibbs_direction": "pressure.gibbs_s",
    "pressure.pressure_table": "pressure.table_s",
    "growth.boundary_curve": "growth.boundary_s",
    "growth.psi_from_duality": "growth.psi_s",
    "growth.growth_form": "growth.form_s",
    "growth.concavity_audit": "growth.audit_s",
    "counting.limit_cone": "counting.cone_s",
    "counting.asymptotic_cone": "counting.cone_s",
    "counting.critical_exponent_direct": "counting.exponent_s",
    "counting.growth_indicator_direct": "counting.indicator_s",
    "cli.import": "cli.import_s",
    "cli.main": "cli.self_s",
    "op": "op.unattributed_s",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "info")

    def __init__(self, name, start, parent, op):
        self.name, self.start, self.end = name, start, None
        self.parent, self.op, self.info = parent, op, {}

    def to_dict(self):
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op, "info": self.info}


class Tracer:
    """Single-threaded span recorder; parents come from a call stack."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), parent, self.op)
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def adopt(self, child_spans):
        """Append another process's spans (dicts, parents as indices into
        child_spans) under the currently open span."""
        parent = self._stack[-1] if self._stack else None
        base = len(self.spans)
        for s in child_spans:
            p = parent if s["parent"] is None else base + s["parent"]
            rec = Span(s["name"], s["start"], p, self.op)
            rec.end, rec.info = s["end"], s["info"]
            self.spans.append(rec)

    def _wrap(self, name, fn):
        note = _NOTES.get(name)

        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                if name == "pressure.pressure_root":
                    # same arguments, same value; exposes the fallback flag
                    detail = self._root_detail(*args, **kwargs)
                    rec.info["fallback"] = bool(detail.fallback)
                    return detail.value
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    if name == "growth.boundary_curve":
                        note(rec, args, kwargs, ())      # every direction wasted
                    raise
                if note is not None:
                    note(rec, args, kwargs, result)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        """Patch every attach point; undo with uninstall()."""
        if self._saved:
            return
        pressure = importlib.import_module("limcone.pressure")
        self._root_detail = pressure.pressure_root_detail
        for mod_name, attr, span_name in ATTACH_POINTS:
            mod = importlib.import_module("limcone." + mod_name)
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(span_name, orig))

    def uninstall(self):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved = []


def _note_level(rec, args, kwargs, result):
    k, n = args[0], args[1]
    rows = len(result[0]) if isinstance(result, tuple) else len(result)
    rec.info.update(k=int(k), n=int(n), rows=int(rows))


def _note_kernel(rec, args, kwargs, result):
    rec.info["matrices"] = int(args[0].shape[0])


def _note_bulk(rec, args, kwargs, result):
    rec.info["dim"] = int(args[0].dim)


def _note_boundary(rec, args, kwargs, result):
    rep = args[0]
    res = kwargs.get("resolution", args[1] if len(args) > 1 else 16)
    rec.info.update(attempted=1 if rep.dim == 2 else int(res), traced=len(result))


def _note_exponent(rec, args, kwargs, result):
    rec.info["degenerate"] = result.value == 0.0


def _note_psi(rec, args, kwargs, result):
    rec.info["finite"] = isinstance(result, float)


_NOTES = {
    "words.class_level_arrays": _note_level,
    "words.word_level_array": _note_level,
    "spectra.batched_cartan": _note_kernel,
    "spectra.batched_jordan": _note_kernel,
    "bulk.class_spectra": _note_bulk,
    "bulk.element_spectra": _note_bulk,
    "growth.boundary_curve": _note_boundary,
    "growth.psi_from_duality": _note_psi,
    "counting.critical_exponent_direct": _note_exponent,
}


# ---------------------------------------------------------------------------
# per-layer aggregation
# ---------------------------------------------------------------------------

def self_times(spans):
    """Duration of each span minus the time its child spans cover.

    Spans of one process are nested and sequential (threads=1), so the
    covered time is the sum of the direct children's durations.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def layer_metrics(spans, op_ids):
    """Per-operation means of self times and counts over the given ops."""
    ops = set(op_ids)
    n_ops = len(ops)
    selfs = self_times(spans)
    acc = {m: 0.0 for m in set(SELF_TIME_METRIC.values())}
    cnt = {"words.words": 0, "words.classes": 0, "bulk.products": 0,
           "bulk.stack_mb_computed": 0.0, "spectra.matrices": 0, "pressure.roots": 0,
           "pressure.fallbacks": 0, "growth.directions": 0, "growth.traced": 0,
           "growth.psi_calls": 0, "growth.psi_finite": 0, "counting.exponents": 0,
           "counting.degenerate": 0}
    levels_per_op = {}
    bulk_levels = {}
    for i, (s, st) in enumerate(zip(spans, selfs)):
        if s["op"] not in ops:
            continue
        acc[SELF_TIME_METRIC[s["name"]]] += st
        name, info = s["name"], s["info"]
        if name.startswith("words."):
            key = ("w" if name.endswith("word_level_array") else "c", info["k"], info["n"])
            levels_per_op.setdefault(s["op"], {})[key] = info["rows"]
            top = _enclosing(spans, i, "bulk.")
            if top is not None:
                bulk_levels.setdefault(top, {})[key] = info["rows"]
        elif name.startswith("spectra."):
            cnt["spectra.matrices"] += info["matrices"]
        elif name == "pressure.pressure_root":
            cnt["pressure.roots"] += 1
            cnt["pressure.fallbacks"] += info.get("fallback", False)
        elif name == "growth.boundary_curve" and "attempted" in info:
            cnt["growth.directions"] += info["attempted"]
            cnt["growth.traced"] += info["traced"]
        elif name == "counting.critical_exponent_direct" and "degenerate" in info:
            cnt["counting.exponents"] += 1
            cnt["counting.degenerate"] += info["degenerate"]
        elif name == "growth.psi_from_duality":
            cnt["growth.psi_calls"] += 1
            cnt["growth.psi_finite"] += info.get("finite", False)
    for levels in levels_per_op.values():
        cnt["words.words"] += sum(r for (kind, _, _), r in levels.items() if kind == "w")
        cnt["words.classes"] += sum(r for (kind, _, _), r in levels.items() if kind == "c")
    for top, levels in bulk_levels.items():
        products = sum(levels.values())
        cnt["bulk.products"] += products
        d = spans[top]["info"].get("dim", 0)
        cnt["bulk.stack_mb_computed"] += products * 2 * d * d * 8 / 1e6
    out = {m: v / n_ops for m, v in acc.items()}
    for m in ("words.words", "words.classes", "bulk.products", "spectra.matrices",
              "pressure.roots", "growth.directions"):
        out[m] = cnt[m] / n_ops
    out["bulk.stack_mb_computed"] = cnt["bulk.stack_mb_computed"] / n_ops
    kernel_s = out["spectra.jordan_s"] + out["spectra.cartan_s"]
    out["spectra.ns_per_matrix"] = (
        1e9 * kernel_s / out["spectra.matrices"] if cnt["spectra.matrices"] else 0.0)
    out["pressure.fallback_ratio"] = (
        cnt["pressure.fallbacks"] / cnt["pressure.roots"] if cnt["pressure.roots"] else 0.0)
    out["growth.traced_ratio"] = (
        cnt["growth.traced"] / cnt["growth.directions"] if cnt["growth.directions"] else 0.0)
    out["growth.psi_finite_ratio"] = (
        cnt["growth.psi_finite"] / cnt["growth.psi_calls"] if cnt["growth.psi_calls"] else 0.0)
    out["counting.degenerate_ratio"] = (
        cnt["counting.degenerate"] / cnt["counting.exponents"] if cnt["counting.exponents"] else 0.0)
    return out


def _enclosing(spans, i, prefix):
    """Index of the outermost ancestor whose name starts with prefix."""
    found = None
    p = spans[i]["parent"]
    while p is not None:
        if spans[p]["name"].startswith(prefix):
            found = p
        p = spans[p]["parent"]
    return found
