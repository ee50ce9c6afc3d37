"""Span tracing of the bellkron layers from outside the package.

``Tracer.install`` replaces every public function of every ``bellkron``
module at every binding (modules import each other's names directly, so a
function is reachable under several module globals) with a wrapper that
records one span per call: name, layer, start, end, parent span and the id
of the request it belongs to.  ``PolyFn.differentiate`` and
``PolyFn.evaluate`` run tens of thousands of times per jet and get counters
only.  Spans stay in memory; ``dump`` writes them out when the run ends.
``uninstall`` restores the original bindings.

A layer is the module that defines a function.  Private helpers are not
wrapped, so their time counts as self time of the public caller's layer:
``cli._emit`` (report emission) and the ``cli._suite_*`` verify bodies are
``cli`` self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
from time import perf_counter

import numpy as np

LAYERS = ("cli", "normal_moments", "faa_di_bruno", "bell_poly", "matrix_calculus",
          "kron_ops", "partitions", "verification")
HOT_METHODS = (("matrix_calculus", "PolyFn", "differentiate"),
               ("matrix_calculus", "PolyFn", "evaluate"))
KRON_FAMILY = frozenset({"kron_ops.kron", "kron_ops.kron_chain", "kron_ops.kron_power"})
SYMMETRIZERS = frozenset({"kron_ops.symmetrize_rows", "kron_ops.symmetrize_matrix_columns"})
JET_BUILDERS = frozenset({"matrix_calculus.poly_jet", "matrix_calculus.exp_scalar_jet",
                          "matrix_calculus.finite_diff_jet"})
BELL_TERMS = frozenset({"bell_poly.bell_multivariate", "bell_poly.base_polynomial"})

# Span tuple fields.
ID, REQ, NAME, LAYER, START, END, PARENT, SIG, ENTRIES = range(9)


def _entries(result) -> int:
    """Entries of an array-like result; Bell index lists count their length."""
    if isinstance(result, np.ndarray):
        return int(result.size)
    if isinstance(result, list):
        return len(result)
    for attr in ("data", "matrix"):
        value = getattr(result, attr, None)
        if isinstance(value, np.ndarray):
            return int(value.size)
    mats = getattr(result, "matrices", None)
    if isinstance(mats, tuple):
        return sum(int(m.size) for m in mats)
    return 0


def _signature(args) -> str:
    """Shape of a call: integers, Gaussian dims, map dims; arrays omitted."""
    parts = []
    for a in args:
        if isinstance(a, bool):
            continue
        if isinstance(a, int):
            parts.append(str(a))
        elif hasattr(a, "cov") and hasattr(a, "dim"):
            parts.append(f"d{a.dim}")
        elif hasattr(a, "n_x") and hasattr(a, "n_y"):
            parts.append(f"{a.n_x}x{a.n_y}")
    return ",".join(parts)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counters: dict[str, int] = {}
        self.request = None
        self._stack: list[int] = []
        self._saved: list = []

    def install(self) -> None:
        wrappers = {}
        bindings = [importlib.import_module(f"bellkron.{layer}") for layer in LAYERS]
        bindings.append(importlib.import_module("bellkron"))
        for binding in bindings:
            for name, obj in list(vars(binding).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                package, _, layer = obj.__module__.rpartition(".")
                if package != "bellkron" or layer not in LAYERS:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._span_wrapper(obj, layer)
                self._saved.append((binding, name, obj))
                setattr(binding, name, wrappers[obj])
        for layer, cls_name, meth in HOT_METHODS:
            cls = getattr(importlib.import_module(f"bellkron.{layer}"), cls_name)
            original = cls.__dict__[meth]
            self._saved.append((cls, meth, original))
            setattr(cls, meth, self._count_wrapper(original, f"{layer}.{meth}_calls"))

    def uninstall(self) -> None:
        while self._saved:
            target, name, original = self._saved.pop()
            setattr(target, name, original)

    def _span_wrapper(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[span_id] = (span_id, self.request, name, layer, start, end,
                                  parent, _signature(args), _entries(result))

        return wrapper

    def _count_wrapper(self, fn, counter: str):
        counters = self.counters
        counters.setdefault(counter, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path: str) -> None:
        keys = ("id", "request", "name", "layer", "start", "end", "parent", "sig", "entries")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part of it that child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s[PARENT], []).append(s)
    out = []
    for s in spans:
        covered, reach = 0.0, s[START]
        for c in sorted(children.get(s[ID], ()), key=lambda c: c[START]):
            lo, hi = max(c[START], reach), min(c[END], s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s[END] - s[START]) - covered)
    return out


def layer_metrics(spans, counters: dict, cycles: int) -> dict[str, float]:
    """Per-layer metrics per traced cycle (spans of all traced cycles)."""
    per = 1.0 / cycles
    selfs = self_times(spans)
    by_id = {s[ID]: s for s in spans}
    m: dict[str, float] = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = 0.0
        m[f"{layer}.calls"] = 0.0
    kron_entries = sym_entries = bell_entries = jet_entries = indices = 0
    sym_s = jet_s = 0.0
    kron_peak = bell_peak = 0
    for s, own in zip(spans, selfs):
        name, entries = s[NAME], s[ENTRIES]
        m[f"{s[LAYER]}.self_s"] += own * per
        m[f"{s[LAYER]}.calls"] += per
        if name in KRON_FAMILY:
            parent = by_id.get(s[PARENT])
            if parent is None or parent[NAME] not in KRON_FAMILY:
                kron_entries += entries
        if s[LAYER] == "kron_ops" and name not in SYMMETRIZERS:
            kron_peak = max(kron_peak, entries)
        if name in SYMMETRIZERS:
            sym_entries += entries
            sym_s += s[END] - s[START]
        if name == "bell_poly.bell_multivariate":
            bell_entries += entries
        if name in BELL_TERMS:
            bell_peak = max(bell_peak, entries)
        if name in JET_BUILDERS:
            jet_entries += entries
        if name == "matrix_calculus.poly_jet":
            jet_s += s[END] - s[START]
        if name == "partitions.enumerate_bell_indices":
            indices += entries
    m["kron_ops.kron_entries"] = kron_entries * per
    m["kron_ops.kron_bytes_computed"] = 8 * kron_entries * per
    m["kron_ops.peak_entries"] = float(kron_peak)
    m["kron_ops.symmetrize_s"] = sym_s * per
    m["kron_ops.symmetrized_entries"] = sym_entries * per
    m["bell_poly.bell_entries"] = bell_entries * per
    m["bell_poly.peak_entries"] = float(bell_peak)
    m["matrix_calculus.poly_jet_s"] = jet_s * per
    m["matrix_calculus.differentiate_calls"] = \
        counters.get("matrix_calculus.differentiate_calls", 0) * per
    m["matrix_calculus.evaluate_calls"] = counters.get("matrix_calculus.evaluate_calls", 0) * per
    m["matrix_calculus.jet_entries"] = jet_entries * per
    m["partitions.bell_indices"] = indices * per
    return m


def function_table(spans) -> list[tuple]:
    """(name, call signature, span count, total s, median s), by total time."""
    groups: dict[tuple, list[float]] = {}
    for s in spans:
        groups.setdefault((s[NAME], s[SIG]), []).append(s[END] - s[START])
    rows = [(name, sig, len(d), sum(d), statistics.median(d))
            for (name, sig), d in groups.items()]
    rows.sort(key=lambda r: -r[3])
    return rows
