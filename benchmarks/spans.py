"""Spans around the library's public functions, recorded from outside.

``Tracer.install`` wraps every public function of the traced layers and
rebinds the wrapper wherever the original is looked up: in its own
module, in every torsionworks module that imported it by name (``glue``
binds ``torsion_of``, ``complexes`` binds ``adjoint_matrix``) and in the
package namespace.  It also counts the numpy factorizations the layers
call through ``numpy.linalg``.  Nothing is recorded outside an
operation, so set-up and the benchmark's own checks leave no trace.

A span is (name, start, end, parent, op).  When an operation ends its
spans are added to the run's totals, from which ``metrics`` derives the
per-layer metrics.  The spans of the first KEPT_OPS operations stay in
memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

import numpy as np

# spans of the first KEPT_OPS operations are kept and written out; later
# operations are folded into the metrics and their spans dropped
KEPT_OPS = 20

LAYERS = ("algebra", "complexes", "linalg", "torsion", "glue", "scenes", "cli")

# leaf helpers called once per matrix entry or per rank decision; a span
# around each would cost more than the work it measures
UNTRACED = frozenset({
    "algebra.killing_form",
    "algebra.orthonormal_sl2_basis",
    "linalg.empty_matrix",
    "linalg.svd_rank",
})

# per-layer metrics: name -> (unit, better)
PER_LAYER = {
    "algebra.adjoint_matrix_calls": ("count", "lower"),
    "algebra.adjoint_matrix_ms": ("ms", "lower"),
    "complexes.twist_calls": ("count", "lower"),
    "complexes.twist_ms": ("ms", "lower"),
    "complexes.twist_reuse": ("ratio", "higher"),
    "complexes.homology_calls": ("count", "lower"),
    "complexes.homology_ms": ("ms", "lower"),
    "linalg.svd_calls": ("count", "lower"),
    "linalg.lstsq_calls": ("count", "lower"),
    "linalg.ms": ("ms", "lower"),
    "torsion.build_splitting_calls": ("count", "lower"),
    "torsion.build_splitting_ms": ("ms", "lower"),
    "torsion.torsion_ms": ("ms", "lower"),
    "glue.disk_sum_ms": ("ms", "lower"),
    "glue.mv_sequence_ms": ("ms", "lower"),
    "glue.verify_exactness_calls": ("count", "lower"),
    "glue.transport_bases_ms": ("ms", "lower"),
    "glue.corrective_term_ms": ("ms", "lower"),
    "glue.exactness_per_sequence": ("ratio", "lower"),
    "scenes.parse_scene_ms": ("ms", "lower"),
    "cli.self_ms": ("ms", "lower"),
}


def _twist_key(args, kwargs):
    """Content of a twist's (complex, representation) pair."""
    cw = args[0] if args else kwargs["cw"]
    rep = args[1] if len(args) > 1 else kwargs["rep"]
    return (tuple(cw.cells), cw.presentation, tuple(cw.boundaries), rep.target,
            tuple(img.tobytes() for img in rep.images))


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._op = None
        self._op_start = 0
        self._twists: list = []
        self._patches: list = []
        # run totals: calls per span name (and numpy.* counts), time inside
        # each span name, time inside each layer, and each layer's own time
        self._calls = Counter()
        self._inside = Counter()
        self._layer = Counter()
        self._layer_self = Counter()
        self.ops = 0

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "torsionworks" or name.startswith("torsionworks.")]
        for layer in LAYERS:
            mod = importlib.import_module(f"torsionworks.{layer}")
            for attr, fn in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or name in UNTRACED):
                    continue
                wrapper = self._span(name, fn)
                for target in modules:
                    for bound, value in list(vars(target).items()):
                        if value is fn:
                            self._patch(target, bound, wrapper)
        self._patch(np.linalg, "svd", self._count("numpy.svd", np.linalg.svd))
        self._patch(np.linalg, "lstsq", self._count("numpy.lstsq", np.linalg.lstsq))
        self._patch(np.linalg, "norm", self._count_norm(np.linalg.norm))

    def uninstall(self):
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def _patch(self, target, attr, value):
        self._patches.append((target, attr, getattr(target, attr)))
        setattr(target, attr, value)

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack
        keep_args = name == "complexes.twist"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            if keep_args:
                self._twists.append((args, kwargs))
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self._op)
        return wrapper

    def _count(self, key, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is not None:
                self._calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _count_norm(self, fn):
        @functools.wraps(fn)
        def wrapper(x, ord=None, *args, **kwargs):
            if self._op is not None and ord == 2 and getattr(x, "ndim", 0) == 2:
                self._calls["numpy.norm2"] += 1
            return fn(x, ord, *args, **kwargs)
        return wrapper

    # -- operations ----------------------------------------------------------

    def begin(self, op: int):
        self._op = op
        self._op_start = len(self.spans)

    def end(self):
        """Stop recording and add the operation's spans to the run's totals."""
        self._op = None
        base = self._op_start
        spans = self.spans[base:]
        for name, start, end, parent, _ in spans:
            duration = end - start
            layer = name.split(".", 1)[0]
            self._calls[name] += 1
            self._inside[name] += duration
            self._layer_self[layer] += duration
            if parent >= 0:
                self._layer_self[spans[parent - base][0].split(".", 1)[0]] -= duration
            if not self._has_ancestor_in(spans, base, parent, layer):
                self._layer[layer] += duration
        self._calls["twist.distinct"] += len({_twist_key(a, kw) for a, kw in self._twists})
        self._twists.clear()
        self.ops += 1
        if self.ops > KEPT_OPS:
            del self.spans[base:]

    @staticmethod
    def _has_ancestor_in(spans, base, parent, layer):
        while parent >= 0:
            name, _, _, parent, _ = spans[parent - base]
            if name.split(".", 1)[0] == layer:
                return True
        return False

    # -- results ---------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-operation means (and ratios of totals) of the per-layer metrics."""
        n = max(self.ops, 1)

        def calls(name):
            return self._calls[name] / n

        def ms(name):
            return 1000.0 * self._inside[name] / n

        def ratio(num, den):
            return self._calls[num] / self._calls[den] if self._calls[den] else 0.0

        values = {
            "algebra.adjoint_matrix_calls": calls("algebra.adjoint_matrix"),
            "algebra.adjoint_matrix_ms": ms("algebra.adjoint_matrix"),
            "complexes.twist_calls": calls("complexes.twist"),
            "complexes.twist_ms": ms("complexes.twist"),
            "complexes.twist_reuse": ratio("twist.distinct", "complexes.twist"),
            "complexes.homology_calls": calls("complexes.homology"),
            "complexes.homology_ms": ms("complexes.homology"),
            "linalg.svd_calls": calls("numpy.svd") + calls("numpy.norm2"),
            "linalg.lstsq_calls": calls("numpy.lstsq"),
            "linalg.ms": 1000.0 * self._layer["linalg"] / n,
            "torsion.build_splitting_calls": calls("torsion.build_splitting"),
            "torsion.build_splitting_ms": ms("torsion.build_splitting"),
            "torsion.torsion_ms": 1000.0 * self._layer["torsion"] / n,
            "glue.disk_sum_ms": ms("glue.disk_sum"),
            "glue.mv_sequence_ms": ms("glue.mv_sequence"),
            "glue.verify_exactness_calls": calls("glue.verify_exactness"),
            "glue.transport_bases_ms": ms("glue.transport_bases"),
            "glue.corrective_term_ms": ms("glue.corrective_term"),
            "glue.exactness_per_sequence": ratio("glue.verify_exactness", "glue.mv_sequence"),
            "scenes.parse_scene_ms": ms("scenes.parse_scene"),
            "cli.self_ms": 1000.0 * self._layer_self["cli"] / n,
        }
        return {name: {"value": values[name], "unit": unit}
                for name, (unit, _) in PER_LAYER.items()}

    def write_spans(self, path, origin: float):
        """One line per span: op, name, start and end in microseconds, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,name,start_us,end_us,parent\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{op},{name},{(start - origin) * 1e6:.1f},"
                         f"{(end - origin) * 1e6:.1f},{parent}\n")
