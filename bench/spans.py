"""Span tracer for the benchmark's traced passes.

The tracer patches the package at run time and changes no source file.
Every public module-level function of each layer module is replaced by a
wrapper, in every ``quasischur`` namespace that holds it (the defining
module, modules that imported it, the package ``__init__``).  The public
methods listed in ``METHODS`` are patched on their class.

A call records one span.  A generator records one span per ``next`` call, so
its time is charged per yielded item and never at call time; the consumer's
work between items is not inside the span.  Re-entrant calls of the same
function (``partitions_of`` recursing through its module global) fold into
the outer span, so ``calls`` and ``items`` count outermost calls only.

Spans stay in memory as flat arrays (name, parent, start, end) and are
reduced to a per-name table only after the timed region has ended.  A span's
self time is its duration minus the durations of its child spans.  Work in
functions that are not patched (``QT`` arithmetic, ``Filling`` validation,
private helpers such as ``_force_row``) is charged to the self time of the
nearest patched caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from time import perf_counter

LAYERS = (
    "combinatorics",
    "polynomial",
    "schur",
    "quasisym",
    "elw",
    "hall_littlewood",
    "cli",
)

# Named public methods of the two algebra classes, patched on the class.
# Arithmetic operators stay unpatched: like QT arithmetic they are the inner
# loop of whichever function uses them (vandermonde's product, the sums in
# expansion_to_poly) and are charged to it.  Missing names are skipped.
METHODS = {
    "polynomial": (
        "SparsePoly",
        ("scalar_mul", "swap_variables", "permute_variables", "is_symmetric",
         "is_homogeneous", "degree", "set_variable_to_zero", "sorted_terms",
         "to_json_dict", "from_json_dict"),
    ),
    "quasisym": ("Expansion", ("sorted_terms", "to_json_dict", "from_json_dict")),
}

# Result hooks: counters read off a traced call's return value.
HOOKS = {
    "schur.straighten": lambda r: {"zero": 1 if r.is_zero() else 0},
    "polynomial.antisymmetrize": lambda r: {"terms_out": len(r.terms())},
    "polynomial.exact_divide": lambda r: {"quotient_terms": len(r.terms())},
}


def _is_traceable(obj, module_name: str) -> bool:
    # plain functions and lru_cache wrappers defined in this module
    is_callable = inspect.isfunction(obj) or hasattr(obj, "cache_info")
    return is_callable and getattr(obj, "__module__", None) == module_name


class Tracer:
    """Records spans for the patched functions of one process."""

    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.items: list[int] = []
        self.active: list[int] = []
        self.counters: list[dict[str, int]] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]

    def _register(self, name: str) -> int:
        if name in self.names:
            raise ValueError(f"span name {name!r} registered twice")
        self.names.append(name)
        self.calls.append(0)
        self.items.append(0)
        self.active.append(0)
        self.counters.append({})
        return len(self.names) - 1

    def _begin(self, nid: int) -> int:
        span = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1])
        self.span_end.append(0.0)
        self.stack.append(span)
        self.span_start.append(perf_counter())
        return span

    def _end(self, span: int) -> None:
        self.span_end[span] = perf_counter()
        self.stack.pop()

    def _wrap_function(self, nid: int, fn, hook):
        active, calls, counters = self.active, self.calls, self.counters
        begin, end = self._begin, self._end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if active[nid]:
                return fn(*args, **kwargs)
            active[nid] += 1
            calls[nid] += 1
            span = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(span)
                active[nid] -= 1
            if hook is not None:
                for key, value in hook(result).items():
                    counters[nid][key] = counters[nid].get(key, 0) + value
            return result

        return traced

    def _wrap_generator(self, nid: int, fn):
        active, calls, items = self.active, self.calls, self.items
        begin, end = self._begin, self._end

        def per_item(gen):
            while True:
                active[nid] += 1
                span = begin(nid)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    end(span)
                    active[nid] -= 1
                items[nid] += 1
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if active[nid]:
                return fn(*args, **kwargs)
            calls[nid] += 1
            return per_item(fn(*args, **kwargs))

        return traced

    def _wrap(self, name: str, fn):
        nid = self._register(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(nid, fn)
        return self._wrap_function(nid, fn, HOOKS.get(name))

    def install(self, package) -> None:
        """Patch every layer module of ``package`` (the imported top-level
        ``quasischur`` module)."""
        prefix = package.__name__ + "."
        modules = {layer: importlib.import_module(prefix + layer) for layer in LAYERS}
        namespaces = [package] + [
            m for n, m in sorted(sys.modules.items()) if n.startswith(prefix)
        ]
        for layer, module in modules.items():
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or not _is_traceable(obj, module.__name__):
                    continue
                traced = self._wrap(f"{layer}.{attr}", obj)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            setattr(ns, key, traced)
            if layer in METHODS:
                class_name, methods = METHODS[layer]
                cls = getattr(module, class_name)
                for method in methods:
                    raw = vars(cls).get(method)
                    if isinstance(raw, classmethod):
                        traced = self._wrap(f"{layer}.{method}", raw.__func__)
                        setattr(cls, method, classmethod(traced))
                    elif inspect.isfunction(raw):
                        setattr(cls, method, self._wrap(f"{layer}.{method}", raw))

    def table(self) -> dict[str, dict]:
        """Per-name calls, items, total and self seconds, and hook counters.
        Only names that were called appear."""
        count = len(self.span_start)
        child = array("d", bytes(8 * count))
        starts, ends, parents, names = (
            self.span_start, self.span_end, self.span_parent, self.span_name
        )
        for i in range(count):
            parent = parents[i]
            if parent >= 0:
                child[parent] += ends[i] - starts[i]
        total = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(count):
            duration = ends[i] - starts[i]
            total[names[i]] += duration
            self_s[names[i]] += duration - child[i]
        return {
            name: {
                "calls": self.calls[nid],
                "items": self.items[nid],
                "total_s": total[nid],
                "self_s": self_s[nid],
                **self.counters[nid],
            }
            for nid, name in enumerate(self.names)
            if self.calls[nid]
        }
