"""In-memory span tracer that wraps fincat's public functions from outside.

Every public function of every ``fincat.*`` module, and ``FinCategory.__init__``,
is replaced by a wrapper that records one span per call: (name, start, end,
parent span, query id).  The library binds names with ``from .x import y``, so
each alias of a wrapped function is rebound in every ``fincat.*`` namespace.
No library file changes.  Spans stay in memory; ``summary()`` turns them into
per-function ``calls``, ``self_s`` and ``total_s`` plus the work counts that
``COUNTS`` reads from arguments and results.
"""
import importlib
import inspect
import pkgutil
import sys
from time import perf_counter

# Work counts read from the arguments and the result after a call returns.
COUNTS = {
    "core.FinCategory": {"composites": lambda a, r: len(a[0].compose_table)},
    "core.product_category": {"composites": lambda a, r: len(r.compose_table)},
    "core.validate": {
        "composites_checked": lambda a, r: len(getattr(a[0], "compose_table", ()))},
    "core.category_of_elements": {"morphisms": lambda a, r: len(r[0].morphisms)},
    "limits.nat_trans_set": {"results": lambda a, r: len(r)},
    "limits.coend": {
        "tags": lambda a, r: sum(len(a[0].cell(x, x)) for x in a[0].source.objects),
        "classes": lambda a, r: len(r.classes)},
    "equivalence.all_functors": {"results": lambda a, r: len(r)},
    "equivalence.presheaf_isomorphic": {"hits": lambda a, r: int(r is not None)},
    "kan.member_category": {"morphisms": lambda a, r: len(r[0].morphisms)},
    "profunctor.compose_modules": {
        "cells": lambda a, r: sum(len(v) for v in r.sets.values())},
    "classes.phi_closure_bounded": {
        "rounds": lambda a, r: r.rounds,
        "members": lambda a, r: len(r.collection.members)},
}

# The second, elements-based route of a weighted (co)limit.
CROSS_CHECK_CHILDREN = {"core.category_of_elements", "limits.finset_limit",
                        "limits.finset_colimit"}
WEIGHTED = {"limits.weighted_limit", "limits.weighted_colimit"}


def fincat_submodules():
    import fincat
    names = sorted(m.name for m in pkgutil.iter_modules(fincat.__path__))
    return [importlib.import_module(f"fincat.{n}") for n in names]


class Tracer:
    def __init__(self):
        self.names = []          # span name id -> "module.function"
        self.spans = []          # (name id, start, end, parent index, query id)
        self.counts = {f"{name}.{stat}": 0
                       for name, stats in COUNTS.items() for stat in stats}
        self.query = None
        self._stack = [-1]
        self._restore = []

    def install(self):
        from fincat.core import FinCategory
        wrapped = {}
        for mod in fincat_submodules():
            short = mod.__name__.split(".", 1)[1]
            for attr, fn in sorted(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                if inspect.isgeneratorfunction(fn):
                    raise TypeError(f"cannot time generator {mod.__name__}.{attr}")
                wrapped[fn] = self._wrap(f"{short}.{attr}", fn)
        for mod in [m for m in sys.modules.values()
                    if getattr(m, "__name__", "").split(".")[0] == "fincat"]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrapped:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapped[value])
        self._restore.append((FinCategory, "__init__", FinCategory.__init__))
        FinCategory.__init__ = self._wrap("core.FinCategory", FinCategory.__init__)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self._stack, self.counts
        measures = [(f"{name}.{stat}", measure)
                    for stat, measure in COUNTS.get(name, {}).items()]

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (nid, start, end, parent, self.query)
            for key, measure in measures:
                counts[key] += measure(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self):
        """Raw per-function sums; ``derive`` turns them into ratios."""
        out = dict(self.counts)
        for name in self.names:
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
            out[f"{name}.total_s"] = 0.0
        out["limits.cross_check_s"] = 0.0
        child_s = [0.0] * len(self.spans)
        names = self.names
        # children start after their parents, so a reverse sweep sees each
        # span's children before the span itself
        for index in range(len(self.spans) - 1, -1, -1):
            if self.spans[index] is None:     # call interrupted before its try
                continue
            nid, start, end, parent, _query = self.spans[index]
            name = names[nid]
            duration = end - start
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += duration - child_s[index]
            if parent >= 0:
                child_s[parent] += duration
                if (name in CROSS_CHECK_CHILDREN
                        and names[self.spans[parent][0]] in WEIGHTED):
                    out["limits.cross_check_s"] += duration
        # total_s counts the outermost span of each name once, so recursion
        # and re-entry are not double counted
        open_until = {}
        for span in filter(None, self.spans):
            nid, start, end = span[:3]
            if nid not in open_until or open_until[nid] < start:
                out[f"{names[nid]}.total_s"] += end - start
                open_until[nid] = end
        return out


def merge(summaries):
    """Sum raw summaries, e.g. one per CLI process."""
    out = {}
    for s in summaries:
        for key, value in s.items():
            out[key] = out.get(key, 0) + value
    return out


def derive(raw):
    """Add the ratio metrics; each ratio's base is also a reported metric."""
    out = dict(raw)
    out["core.FinCategory.builds"] = raw["core.FinCategory.calls"]
    calls = raw["equivalence.presheaf_isomorphic.calls"]
    out["equivalence.presheaf_isomorphic.hit_ratio"] = (
        raw["equivalence.presheaf_isomorphic.hits"] / calls if calls else 0.0)
    weighted_s = sum(raw[f"{n}.total_s"] for n in WEIGHTED)
    out["limits.cross_check_share"] = (
        raw["limits.cross_check_s"] / weighted_s if weighted_s else 0.0)
    return out
