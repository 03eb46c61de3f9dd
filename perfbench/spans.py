"""Spans and counters recorded around the calls into each ``monideal`` layer.

The tracer wraps public functions and ``MonomialIdeal`` methods from the
outside: every binding of a wrapped function in any ``monideal`` module is
replaced, so a name imported into another module is traced there too.
Each call becomes a span with a name, a parent, a start and an end; spans
are kept in flat arrays and written out when the pass ends.  Layer names
are the module names (``ideals``, ``decomposition``, ``symbolic``,
``graphs``, ``polyhedra``, ``cli``).
"""

from __future__ import annotations

import gzip
import math
import sys
import time
from array import array
from collections import defaultdict

# Counters recorded per layer, reported as 0 when the layer was not called.
COUNTERS = (
    "ideals.minimalize.candidates",
    "ideals.minimalize.kept",
    "ideals.product.candidates",
    "ideals.intersection.candidates",
    "decomposition.irredundant.in",
    "decomposition.irredundant.kept",
    "graphs.covers.found",
    "polyhedra.vertices.subsets",
    "polyhedra.vertices.found",
    "polyhedra.closure.box_points",
    "polyhedra.closure.kept",
    "cli.main.output_bytes",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._restore: list[tuple[object, str, object]] = []

    def add(self, counter: str, value: int):
        self.counters[counter] += value

    def register(self, name: str) -> int:
        """Index of span name `name`; a registered name is reported even
        when no span of it was recorded."""
        index = self._name_index.setdefault(name, len(self.names))
        if index == len(self.names):
            self.names.append(name)
        return index

    def span(self, name: str, fn, before=None, after=None, sized_first_arg=False):
        """`fn` wrapped so that each call records one span named `name`.

        `before(args)` runs ahead of the call and its result is handed to
        `after(tracer, args, result, token)`, which updates counters.  With
        `sized_first_arg` an iterator passed first is turned into a list, so
        that `after` can count it.
        """
        index = self.register(name)
        stack, clock = self._stack, time.perf_counter
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end

        def wrapper(*args, **kwargs):
            if sized_first_arg and not hasattr(args[0], "__len__"):
                args = (list(args[0]),) + args[1:]
            sid = len(start)
            name_of.append(index)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            token = before(args) if before is not None else None
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if after is not None:
                after(self, args, result, token)
            return result

        return wrapper

    def patch_function(self, module, attr: str, name: str, before=None, after=None,
                       sized_first_arg=False, modules=("monideal", "workloads")):
        """Replace every binding of ``module.attr`` in the loaded modules
        whose names start with one of `modules`; the benchmark's own
        workloads module is among them, since it imports the names it calls.
        A function the program no longer has leaves its layer at 0."""
        original = getattr(module, attr, None)
        if original is None:
            self.register(name)
            return
        wrapper = self.span(name, original, before, after, sized_first_arg)
        for mod_name, loaded in list(sys.modules.items()):
            if loaded is None or not mod_name.startswith(modules):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._restore.append((loaded, key, value))
                    setattr(loaded, key, wrapper)

    def patch_method(self, cls, attr: str, name: str, after=None):
        original = cls.__dict__.get(attr)
        if original is None:
            self.register(name)
            return
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self.span(name, original, after=after))

    def unpatch(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def write(self, path):
        """Spans as tab-separated `id parent name start end`, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("id\tparent\tname\tstart\tend\n")
            for sid in range(len(self.start)):
                out.write(
                    f"{sid}\t{self.parent[sid]}\t{self.names[self.name_of[sid]]}"
                    f"\t{self.start[sid]:.9f}\t{self.end[sid]:.9f}\n"
                )


def aggregate(names, name_of, parent, start, end) -> dict[str, dict[str, float]]:
    """Per span name: calls, self time and inclusive time.

    A span's self time is its duration minus the durations of its direct
    children.  Inclusive time counts only spans with no ancestor of the
    same name, so recursion through one layer is not counted twice.
    Parents always precede their children.
    """
    count = len(start)
    child_time = [0.0] * count
    for sid in range(count):
        p = parent[sid]
        if p >= 0:
            child_time[p] += end[sid] - start[sid]
    out = {n: {"calls": 0, "self_s": 0.0, "total_s": 0.0} for n in names}
    for sid in range(count):
        label = names[name_of[sid]]
        duration = end[sid] - start[sid]
        entry = out[label]
        entry["calls"] += 1
        entry["self_s"] += duration - child_time[sid]
        p = parent[sid]
        while p >= 0 and name_of[p] != name_of[sid]:
            p = parent[p]
        if p < 0:
            entry["total_s"] += duration
    return out


# ------------------------------------------------------------- layer wiring


def cache_misses(cache):
    """Misses so far of an lru cache, or None when there is no such cache."""
    info = getattr(cache, "cache_info", None)
    return info().misses if info is not None else None


def install(tracer: Tracer):
    """Wrap the layer boundaries of the loaded ``monideal`` package.

    Returns the lru caches whose hit ratios are reported, by layer.
    """
    from monideal import cli, decomposition, graphs, ideals, polyhedra, symbolic

    def minimalize_after(tr, args, result, token):
        tr.add("ideals.minimalize.candidates", len(args[0]))
        tr.add("ideals.minimalize.kept", len(result))

    tracer.patch_function(ideals, "minimal_generators", "ideals.minimalize",
                          after=minimalize_after, sized_first_arg=True)

    def pair_after(counter):
        def after(tr, args, result, token):
            tr.add(counter, len(args[0].gens) * len(args[1].gens))
        return after

    M = ideals.MonomialIdeal
    tracer.patch_method(M, "__mul__", "ideals.product",
                        after=pair_after("ideals.product.candidates"))
    tracer.patch_method(M, "__and__", "ideals.intersection",
                        after=pair_after("ideals.intersection.candidates"))
    tracer.patch_method(M, "contains", "ideals.contains")
    tracer.patch_function(ideals, "parse_ideal", "ideals.text")
    tracer.patch_function(ideals, "format_ideal", "ideals.text")
    # Inside ideals, format_monomial only runs under format_ideal's span.
    tracer.patch_function(ideals, "format_monomial", "ideals.text", modules=("monideal.cli",))

    tracer.patch_function(decomposition, "irreducible_decomposition",
                          "decomposition.decompose")

    def irredundant_after(tr, args, result, token):
        tr.add("decomposition.irredundant.in", len(set(args[0])))
        tr.add("decomposition.irredundant.kept", len(result))

    tracer.patch_function(decomposition, "irredundant_subset", "decomposition.irredundant",
                          after=irredundant_after, sized_first_arg=True)

    tracer.patch_function(symbolic, "localize", "symbolic.localize")
    tracer.patch_function(symbolic, "symbolic_power_min", "symbolic.symbolic_power")
    tracer.patch_function(symbolic, "symbolic_power_ass", "symbolic.symbolic_power")
    tracer.patch_function(symbolic, "compare_powers", "symbolic.compare")
    tracer.patch_function(symbolic, "is_ntf_up_to", "symbolic.ntf")

    tracer.patch_function(graphs, "edge_ideal", "graphs.edge_ideal")
    tracer.patch_function(graphs, "classify", "graphs.classify")

    def covers_after(tr, args, result, token):
        tr.add("graphs.covers.found", len(result))

    tracer.patch_function(graphs, "strong_covers", "graphs.strong_covers", after=covers_after)

    # Work is counted only on calls that missed the cache and did the scan;
    # without a cache every call counts.
    vertex_cache = getattr(polyhedra, "_vertex_certificates", None)

    def vertices_after(tr, args, result, misses_before):
        if misses_before is None or cache_misses(vertex_cache) > misses_before:
            s, k = args[0].num_vars, len(args[0].columns)
            tr.add("polyhedra.vertices.subsets", math.comb(s + k, s))
            tr.add("polyhedra.vertices.found", len(result))

    tracer.patch_function(polyhedra, "enumerate_vertices", "polyhedra.vertices",
                          before=lambda args: cache_misses(vertex_cache), after=vertices_after)

    closure = getattr(polyhedra, "integral_closure_power", None)

    def closure_after(tr, args, result, misses_before):
        if misses_before is None or cache_misses(closure) > misses_before:
            ideal, n = args[0], args[1]
            tr.add("polyhedra.closure.box_points", math.prod(
                n * max(g[k] for g in ideal.gens) + 1 for k in range(ideal.num_vars)
            ))
            tr.add("polyhedra.closure.kept", len(result.gens))

    tracer.patch_function(polyhedra, "integral_closure_power", "polyhedra.closure",
                          before=lambda args: cache_misses(closure), after=closure_after)

    tracer.patch_function(cli, "main", "cli.main")
    return {
        "decomposition.decompose": getattr(decomposition, "_decomposition", None),
        "polyhedra.vertices": vertex_cache,
    }
