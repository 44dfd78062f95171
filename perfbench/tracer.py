"""Span recorder for the traced benchmark run.

Spans are taken around calls into sepchoose's public functions, from the
benchmark's side: every ``sepchoose.*`` module attribute that is bound to a
public function object is replaced by a timing wrapper.  Modules import
each other by name (``adversary`` and ``colorers`` hold their own
``color_with_lists``, ``solver`` holds ``realize``), so patching only the
defining module would miss those calls.  Internal helpers are never
patched, which keeps the trace valid across refactors of the library's
internals.

A call into a function of the group that is already open (for example
``amplitude_sigma`` inside ``amplitude_violation``) is folded into the
open span, so ``calls`` counts entries into a layer.  Spans stay in memory
as flat arrays and are written once, at the end.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

# public function -> layer; functions not named here fall back to their
# module's default layer, so a new public function is still traced
GROUP_OF = {
    "compute_sep": "solver.sep",
    "decide_choosable": "solver.decide",
    "color_with_lists": "solver.color",
    "free_color_with_lists": "solver.color",
    "realize": "lists.realize",
    "amplitude_condition": "lists.amplitude",
    "amplitude_violation": "lists.amplitude",
    "amplitude_sigma": "lists.amplitude",
    "separation": "lists.separation",
    "verify_certificate": "adversary.verify",
    "claimed_sigma": "adversary.other",
    "cert_to_json_dict": "adversary.other",
    "cert_from_json_dict": "adversary.other",
    "block_decomposition": "graphs.blocks",
    "build_cycle": "graphs.build",
    "build_path": "graphs.build",
    "build_flower": "graphs.build",
    "identify_vertices": "graphs.build",
    "graph_from_json_dict": "graphs.build",
}
MODULE_GROUP = {
    "adversary": "adversary.gen",
    "colorers": "colorers",
    "formulas": "formulas",
    "graphs": "graphs.struct",
    "lists": "lists.other",
    "solver": "solver.other",
}


class Tracer:
    """Records (parent, layer, start, end) per span; single-threaded."""

    def __init__(self):
        self.layers: list[str] = []
        self.parent = array("q")
        self.layer = array("H")
        self.start = array("d")
        self.end = array("d")
        self.color_nodes = 0
        self._stack = [-1]
        self._lstack = [-1]
        self.t0 = perf_counter()

    def _layer_id(self, name: str) -> int:
        if name not in self.layers:
            self.layers.append(name)
        return self.layers.index(name)

    def _wrap(self, fn, lid: int, counts_nodes: bool):
        parent, layer, start, end = self.parent, self.layer, self.start, self.end
        stack, lstack = self._stack, self._lstack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if lstack[-1] == lid:
                return fn(*args, **kwargs)
            sid = len(start)
            parent.append(stack[-1])
            layer.append(lid)
            end.append(0.0)
            stack.append(sid)
            lstack.append(lid)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
                lstack.pop()
            if counts_nodes:
                # SolveOutcome only: BudgetExceeded undercounts nested searches
                self.color_nodes += out.nodes_explored
            return out

        return traced

    def install(self, package) -> None:
        """Wrap every public function of ``package`` wherever a
        ``package.*`` module binds it."""
        wrappers = {}
        for name in package.__all__:
            fn = getattr(package, name)
            if not inspect.isfunction(fn) or inspect.isgeneratorfunction(fn):
                continue
            mod = fn.__module__.rsplit(".", 1)[-1]
            group = GROUP_OF.get(name, MODULE_GROUP.get(mod, mod + ".other"))
            lid = self._layer_id(group)
            wrappers[id(fn)] = self._wrap(fn, lid, group == "solver.color")
        prefix = package.__name__
        for modname, mod in list(sys.modules.items()):
            if modname != prefix and not modname.startswith(prefix + "."):
                continue
            for attr, val in list(vars(mod).items()):
                w = wrappers.get(id(val))
                if w is not None:
                    setattr(mod, attr, w)

    def summary(self) -> dict:
        """Per layer: calls, total seconds and self seconds (span time minus
        the time of the child spans it contains).  ``colorers`` also gets
        ``exact_calls``: solver.color spans whose parent is a colorer span."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += dur[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.layers}
        out["colorers"]["exact_calls"] = 0
        color, colorers = self.layers.index("solver.color"), self.layers.index("colorers")
        for i in range(n):
            rec = out[self.layers[self.layer[i]]]
            rec["calls"] += 1
            rec["total_s"] += dur[i]
            rec["self_s"] += dur[i] - child[i]
            p = self.parent[i]
            if self.layer[i] == color and p >= 0 and self.layer[p] == colorers:
                out["colorers"]["exact_calls"] += 1
        return out

    def write(self, path) -> None:
        """One CSV row per span, times in seconds from tracer creation."""
        with open(path, "w") as fh:
            fh.write("id,parent,layer,start_s,end_s\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i},{self.parent[i]},{self.layers[self.layer[i]]},"
                    f"{self.start[i] - self.t0:.9f},{self.end[i] - self.t0:.9f}\n"
                )
