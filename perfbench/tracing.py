"""Span tracing of hemifol's layers from outside the package.

``Tracer.install`` replaces public functions of the ``hemifol`` modules
(module attributes, plus ``GraphSurface.__init__``) with wrappers that
record one span per call: name, start, end, parent span and task id.
Calls inside the package go through module globals, so they are traced
too.  A call nested inside a span of the same name (recursion, as in
``expr.diff``) records no span of its own: only the outermost call counts.

Spans stay in memory in flat arrays and are written out once, at the end.
Only the benchmark's traced process installs a tracer; the program itself
has no tracing flag.
"""

from __future__ import annotations

import functools
import gc
import inspect
import time
from array import array

import numpy as np

# (module, attribute or Class.method, span name); integrate_* share one name
SPANS = [
    ("expr", "evaluate", "expr.evaluate"),
    ("expr", "evaluate_jet", "expr.evaluate_jet"),
    ("expr", "parse", "expr.parse"),
    ("expr", "diff", "expr.diff"),
    ("quadrature", "recover_coefficients", "quadrature.recover_coefficients"),
    ("quadrature", "integrate_surface", "quadrature.integrate"),
    ("quadrature", "integrate_boundary", "quadrature.integrate"),
    ("quadrature", "integrate_tphi", "quadrature.integrate"),
    ("quadrature", "integrate_boundary_tphi", "quadrature.integrate"),
    ("variational", "functionals", "variational.functionals"),
    ("variational", "second_derivative_terms", "variational.second_derivative_terms"),
    ("graph_surface", "GraphSurface.__init__", "graph_surface.GraphSurface"),
    ("graph_surface", "find_critical_point", "graph_surface.find_critical_point"),
    ("graph_surface", "foliation_criterion", "graph_surface.foliation_criterion"),
    ("linearized", "solve_ode_modes", "linearized.solve_ode_modes"),
    ("linearized", "residual_check", "linearized.residual_check"),
    ("linearized", "multipliers", "linearized.multipliers"),
    ("foliation", "foliation_report", "foliation.foliation_report"),
    ("foliation", "leaves_intersect", "foliation.leaves_intersect"),
    ("foliation", "point_inside_leaf", "foliation.point_inside_leaf"),
    ("foliation", "ray_intersect", "foliation.ray_intersect"),
    ("cli", "main", "cli.main"),
]


def dag_size(root) -> int:
    """Distinct nodes reachable from ``root`` through ``.args``."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for child in stack.pop().args:
            if id(child) not in seen:
                seen.add(id(child))
                stack.append(child)
    return len(seen)


def bound_points(bindings) -> int:
    """Number of points the bindings broadcast to (1 for all scalars)."""
    shapes = [np.shape(getattr(v, "f", v)) for v in bindings.values()]
    return int(np.prod(np.broadcast_shapes(*shapes)))


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.depth: list[int] = []
        self.task_id = -1
        self.counters = {"expr.evaluate_jet.node_points": 0, "quadrature.nodes": 0}

    # -- recording ----------------------------------------------------------
    def _wrap(self, fn, span_name, before=None):
        if span_name not in self.names:
            self.names.append(span_name)
            self.depth.append(0)
        idx = self.names.index(span_name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.depth[idx]:
                return fn(*args, **kwargs)
            if before is not None:
                before(*args, **kwargs)
            i = len(self.start)
            self.name.append(idx)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.task.append(self.task_id)
            self.end.append(0.0)
            self.stack.append(i)
            self.depth[idx] += 1
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                self.depth[idx] -= 1
                self.stack.pop()
        return wrapper

    def _count_jet(self, e, bindings):
        self.counters["expr.evaluate_jet.node_points"] += dag_size(e) * bound_points(bindings)

    def _boundary_counter(self, fn):
        sig = inspect.signature(fn)

        def count(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            self.counters["quadrature.nodes"] += bound.arguments["n"]
        return count

    def install(self, package) -> None:
        """Patch the modules of ``package`` (the imported ``hemifol``)."""
        for mod_name, attr, span_name in SPANS:
            owner = getattr(package, mod_name)
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            fn = getattr(owner, attr)
            before = None
            if span_name == "expr.evaluate_jet":
                before = self._count_jet
            elif attr.startswith("integrate_boundary"):
                before = self._boundary_counter(fn)
            setattr(owner, attr, self._wrap(fn, span_name, before))

        grid_cls = package.quadrature.QuadratureGrid
        nodes = grid_cls.nodes

        @functools.wraps(nodes)
        def counted_nodes(grid):
            out = nodes(grid)
            self.counters["quadrature.nodes"] += out[0].size
            return out
        grid_cls.nodes = counted_nodes

    # -- reporting ----------------------------------------------------------
    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=np.asarray(self.name),
            parent=np.asarray(self.parent), task=np.asarray(self.task),
            start=np.asarray(self.start), end=np.asarray(self.end))

    def totals(self) -> dict:
        """{span name: (calls, inclusive s, self s)}; self time is the
        span's duration minus the durations of its direct children."""
        name = np.asarray(self.name)
        parent = np.asarray(self.parent)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        out = {}
        for idx, span_name in enumerate(self.names):
            sel = name == idx
            out[span_name] = (int(sel.sum()), float(dur[sel].sum()), float(own[sel].sum()))
        return out


def live_nodes(expr_module) -> int:
    """``Expr`` objects the garbage collector can still find."""
    gc.collect()
    return sum(isinstance(o, expr_module.Expr) for o in gc.get_objects())
