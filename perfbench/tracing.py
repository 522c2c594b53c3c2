"""Per-layer spans recorded from outside the program.

A traced run wraps the public functions of each boxqi layer at the module
or class attribute their callers look up (``qi`` imported ``locate`` by
name, so ``qi.locate`` is wrapped; ``boxspline`` calls
``geometry.locate_unit``, so that attribute is wrapped).  Each call becomes
a span with its parent; a span's self time is its duration minus the
durations of its children (calls run on one thread, so children never
overlap).  Counts come from the shapes of arguments and results, and peak
memory from ``tracemalloc`` around top-level calls.  Untraced runs never
build a ``Tracer``, so they patch nothing.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

from checks import tie_share

MIB = float(1 << 20)


def _rows(arg):
    return int(np.shape(arg)[0]) if np.ndim(arg) else 1


def _targets():
    """(owner, attribute, span name, counter) for every wrapped call."""
    from boxqi import (bernstein, boxspline, geometry, isosurface, nearbest,
                       qi, simplex, stencils, volume)
    table = boxspline.BoxSplineTable
    spline = qi.QISpline

    def points_arg(args, kwargs, result):
        return {"rows": _rows(args[1])}

    def locate_counts(args, kwargs, result):
        points, grid = args[0], args[1]
        return {"rows": _rows(points),
                "ties": tie_share(np.atleast_2d(points), grid.h, grid.m)
                * _rows(points)}

    return [
        (table, "load", "boxspline.load", None),
        (table, "eval", "boxspline.eval", points_arg),
        (stencils, "library", "stencils.library", None),
        (volume, "load_volume", "volume.read", None),
        (volume, "save_volume", "volume.write", None),
        (qi, "approximate", "qi.approximate", None),
        (spline, "save", "qi.save", None),
        (spline, "load", "qi.load", None),
        (spline, "compile", "qi.compile",
         lambda a, k, r: {"patch_bytes": r.compiled.nbytes}),
        (spline, "eval", "qi.eval", points_arg),
        (spline, "gradient", "qi.gradient", points_arg),
        (spline, "eval_derivative", "qi.eval_derivative", points_arg),
        (qi, "locate", "geometry.locate", locate_counts),
        (geometry, "locate_unit", "geometry.locate_unit", None),
        (qi, "bernstein_basis", "bernstein.basis",
         lambda a, k, r: {"rows": _rows(a[0])}),
        (bernstein, "bernstein_basis", "bernstein.basis",
         lambda a, k, r: {"rows": _rows(a[0])}),
        (qi, "derivative_reduce", "bernstein.reduce", None),
        (bernstein, "derivative_reduce", "bernstein.reduce", None),
        (isosurface, "extract", "isosurface.extract",
         lambda a, k, r: {"vertices": len(r.vertices)}),
        (isosurface, "write_mesh", "isosurface.write", None),
        (nearbest, "constraint_system", "nearbest.system", None),
        (nearbest, "minimize_l1", "nearbest.minimize", None),
        (nearbest, "minimize_l1_exact", "simplex.solve", None),
        (simplex, "solve_lp", "simplex.lp",
         lambda a, k, r: {"columns": len(a[2])}),
    ]


#: top-level calls whose tracemalloc peak is recorded, with the size of
#: their input.  tracemalloc charges every allocation, which would swamp the
#: times of small calls made of many small allocations (probes, the token
#: reconstruction), so only calls of at least PEAK_MIN_SIZE points or
#: samples are measured.
_PEAK_SPANS = {
    "qi.approximate": lambda args: np.size(args[0]),
    "qi.eval": lambda args: _rows(args[1]),
    "qi.gradient": lambda args: _rows(args[1]),
}
PEAK_MIN_SIZE = 100_000


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "counts",
                 "peak")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.child_s = 0.0
        self.counts = {}
        self.peak = None

    @property
    def self_s(self):
        return self.end - self.start - self.child_s

    def has_ancestor(self, name):
        span = self.parent
        while span is not None:
            if span.name == name:
                return True
            span = span.parent
        return False


class Tracer:
    """Installs the wrappers, collects spans, restores every attribute."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._saved = []
        self._paused = 0

    def install(self):
        for owner, attr, name, counter in _targets():
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr,
                        classmethod(self._wrap(raw.__func__, name, counter)))
            else:
                setattr(owner, attr, self._wrap(raw, name, counter))

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def paused(self):
        """Calls made by the benchmark's own checks are not spans."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    def _wrap(self, fn, name, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, parent)
            size = _PEAK_SPANS.get(name)
            peak = (parent is None and size is not None
                    and size(args) >= PEAK_MIN_SIZE)
            if peak:
                tracemalloc.start()
            tracer._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if peak:
                    span.peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            if parent is not None:
                parent.child_s += span.end - span.start
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            tracer.spans.append(span)
            return result

        return wrapper

    def dump(self, path):
        index = {id(s): i for i, s in enumerate(self.spans)}
        rows = [{"name": s.name, "start": s.start, "end": s.end,
                 "self_s": s.self_s,
                 "parent": index.get(id(s.parent)), "counts": s.counts,
                 "peak_bytes": s.peak} for s in self.spans]
        path.write_text(json.dumps(rows))


def layer_metrics(tracer: Tracer, setup_spans: int, rounds: int) -> dict:
    """The per-layer metrics, per measured round.

    Spans recorded before the rounds started (``setup_spans`` of them) give
    the once-per-process table load and stencil library.
    """
    setup, measured = tracer.spans[:setup_spans], tracer.spans[setup_spans:]

    def self_s(spans, *names):
        return sum(s.self_s for s in spans if s.name in names)

    def count(spans, key, *names):
        return sum(s.counts.get(key, 0) for s in spans if s.name in names)

    def peak_mib(*names):
        peaks = [s.peak for s in measured if s.name in names and s.peak]
        return max(peaks, default=0) / MIB

    asked = count(measured, "rows", "qi.eval", "qi.gradient",
                  "qi.eval_derivative")
    located = count(measured, "rows", "geometry.locate")
    iso_evals = sum(s.counts["rows"] for s in measured if s.name == "qi.eval"
                    and s.has_ancestor("isosurface.extract"))
    vertices = count(measured, "vertices", "isosurface.extract")
    patch = max((s.counts["patch_bytes"] for s in measured
                 if s.name == "qi.compile"), default=0)
    per_round = {
        "volume.read_s": self_s(measured, "volume.read"),
        "volume.write_s": self_s(measured, "volume.write"),
        "qi.approximate_s": self_s(measured, "qi.approximate"),
        "qi.save_s": self_s(measured, "qi.save"),
        "qi.compile_s": self_s(measured, "qi.compile"),
        "qi.eval_self_s": self_s(measured, "qi.eval", "qi.gradient",
                                 "qi.eval_derivative"),
        "geometry.locate_s": self_s(measured, "geometry.locate",
                                    "geometry.locate_unit"),
        "geometry.locate_points": located,
        "bernstein.basis_s": self_s(measured, "bernstein.basis"),
        "bernstein.basis_rows": count(measured, "rows", "bernstein.basis"),
        "bernstein.reduce_s": self_s(measured, "bernstein.reduce"),
        "boxspline.eval_s": self_s(measured, "boxspline.eval"),
        "boxspline.eval_points": count(measured, "rows", "boxspline.eval"),
        "isosurface.extract_self_s": self_s(measured, "isosurface.extract"),
        "isosurface.write_s": self_s(measured, "isosurface.write"),
        "nearbest.system_s": self_s(measured, "nearbest.system"),
        "simplex.solve_s": self_s(measured, "simplex.solve", "simplex.lp"),
        "simplex.lp_columns": count(measured, "columns", "simplex.lp"),
    }
    out = {name: value / rounds for name, value in per_round.items()}
    out.update({
        "boxspline.load_s": self_s(setup, "boxspline.load"),
        "stencils.library_s": self_s(setup, "stencils.library"),
        "qi.approximate_peak_mib": peak_mib("qi.approximate"),
        "qi.patch_mib": patch / MIB,
        "qi.eval_peak_mib": peak_mib("qi.eval", "qi.gradient"),
        "geometry.locate_per_point": located / asked if asked else 0.0,
        "geometry.tie_share": (count(measured, "ties", "geometry.locate")
                               / located if located else 0.0),
        "isosurface.evals_per_vertex": (iso_evals / vertices
                                        if vertices else 0.0),
    })
    return out
