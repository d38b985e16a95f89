"""Spans around the library's public callables, for the traced run only.

``Tracer.install`` wraps every public function of the traced modules and
rebinds it in every ``joinreach`` module that imported it by name, and
wraps the class methods in ``METHODS`` on their class. Each call records
a span (id, name, start, end, parent id, op id) in memory and adds its
self time, the span's duration minus the time its child spans cover, to a
per-name total. ``uninstall`` restores the originals.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from collections import defaultdict

MODULES = ("graph", "cover", "geom", "hpd", "explicit", "jrindex", "minimal")

# Class methods traced, with the span name each reports under. Methods
# called millions of times inside one build (LayerDecomposition.role,
# FromRanks.get, ReachMatrix.reach, CartesianTree.min_x2_in_range,
# NcaIndex.query) stay unwrapped; their time is the caller's self time.
METHODS = (
    ("graph", "Digraph", "__init__", "graph.Digraph"),
    ("geom", "CartesianTree", "__init__", "geom.CartesianTree.build"),
    ("geom", "CartesianTree", "report_range", "geom.CartesianTree.report"),
    ("geom", "CartesianTree", "report_dominated", "geom.CartesianTree.report"),
    ("geom", "SegRayIndex", "__init__", "geom.SegRayIndex.build"),
    ("geom", "SegRayIndex", "report_registered", "geom.SegRayIndex.report"),
    ("geom", "SegRayIndex", "report_at", "geom.SegRayIndex.report"),
    ("geom", "EnclosureIndex", "__init__", "geom.EnclosureIndex.build"),
    ("geom", "EnclosureIndex", "report", "geom.EnclosureIndex.report"),
    ("geom", "RangeTree2D", "__init__", "geom.RangeTree2D.build"),
    ("geom", "RangeTree2D", "report", "geom.RangeTree2D.report"),
    ("jrindex", "JRIndex", "query_counted", "jrindex.JRIndex.query_counted"),
)

# Counts read from return values inside the library, keyed by span name.
RETURN_COUNTS = {
    "cover.min_path_cover": lambda pc: {"cover.kappa": pc.kappa},
}


PACKAGE = "joinreach"


class Tracer:
    def __init__(self):
        self.spans = []
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.names = set()
        self.op = 0
        self._stack = []
        self._next_id = 0
        self._undo = []

    def wrap(self, name, fn):
        """fn recording one span per call under name."""
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        self_s, calls = self.self_s, self.calls
        on_return = RETURN_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                self_s[name] += dur - frame[1]
                calls[name] += 1
                spans.append((sid, name, t0, t1, parent, self.op))
            if on_return is not None:
                for key, value in on_return(result).items():
                    self.counts[key] += value
            return result

        return traced

    def call(self, name, fn, *args):
        """Run one benchmark op as a root span with a fresh op id."""
        self.op += 1
        return self.wrap(name, fn)(*args)

    def install(self):
        modules = [
            m for key, m in list(sys.modules.items())
            if key == PACKAGE or key.startswith(PACKAGE + ".")
        ]
        for short in MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                traced = self.wrap(name, obj)
                self.names.add(name)
                for m in modules:
                    for bound, value in list(vars(m).items()):
                        if value is obj:
                            setattr(m, bound, traced)
                            self._undo.append((m, bound, obj))
        for short, cls_name, meth, name in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{short}"], cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, self.wrap(name, orig))
            self._undo.append((cls, meth, orig))
            self.names.add(name)

    def uninstall(self):
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    def write(self, path):
        """Spans as gzipped TSV, in the order they ended."""
        with gzip.open(path, "wt", encoding="utf-8") as f:
            f.write("id\tname\tstart_s\tend_s\tparent\top\n")
            for sid, name, t0, t1, parent, op in self.spans:
                f.write(f"{sid}\t{name}\t{t0!r}\t{t1!r}\t{parent}\t{op}\n")
