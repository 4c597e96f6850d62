"""In-memory spans around calls into the vinberg layers, timed from outside.

A Tracer wraps public functions at every name their callers look up and
records one span per call: name, start, end, the span that was open when
the call began, and the request it belongs to.  Spans stay in memory until
the pass ends; summary() folds them into per-layer metrics and dump()
writes them out as JSON lines.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from contextlib import contextmanager
from time import perf_counter

# span fields, kept as a list per span to keep the wrapper cheap
NAME, START, END, PARENT, REQUEST, OUTER, NOTE = range(7)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.request = None
        self._stack: list = []
        self._open: dict = {}

    def _begin(self, name):
        depth = self._open.get(name, 0)
        self._open[name] = depth + 1
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.request, depth == 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _end(self, span):
        self._stack.pop()
        self._open[span[NAME]] -= 1

    @contextmanager
    def span(self, name):
        span = self._begin(name)
        span[START] = perf_counter()
        try:
            yield span
        finally:
            span[END] = perf_counter()
            self._end(span)

    def wrap(self, name, fn, note=None):
        """fn with a span per call; note(args, result) is stored on the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._begin(name)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                self._end(span)
            if note is not None:
                span[NOTE] = note(args, result)
            return result

        return traced

    def install(self, layers, notes):
        """Wrap each vinberg <module>.<function> at every binding of it.

        Callers reach these functions either through the defining module
        (volume.finite_volume) or through a name imported into their own
        module (search.enumerate_batch), so every loaded vinberg module is
        scanned for the original function object.  Returns the number of
        bindings replaced per layer.
        """
        originals = {}
        for layer in layers:
            module_name, fn_name = layer.split(".")
            module = importlib.import_module(f"vinberg.{module_name}")
            originals[layer] = getattr(module, fn_name)
        modules = [
            m for key, m in sorted(sys.modules.items())
            if key == "vinberg" or key.startswith("vinberg.")
        ]
        patched = {}
        for layer, original in originals.items():
            wrapped = self.wrap(layer, original, notes.get(layer))
            patched[layer] = 0
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
                        patched[layer] += 1
        return patched

    def summary(self, layers, phases, modules, factor) -> dict:
        """Per-layer calls, inclusive and self seconds; per-phase module self time.

        Inclusive time counts only the outermost span of a recursive layer.
        Self time is a span's duration minus that of its direct children.
        Every duration is multiplied by factor[request] of its span.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        phase_of = [None] * len(spans)
        duration = [
            (span[END] - span[START]) * factor[span[REQUEST]] for span in spans
        ]
        for i, span in enumerate(spans):
            parent = span[PARENT]
            if parent < 0:
                phase_of[i] = span[NAME]
            else:
                child_time[parent] += duration[i]
                phase_of[i] = phase_of[parent]
        out = {}
        for layer in layers:
            out[f"{layer}.calls"] = 0
            out[f"{layer}.incl_s"] = 0.0
            out[f"{layer}.self_s"] = 0.0
        for phase in phases:
            out[f"{phase}.incl_s"] = 0.0
            out[f"{phase}.self_s"] = 0.0
            for module in modules:
                out[f"{phase}.{module}.self_s"] = 0.0
        for i, span in enumerate(spans):
            name = span[NAME]
            own = duration[i] - child_time[i]
            if name in phases:
                out[f"{name}.incl_s"] += duration[i]
                out[f"{name}.self_s"] += own
                continue
            out[f"{name}.calls"] += 1
            if span[OUTER]:
                out[f"{name}.incl_s"] += duration[i]
            out[f"{name}.self_s"] += own
            out[f"{phase_of[i]}.{name.split('.')[0]}.self_s"] += own
        return out

    def dump(self, path):
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i,
                    "parent": span[PARENT] if span[PARENT] >= 0 else None,
                    "request": span[REQUEST],
                    "name": span[NAME],
                    "start": span[START],
                    "end": span[END],
                    "note": span[NOTE],
                }) + "\n")
