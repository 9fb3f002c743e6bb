"""Spans around the calls into citeineq's modules, recorded from outside.

``Tracer.install`` replaces every name a caller looks up for a public
function of a layer module (``citeineq.report.load_profile``,
``citeineq.windows.build_lorenz``, ``citeineq.cli.build_parser``, ...) by
a wrapper that records a span, and ``uninstall`` puts the originals back.
The package's source is never changed.  Spans are held in memory as
(name, start, end, parent) and written out by the caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "citeineq"

#: The package modules, one layer each.
LAYERS = ("cli", "ingest", "profiles", "windows", "lorenz", "soc", "landau", "report")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple[int, float, float, int] | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.paths_read: list = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict = {}
        self._hooks = {"ingest.load_profile": self._profile_loaded,
                       "windows.window_series": self._series_built}

    # --- wrapping -----------------------------------------------------

    def _targets(self) -> dict:
        """Original callable -> span name, for every layer's public functions.

        ``ResearcherProfile`` is a class, so it is wrapped only where
        ingest constructs it; elsewhere the name must stay a class.
        """
        ingest = importlib.import_module(f"{PACKAGE}.ingest")
        targets = {ingest.ResearcherProfile: "profiles.ResearcherProfile"}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    targets[obj] = f"{layer}.{attr}"
        return targets

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        if not self._wrappers:
            self._wrappers = {fn: self._wrap(name, fn) for fn, name in self._targets().items()}
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    self._patch(module, attr, self._wrappers[obj])
        ingest = importlib.import_module(f"{PACKAGE}.ingest")
        self._patch(ingest, "ResearcherProfile", self._wrappers[ingest.ResearcherProfile])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _patch(self, module, attr: str, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = self._hooks.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # reserve the slot so spans stay in start order
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return functools.wraps(fn)(traced) if inspect.isfunction(fn) else traced

    # --- counters at the same boundaries --------------------------------

    def _profile_loaded(self, args, kwargs, profile) -> None:
        self.paths_read.append(args[0] if args else kwargs["path"])
        self.counts["ingest.rows"] += len(profile.publications)

    def _series_built(self, args, kwargs, series) -> None:
        self.counts["windows.windows"] += len(series.entries)
        self.counts["windows.windows_skipped"] += sum(e.skipped for e in series.entries)

    def reset(self) -> None:
        """Drop the recorded spans and counts; the wrappers stay in place."""
        self.spans.clear()
        self.counts.clear()
        self.paths_read.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover.

    Spans are in start order, so a child follows its parent; the union of
    the children's intervals is taken clipped to the parent.
    """
    selfs = [end - start for _, start, end, _ in spans]
    covered_to = {}
    for _, start, end, parent in spans:
        if parent < 0:
            continue
        p_start, p_end = spans[parent][1], spans[parent][2]
        lo = max(start, covered_to.get(parent, p_start))
        hi = min(end, p_end)
        if hi > lo:
            selfs[parent] -= hi - lo
            covered_to[parent] = hi
    return selfs


def summarize(tracer: Tracer, wall: float) -> dict:
    """Per-name calls and self seconds, per-layer self seconds, and the
    traced wall time not inside any span.

    By construction the self times plus ``unaccounted_s`` equal ``wall``;
    what is worth checking is that ``unaccounted_s`` stays small.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    layer_s = {layer: 0.0 for layer in LAYERS}
    for (name_id, _, _, _), own in zip(spans, selfs):
        name = tracer.names[name_id]
        calls[name] += 1
        self_s[name] += own
        layer_s[name.split(".", 1)[0]] += own
    return {
        "calls": dict(calls),
        "self_s": dict(self_s),
        "layer_s": layer_s,
        "min_self_s": min(selfs, default=0.0),
        "unaccounted_s": wall - sum(selfs),
        "profile_ms": profile_latencies(tracer),
        "spans": len(spans),
    }


def profile_latencies(tracer: Tracer) -> list[float]:
    """Per-profile load + analyze milliseconds inside ``run_batch``: from the
    start of each ``load_profile`` span to the end of the ``analyze_profile``
    span that follows it under the same parent."""
    names = tracer.names
    pending: dict[int, float] = {}
    out = []
    for name_id, start, end, parent in tracer.spans:
        name = names[name_id]
        if name == "ingest.load_profile":
            pending[parent] = start
        elif name == "report.analyze_profile" and parent in pending:
            out.append((end - pending.pop(parent)) * 1e3)
    return out
