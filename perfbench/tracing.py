"""Host-time tracing for the benchmark: entry-point spans and a layer profile.

Both instruments live in the benchmark, outside the simulator: the spans are
opened around the benchmark's own calls into the simulator's public entry
points, and the profile is a ``cProfile`` hook whose per-function self time
is folded into layers named after the ``repro`` modules.  Spans stay in
memory until the run ends and are written out once with the result document.
"""

from __future__ import annotations

import cProfile
import os
import time

#: Layer of each ``src/repro`` module path prefix.  The first matching prefix
#: wins, so more specific prefixes come first.  Anything in ``src/repro`` not
#: listed here (``bench``, ``analysis``, ``verify``, ``errors``) and anything
#: outside it (NumPy, the standard library, built-in functions) is ``other``.
LAYER_PREFIXES = (
    ("sim/events.py", "sim.events"),
    ("sim/process.py", "sim.process"),
    ("sim/resources.py", "sim.resources"),
    ("sim/", "sim.engine"),
    ("machine/", "machine"),
    ("shmem/", "shmem"),
    ("lapi/", "lapi"),
    ("trees/", "trees"),
    ("core/dispatch.py", "core.dispatch"),
    ("core/replay.py", "core.replay"),
    ("core/smp/", "core.smp"),
    ("core/internode/", "core.internode"),
    ("core/", "core.requests"),
    # Reduction operators are shared by every stack and applied by the
    # machine's reduce and combine copies, so they belong with ``machine``.
    ("mpi/ops.py", "machine"),
    ("mpi/", "mpi"),
    ("obs/critical.py", "obs.analysis"),
    ("obs/waits.py", "obs.analysis"),
    ("obs/diff.py", "obs.analysis"),
    ("obs/", "obs.record"),
)

#: Every layer the profile reports, in report order.  ``harness`` is this
#: benchmark's own code (input checks and program bodies).
LAYERS = tuple(dict.fromkeys(layer for _prefix, layer in LAYER_PREFIXES)) + (
    "harness",
    "other",
)


class LayerMap:
    """Maps a code object's file name to its layer, memoized per file."""

    def __init__(self, root: str) -> None:
        self._package = os.path.join(root, "src", "repro") + os.sep
        self._harness = os.path.dirname(os.path.abspath(__file__)) + os.sep
        self._cache: dict[str, str] = {}

    def layer(self, filename: str) -> str:
        layer = self._cache.get(filename)
        if layer is None:
            layer = self._classify(os.path.abspath(filename))
            self._cache[filename] = layer
        return layer

    def _classify(self, path: str) -> str:
        if path.startswith(self._harness):
            return "harness"
        if not path.startswith(self._package):
            return "other"
        relative = path[len(self._package) :].replace(os.sep, "/")
        for prefix, layer in LAYER_PREFIXES:
            if relative.startswith(prefix):
                return layer
        return "other"


class LayerProfile:
    """A ``cProfile`` hook whose self time and calls are summed per layer.

    cProfile counts every generator resumption as a call, so ``calls`` for
    the simulator layers counts process steps as well as plain calls.
    """

    def __init__(self, root: str) -> None:
        self._map = LayerMap(root)
        self._profiler = cProfile.Profile()
        self.wall_s = 0.0
        self._started = 0.0

    def __enter__(self) -> "LayerProfile":
        self._started = time.perf_counter()
        self._profiler.enable()
        return self

    def __exit__(self, *exc: object) -> None:
        self._profiler.disable()
        self.wall_s += time.perf_counter() - self._started

    def by_layer(self) -> dict[str, dict[str, float]]:
        """``{layer: {"self_s": seconds, "calls": count}}`` for every layer."""
        totals = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
        for entry in self._profiler.getstats():
            code = entry.code
            layer = "other" if isinstance(code, str) else self._map.layer(code.co_filename)
            totals[layer]["self_s"] += entry.inlinetime
            totals[layer]["calls"] += entry.callcount
        return totals


class Spans:
    """Entry-point spans kept in memory: name, start, end, parent, unit id.

    A disabled recorder hands out one shared no-op context, so the untimed
    and untraced phases pay a method call per entry point and nothing else.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        #: ``[id, name, start_s, end_s, parent_id, unit]`` rows.
        self.rows: list[list] = []
        self._stack: list[int] = []
        self.unit: int | None = None
        self._origin = time.perf_counter()

    def span(self, name: str) -> "_Span | _NoSpan":
        return _Span(self, name) if self.enabled else _NO_SPAN

    def self_seconds(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        child_time: dict[int, float] = {}
        for _id, _name, start, end, parent, _unit in self.rows:
            if parent is not None:
                child_time[parent] = child_time.get(parent, 0.0) + (end - start)
        totals: dict[str, float] = {}
        for span_id, name, start, end, _parent, _unit in self.rows:
            own = (end - start) - child_time.get(span_id, 0.0)
            totals[name] = totals.get(name, 0.0) + own
        return totals


class _Span:
    __slots__ = ("_spans", "_row")

    def __init__(self, spans: Spans, name: str) -> None:
        self._spans = spans
        parent = spans._stack[-1] if spans._stack else None
        self._row = [len(spans.rows), name, 0.0, 0.0, parent, spans.unit]

    def __enter__(self) -> None:
        spans = self._spans
        spans.rows.append(self._row)
        spans._stack.append(self._row[0])
        self._row[2] = time.perf_counter() - spans._origin

    def __exit__(self, *exc: object) -> None:
        spans = self._spans
        self._row[3] = time.perf_counter() - spans._origin
        spans._stack.pop()


class _NoSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: object) -> None:
        return None


_NO_SPAN = _NoSpan()
