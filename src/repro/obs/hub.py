"""The per-machine observability hub.

One :class:`Observability` is created by every
:class:`~repro.machine.cluster.Machine` and carries the two always-on
instruments of the ``repro.obs`` subsystem:

* :attr:`metrics` — the :class:`~repro.obs.metrics.MetricsRegistry` (a
  :class:`~repro.obs.metrics.NullRegistry` when observation is disabled);
* :attr:`recorder` — the :class:`~repro.obs.spans.PhaseRecorder` for nested
  phase spans and causal flow links.

Hot-path instruments (substrate counters and histograms) are pre-bound as
attributes at construction, so instrumented code pays one attribute access
and one add — with a null registry those calls hit shared no-op instruments
and the simulation is bit-identical either way.
"""

from __future__ import annotations

import typing

from repro.obs.calib import DecisionLog
from repro.obs.metrics import MetricsRegistry, NullRegistry
from repro.obs.monitor import ResourceMonitor
from repro.obs.spans import PhaseRecorder

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Engine

__all__ = ["Observability"]


class Observability:
    """Metrics registry + phase recorder for one machine."""

    def __init__(self, engine: "Engine", enabled: bool = True) -> None:
        self.engine = engine
        self.enabled = enabled
        self.metrics: MetricsRegistry = (
            MetricsRegistry(clock=lambda: engine.now) if enabled else NullRegistry()
        )
        self.recorder = PhaseRecorder(engine, enabled=enabled)
        #: Resource occupancy/queue-depth timelines.  Attached to the engine
        #: (like the verifier and fault plan) so the contention resources in
        #: :mod:`repro.sim.resources` can report transitions with one
        #: ``is None`` test; ``None`` when observation is disabled.
        self.monitor: ResourceMonitor | None = (
            ResourceMonitor(engine) if enabled else None
        )
        engine.monitor = self.monitor
        #: Dispatch decision telemetry (:mod:`repro.obs.calib`): one
        #: :class:`~repro.obs.calib.DecisionRecord` per distinct selection,
        #: with every candidate's per-term predicted cost.  ``None`` when
        #: observation is disabled, so the dispatcher's recording cost is a
        #: single ``is None`` test.
        self.decisions: DecisionLog | None = DecisionLog() if enabled else None

        # Pre-bound hot-path instruments (shared no-ops when disabled).
        m = self.metrics
        self.copies = m.counter("task.copies", "timed shared-memory copies")
        self.bytes_copied = m.counter("task.bytes_copied", "bytes moved by shm copies")
        self.reduce_ops = m.counter("task.reduce_ops", "operator passes executed")
        self.bytes_reduced = m.counter("task.bytes_reduced", "bytes streamed through operators")
        self.yields = m.counter("task.yields", "spin waits that yielded the CPU")
        self.interrupts = m.counter("task.interrupts", "LAPI arrival interrupts taken")
        self.puts = m.counter("lapi.puts", "one-sided remote writes issued")
        self.gets = m.counter("lapi.gets", "one-sided remote reads issued")
        self.bytes_put = m.counter("lapi.bytes_put", "bytes injected by puts")
        self.flag_sets = m.counter("shmem.flag_sets", "timed shared-flag stores")
        self.flag_wait_seconds = m.histogram(
            "shmem.flag_wait_seconds", "simulated seconds blocked per flag wait"
        )
        self.counter_wait_seconds = m.histogram(
            "lapi.counter_wait_seconds", "simulated seconds blocked per counter wait"
        )
        self.put_sizes = m.histogram("lapi.put_bytes", "payload size per put")
        self.put_window_depth = m.time_histogram(
            "bcast.put_window_depth", "in-flight streamed puts per forwarder over time"
        )

    def flow(
        self,
        kind: str,
        src_rank: int,
        src_ts: float,
        dst_rank: int,
        dst_ts: float,
        detail: str = "",
    ) -> None:
        """Record a causal edge between two ranks."""
        self.recorder.flow(kind, src_rank, src_ts, dst_rank, dst_ts, detail)

    def __repr__(self) -> str:
        return f"<Observability enabled={self.enabled} {self.recorder!r}>"
