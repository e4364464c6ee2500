"""Perfetto/Chrome trace and JSON metrics exports.

:func:`chrome_trace` merges three layers into one Trace Event JSON list that
``chrome://tracing`` and https://ui.perfetto.dev load directly:

* per-call collective spans from a :class:`~repro.bench.trace.Tracer`
  (category ``call``) — the outermost slices;
* nested phase spans from the machine's :class:`~repro.obs.spans.PhaseRecorder`
  (category ``phase``) — children of the call slices by time containment;
* flow events (``ph: s``/``f``) for every recorded causal link — Perfetto
  draws them as arrows from a put's issue slice to the remote counter-wait
  slice it released;
* counter tracks (``ph: C``, category ``resource``) for every
  :class:`~repro.obs.monitor.ResourceTimeline` sample — bus/NIC occupancy,
  FIFO queue depth, and saturation render as stacked area charts above the
  slice tracks, so "who was hogging node 0's memory bus during that
  flag-wait?" is answered by looking up.

Track layout: pid 0, tid ``rank * 64 + subtrack`` — subtrack 0 is the rank's
program process (where call slices also live), higher subtracks are helper
processes (put deliveries, large-message forwarders, Fig. 5 stages), so
overlapping concurrent spans of one rank never corrupt slice nesting.

Every event family is emitted in a deterministic sorted order — flows by
``(src_ts, src_rank, dst_ts, dst_rank, kind, detail)`` with ids assigned
after the sort, counter samples by ``(ts, resource name)`` — so two exports
of the same run are byte-identical artifacts (diffable in CI).

:func:`metrics_dump` serializes the metrics registry, resource-timeline
summaries, and per-task substrate stats as one JSON-ready dict.
"""

from __future__ import annotations

import json
import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cluster import Machine

__all__ = ["chrome_trace", "metrics_dump", "write_json", "TRACKS_PER_RANK"]

#: tid stride per rank: subtracks 0..63 per rank fit under one process row.
TRACKS_PER_RANK = 64


def _tid(rank: int, track: int) -> int:
    return rank * TRACKS_PER_RANK + min(track, TRACKS_PER_RANK - 1)


def chrome_trace(
    machine: "Machine",
    tracer: typing.Any | None = None,
    include_phases: bool = True,
    include_flows: bool = True,
    include_counters: bool = True,
) -> list[dict]:
    """The machine's recorded activity as Chrome Trace Event JSON."""
    events: list[dict] = []
    recorder = machine.obs.recorder
    ranks: set[int] = set(recorder.ranks())
    tracks_used: dict[int, int] = {}

    if tracer is not None:
        for span in tracer.spans:
            ranks.add(span.rank)
            events.append(
                {
                    "name": f"{span.operation}[{span.call_index}]",
                    "cat": "call",
                    "ph": "X",
                    "ts": span.start * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": 0,
                    "tid": _tid(span.rank, 0),
                    "args": {
                        "copies": span.copies,
                        "bytes_copied": span.bytes_copied,
                        "reduce_ops": span.reduce_ops,
                        "puts": span.puts,
                        "mpi_sends": span.mpi_sends,
                        "interrupts": span.interrupts,
                        "yields": span.yields,
                    },
                }
            )

    if include_phases:
        now = machine.engine.now
        spans = recorder.spans
        for rank, name, start, depth, track, detail, end in zip(
            spans.rank, spans.name, spans.start, spans.depth, spans.track, spans.detail, spans.end
        ):
            if end is None:
                end = now
            tracks_used[rank] = max(tracks_used.get(rank, 0), track)
            args: dict = {"depth": depth, "track": track}
            if detail:
                args["detail"] = detail
            events.append(
                {
                    "name": name,
                    "cat": "phase",
                    "ph": "X",
                    "ts": start * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": 0,
                    "tid": _tid(rank, track),
                    "args": args,
                }
            )

    if include_flows:
        # Deterministic order: recorded order depends on scheduler internals
        # at equal timestamps, so sort by the links' own coordinates and
        # assign ids after the sort — the export is a byte-stable artifact.
        links = sorted(
            recorder.flows,
            key=lambda f: (f.src_ts, f.src_rank, f.dst_ts, f.dst_rank, f.kind, f.detail),
        )
        for index, link in enumerate(links):
            common = {"cat": "flow", "name": link.kind, "id": index, "pid": 0}
            events.append(
                {
                    **common,
                    "ph": "s",
                    "ts": link.src_ts * 1e6,
                    "tid": _tid(link.src_rank, 0),
                    "args": {"detail": link.detail},
                }
            )
            events.append(
                {
                    **common,
                    "ph": "f",
                    "bp": "e",
                    "ts": link.dst_ts * 1e6,
                    "tid": _tid(link.dst_rank, 0),
                }
            )

    if include_counters:
        events.extend(_counter_events(machine))

    # Human-readable track names (metadata events sort first in viewers).
    names: list[dict] = []
    for rank in sorted(ranks):
        names.append(_thread_name(rank, 0, f"rank {rank}"))
        for track in range(1, tracks_used.get(rank, 0) + 1):
            names.append(_thread_name(rank, track, f"rank {rank} helper {track}"))
    return names + events


def _counter_events(machine: "Machine") -> list[dict]:
    """Perfetto counter-track events from the resource monitor's timelines.

    One ``ph: "C"`` event per recorded sample, sorted by (timestamp, resource
    name) so the artifact is byte-stable.  Each resource gets its own named
    counter track (Perfetto keys counter tracks by event name).
    """
    monitor = getattr(machine.obs, "monitor", None)
    if monitor is None:
        return []
    points: list[tuple[float, str, dict]] = []
    for name in sorted(monitor.timelines):
        timeline = monitor.timelines[name]
        for sample in timeline.samples:
            points.append(
                (
                    sample.time,
                    name,
                    {
                        "occupancy": sample.occupancy,
                        "queued": sample.queued,
                        "saturated": 1 if sample.saturated else 0,
                    },
                )
            )
    points.sort(key=lambda p: (p[0], p[1]))
    return [
        {
            "name": f"resource:{name}",
            "cat": "resource",
            "ph": "C",
            "ts": ts * 1e6,
            "pid": 0,
            "args": args,
        }
        for ts, name, args in points
    ]


def _thread_name(rank: int, track: int, label: str) -> dict:
    return {
        "name": "thread_name",
        "ph": "M",
        "pid": 0,
        "tid": _tid(rank, track),
        "args": {"name": label},
    }


def metrics_dump(machine: "Machine", tracer: typing.Any | None = None) -> dict:
    """Registry metrics + per-task substrate stats as one JSON-ready dict."""
    tasks = {}
    for task in machine.tasks:
        tasks[task.rank] = {
            "copies": task.stats.copies,
            "bytes_copied": task.stats.bytes_copied,
            "reduce_ops": task.stats.reduce_ops,
            "bytes_reduced": task.stats.bytes_reduced,
            "yields": task.stats.yields,
            "interrupts": task.stats.interrupts,
            "lapi": {
                "puts": task.lapi.stats.puts,
                "gets": task.lapi.stats.gets,
                "amsends": task.lapi.stats.amsends,
                "rmws": task.lapi.stats.rmws,
                "bytes_put": task.lapi.stats.bytes_put,
                "bytes_got": task.lapi.stats.bytes_got,
                "stalled_deliveries": task.lapi.stats.stalled_deliveries,
            },
            "mpi": {"sends": task.mpi.stats.sends},
        }
    monitor = getattr(machine.obs, "monitor", None)
    out = {
        "simulated_time": machine.engine.now,
        "events_processed": machine.engine.events_processed,
        "metrics": machine.obs.metrics.to_dict(),
        "phase_totals": machine.obs.recorder.by_phase(),
        "flow_counts": _flow_counts(machine),
        "resources": monitor.to_dict() if monitor is not None else {},
        "tasks": tasks,
    }
    if tracer is not None:
        out["calls"] = [
            {
                "rank": span.rank,
                "operation": span.operation,
                "call_index": span.call_index,
                "start": span.start,
                "end": span.end,
            }
            for span in tracer.spans
        ]
    return out


def _flow_counts(machine: "Machine") -> dict[str, int]:
    counts: dict[str, int] = {}
    for kind in machine.obs.recorder.flows.kind:
        counts[kind] = counts.get(kind, 0) + 1
    return counts


def write_json(path: str, payload: typing.Any) -> None:
    """Dump ``payload`` as JSON to ``path`` ('-' writes to stdout)."""
    text = json.dumps(payload, indent=1)
    if path == "-":
        print(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
