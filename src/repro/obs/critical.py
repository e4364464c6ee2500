"""Critical-path attribution over phase spans and flow links.

The walker answers the question the paper's evaluation keeps asking
implicitly: *which phases is the makespan actually made of?*  Starting from
the last event of the window (the rank that finished last), it walks
simulated time backwards:

* inside an annotated phase it charges the elapsed interval to that phase and
  jumps to the phase's start — always the *innermost, latest-starting* span
  covering the instant, so a pipelined chunk's flag wait is charged to
  ``flag-wait``, not to the enclosing ``pipeline-chunk``;
* inside a **wait phase** (``flag-wait``, ``counter-wait``, ``stream-join``)
  it looks for the flow link that released the waiter, charges the detection
  tail to the wait, charges the link's transit time to ``put-flight`` (zero
  for same-time flag wakeups), and continues on the *source* rank at the
  moment the cause was issued — hopping across ranks exactly the way
  causality did;
* time covered by no span is charged to ``(untracked)``.

Every step attributes a contiguous interval ending at the cursor and moves
the cursor to that interval's start, so the per-phase durations sum to the
window extent *exactly* — the breakdown is a partition of the makespan, not
a sample of it.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass

from repro.obs.spans import FlowLink, FlowStore, PhaseRecorder
from repro.obs.taxonomy import PUT_FLIGHT, UNTRACKED, WAIT_PHASES

__all__ = ["CriticalPath", "Segment", "critical_path"]


@dataclass(frozen=True)
class Segment:
    """One attributed interval of the critical path."""

    rank: int
    start: float
    end: float
    phase: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class CriticalPath:
    """The walker's result: a rank-hopping partition of the window."""

    def __init__(self, segments: list[Segment], start: float, end: float) -> None:
        #: Chronological (earliest first) attributed segments.
        self.segments = segments
        self.start = start
        self.end = end

    @property
    def total(self) -> float:
        """The window extent the walk partitioned."""
        return self.end - self.start

    @property
    def attributed(self) -> float:
        """Sum of all segment durations (equals ``total`` by construction)."""
        return sum(segment.duration for segment in self.segments)

    def by_phase(self) -> dict[str, float]:
        """Critical-path seconds per phase, largest first."""
        totals: dict[str, float] = {}
        for segment in self.segments:
            totals[segment.phase] = totals.get(segment.phase, 0.0) + segment.duration
        return dict(sorted(totals.items(), key=lambda item: -item[1]))

    def top(self, n: int = 10) -> list[Segment]:
        """The ``n`` longest individual segments."""
        return sorted(self.segments, key=lambda s: -s.duration)[:n]

    def to_dict(self) -> dict:
        """A compact JSON-ready summary for benchmark snapshots.

        Phase keys are sorted by name (not by weight) so two runs of the
        same workload serialize byte-identically and snapshot diffs stay
        stable; times are microseconds to match the benchmark tables.
        """
        by_phase = self.by_phase()
        return {
            "total_us": self.total * 1e6,
            "attributed_us": self.attributed * 1e6,
            "segments": len(self.segments),
            "ranks": len({segment.rank for segment in self.segments}),
            "phases_us": {name: by_phase[name] * 1e6 for name in sorted(by_phase)},
        }

    def __repr__(self) -> str:
        return (
            f"<CriticalPath {len(self.segments)} segments over "
            f"{self.total * 1e6:.1f}us>"
        )


class _RankIndex:
    """Per-rank span lookup: innermost latest-starting span covering t.

    Spans are ``(start, depth, end, name)`` rows read from the recorder's
    columns.
    """

    def __init__(self, rows: list[tuple[float, int, float, str]]) -> None:
        #: Sorted by start time; ties broken by depth (deeper last), then
        #: recording order.
        self.rows = sorted(rows, key=operator.itemgetter(0, 1))
        self.starts = [row[0] for row in self.rows]

    def covering(self, t: float) -> tuple[float, int, float, str] | None:
        """The row with ``start < t <= end`` maximizing (start, depth)."""
        # Rows are sorted by start; walk left from the first start >= t.
        hi = bisect.bisect_left(self.starts, t)
        for i in range(hi - 1, -1, -1):
            row = self.rows[i]
            if row[2] >= t:
                return row
        return None

    def previous_end(self, t: float) -> float | None:
        """The latest span end strictly before ``t`` (for gap hopping)."""
        best: float | None = None
        for start, _depth, end, _name in self.rows:
            if start >= t:
                break
            if end < t and (best is None or end > best):
                best = end
        return best


class _FlowIndex:
    """Per-destination-rank flow lookup, sorted by arrival time."""

    def __init__(self, flows: FlowStore) -> None:
        self._flows = flows
        self._by_dst = flows.by_destination()

    def releasing(self, rank: int, not_before: float, not_after: float) -> FlowLink | None:
        """The latest link into ``rank`` arriving in ``[not_before, not_after)``."""
        positions = self._by_dst.get(rank)
        if not positions:
            return None
        dst_ts = self._flows.dst_ts
        # Latest arrival strictly before the cursor keeps the walk moving.
        for position in reversed(positions):
            if dst_ts[position] >= not_after:
                continue
            if dst_ts[position] < not_before:
                break
            return self._flows[position]
        return None


def critical_path(
    recorder: PhaseRecorder,
    start: float | None = None,
    end: float | None = None,
    max_steps: int = 1_000_000,
) -> CriticalPath:
    """Walk the recorded spans/flows backwards and partition ``[start, end]``.

    ``start`` / ``end`` default to the extent of the recorded spans.  Raises
    ``ValueError`` when nothing usable was recorded.
    """
    columns = recorder.spans
    closed = [
        row
        for row in zip(columns.rank, columns.start, columns.end, columns.depth, columns.name)
        if row[2] is not None
    ]
    if start is None:
        if not closed:
            raise ValueError("no closed phase spans recorded")
        start = min(row[1] for row in closed)
    if end is None:
        if not closed:
            raise ValueError("no closed phase spans recorded")
        end = max(row[2] for row in closed)
    if end < start:
        raise ValueError(f"critical_path window is inverted: [{start}, {end}]")

    window = [row for row in closed if row[2] > start and row[1] < end]
    grouped: dict[int, list[tuple[float, int, float, str]]] = {}
    for rank, span_start, span_end, depth, name in window:
        grouped.setdefault(rank, []).append((span_start, depth, span_end, name))
    by_rank = {rank: _RankIndex(rows) for rank, rows in grouped.items()}
    flows = _FlowIndex(recorder.flows)

    # Start on the rank whose annotated activity ends last.
    if window:
        rank = max(window, key=operator.itemgetter(2))[0]
    else:
        rank = 0

    segments: list[Segment] = []

    def attribute(seg_rank: int, seg_start: float, seg_end: float, phase: str) -> None:
        if seg_end > seg_start:
            segments.append(Segment(seg_rank, seg_start, seg_end, phase))

    t = end
    epsilon = 1e-15 * max(1.0, abs(end))
    steps = 0
    while t > start + epsilon and steps < max_steps:
        steps += 1
        index = by_rank.get(rank)
        span = index.covering(t) if index is not None else None

        if span is None:
            previous = index.previous_end(t) if index is not None else None
            floor = max(previous, start) if previous is not None else start
            attribute(rank, floor, t, UNTRACKED)
            t = floor
            continue

        span_start = max(span[0], start)
        name = span[3]
        if name in WAIT_PHASES:
            link = flows.releasing(rank, span_start, t)
            if link is not None and link.src_ts < t - epsilon:
                arrival = min(max(link.dst_ts, span_start), t)
                # Detection tail: from the cause's arrival to the cursor.
                attribute(rank, arrival, t, name)
                # Transit: from the cause's issue to its arrival.
                if arrival > link.src_ts:
                    attribute(link.src_rank, link.src_ts, arrival, PUT_FLIGHT)
                rank = link.src_rank
                t = min(link.src_ts, t)
                continue
        attribute(rank, span_start, t, name)
        t = span_start

    if t > start + epsilon:  # pragma: no cover - max_steps safety valve
        attribute(rank, start, t, UNTRACKED)

    segments.reverse()
    return CriticalPath(segments, start, end)
