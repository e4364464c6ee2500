"""Nested phase spans and causal flow links, recorded against the sim clock.

A :class:`PhaseRecorder` hangs off the machine's observability hub and is fed
by every layer of the stack:

* protocols and substrates open **phases** with ``with task.phase(name):``
  around ``yield from`` blocks — entry and exit read the engine clock, so a
  span's extent is exactly the simulated time the block covered, including
  all suspensions inside it.  Phases nest per *simulated process*: a
  pipelined chunk phase contains the flag waits and copies it performs, and
  concurrent helper processes of the same rank (put deliveries, large-message
  forwarders, the Fig. 5 stage processes) get their own span stacks and
  their own export tracks, so sibling processes never mis-nest.
* substrates record **flow links** — put → remote counter increment,
  flag store → waiter wakeup — giving the cross-rank causal edges that the
  critical-path walker follows and that Perfetto draws as flow arrows.

Both are kept in append-only **columnar stores** (:class:`SpanStore`,
:class:`FlowStore`): one Python list per field, one row per span or link.
Recording appends scalars to the columns; compiled replay appends a whole
window's tail as one block.  :class:`PhaseSpan` and :class:`FlowLink`
objects are built only when a consumer reads a row, so recording cost does
not include object construction, and a run that only counts spans
(``len(recorder.spans)``) builds none.  Analyses that scan every row
(critical path, wait classification, export) read the columns directly.

Recording never touches the event queue and never advances the clock, so an
instrumented run is bit-identical to an uninstrumented one (asserted by
``tests/test_obs_invariance.py``).
"""

from __future__ import annotations

import collections.abc
import itertools
import typing
from dataclasses import dataclass

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.machine.cluster import Task
    from repro.sim.engine import Engine

__all__ = ["PhaseSpan", "FlowLink", "SpanStore", "FlowStore", "PhaseRecorder"]


class PhaseSpan:
    """One annotated phase of one rank (possibly nested)."""

    __slots__ = ("index", "rank", "name", "start", "end", "depth", "parent", "track", "detail")

    def __init__(
        self,
        index: int,
        rank: int,
        name: str,
        start: float,
        depth: int,
        parent: int,
        track: int,
        detail: str = "",
        end: float | None = None,
    ) -> None:
        #: The span's id: unique and increasing per recorder, also across
        #: :meth:`PhaseRecorder.clear`.
        self.index = index
        self.rank = rank
        self.name = name
        self.start = start
        #: ``None`` while the phase is still open.
        self.end = end
        #: Nesting depth within this span's process (0 = outermost).
        self.depth = depth
        #: Id of the enclosing span, or -1 for a root span.
        self.parent = parent
        #: Per-rank sub-track: 0 for the first process that recorded a phase
        #: on this rank (the program generator), 1.. for helper processes.
        self.track = track
        #: Free-form attribute (e.g. the dispatch layer's ``op/variant``).
        self.detail = detail

    @property
    def closed(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def __repr__(self) -> str:
        end = f"{self.end:.6g}" if self.end is not None else "open"
        return (
            f"<PhaseSpan {self.name} rank={self.rank} track={self.track} "
            f"[{self.start:.6g}..{end}] depth={self.depth}>"
        )


@dataclass(frozen=True)
class FlowLink:
    """A causal edge from one rank's action to another rank's progress."""

    kind: str
    src_rank: int
    src_ts: float
    dst_rank: int
    dst_ts: float
    detail: str = ""


class _ColumnStore(collections.abc.Sequence):
    """Parallel append-only lists, one per field; a row is built on read.

    Subclasses name their columns in ``FIELDS`` (the row type's constructor
    order) and build a row object in :meth:`_row`.  The store is a sequence
    of row objects — ``len``, indexing, slicing, iteration — plus ``append``
    and item assignment, which copy an object's fields into the columns.
    """

    FIELDS: typing.ClassVar[tuple[str, ...]] = ()
    __slots__ = ("base",)

    def __init__(self) -> None:
        #: Rows dropped by :meth:`clear` so far; ``base + position`` is a
        #: row's recording-order number.
        self.base = 0
        for field in self.FIELDS:
            setattr(self, field, [])

    def _columns(self) -> list[list]:
        return [getattr(self, field) for field in self.FIELDS]

    def _row(self, position: int) -> typing.Any:
        raise NotImplementedError

    def _position(self, index: int) -> int:
        size = len(self)
        position = index + size if index < 0 else index
        if not 0 <= position < size:
            raise IndexError(f"{type(self).__name__} index out of range")
        return position

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._row(position) for position in range(*index.indices(len(self)))]
        return self._row(self._position(index))

    def __setitem__(self, index: int, row: typing.Any) -> None:
        position = self._position(index)
        for field in self.FIELDS:
            getattr(self, field)[position] = getattr(row, field)

    def append(self, row: typing.Any) -> None:
        for field in self.FIELDS:
            getattr(self, field).append(getattr(row, field))

    def extend_columns(self, *columns: typing.Iterable) -> None:
        """Append a block of rows given column by column, in ``FIELDS`` order."""
        for field, values in zip(self.FIELDS, columns, strict=True):
            getattr(self, field).extend(values)

    def clear(self) -> None:
        """Drop every row; later rows keep counting from where these ended."""
        self.base += len(self)
        for column in self._columns():
            column.clear()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} rows={len(self)} base={self.base}>"


class SpanStore(_ColumnStore):
    """The recorder's phase spans, one column per :class:`PhaseSpan` field.

    Row ``i`` is the span with id ``base + i``; ``parent`` holds span ids, so
    a parent id below ``base`` names a span dropped by :meth:`clear`.
    ``end`` is ``None`` while a span is open.  Appended or assigned spans
    take the id of their position, whatever their ``index`` says.
    """

    FIELDS = ("rank", "name", "start", "depth", "parent", "track", "detail", "end")
    __slots__ = FIELDS

    def __len__(self) -> int:
        return len(self.name)

    def _row(self, position: int) -> PhaseSpan:
        return PhaseSpan(
            self.base + position,
            self.rank[position],
            self.name[position],
            self.start[position],
            self.depth[position],
            self.parent[position],
            self.track[position],
            self.detail[position],
            self.end[position],
        )

    def __iter__(self) -> typing.Iterator[PhaseSpan]:
        return map(PhaseSpan, itertools.count(self.base), *self._columns())

    def row_of(self, span_id: int) -> int:
        """The row holding span ``span_id``, or -1 when no row does.

        -1 covers a root's parent (-1), a span dropped by :meth:`clear` and
        an id not recorded yet.
        """
        position = span_id - self.base
        return position if span_id >= 0 and 0 <= position < len(self) else -1


class FlowStore(_ColumnStore):
    """The recorder's flow links, one column per :class:`FlowLink` field."""

    FIELDS = ("kind", "src_rank", "src_ts", "dst_rank", "dst_ts", "detail")
    __slots__ = FIELDS

    def __len__(self) -> int:
        return len(self.kind)

    def _row(self, position: int) -> FlowLink:
        return FlowLink(
            self.kind[position],
            self.src_rank[position],
            self.src_ts[position],
            self.dst_rank[position],
            self.dst_ts[position],
            self.detail[position],
        )

    def __iter__(self) -> typing.Iterator[FlowLink]:
        return map(FlowLink, *self._columns())

    def by_destination(self) -> dict[int, list[int]]:
        """Row positions per destination rank, sorted by arrival time.

        Ties keep recording order (the sort is stable).
        """
        dst_ts = self.dst_ts
        dst_rank = self.dst_rank
        grouped: dict[int, list[int]] = {}
        for position in sorted(range(len(dst_ts)), key=dst_ts.__getitem__):
            grouped.setdefault(dst_rank[position], []).append(position)
        return grouped


class _PhaseLane:
    """The open spans of one simulated process on one rank.

    The lane is also the context manager of its next span:
    :meth:`PhaseRecorder.phase` finds the lane, leaves the span's name and
    detail on it and returns it; ``__enter__`` appends the span's row and
    pushes its id, ``__exit__`` pops it and writes its end.  A ``with``
    block enters right after ``phase()`` returns and spans of one process
    close innermost first, so one object serves every span of the lane and
    no per-span object is built.
    """

    __slots__ = ("_recorder", "_rank", "_track", "_stack", "_name", "_detail")

    def __init__(self, recorder: "PhaseRecorder", rank: int, track: int) -> None:
        self._recorder = recorder
        self._rank = rank
        #: Export sub-track: 0 for the first process that recorded a phase
        #: on this rank (the program generator), 1.. for helper processes.
        self._track = track
        #: Ids of the open spans, outermost first.
        self._stack: list[int] = []
        self._name = ""
        self._detail = ""

    def __enter__(self) -> int:
        recorder = self._recorder
        spans = recorder.spans
        stack = self._stack
        span_id = spans.base + len(spans.name)
        spans.rank.append(self._rank)
        spans.name.append(self._name)
        spans.start.append(recorder.engine._now)
        spans.depth.append(len(stack))
        spans.parent.append(stack[-1] if stack else -1)
        spans.track.append(self._track)
        spans.detail.append(self._detail)
        spans.end.append(None)
        stack.append(span_id)
        return span_id

    def __exit__(self, exc_type, exc, tb) -> None:
        recorder = self._recorder
        spans = recorder.spans
        position = self._stack.pop() - spans.base
        if position >= 0:  # otherwise clear() dropped the span while open
            spans.end[position] = recorder.engine._now
        return None


class _NullContext:
    """Shared no-op context for a disabled recorder."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_CONTEXT = _NullContext()


class PhaseRecorder:
    """Phase spans + flow links for one machine."""

    def __init__(self, engine: "Engine", enabled: bool = True) -> None:
        self.engine = engine
        self.enabled = enabled
        self.spans = SpanStore()
        self.flows = FlowStore()
        #: Span lanes keyed by (rank, process identity).
        self._lanes: dict[tuple[int, int], _PhaseLane] = {}
        self._next_track: dict[int, int] = {}

    # -- recording -----------------------------------------------------------

    def phase(self, task: "Task", name: str, detail: str = "") -> typing.ContextManager:
        """A context manager recording one phase of ``task``.

        Entering it returns the new span's id (``None`` when disabled).  Use
        it directly in a ``with`` statement: the context is the span lane of
        the calling process, and it records the name and detail of the
        latest ``phase()`` call.
        """
        if not self.enabled:
            return _NULL_CONTEXT
        rank = task.rank
        active = self.engine._active_process
        key = (rank, id(active) if active is not None else 0)
        lane = self._lanes.get(key)
        if lane is None:
            track = self._next_track.get(rank, 0)
            self._next_track[rank] = track + 1
            lane = self._lanes[key] = _PhaseLane(self, rank, track)
        lane._name = name
        lane._detail = detail
        return lane

    def flow(
        self,
        kind: str,
        src_rank: int,
        src_ts: float,
        dst_rank: int,
        dst_ts: float,
        detail: str = "",
    ) -> None:
        """Record a causal edge (no-op when disabled)."""
        if not self.enabled:
            return
        flows = self.flows
        flows.kind.append(kind)
        flows.src_rank.append(src_rank)
        flows.src_ts.append(src_ts)
        flows.dst_rank.append(dst_rank)
        flows.dst_ts.append(dst_ts)
        flows.detail.append(detail)

    # -- queries -------------------------------------------------------------

    def closed_spans(self, start: float | None = None, end: float | None = None) -> list[PhaseSpan]:
        """Closed spans overlapping ``[start, end]`` (default: all closed)."""
        spans = self.spans
        return [
            spans[position]
            for position, (span_start, span_end) in enumerate(zip(spans.start, spans.end))
            if span_end is not None
            and (start is None or span_end >= start)
            and (end is None or span_start <= end)
        ]

    def ranks(self) -> list[int]:
        return sorted(set(self.spans.rank))

    def by_phase(self) -> dict[str, float]:
        """Total closed-span seconds per phase name (inclusive of children)."""
        totals: dict[str, float] = {}
        spans = self.spans
        for name, start, end in zip(spans.name, spans.start, spans.end):
            if end is None:
                continue
            totals[name] = totals.get(name, 0.0) + (end - start)
        return totals

    def clear(self) -> None:
        """Drop all recorded spans and flows.

        Open stacks survive: a span open across the clear still nests the
        spans opened after it, but it is gone from :attr:`spans` and closing
        it records nothing.  Span ids keep increasing across the clear, so a
        child's ``parent`` never names a newer span — it names the dropped
        one, for which :meth:`SpanStore.row_of` returns -1.
        """
        self.spans.clear()
        self.flows.clear()

    def __repr__(self) -> str:
        return (
            f"<PhaseRecorder spans={len(self.spans)} flows={len(self.flows)} "
            f"enabled={self.enabled}>"
        )
