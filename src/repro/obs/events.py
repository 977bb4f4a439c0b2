"""Structured eviction/theft/fill/writeback event tracing.

A :class:`EventTrace` is a bounded ring buffer of cache-line-level events
(cycle, kind, set, way, owner, cause, tag) emitted from
:class:`~repro.cache.cache.Cache` and the PInTE engine. Tracing is strictly
opt-in and engineered to vanish from the hot path when off:

* every traceable object carries an ``_events`` slot that defaults to
  ``None`` — the emission sites are a single attribute load plus an
  ``is not None`` branch, and they sit on the *fill/invalidate* paths
  (misses), never on the per-access hit path;
* the module-level :data:`ACTIVE` slot is the global enabled flag —
  ``enable_tracing()`` installs a trace that every subsequent host run
  attaches automatically, ``disable_tracing()`` clears it. Hosts that are
  handed an explicit trace (via ``Observation``) use that instead.

The ring is bounded (default 64 Ki events) so arbitrarily long runs cannot
grow memory; ``recorded``/``dropped`` counters and per-kind ``counts`` keep
exact totals even after the ring wraps, which is what lets exporters and the
:class:`~repro.obs.registry.MetricRegistry` stay mutually consistent.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional

__all__ = [
    "ACTIVE",
    "DEFAULT_CAPACITY",
    "EVENT_KINDS",
    "Event",
    "EventTrace",
    "disable_tracing",
    "enable_tracing",
    "observation_events",
    "tracing_enabled",
]

#: Default ring capacity (events kept; totals keep counting past this).
DEFAULT_CAPACITY = 1 << 16

#: Every kind an emission site can produce.
#:
#: * ``fill``       — a block was installed (demand, prefetch or writeback)
#: * ``evict``      — a valid block fell out on a fill (cause ``replace`` for
#:   same-owner conflicts, ``theft`` for natural inter-core thefts)
#: * ``writeback``  — a dirty victim headed for DRAM
#: * ``invalidate`` — a block dropped by protocol action (exclusive hit,
#:   inclusive back-invalidation)
#: * ``theft``      — a PInTE-induced invalidation (the paper's theft)
#: * ``promote``    — a PInTE promotion of an *invalid* way (mocked theft)
EVENT_KINDS = ("fill", "evict", "writeback", "invalidate", "theft", "promote")


class Event(NamedTuple):
    """One traced cache event (read-out form of a ring slot)."""

    seq: int
    cycle: int
    kind: str
    set_index: int
    way: int
    owner: int
    cause: str
    tag: int


class EventTrace:
    """Bounded ring buffer of structured cache events."""

    __slots__ = ("capacity", "clock", "recorded", "dropped", "counts",
                 "_ring", "_attached")

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 clock: Optional[Callable[[], int]] = None) -> None:
        if capacity < 1:
            raise ValueError("event trace capacity must be >= 1")
        self.capacity = capacity
        #: Zero-argument callable giving the current cycle; hosts bind this
        #: to their core clock. Without one, the sequence number stands in.
        self.clock = clock
        self.recorded = 0
        self.dropped = 0
        self.counts: Dict[str, int] = {}
        self._ring: List[tuple] = []
        self._attached: List[object] = []

    # -- emission (hot when enabled; never reached when disabled) -----------
    def record(self, kind: str, set_index: int, way: int, owner: int,
               cause: str = "", tag: int = 0) -> None:
        """Append one event; oldest events fall off past ``capacity``."""
        seq = self.recorded
        self.recorded = seq + 1
        counts = self.counts
        counts[kind] = counts.get(kind, 0) + 1
        clock = self.clock
        cycle = clock() if clock is not None else seq
        ring = self._ring
        if len(ring) == self.capacity:
            ring[seq % self.capacity] = (seq, cycle, kind, set_index, way,
                                         owner, cause, tag)
            self.dropped += 1
        else:
            ring.append((seq, cycle, kind, set_index, way, owner, cause, tag))

    # -- attachment ---------------------------------------------------------
    def attach(self, target) -> None:
        """Install this trace on a cache or PInTE engine (``_events`` slot)."""
        target._events = self
        self._attached.append(target)

    def detach_all(self) -> None:
        """Remove this trace from everything it was attached to."""
        for target in self._attached:
            if getattr(target, "_events", None) is self:
                target._events = None
        self._attached.clear()

    # -- read-out -----------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ring)

    def events(self) -> List[Event]:
        """Retained events, oldest first."""
        ring = self._ring
        if len(ring) < self.capacity or self.recorded == len(ring):
            ordered = ring
        else:
            head = self.recorded % self.capacity
            ordered = ring[head:] + ring[:head]
        return [Event(*slot) for slot in ordered]

    def clear(self) -> None:
        self._ring.clear()
        self.counts.clear()
        self.recorded = 0
        self.dropped = 0


#: Module-level enabled flag: when set, every host run attaches this trace
#: (unless handed an explicit one). ``None`` means tracing is globally off.
ACTIVE: Optional[EventTrace] = None


def enable_tracing(capacity: int = DEFAULT_CAPACITY) -> EventTrace:
    """Turn on global tracing; returns the installed trace."""
    global ACTIVE
    ACTIVE = EventTrace(capacity)
    return ACTIVE


def disable_tracing() -> None:
    """Turn off global tracing."""
    global ACTIVE
    ACTIVE = None


def observation_events(observe) -> Optional[EventTrace]:
    """The event trace a host should emit to for one run.

    Resolution order: the observation's own trace (``observe.events``) wins,
    then the module-level globally-enabled trace (:data:`ACTIVE`), then
    ``None`` — tracing fully off. ``observe`` may be ``None`` or any object
    with an ``events`` attribute (normally a :class:`repro.obs.Observation`).
    """
    if observe is not None and getattr(observe, "events", None) is not None:
        return observe.events
    return ACTIVE


def tracing_enabled() -> bool:
    """True while a global event trace is installed."""
    return ACTIVE is not None
