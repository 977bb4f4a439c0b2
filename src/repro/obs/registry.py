"""Central metric registry: named counters, gauges and histograms.

Telemetry used to be scattered across ``CacheStats``, ``CoreStats``,
``ContentionCounters`` and ``PinteStats``, each with its own attribute
vocabulary. The :class:`MetricRegistry` unifies them behind stable dotted
names (``llc.miss``, ``pinte.theft``, ``core0.ipc``, ...) so exporters, the
CLI and external tooling consume one flat namespace regardless of which
host produced the run.

The hot simulation loops never touch the registry: hosts keep publishing
into their existing slotted counter objects and the registry *absorbs* them
once, at finalisation, via the ``absorb_*`` methods. That keeps the data
path exactly as fast as before while still giving every run a uniform,
exportable metric surface.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricRegistry",
    "collect_host_metrics",
    "format_metrics",
]


class Counter:
    """Monotonic event count."""

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Point-in-time scalar (rates, ratios, wall-clock seconds)."""

    __slots__ = ("name", "value")
    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bin distribution (e.g. the reuse/hit-position histogram)."""

    __slots__ = ("name", "bins")
    kind = "histogram"

    def __init__(self, name: str, n_bins: int = 0) -> None:
        self.name = name
        self.bins: List[int] = [0] * n_bins

    def observe(self, bin_index: int, amount: int = 1) -> None:
        if bin_index >= len(self.bins):
            self.bins.extend([0] * (bin_index + 1 - len(self.bins)))
        self.bins[bin_index] += amount

    def from_counts(self, counts: Iterable[int]) -> "Histogram":
        self.bins = [int(c) for c in counts]
        return self

    def merge(self, other: Union["Histogram", Iterable[int]]) -> "Histogram":
        """Add another histogram's counts bin-wise into this one.

        Mismatched bin counts are fine: the shorter side is treated as
        zero-padded, so merging never loses tail bins. Accepts a
        :class:`Histogram` or a bare count sequence (the wire form used by
        the telemetry fold path).
        """
        counts = other.bins if isinstance(other, Histogram) else list(other)
        if len(counts) > len(self.bins):
            self.bins.extend([0] * (len(counts) - len(self.bins)))
        for index, count in enumerate(counts):
            self.bins[index] += int(count)
        return self

    @property
    def total(self) -> int:
        """Sum of all bin counts (the number of observations)."""
        return sum(self.bins)

    def percentile(self, q: float) -> Optional[int]:
        """Smallest bin index covering the ``q``-th percentile (0..100).

        Returns ``None`` for an empty histogram — there is no meaningful
        bin to point at. ``q=0`` is the first non-empty bin, ``q=100`` the
        last.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile {q!r} outside [0, 100]")
        total = self.total
        if total == 0:
            return None
        target = max(1, -(-int(q * total) // 100))  # ceil(q/100 * total)
        running = 0
        for index, count in enumerate(self.bins):
            running += count
            if running >= target:
                return index
        return len(self.bins) - 1  # pragma: no cover — unreachable

    @property
    def value(self) -> List[int]:
        return list(self.bins)


Metric = Union[Counter, Gauge, Histogram]

#: CacheStats slot -> dotted metric suffix.
_CACHE_STAT_NAMES = {
    "accesses": "access",
    "hits": "hit",
    "misses": "miss",
    "loads": "load",
    "load_hits": "load_hit",
    "stores": "store",
    "store_hits": "store_hit",
    "prefetch_fills": "prefetch_fill",
    "prefetch_useful": "prefetch_useful",
    "writebacks": "writeback",
    "writeback_fills": "writeback_fill",
    "evictions": "eviction",
    "invalidations": "invalidation",
}

#: ContentionCounters slot -> dotted metric suffix.
_CONTENTION_NAMES = {
    "llc_accesses": "llc_access",
    "llc_misses": "llc_miss",
    "thefts_experienced": "theft_experienced",
    "thefts_caused": "theft_caused",
    "interference_misses": "interference_miss",
    "induced_thefts": "induced_theft",
    "induced_promotions": "induced_promotion",
    "pinte_triggers": "pinte_trigger",
}


class MetricRegistry:
    """Flat name -> metric map with get-or-create accessors.

    Names are dotted paths (``llc.miss``); the registry enforces one kind
    per name so an accidental counter/gauge collision fails loudly instead
    of silently aliasing.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    # -- accessors ----------------------------------------------------------
    def _get_or_create(self, name: str, cls, *args) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, *args)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} is a {metric.kind}, not a {cls.kind}")
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str, n_bins: int = 0) -> Histogram:
        return self._get_or_create(name, Histogram, n_bins)

    def count(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def set(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    # -- queries ------------------------------------------------------------
    def get(self, name: str) -> Metric:
        try:
            return self._metrics[name]
        except KeyError:
            raise KeyError(f"unknown metric {name!r}") from None

    def value(self, name: str):
        return self.get(name).value

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def as_dict(self) -> Dict[str, Union[int, float, List[int]]]:
        """Plain-dict snapshot (histograms become bin lists)."""
        return {name: self._metrics[name].value for name in self.names()}

    def total(self, prefix: str) -> int:
        """Sum of all counters under ``prefix.`` (e.g. ``events``)."""
        dotted = prefix + "."
        return sum(metric.value for name, metric in self._metrics.items()
                   if name.startswith(dotted) and isinstance(metric, Counter))

    def merge(self, other: "MetricRegistry") -> "MetricRegistry":
        """Fold another registry into this one, metric by metric.

        Counters add, histograms merge bin-wise, gauges take the other
        side's value (last writer wins — gauges are point-in-time).
        Merging an empty registry is a no-op; a kind collision between the
        two registries raises ``TypeError`` like any other collision.
        """
        for name in other.names():
            metric = other.get(name)
            if isinstance(metric, Counter):
                self.counter(name).inc(metric.value)
            elif isinstance(metric, Histogram):
                self.histogram(name).merge(metric)
            else:
                self.gauge(name).set(metric.value)
        return self

    # -- absorption of legacy stats objects ---------------------------------
    def absorb_cache(self, prefix: str, stats) -> None:
        """Publish a cache's stats under ``prefix``: the fields they hold."""
        for slot, suffix in _CACHE_STAT_NAMES.items():
            if hasattr(stats, slot):
                self.counter(f"{prefix}.{suffix}").inc(getattr(stats, slot))
        self.gauge(f"{prefix}.miss_rate").set(stats.miss_rate)

    def absorb_core(self, prefix: str, stats, cycles: int) -> None:
        """Publish a :class:`~repro.cpu.core.CoreStats` under ``prefix``."""
        self.counter(f"{prefix}.instructions").inc(stats.instructions)
        self.counter(f"{prefix}.cycles").inc(cycles)
        self.counter(f"{prefix}.load").inc(stats.loads)
        self.counter(f"{prefix}.store").inc(stats.stores)
        self.counter(f"{prefix}.branch").inc(stats.branches)
        self.gauge(f"{prefix}.ipc").set(
            stats.instructions / cycles if cycles else 0.0)
        self.gauge(f"{prefix}.amat").set(stats.amat)
        for component, value in stats.cpi_stack().items():
            self.gauge(f"{prefix}.cpi.{component}").set(value)

    def absorb_contention(self, prefix: str, counters) -> None:
        """Publish one owner's contention counters under ``prefix``."""
        for slot, suffix in _CONTENTION_NAMES.items():
            self.counter(f"{prefix}.{suffix}").inc(getattr(counters, slot))
        self.gauge(f"{prefix}.contention_rate").set(counters.contention_rate)
        self.gauge(f"{prefix}.interference_rate").set(
            counters.interference_rate)

    def absorb_pinte(self, stats) -> None:
        """Publish :class:`~repro.core.pinte.PinteStats` as ``pinte.*``."""
        self.counter("pinte.access_seen").inc(stats.accesses_seen)
        self.counter("pinte.trigger").inc(stats.triggers)
        self.counter("pinte.evict_draw").inc(stats.evict_draws_total)
        self.counter("pinte.theft").inc(stats.invalidations)
        self.counter("pinte.promotion").inc(stats.promotions)
        self.counter("pinte.writeback").inc(stats.dirty_writebacks)
        self.gauge("pinte.trigger_rate").set(stats.trigger_rate)

    def absorb_events(self, trace) -> None:
        """Publish an :class:`~repro.obs.events.EventTrace`'s per-kind totals
        (``events.<kind>``) plus the ring's recorded/dropped bookkeeping."""
        from repro.obs.events import EVENT_KINDS

        for kind in EVENT_KINDS:
            self.counter(f"events.{kind}").inc(trace.counts.get(kind, 0))
        self.counter("events.recorded").inc(trace.recorded)
        self.counter("events.dropped").inc(trace.dropped)


def collect_host_metrics(
    registry: Optional[MetricRegistry],
    cores=(),
    llc=None,
    tracker=None,
    engine=None,
    events=None,
    start_cycles=(),
) -> MetricRegistry:
    """Absorb one finished run's stats objects into a registry.

    ``cores`` is indexed by owner id. Each core's ``private_counters()``
    land under ``core<i>.l1i/l1d/l2`` (a replayed core's hold only
    ``access``, ``hit``, ``miss`` and ``miss_rate``), the shared LLC under
    ``llc``, contention counters under ``core<i>.contention`` (and
    ``system.contention`` for the PInTE adversary). ``start_cycles`` holds
    each core's clock at the warm-up boundary, so derived rates (IPC) cover
    the measured region only — matching ``SimulationResult``.
    """
    registry = registry if registry is not None else MetricRegistry()
    for owner, core in enumerate(cores):
        start = start_cycles[owner] if owner < len(start_cycles) else 0
        registry.absorb_core(f"core{owner}", core.stats, core.cycle - start)
        private = core.private_counters()
        for level in ("l1i", "l1d", "l2"):
            registry.absorb_cache(f"core{owner}.{level}",
                                  getattr(private, level))
    if llc is not None:
        registry.absorb_cache("llc", llc.stats)
        if llc.track_reuse:
            registry.histogram("llc.reuse").from_counts(llc.reuse_histogram)
    if tracker is not None:
        from repro.owners import SYSTEM_OWNER

        for owner in tracker.owners:
            prefix = ("system.contention" if owner == SYSTEM_OWNER
                      else f"core{owner}.contention")
            registry.absorb_contention(prefix, tracker.counters(owner))
    if engine is not None:
        registry.absorb_pinte(engine.stats)
    if events is not None:
        registry.absorb_events(events)
    return registry


def format_metrics(registry: MetricRegistry) -> str:
    """Sorted ``name value`` lines — the CLI's ``--metrics`` rendering."""
    lines = []
    for name in registry.names():
        value = registry.value(name)
        if isinstance(value, float):
            rendered = f"{value:.6g}"
        elif isinstance(value, list):
            rendered = "[" + " ".join(str(v) for v in value) + "]"
        else:
            rendered = str(value)
        lines.append(f"{name} {rendered}")
    return "\n".join(lines)
