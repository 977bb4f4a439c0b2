"""Cross-process campaign telemetry: spool, tail, fold.

The campaign engine runs a job either inline in the campaign's own
process or on one of a pool of persistent worker processes, each of which
runs many jobs. A pooled job's
:class:`~repro.obs.registry.MetricRegistry`,
:class:`~repro.obs.profile.PhaseProfiler` spans and resource usage are
invisible to the parent until its result comes back. This module is the
bus that carries them home **while the job runs**, the same way on either
path:

* **job side** — a :class:`TelemetrySpooler` appends self-describing
  JSONL records to a per-job spool file under the campaign store
  directory: a ``start`` record at launch, periodic ``res`` resource
  samples (:mod:`repro.obs.resources`), incremental ``delta`` registry
  snapshots (only what changed since the last snapshot), ``span`` records
  for profiler phases, and a final ``end`` record.
* **parent / observer side** — a :class:`SpoolTail` incrementally reads
  one spool file (tolerating a torn trailing line from a mid-write kill),
  and a :class:`CampaignTelemetry` tails the whole spool directory,
  folding every job's records into per-job registries and campaign-wide
  aggregates (duration/attempt histograms, CPU and peak-RSS totals,
  per-config throughput). Folding is **idempotent** — gauges are set and
  histograms rebuilt from the folded state — so it can run on every poll
  of a live campaign without double counting.

Any process that can see the store directory can tail it: the campaign
parent does (live ``observe=`` registry), and so does ``repro campaign
watch`` running in a different terminal.
"""

from __future__ import annotations

import json
import os
import time
from bisect import bisect_left
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.obs.profile import PhaseProfiler, Span
from repro.obs.registry import Counter, Histogram, MetricRegistry
from repro.obs.resources import ResourceSample, ResourceSampler

__all__ = [
    "CampaignTelemetry",
    "DURATION_BUCKET_EDGES",
    "JobTelemetry",
    "POOL_SPOOL_ID",
    "SpoolTail",
    "TelemetrySettings",
    "TelemetrySpooler",
    "apply_delta",
    "bucket_index",
    "bucket_value",
    "diff_registry",
    "pool_spool_path",
    "registry_state",
    "spool_path",
]

#: Geometric bucket edges (seconds) for the job-duration histogram:
#: 1 ms up to ~2.3 hours, doubling per bin.
DURATION_BUCKET_EDGES: Tuple[float, ...] = tuple(
    0.001 * 2 ** i for i in range(24))


def bucket_index(value: float, edges: Tuple[float, ...] = DURATION_BUCKET_EDGES,
                 ) -> int:
    """Histogram bin for ``value`` given ascending bucket ``edges``.

    Bin ``i`` covers values up to ``edges[i]``; values beyond the last
    edge land in one overflow bin.
    """
    return bisect_left(edges, value)


def bucket_value(index: int,
                 edges: Tuple[float, ...] = DURATION_BUCKET_EDGES) -> float:
    """Upper edge represented by histogram bin ``index`` (for display)."""
    return edges[min(index, len(edges) - 1)]


def spool_path(directory: Union[str, Path], job_id: str) -> Path:
    """The spool file for one job under a telemetry directory."""
    return Path(directory) / f"{job_id}.jsonl"


#: Pseudo job id for the pool executor's own spool. Job ids are hex
#: digests, so the underscore can never collide with a real job.
POOL_SPOOL_ID = "_pool"


def pool_spool_path(directory: Union[str, Path]) -> Path:
    """The pool executor's gauge spool under a telemetry directory.

    Written by :class:`repro.campaign.pool.PoolExecutor` as plain
    ``delta`` records whose gauges carry *absolute* values (steal and
    respawn totals, per-worker occupancy), so folding the whole spool is
    idempotent — the newest record wins.
    """
    return spool_path(directory, POOL_SPOOL_ID)


# -- snapshot / delta encoding ----------------------------------------------

def registry_state(registry: MetricRegistry) -> Dict[str, object]:
    """Plain-value snapshot used as the delta baseline (name -> value)."""
    return registry.as_dict()


def diff_registry(registry: MetricRegistry,
                  last: Dict[str, object]) -> Optional[dict]:
    """Changes in ``registry`` since the ``last`` snapshot, or ``None``.

    Counters and histograms are encoded as *increments* (so re-folding
    deltas in order reconstructs the exact totals); gauges carry their
    current value. Metrics absent from ``last`` diff against zero.
    """
    counters: Dict[str, int] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, List[int]] = {}
    for name in registry.names():
        metric = registry.get(name)
        previous = last.get(name)
        if isinstance(metric, Counter):
            delta = metric.value - (previous or 0)
            if delta:
                counters[name] = delta
        elif isinstance(metric, Histogram):
            bins = metric.bins
            old = list(previous or ())
            old.extend([0] * (len(bins) - len(old)))
            changes = [new - before for new, before in zip(bins, old)]
            if any(changes):
                histograms[name] = changes
        elif metric.value != previous:
            gauges[name] = metric.value
    if not (counters or gauges or histograms):
        return None
    delta: dict = {}
    if counters:
        delta["counters"] = counters
    if gauges:
        delta["gauges"] = gauges
    if histograms:
        delta["histograms"] = histograms
    return delta


def apply_delta(registry: MetricRegistry, delta: dict) -> None:
    """Fold one ``delta`` record payload into ``registry``."""
    for name, amount in delta.get("counters", {}).items():
        registry.counter(name).inc(int(amount))
    for name, value in delta.get("gauges", {}).items():
        registry.gauge(name).set(float(value))
    for name, bins in delta.get("histograms", {}).items():
        registry.histogram(name).merge(bins)


# -- worker side -------------------------------------------------------------

class TelemetrySettings:
    """How a campaign spools telemetry.

    ``interval_seconds`` is the resource-sampling cadence inside each
    worker; ``0`` spools lifecycle/metric records but never starts the
    sampling thread. Constructed from the user-facing ``telemetry=``
    argument of :func:`repro.campaign.run_campaign` via :meth:`coerce`.
    """

    def __init__(self, interval_seconds: float = 1.0) -> None:
        if interval_seconds < 0:
            raise ValueError("telemetry interval must be >= 0")
        self.interval_seconds = float(interval_seconds)

    @classmethod
    def coerce(cls, value) -> Optional["TelemetrySettings"]:
        """Normalise ``telemetry=`` (None/bool/number/settings)."""
        if value is None or value is False:
            return None
        if value is True:
            return cls()
        if isinstance(value, cls):
            return value
        return cls(interval_seconds=float(value))

    def __repr__(self) -> str:
        return f"TelemetrySettings(interval_seconds={self.interval_seconds})"


class TelemetrySpooler:
    """Worker-side telemetry writer for one job attempt.

    Every record is one ``\\n``-terminated JSON line written in a single
    ``write`` call and flushed immediately, so a SIGKILL can at worst
    leave one torn trailing line — which :class:`SpoolTail` skips.
    """

    def __init__(self, path: Union[str, Path], job_id: str, attempt: int = 1,
                 label: str = "", interval_seconds: float = 0.0) -> None:
        self.path = Path(path)
        self.job_id = job_id
        self.attempt = attempt
        self.label = label
        self.interval_seconds = interval_seconds
        self._handle = None
        self._last_state: Dict[str, object] = {}
        self._seq = 0
        self._started_wall = 0.0
        self._sampler: Optional[ResourceSampler] = None

    def _write(self, record: dict) -> None:
        if self._handle is None:
            return
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        self._handle.write(line + "\n")
        self._handle.flush()

    def _emit_resource(self, sample: ResourceSample) -> None:
        self._write({"k": "res", "t": time.time(), **sample.to_record()})

    def start(self) -> "TelemetrySpooler":
        """Open the spool, announce the attempt, start resource sampling."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle = open(self.path, "a", encoding="utf-8")
        self._started_wall = time.time()
        self._write({"k": "start", "job_id": self.job_id,
                     "attempt": self.attempt, "label": self.label,
                     "pid": os.getpid(), "t": self._started_wall,
                     "interval": self.interval_seconds})
        self._sampler = ResourceSampler(self.interval_seconds,
                                        emit=self._emit_resource)
        self._sampler.start()
        return self

    def snapshot(self, registry: Optional[MetricRegistry]) -> bool:
        """Spool an incremental registry delta; True when one was written."""
        if registry is None or self._handle is None:
            return False
        delta = diff_registry(registry, self._last_state)
        if delta is None:
            return False
        self._seq += 1
        self._write({"k": "delta", "seq": self._seq, **delta})
        self._last_state = registry_state(registry)
        return True

    def finish(self, registry: Optional[MetricRegistry] = None,
               profiler: Optional[PhaseProfiler] = None,
               status: str = "ok", wall_seconds: Optional[float] = None,
               instructions: Optional[int] = None) -> None:
        """Final snapshot + spans + end record; closes the spool."""
        if self._handle is None:
            return
        if self._sampler is not None:
            self._sampler.stop()
            if self._sampler.enabled:
                self._sampler.sample_once()  # closing reading (peak RSS)
        self.snapshot(registry)
        if profiler is not None:
            for span in profiler.spans:
                self._write({"k": "span", "name": span.name,
                             "start": span.start, "duration": span.duration})
        end: dict = {"k": "end", "t": time.time(), "status": status}
        if wall_seconds is not None:
            end["wall_seconds"] = wall_seconds
        if instructions is not None:
            end["instructions"] = instructions
        self._write(end)
        self._handle.close()
        self._handle = None


# -- parent / observer side --------------------------------------------------

class SpoolTail:
    """Incremental reader of one JSONL spool file.

    Only complete (newline-terminated) lines are consumed; a torn trailing
    line stays in the file until the writer finishes it, so the reader's
    offset never lands mid-record. A *complete* line that still fails to
    parse (disk corruption) is counted and skipped rather than raised —
    one bad record must not blind the whole dashboard.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.offset = 0
        self.corrupt = 0

    def poll(self) -> List[dict]:
        """Records appended since the last poll (may be empty)."""
        try:
            with open(self.path, "rb") as handle:
                handle.seek(self.offset)
                chunk = handle.read()
        except FileNotFoundError:
            return []
        if not chunk:
            return []
        complete = chunk.rfind(b"\n") + 1
        if complete == 0:
            return []  # only a torn tail so far
        records: List[dict] = []
        for line in chunk[:complete].split(b"\n"):
            if not line.strip():
                continue
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError:
                self.corrupt += 1
        self.offset += complete
        return records


class JobTelemetry:
    """Folded telemetry state for one job (latest attempt wins)."""

    #: Cap on retained resource samples (timeline export stays bounded).
    MAX_RESOURCE_SAMPLES = 4096

    def __init__(self, job_id: str) -> None:
        self.job_id = job_id
        self.attempt = 0
        self.attempts_seen = 0
        self.label = ""
        self.pid: Optional[int] = None
        self.started_t: Optional[float] = None
        self.ended_t: Optional[float] = None
        self.status: Optional[str] = None
        self.wall_seconds: Optional[float] = None
        self.instructions: Optional[int] = None
        self.registry = MetricRegistry()
        self.spans: List[Span] = []
        self.resources: List[Tuple[float, float, int]] = []  # (t, cpu, rss)
        self.cpu_seconds = 0.0
        self.peak_rss_kb = 0

    @property
    def running(self) -> bool:
        """Started but not yet ended (as far as the spool shows)."""
        return self.started_t is not None and self.ended_t is None

    @property
    def records_per_sec(self) -> Optional[float]:
        """End-to-end throughput, when the end record carried both parts."""
        if self.instructions and self.wall_seconds:
            return self.instructions / self.wall_seconds
        return None

    def age_seconds(self, now: Optional[float] = None) -> float:
        """Seconds since the attempt started (0 before any start record)."""
        if self.started_t is None:
            return 0.0
        return max(0.0, (now if now is not None else time.time())
                   - self.started_t)

    def _reset_attempt(self) -> None:
        self.registry = MetricRegistry()
        self.spans = []
        self.resources = []
        self.ended_t = None
        self.status = None
        self.wall_seconds = None
        self.instructions = None

    def apply(self, record: dict) -> None:
        """Fold one spool record into this job's state."""
        kind = record.get("k")
        if kind == "start":
            # A retry re-runs the job from scratch in a fresh worker; its
            # telemetry supersedes the failed attempt's.
            self._reset_attempt()
            self.attempt = int(record.get("attempt", 1))
            self.attempts_seen += 1
            self.label = record.get("label", self.label)
            self.pid = record.get("pid")
            self.started_t = record.get("t")
        elif kind == "res":
            self.cpu_seconds = float(record.get("cpu", 0.0))
            self.peak_rss_kb = max(self.peak_rss_kb,
                                   int(record.get("rss_kb", 0)))
            if len(self.resources) < self.MAX_RESOURCE_SAMPLES:
                self.resources.append((float(record.get("t", 0.0)),
                                       self.cpu_seconds,
                                       int(record.get("rss_kb", 0))))
        elif kind == "delta":
            apply_delta(self.registry, record)
        elif kind == "span":
            self.spans.append(Span(record.get("name", "?"),
                                   float(record.get("start", 0.0)),
                                   float(record.get("duration", 0.0))))
        elif kind == "end":
            self.ended_t = record.get("t")
            self.status = record.get("status", "ok")
            if "wall_seconds" in record:
                self.wall_seconds = float(record["wall_seconds"])
            if "instructions" in record:
                self.instructions = int(record["instructions"])
        # Unknown kinds are ignored: a newer writer may add record types
        # an older watcher does not understand.


class CampaignTelemetry:
    """Tails a campaign's spool directory and folds it into registries."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.jobs: Dict[str, JobTelemetry] = {}
        self._tails: Dict[str, SpoolTail] = {}

    @property
    def corrupt_lines(self) -> int:
        """Complete-but-unparseable lines skipped across all spools."""
        return sum(tail.corrupt for tail in self._tails.values())

    def job(self, job_id: str) -> JobTelemetry:
        """The folded state for one job (created empty on first access)."""
        state = self.jobs.get(job_id)
        if state is None:
            state = self.jobs[job_id] = JobTelemetry(job_id)
        return state

    def poll(self) -> int:
        """Consume everything new in the spool dir; returns record count."""
        try:
            names = sorted(entry.name for entry in os.scandir(self.directory)
                           if entry.name.endswith(".jsonl"))
        except FileNotFoundError:
            return 0
        consumed = 0
        for name in names:
            tail = self._tails.get(name)
            if tail is None:
                tail = self._tails[name] = SpoolTail(self.directory / name)
            records = tail.poll()
            if records:
                consumed += len(records)
                state = self.job(name[:-len(".jsonl")])
                for record in records:
                    state.apply(record)
        return consumed

    # -- queries -------------------------------------------------------------
    def running_jobs(self, now: Optional[float] = None,
                     ) -> List[JobTelemetry]:
        """In-flight jobs, slowest (oldest start) first."""
        running = [job for job in self.jobs.values() if job.running]
        running.sort(key=lambda job: -job.age_seconds(now))
        return running

    def completed_jobs(self) -> List[JobTelemetry]:
        """Jobs whose spool carries an end record."""
        return [job for job in self.jobs.values() if job.ended_t is not None]

    # -- folding -------------------------------------------------------------
    def fold_into(self, registry: MetricRegistry) -> None:
        """Publish campaign-wide aggregates into ``registry``.

        Idempotent by construction — gauges are ``set`` and histograms
        rebuilt via ``from_counts`` — so the engine (and ``watch``) can
        call it on every poll without double counting.
        """
        completed = self.completed_jobs()
        duration_bins = [0] * (len(DURATION_BUCKET_EDGES) + 1)
        attempt_bins: List[int] = []
        throughput: Dict[str, List[float]] = {}
        cpu_total = 0.0
        peak_rss = 0
        cache_hits = cache_misses = 0
        for job_key, job in self.jobs.items():
            if job_key == POOL_SPOOL_ID:
                continue  # executor-level gauges, not a job
            cpu_total += job.cpu_seconds
            peak_rss = max(peak_rss, job.peak_rss_kb)
            if "trace.cache.hit" in job.registry:
                cache_hits += job.registry.value("trace.cache.hit")
            if "trace.cache.miss" in job.registry:
                cache_misses += job.registry.value("trace.cache.miss")
        for job in completed:
            if job.wall_seconds is not None:
                duration_bins[bucket_index(job.wall_seconds)] += 1
            while len(attempt_bins) <= job.attempt:
                attempt_bins.append(0)
            attempt_bins[job.attempt] += 1
            rate = job.records_per_sec
            if rate is not None and job.label:
                throughput.setdefault(job.label, []).append(rate)
        registry.histogram("campaign.job_wall_seconds").from_counts(
            duration_bins)
        registry.histogram("campaign.job_attempts").from_counts(attempt_bins)
        job_count = sum(1 for key in self.jobs if key != POOL_SPOOL_ID)
        registry.set("campaign.telemetry.jobs_seen", job_count)
        registry.set("campaign.telemetry.jobs_running",
                     sum(1 for job in self.jobs.values() if job.running))
        registry.set("campaign.telemetry.jobs_completed", len(completed))
        pool = self.jobs.get(POOL_SPOOL_ID)
        if pool is not None:
            # The pool spool carries absolute-valued gauges; republishing
            # them on every fold keeps this idempotent.
            for name in pool.registry.names():
                registry.set(name, pool.registry.value(name))
        registry.set("campaign.cpu_seconds", cpu_total)
        registry.set("campaign.peak_rss_kb", peak_rss)
        if cache_hits or cache_misses:
            registry.set("campaign.trace_cache_hit_rate",
                         cache_hits / (cache_hits + cache_misses))
        for label, rates in sorted(throughput.items()):
            registry.set(f"campaign.throughput.{label}",
                         sum(rates) / len(rates))
