"""Live campaign dashboards: ``watch``, ``status --follow``, timelines.

Everything here is a *read-side* consumer of two on-disk artifacts the
engine maintains — the append-only result store and the per-job telemetry
spools (:mod:`repro.obs.telemetry`) — so any process that can see the
store directory can render a campaign, including one running on another
machine against a shared filesystem:

* :func:`build_view` folds store + manifest + spools into one
  :class:`CampaignView` snapshot (progress, ETA, per-shard counts,
  failure-class breakdown, in-flight jobs slowest-first);
* :func:`render_dashboard` / :func:`render_status_line` turn a view into
  plain text — no curses, no TTY games beyond an ANSI clear, so output
  also makes sense when piped to a log file;
* :func:`watch_campaign` is the refresh loop behind ``repro campaign
  watch`` and ``repro campaign status --follow``;
* :func:`write_campaign_timeline` merges every job's spooled spans and
  resource samples into a single Chrome ``trace_event`` file (one track
  per job, wall-clock aligned) loadable in Perfetto.

The store is the ground truth for *outcomes*: a job whose worker was
SIGKILLed never writes a spool ``end`` record, so the view cross-checks
"running" jobs against stored results/failures instead of trusting the
spool alone.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, TextIO, Tuple, Union

from repro.campaign.ids import job_id, shard_jobs
from repro.campaign.store import (
    ResultStore,
    StoreContents,
    load_campaign_manifest,
    load_worker_records,
    manifest_path_for,
    telemetry_dir_for,
)
from repro.obs.registry import MetricRegistry
from repro.obs.telemetry import CampaignTelemetry, JobTelemetry

__all__ = [
    "CampaignView",
    "build_view",
    "render_dashboard",
    "render_status_line",
    "watch_campaign",
    "write_campaign_timeline",
]

#: ANSI clear-screen + home, the whole "terminal UI".
CLEAR = "\x1b[2J\x1b[H"


def _preset_config(name: Optional[str]):
    """Resolve a manifest's machine preset (None when unknown)."""
    from repro.config import scaled_config, skylake_config, xeon_config

    factories = {"scaled": scaled_config, "skylake": skylake_config,
                 "xeon": xeon_config}
    factory = factories.get(name or "")
    return factory() if factory is not None else None


@dataclass
class CampaignView:
    """One consistent snapshot of a stored campaign, ready to render."""

    store_path: Path
    generated_at: float
    #: Job count from the manifest; ``None`` when no manifest was found.
    total: Optional[int]
    completed: int
    failed: int
    #: Failure kind -> count (``error`` / ``timeout`` / ``crash``).
    failure_kinds: Dict[str, int] = field(default_factory=dict)
    #: Stored failures that burned more than one attempt before sticking.
    retries_exhausted: int = 0
    #: ``(label, done, failed, total)`` per shard; one row when unsharded.
    shard_rows: List[Tuple[str, int, int, int]] = field(default_factory=list)
    #: Torn trailing store lines skipped by this load (job will rerun).
    truncated_lines: int = 0
    eta_seconds: Optional[float] = None
    mean_wall_seconds: Optional[float] = None
    workers: int = 1
    #: In-flight jobs per the telemetry spools, slowest first, minus any
    #: whose outcome the store already recorded (crash without end record).
    running: List[JobTelemetry] = field(default_factory=list)
    telemetry: Optional[CampaignTelemetry] = None
    spool_count: int = 0
    corrupt_spool_lines: int = 0
    trace_cache_hit_rate: Optional[float] = None
    registry: MetricRegistry = field(default_factory=MetricRegistry)
    #: The pool's ``<store>.workers.json`` document (worker pids,
    #: occupancy, steal counts); ``None`` for inline runs.
    pool: Optional[dict] = None

    @property
    def pending(self) -> Optional[int]:
        """Jobs with no stored outcome yet (needs a manifest)."""
        if self.total is None:
            return None
        return max(0, self.total - self.completed - self.failed)

    @property
    def is_complete(self) -> bool:
        """Every manifest job has a stored outcome (success or failure)."""
        return self.total is not None and self.pending == 0


def _shard_progress(manifest: dict, contents: StoreContents,
                    ) -> Tuple[Optional[List[Tuple[str, int, int, int]]],
                               Optional[List[str]]]:
    """Per-shard ``(label, done, failed, total)`` rows + all job ids."""
    config = _preset_config(manifest.get("machine_preset"))
    if config is None:
        return None, None
    scale = manifest["scale"]
    jobs = manifest["jobs"]
    ids = [job_id(job, config, scale) for job in jobs]
    shard = manifest.get("shard")
    count = shard[1] if shard else 1
    rows: List[Tuple[str, int, int, int]] = []
    for index in range(count):
        subset = (shard_jobs(jobs, index, count, config, scale)
                  if count > 1 else jobs)
        subset_ids = [job_id(job, config, scale) for job in subset]
        rows.append((
            f"shard {index}/{count}" if count > 1 else "all jobs",
            sum(1 for jid in subset_ids if jid in contents.results),
            sum(1 for jid in subset_ids if jid in contents.failures),
            len(subset_ids),
        ))
    return rows, ids


def build_view(store_path: Union[str, Path],
               telemetry: Optional[CampaignTelemetry] = None,
               now: Optional[float] = None) -> CampaignView:
    """Fold store + manifest + telemetry spools into one snapshot.

    Pass the previous view's ``telemetry`` back in when polling in a loop
    — the :class:`~repro.obs.telemetry.CampaignTelemetry` keeps per-spool
    byte offsets, so reuse makes each refresh an incremental read instead
    of a full re-parse of every spool.
    """
    store_path = Path(store_path)
    now = now if now is not None else time.time()
    contents = ResultStore(store_path).load()
    view = CampaignView(store_path=store_path, generated_at=now,
                        total=None,
                        completed=len(contents.results),
                        failed=len(contents.failures),
                        truncated_lines=contents.truncated_lines)

    for record in contents.failures.values():
        failure = record.get("failure") or {}
        kind = failure.get("kind", "error")
        view.failure_kinds[kind] = view.failure_kinds.get(kind, 0) + 1
        if int(failure.get("attempts", 1)) > 1:
            view.retries_exhausted += 1

    manifest = None
    manifest_path = manifest_path_for(store_path)
    if manifest_path.exists():
        manifest = load_campaign_manifest(manifest_path)
        view.total = len(manifest["jobs"])
        view.workers = int(manifest.get("processes") or 1)
        shard_rows, ids = _shard_progress(manifest, contents)
        if shard_rows is not None:
            view.shard_rows = shard_rows
            # Count only *this campaign's* jobs — the store may also hold
            # records from a superseded manifest.
            view.completed = sum(1 for jid in ids if jid in contents.results)
            view.failed = sum(1 for jid in ids if jid in contents.failures)

    hits = misses = 0
    for record in contents.results.values():
        extra = record["result"].get("extra") or {}
        hits += int(extra.get("trace_cache_hits", 0))
        misses += int(extra.get("trace_cache_misses", 0))
    if hits or misses:
        view.trace_cache_hit_rate = hits / (hits + misses)

    walls = [float(record.get("wall_time_seconds", 0.0))
             for record in contents.results.values()]
    walls = [wall for wall in walls if wall > 0]
    if walls:
        view.mean_wall_seconds = sum(walls) / len(walls)
    if view.pending == 0:
        view.eta_seconds = 0.0
    elif view.pending is not None and view.mean_wall_seconds is not None:
        view.eta_seconds = (view.pending * view.mean_wall_seconds
                            / max(1, view.workers))

    view.pool = load_worker_records(store_path)

    if telemetry is None:
        telemetry = CampaignTelemetry(telemetry_dir_for(store_path))
    telemetry.poll()
    view.telemetry = telemetry
    # Job spools only: the pool's `_pool` gauge spool (and any
    # future `_`-prefixed pseudo-spool) is scheduler telemetry, not a job.
    view.spool_count = sum(1 for job_id in telemetry.jobs
                           if not job_id.startswith("_"))
    view.corrupt_spool_lines = telemetry.corrupt_lines
    view.running = [job for job in telemetry.running_jobs(now)
                    if job.job_id not in contents.results
                    and job.job_id not in contents.failures]
    telemetry.fold_into(view.registry)
    return view


# -- rendering ---------------------------------------------------------------

def _fmt_duration(seconds: Optional[float]) -> str:
    if seconds is None:
        return "?"
    seconds = max(0.0, seconds)
    if seconds < 60:
        return f"{seconds:.1f}s"
    if seconds < 3600:
        return f"{int(seconds // 60)}m{int(seconds % 60):02d}s"
    return f"{int(seconds // 3600)}h{int(seconds % 3600 // 60):02d}m"


def _bar(done: int, failed: int, total: int, width: int = 30) -> str:
    if total <= 0:
        return "-" * width
    done_cells = int(width * done / total)
    failed_cells = int(width * failed / total)
    failed_cells = min(failed_cells, width - done_cells)
    return ("#" * done_cells + "!" * failed_cells
            + "-" * (width - done_cells - failed_cells))


def render_status_line(view: CampaignView) -> str:
    """One-line progress summary (the ``status --follow`` format)."""
    if view.total is not None:
        head = (f"{view.completed}/{view.total} done, {view.failed} failed, "
                f"{view.pending} pending")
    else:
        head = f"{view.completed} done, {view.failed} failed (no manifest)"
    parts = [head, f"{len(view.running)} running"]
    if view.eta_seconds is not None:
        parts.append(f"eta {_fmt_duration(view.eta_seconds)}")
    if view.running:
        slowest = view.running[0]
        parts.append(f"slowest {slowest.label or slowest.job_id[:8]} "
                     f"{_fmt_duration(slowest.age_seconds(view.generated_at))}")
    return " | ".join(parts)


def render_dashboard(view: CampaignView, max_running: int = 8) -> str:
    """Multi-line plain-text dashboard (the ``campaign watch`` screen)."""
    stamp = time.strftime("%Y-%m-%d %H:%M:%S",
                          time.localtime(view.generated_at))
    lines = [f"campaign watch - {view.store_path}  [{stamp}]"]
    if view.total is not None:
        outcome = view.completed + view.failed
        pct = 100.0 * outcome / view.total if view.total else 100.0
        lines.append(
            f"progress: [{_bar(view.completed, view.failed, view.total)}] "
            f"{view.completed}/{view.total} done, {view.failed} failed, "
            f"{view.pending} pending ({pct:.0f}%)")
        eta = _fmt_duration(view.eta_seconds)
        if view.mean_wall_seconds is not None:
            lines.append(f"eta: {eta}  (mean {view.mean_wall_seconds:.1f}s/job"
                         f" over {view.workers} worker(s))")
        else:
            lines.append(f"eta: {eta}")
    else:
        lines.append(f"progress: {view.completed} done, {view.failed} failed "
                     f"(no manifest next to store)")
    if len(view.shard_rows) > 1:
        for label, done, failed, total in view.shard_rows:
            lines.append(f"  {label}: "
                         f"[{_bar(done, failed, total, width=20)}] "
                         f"{done}/{total} done, {failed} failed")
    if view.running:
        lines.append(f"running ({len(view.running)}, slowest first):")
        for job in view.running[:max_running]:
            rss = (f"  rss {job.peak_rss_kb // 1024}MB"
                   if job.peak_rss_kb else "")
            lines.append(
                f"  {job.label or '?':<28} {job.job_id[:8]}  "
                f"attempt {job.attempt}  "
                f"age {_fmt_duration(job.age_seconds(view.generated_at))}  "
                f"cpu {job.cpu_seconds:.1f}s{rss}")
        if len(view.running) > max_running:
            lines.append(f"  ... and {len(view.running) - max_running} more")
    elif view.total is not None and not view.is_complete:
        lines.append("running: none visible (telemetry off, or between jobs)")
    if view.pool is not None:
        workers = view.pool.get("workers") or []
        head = (f"pool: {len(workers)} worker(s), "
                f"{view.pool.get('steals', 0)} steal(s), "
                f"{view.pool.get('respawns', 0)} respawn(s)")
        if not view.pool.get("running", True):
            head += "  [stopped]"
        lines.append(head)
        for row in workers:
            occupancy = 100.0 * float(row.get("occupancy") or 0.0)
            doing = (f"busy: {row.get('label') or row.get('job_id', '?')}"
                     if row.get("state") == "busy" else "idle")
            lines.append(
                f"  w{row.get('index')} pid {row.get('pid')}  "
                f"{occupancy:3.0f}% busy  {row.get('jobs_done', 0)} done  "
                f"{row.get('steals', 0)} stolen  {doing}  "
                f"({row.get('queued', 0)} queued)")
    if view.failure_kinds:
        breakdown = "  ".join(f"{kind}={count}" for kind, count
                              in sorted(view.failure_kinds.items()))
        if view.retries_exhausted:
            breakdown += f"  (retries exhausted: {view.retries_exhausted})"
        lines.append(f"failures: {breakdown}")
    telemetry_bits = [f"{view.spool_count} spool(s)"]
    if view.telemetry is not None:
        telemetry_bits.append(
            f"{len(view.telemetry.completed_jobs())} with end record")
    if view.corrupt_spool_lines:
        telemetry_bits.append(f"{view.corrupt_spool_lines} corrupt line(s) "
                              "skipped")
    lines.append("telemetry: " + ", ".join(telemetry_bits))
    if view.trace_cache_hit_rate is not None:
        lines.append(f"trace cache: {100 * view.trace_cache_hit_rate:.0f}% "
                     "hit rate (from stored results)")
    if view.truncated_lines:
        lines.append(f"store: {view.truncated_lines} torn trailing line(s) "
                     "skipped (job reruns on resume)")
    if view.is_complete:
        lines.append("campaign complete.")
    return "\n".join(lines)


def watch_campaign(store_path: Union[str, Path],
                   interval_seconds: float = 2.0,
                   iterations: Optional[int] = None,
                   stream: Optional[TextIO] = None,
                   clear: bool = True,
                   render: Callable[[CampaignView], str] = render_dashboard,
                   ) -> CampaignView:
    """Render a campaign every ``interval_seconds`` until it completes.

    ``iterations`` bounds the number of refreshes (tests and one-shot
    inspection); without it the loop ends when every manifest job has a
    stored outcome — or never, for a store with no manifest, so Ctrl-C is
    the expected exit there. ``clear=False`` appends instead of redrawing
    (the ``status --follow`` mode; also right when piping to a file).
    Returns the last view rendered.
    """
    stream = stream if stream is not None else sys.stdout
    telemetry: Optional[CampaignTelemetry] = None
    count = 0
    while True:
        view = build_view(store_path, telemetry=telemetry)
        telemetry = view.telemetry
        if clear:
            stream.write(CLEAR)
        stream.write(render(view))
        stream.write("\n")
        stream.flush()
        count += 1
        if view.is_complete or (iterations is not None
                                and count >= iterations):
            return view
        time.sleep(interval_seconds)


# -- merged timeline ---------------------------------------------------------

def write_campaign_timeline(store_path: Union[str, Path],
                            output: Union[str, Path]) -> int:
    """Merge every job's telemetry into one Chrome ``trace_event`` file.

    Each job becomes its own process track (named after the job label):
    one complete (``X``) event for the whole attempt, one per spooled
    profiler span (rebased from the worker's monotonic clock onto the
    campaign's wall-clock epoch via the attempt's start record), and
    counter (``C``) tracks for CPU seconds and RSS from the resource
    samples. Returns the number of trace events written.

    Raises :class:`FileNotFoundError` when the campaign has no telemetry
    spools — i.e. it ran without ``telemetry=`` / ``--telemetry``.
    """
    store_path = Path(store_path)
    directory = telemetry_dir_for(store_path)
    telemetry = CampaignTelemetry(directory)
    telemetry.poll()
    jobs = [job for job in telemetry.jobs.values()
            if job.started_t is not None]
    if not jobs:
        raise FileNotFoundError(
            f"no telemetry spools under {directory}; run the campaign with "
            "--telemetry to record a timeline")
    jobs.sort(key=lambda job: job.started_t)
    epoch = jobs[0].started_t
    events: List[dict] = [
        {"ph": "M", "pid": 0, "name": "process_name",
         "args": {"name": f"campaign {store_path.name}"}},
    ]
    for pid, job in enumerate(jobs, start=1):
        label = job.label or job.job_id[:8]
        start_us = (job.started_t - epoch) * 1e6
        end_t = job.ended_t if job.ended_t is not None else job.started_t
        events.append({"ph": "M", "pid": pid, "name": "process_name",
                       "args": {"name": f"{label} [{job.job_id[:8]}]"}})
        events.append({
            "name": f"attempt {job.attempt}",
            "cat": "job", "ph": "X",
            "ts": start_us,
            "dur": max(0.0, (end_t - job.started_t)) * 1e6,
            "pid": pid, "tid": 0,
            "args": {"job_id": job.job_id, "status": job.status or "running",
                     "attempt": job.attempt,
                     "instructions": job.instructions},
        })
        for span in job.spans:
            # Span offsets are relative to the worker Observation's
            # monotonic origin, created just before the start record.
            events.append({
                "name": span.name, "cat": "phase", "ph": "X",
                "ts": start_us + span.start * 1e6,
                "dur": span.duration * 1e6,
                "pid": pid, "tid": 1,
            })
        if job.spans:
            events.append({"ph": "M", "pid": pid, "tid": 1,
                           "name": "thread_name",
                           "args": {"name": "phases"}})
        for t, cpu, rss_kb in job.resources:
            ts = max(0.0, (t - epoch) * 1e6)
            events.append({"ph": "C", "pid": pid, "name": "cpu_seconds",
                           "ts": ts, "args": {"cpu": cpu}})
            events.append({"ph": "C", "pid": pid, "name": "rss_kb",
                           "ts": ts, "args": {"rss_kb": rss_kb}})
    document = {"traceEvents": events, "displayTimeUnit": "ms"}
    Path(output).write_text(json.dumps(document))
    return len(events)
