"""Fault-tolerant campaign execution: retries, timeouts, resume, shards.

The paper's Table I argument is that PInTE turns an O(N²) 2nd-Trace
campaign into O(N·|P_induce|) single-trace runs — which makes the *runner*
the scalability bottleneck of a reproduction. This engine is a scheduler
built for campaign scale:

* **one parallel executor** — the work-stealing pool
  (:mod:`repro.campaign.pool`) forks N persistent workers once, streams
  jobs to them over pipes and lets idle workers steal pending jobs from
  loaded peers' deques. A crash (segfault, ``os._exit``) or a hang takes
  down one job, never the run: the pool respawns only the dead worker;
* **per-job timeouts** — an overdue worker is killed and the job retried;
* **bounded retry with exponential backoff** — transient failures heal
  themselves; permanent ones are captured (exception type, message, full
  traceback) as a :class:`JobFailure` record instead of aborting;
* **graceful degradation** — the campaign always runs to completion and
  ships a failure manifest next to the result store;
* **resume** — jobs whose deterministic id (:mod:`repro.campaign.ids`)
  already has a stored result are skipped, so a driver killed mid-run
  loses at most one in-flight job per worker;
* **sharding** — ``shard=(i, n)`` selects a disjoint, exhaustive subset of
  the campaign for this machine.

Execution paths, picked from the inputs alone: with at most one process
or one pending job, and no timeout, jobs run inline in this process — no
workers, so ``pdb``/profilers attach naturally and KeyboardInterrupt is
clean. Every other campaign runs on the pool. A timeout always means the
pool, even at ``processes=1``, because a hung job can only be killed from
outside its process.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign.faults import parse_fault
from repro.campaign.ids import ID_SCHEME, job_id, shard_jobs
from repro.campaign.pool import PoolExecutor
from repro.campaign.store import (
    ResultStore,
    telemetry_dir_for,
    write_failure_manifest,
)
from repro.config import MachineConfig
from repro.obs.telemetry import (
    CampaignTelemetry,
    TelemetrySettings,
    TelemetrySpooler,
    spool_path,
)
from repro.sim.batch import Job, job_stream_keys, run_job
from repro.sim.private import PrivateStreamMemo
from repro.sim.results import SimulationResult
from repro.sim.runner import ExperimentScale
from repro.sim.serialize import result_from_dict
from repro.trace.store import trace_memo

__all__ = [
    "CampaignError",
    "CampaignLimitError",
    "CampaignReport",
    "JobFailure",
    "RetryPolicy",
    "TelemetrySettings",
    "execute_job",
    "run_campaign",
]

#: Progress callback: receives one plain-dict event per state change.
ProgressCallback = Callable[[dict], None]


@dataclass(frozen=True)
class RetryPolicy:
    """How often and how patiently a failing job is retried."""

    max_attempts: int = 3
    backoff_seconds: float = 0.5
    backoff_factor: float = 2.0
    max_backoff_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")

    def delay_after(self, attempt: int) -> float:
        """Seconds to wait before the attempt following ``attempt``."""
        delay = self.backoff_seconds * self.backoff_factor ** (attempt - 1)
        return min(self.max_backoff_seconds, delay)

    def to_dict(self) -> dict:
        """Manifest-serialisable form."""
        return {"max_attempts": self.max_attempts,
                "backoff_seconds": self.backoff_seconds,
                "backoff_factor": self.backoff_factor,
                "max_backoff_seconds": self.max_backoff_seconds}


@dataclass
class JobFailure:
    """One job that exhausted its retries — recorded, never raised.

    ``kind`` is ``"error"`` (exception in the worker), ``"timeout"`` (killed
    past the deadline) or ``"crash"`` (worker died without reporting).
    """

    job_id: str
    job: Job
    kind: str
    error_type: str
    message: str
    traceback: str
    attempts: int

    def to_record(self) -> dict:
        """Store/manifest-serialisable form."""
        return {"kind": self.kind, "error_type": self.error_type,
                "message": self.message, "traceback": self.traceback,
                "attempts": self.attempts}


class CampaignError(RuntimeError):
    """Raised only when ``raise_on_failure=True``, after the campaign ends."""

    def __init__(self, failures: Sequence[JobFailure]) -> None:
        self.failures = list(failures)
        first = failures[0]
        super().__init__(
            f"{len(failures)} campaign job(s) failed; first: "
            f"{first.error_type}: {first.message}")


class CampaignLimitError(ValueError):
    """A ``processes`` or ``timeout_seconds`` no campaign can honour.

    Raised by :func:`run_campaign` before any job runs; the CLI prints it
    as one ``repro:`` line.
    """


@dataclass
class CampaignReport:
    """Outcome of one campaign pass (including resumed results)."""

    total: int
    executed: int
    skipped: int
    failed: int
    retries: int
    results: List[SimulationResult]
    failures: List[JobFailure]
    results_by_id: Dict[str, SimulationResult]
    job_ids: List[str]
    wall_time_seconds: float
    store_path: Optional[Path] = None
    failure_manifest_path: Optional[Path] = None
    telemetry_dir: Optional[Path] = None
    telemetry: Optional[CampaignTelemetry] = None
    #: Pool runs only: jobs idle workers stole from peers' deques.
    pool_steals: int = 0
    #: Pool runs only: workers respawned after a crash/timeout kill.
    pool_respawns: int = 0

    @property
    def ok(self) -> bool:
        """True when every selected job has a stored result."""
        return not self.failures and self.skipped + self.executed == self.total


def check_limits(processes: Optional[int],
                 timeout_seconds: Optional[float]) -> None:
    """Raise :class:`CampaignLimitError` unless both limits are usable.

    ``None`` means "default" for either; otherwise ``processes`` must be
    at least 1 and ``timeout_seconds`` positive.
    """
    problems = []
    if processes is not None and processes < 1:
        problems.append(f"processes must be >= 1, got {processes!r}")
    if timeout_seconds is not None and not timeout_seconds > 0:
        problems.append(f"timeout must be > 0 seconds, got "
                        f"{timeout_seconds!r}")
    if problems:
        raise CampaignLimitError("; ".join(problems))


def execute_job(job: Job, config: MachineConfig, scale: ExperimentScale,
                attempt: int = 1, trace_store=None,
                observe=None, private_memo=None) -> SimulationResult:
    """Run one job, honouring ``__fault:`` injection names.

    This is the single entry point both the inline path and the pool
    workers call, so fault behaviour is identical in either mode.
    ``trace_store`` (a trace store or directory path) is forwarded to
    :func:`repro.sim.batch.run_job`, which serves the job's traces from
    it; ``observe`` (a :class:`repro.obs.Observation`) gives the job a
    registry/profiler — the telemetry bus spools it home from worker
    processes.
    ``private_memo`` (a :class:`~repro.sim.private.PrivateStreamMemo`)
    lets the job replay memoised private-stage streams.
    """
    fault = parse_fault(job.workload)
    if fault is not None:
        # May raise / hang / kill us.
        job = replace(job, workload=fault.apply(attempt))
    return run_job(job, config, scale, trace_store=trace_store,
                   observe=observe, private_memo=private_memo)


def _job_label(job: Job) -> str:
    """Short human label for progress lines."""
    if job.mode == "pinte":
        return f"{job.workload}@p={job.p_induce}"
    if job.mode == "pair":
        return f"{job.workload}+{job.co_runner}"
    if job.mode == "multi":
        label = f"{job.workload}+{'+'.join(job.co_runners)}"
        return f"{label}[{job.scheme}]" if job.scheme else label
    return job.workload


@dataclass
class _Pending:
    """One not-yet-finished job in the scheduler."""

    index: int
    job: Job
    jid: str
    attempt: int = 1
    ready_time: float = 0.0


@dataclass(frozen=True)
class _TelemetryTarget:
    """Picklable spool instructions handed to one worker attempt."""

    path: str
    job_id: str
    label: str
    interval_seconds: float


def _spooled_execute(job: Job, config: MachineConfig, scale: ExperimentScale,
                     attempt: int, trace_store,
                     telemetry: Optional[_TelemetryTarget],
                     private_memo=None) -> SimulationResult:
    """Run one job, spooling telemetry when a target was configured.

    Shared by the pool workers and the inline path so a campaign looks
    identical on the telemetry bus in either execution mode. With
    ``telemetry=None`` this is exactly :func:`execute_job` — no
    observation bundle, no spool file, no sampling thread. Either way the
    job replays its private stages from ``private_memo``.
    """
    if telemetry is None:
        return execute_job(job, config, scale, attempt,
                           trace_store=trace_store,
                           private_memo=private_memo)
    from repro.obs import Observation

    observe = Observation()
    spooler = TelemetrySpooler(
        telemetry.path, telemetry.job_id, attempt=attempt,
        label=telemetry.label,
        interval_seconds=telemetry.interval_seconds).start()
    start = time.perf_counter()
    try:
        result = execute_job(job, config, scale, attempt,
                             trace_store=trace_store, observe=observe,
                             private_memo=private_memo)
    except BaseException:
        spooler.finish(registry=observe.registry, profiler=observe.profiler,
                       status="error",
                       wall_seconds=time.perf_counter() - start)
        raise
    spooler.finish(registry=observe.registry, profiler=observe.profiler,
                   status="ok", wall_seconds=time.perf_counter() - start,
                   instructions=result.instructions)
    return result


class _Progress:
    """Progress/ETA bookkeeping shared by both execution paths."""

    def __init__(self, total: int, skipped: int, workers: int,
                 callback: Optional[ProgressCallback], registry) -> None:
        self.total = total
        self.done = skipped
        self.failed = 0
        self.retries = 0
        self.workers = max(1, workers)
        self.callback = callback
        self.registry = registry
        self._durations: List[float] = []
        if registry is not None:
            registry.set("campaign.jobs_total", total)
            registry.count("campaign.skipped", skipped)

    def eta_seconds(self) -> Optional[float]:
        """Naive ETA: average job wall time x remaining / workers."""
        remaining = self.total - self.done - self.failed
        if not self._durations or remaining <= 0:
            return 0.0 if remaining <= 0 else None
        average = sum(self._durations) / len(self._durations)
        return remaining * average / self.workers

    def _emit(self, event: str, item: _Pending, **extra) -> None:
        if self.registry is not None:
            eta = self.eta_seconds()
            if eta is not None:
                self.registry.set("campaign.eta_seconds", eta)
        if self.callback is not None:
            self.callback({
                "event": event,
                "job_id": item.jid,
                "label": _job_label(item.job),
                "attempt": item.attempt,
                "completed": self.done,
                "failed": self.failed,
                "total": self.total,
                "eta_seconds": self.eta_seconds(),
                **extra,
            })

    def success(self, item: _Pending, wall: float) -> None:
        self.done += 1
        self._durations.append(wall)
        if self.registry is not None:
            self.registry.count("campaign.success")
        self._emit("done", item, wall_time_seconds=wall)

    def failure(self, item: _Pending, kind: str) -> None:
        self.failed += 1
        if self.registry is not None:
            self.registry.count("campaign.failure")
            if kind == "timeout":
                self.registry.count("campaign.timeout")
        self._emit("failed", item, failure_kind=kind)

    def retry(self, item: _Pending, kind: str, delay: float) -> None:
        self.retries += 1
        if self.registry is not None:
            self.registry.count("campaign.retry")
        self._emit("retry", item, failure_kind=kind, retry_delay=delay)


class _CampaignRun:
    """One pass of the scheduler over the pending jobs."""

    def __init__(self, config: MachineConfig, scale: ExperimentScale,
                 retry: RetryPolicy, timeout: Optional[float],
                 store: Optional[ResultStore], progress: _Progress,
                 profiler, trace_store=None,
                 telemetry: Optional[TelemetrySettings] = None,
                 telemetry_dir: Optional[Path] = None,
                 private_memo: Optional[PrivateStreamMemo] = None) -> None:
        self.config = config
        self.scale = scale
        self.retry = retry
        self.timeout = timeout
        self.store = store
        self.progress = progress
        self.profiler = profiler
        self.trace_store = trace_store
        self.telemetry = telemetry
        self.telemetry_dir = telemetry_dir
        self.telemetry_view: Optional[CampaignTelemetry] = None
        if telemetry is not None and telemetry_dir is not None:
            self.telemetry_view = CampaignTelemetry(telemetry_dir)
        self._telemetry_polled = 0.0
        self.results_by_id: Dict[str, SimulationResult] = {}
        self.failures: List[JobFailure] = []
        self.pool: Optional[PoolExecutor] = None
        self.private_memo = private_memo
        self._stream_keys: Dict[str, list] = {}

    def stream_keys(self, item: _Pending) -> list:
        """The private streams a job replays, observed or not."""
        keys = self._stream_keys.get(item.jid)
        if keys is None:
            keys = self._stream_keys[item.jid] = job_stream_keys(
                item.job, self.config, self.scale)
        return keys

    # -- telemetry -----------------------------------------------------------
    def _telemetry_target(self, item: _Pending) -> Optional[_TelemetryTarget]:
        """The spool instructions for one attempt (None when disabled)."""
        if self.telemetry is None or self.telemetry_dir is None:
            return None
        return _TelemetryTarget(
            path=str(spool_path(self.telemetry_dir, item.jid)),
            job_id=item.jid, label=_job_label(item.job),
            interval_seconds=self.telemetry.interval_seconds)

    def poll_telemetry(self, force: bool = False) -> None:
        """Tail the spool dir and refresh the live campaign registry.

        Throttled to roughly the resource-sampling cadence so the
        scheduler loop never spends its time re-reading spool files.
        """
        if self.telemetry_view is None:
            return
        now = time.monotonic()
        cadence = max(0.5, self.telemetry.interval_seconds)
        if not force and now - self._telemetry_polled < cadence:
            return
        self._telemetry_polled = now
        self.telemetry_view.poll()
        registry = self.progress.registry
        if registry is not None:
            self.telemetry_view.fold_into(registry)

    # -- shared outcome handling -------------------------------------------
    def _record_success(self, item: _Pending, result: SimulationResult,
                        wall: float) -> None:
        self.results_by_id[item.jid] = result
        # Workers have their own registries; the trace-cache tallies come
        # home through ``result.extra`` and are absorbed here so the
        # campaign-level registry sees hits/misses across all processes.
        registry = self.progress.registry
        if registry is not None:
            hits = int(result.extra.get("trace_cache_hits", 0))
            if hits:
                registry.count("trace.cache.hit", hits)
            misses = int(result.extra.get("trace_cache_misses", 0))
            if misses:
                registry.count("trace.cache.miss", misses)
        if self.store is not None:
            self.store.append_result(item.jid, item.job, result,
                                     attempts=item.attempt,
                                     wall_time_seconds=wall)
        self.progress.success(item, wall)

    def _attempt_failed(self, item: _Pending, kind: str, error_type: str,
                        message: str, trace: str) -> Optional[_Pending]:
        """Handle one failed attempt; returns the retry item, if any."""
        if item.attempt < self.retry.max_attempts:
            delay = self.retry.delay_after(item.attempt)
            self.progress.retry(item, kind, delay)
            return replace(item, attempt=item.attempt + 1,
                           ready_time=time.monotonic() + delay)
        failure = JobFailure(job_id=item.jid, job=item.job, kind=kind,
                             error_type=error_type, message=message,
                             traceback=trace, attempts=item.attempt)
        self.failures.append(failure)
        if self.store is not None:
            self.store.append_failure(item.jid, item.job,
                                      failure.to_record())
        self.progress.failure(item, kind)
        return None

    # -- inline execution ---------------------------------------------------
    def run_inline(self, pending: List[_Pending]) -> None:
        """Sequential in-process execution (``pdb``-able, no timeouts).

        The jobs share one :class:`~repro.trace.store.MemoryTraceStore`
        (:func:`~repro.trace.store.trace_memo` of the campaign's trace
        store), as each pool worker's jobs do.
        """
        traces = trace_memo(self.trace_store)
        for item in pending:
            while True:
                start = time.perf_counter()
                try:
                    result = _spooled_execute(item.job, self.config,
                                              self.scale, item.attempt,
                                              traces,
                                              self._telemetry_target(item),
                                              self.private_memo)
                except Exception as exc:  # KeyboardInterrupt passes through
                    retry_item = self._attempt_failed(
                        item, "error", type(exc).__name__, str(exc),
                        traceback.format_exc())
                    self.poll_telemetry()
                    if retry_item is None:
                        break
                    wait = retry_item.ready_time - time.monotonic()
                    if wait > 0:
                        time.sleep(wait)
                    item = retry_item
                    continue
                wall = time.perf_counter() - start
                if self.profiler is not None:
                    self.profiler.add_span(
                        f"job{item.index}:{item.job.workload}",
                        start - self.profiler.origin, wall)
                self._record_success(item, result, wall)
                self.poll_telemetry()
                break
            self.private_memo.release(self.stream_keys(item))

    # -- pool execution ------------------------------------------------------
    def run_pool(self, pending: List[_Pending], processes: int) -> None:
        """Persistent work-stealing workers (:mod:`repro.campaign.pool`)."""
        self.pool = PoolExecutor(self, processes)
        self.pool.execute(pending)


def run_campaign(
    jobs: Sequence[Job],
    config: MachineConfig,
    scale: ExperimentScale,
    *,
    processes: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    timeout_seconds: Optional[float] = None,
    store: Optional[Union[str, Path, ResultStore]] = None,
    resume: bool = False,
    shard: Optional[Tuple[int, int]] = None,
    observe=None,
    progress: Optional[ProgressCallback] = None,
    raise_on_failure: bool = False,
    trace_store: Optional[Union[str, Path]] = None,
    telemetry: Union[None, bool, float, TelemetrySettings] = None,
    private_memo: Optional[PrivateStreamMemo] = None,
) -> CampaignReport:
    """Run a campaign to completion, whatever the workers do.

    The inputs pick the execution path: at most one process or one
    pending job, with no timeout, runs inline in this process; anything
    else runs on the work-stealing pool (:mod:`repro.campaign.pool`),
    which keeps ``processes`` workers alive for the whole campaign.
    Failure capture, retries, resume and stored results are the same on
    either path. ``processes`` (default: one per CPU, capped at the
    pending job count) must be at least 1 and ``timeout_seconds`` must be
    positive; anything else raises :class:`CampaignLimitError` (a
    :class:`ValueError`) before any job runs.

    ``store`` (a path or :class:`ResultStore`) enables persistence: every
    outcome is appended as it lands, and ``resume=True`` skips jobs whose
    id already has a stored result (prior *failures* are retried — they
    are usually transient). Without ``resume``, an existing non-empty
    store is refused rather than silently extended.

    ``shard=(i, n)`` restricts this invocation to a deterministic,
    disjoint 1/n-th of the campaign (see :func:`repro.campaign.ids.shard_jobs`).

    Jobs get their traces from a bounded in-memory
    :class:`~repro.trace.store.MemoryTraceStore`: one for this call on the
    inline path, one per worker on the pool; a ``trace_store`` that is one
    already is used as it is. ``trace_store`` (a directory path or
    :class:`~repro.trace.store.TraceStore`) puts the shared on-disk trace
    cache under the memo, so a sharded campaign builds each trace once
    per machine. Per-job hit/miss tallies (a miss is a generation)
    travel home in ``result.extra`` and are absorbed into the observation
    registry as ``trace.cache.hit`` / ``trace.cache.miss``.

    ``observe`` (a :class:`repro.obs.Observation`) receives campaign
    counters/gauges in its registry and per-job/batch spans in its
    profiler. ``progress`` gets one dict per job state change.

    ``telemetry`` switches on the cross-process telemetry bus (off by
    default — zero overhead when unset): every worker spools registry
    deltas, profiler spans and resource samples to a per-job JSONL file
    under ``<store>.telemetry/``, and the parent tails the spools into
    the live campaign registry while jobs are still executing. Pass
    ``True`` for the default 1 s resource cadence, a number for a custom
    cadence in seconds, or a :class:`TelemetrySettings`. Requires
    ``store`` (the spool directory lives next to it); ``repro campaign
    watch`` renders the same spools from any other process.

    Jobs on a non-inclusive machine replay memoised private-stage
    streams (:mod:`repro.sim.private`), so each trace's private caches run
    once per call rather than once per job; results are bit-identical.
    The memo lives in this process for an inline campaign and in each
    worker for a pool campaign, and is gone when the call returns.
    ``private_memo`` shares one memo across several calls (as
    :func:`~repro.experiments.registry.execute_plan` does across its
    contexts): the caller has already expected every job passed here,
    and this call releases each job's streams once, after running it or
    on skipping it.

    With ``raise_on_failure`` the first permanent failure raises
    :class:`CampaignError` *after* the campaign completes — the default is
    graceful degradation: finish everything, report failures in the
    returned :class:`CampaignReport` and the on-disk failure manifest.
    """
    wall_start = time.perf_counter()
    check_limits(processes, timeout_seconds)
    retry = retry if retry is not None else RetryPolicy()
    # Off stays off: no call into the telemetry module at all.
    telemetry_settings = (None if telemetry is None
                          else TelemetrySettings.coerce(telemetry))
    if telemetry_settings is not None and store is None:
        raise ValueError("telemetry needs a result store — the spool "
                         "directory lives next to it")
    requested = list(jobs)
    jobs = (requested if shard is None else
            shard_jobs(requested, shard[0], shard[1], config, scale))
    ids = [job_id(job, config, scale) for job in jobs]

    result_store: Optional[ResultStore] = None
    stored: Dict[str, dict] = {}
    if store is not None:
        result_store = (store if isinstance(store, ResultStore)
                        else ResultStore(store))
        if result_store.exists():
            if not resume:
                raise FileExistsError(
                    f"{result_store.path} already holds campaign records; "
                    "resume it (repro campaign resume / resume=True) or "
                    "pick a fresh store path")
            contents = result_store.load()
            header_scheme = (contents.header or {}).get("id_scheme")
            if header_scheme != ID_SCHEME:
                # Resuming across id schemes would recompute every id under
                # the new scheme, match nothing, and silently re-run (or,
                # worse, collide) — refuse loudly instead.
                raise ValueError(
                    f"{result_store.path} was written under job-id scheme "
                    f"{header_scheme or 'unversioned (pre-v3)'!s}, but this "
                    f"version computes {ID_SCHEME} ids; its stored results "
                    "cannot be matched to the new ids. Start a fresh store "
                    "(or re-run with the repro version that wrote it).")
            stored = contents.results
        result_store.ensure_header()

    registry = profiler = None
    if observe is not None:
        if observe.registry is None:
            from repro.obs import MetricRegistry
            observe.registry = MetricRegistry()
        registry = observe.registry
        profiler = observe.profiler

    pending: List[_Pending] = []
    resumed: Dict[str, SimulationResult] = {}
    for index, (job, jid) in enumerate(zip(jobs, ids)):
        record = stored.get(jid)
        if record is not None:
            resumed[jid] = result_from_dict(record["result"])
        else:
            pending.append(_Pending(index, job, jid))
    skipped = len(resumed)

    if processes is None:
        processes = min(len(pending), multiprocessing.cpu_count()) or 1
    inline = (timeout_seconds is None
              and (processes <= 1 or len(pending) <= 1))
    workers = 1 if inline else processes

    telemetry_dir: Optional[Path] = None
    if telemetry_settings is not None:
        telemetry_dir = telemetry_dir_for(result_store.path)
        telemetry_dir.mkdir(parents=True, exist_ok=True)

    progress_state = _Progress(total=len(jobs), skipped=skipped,
                               workers=workers, callback=progress,
                               registry=registry)
    runner = _CampaignRun(config, scale, retry, timeout_seconds,
                          result_store, progress_state, profiler,
                          trace_store=trace_store,
                          telemetry=telemetry_settings,
                          telemetry_dir=telemetry_dir,
                          private_memo=(PrivateStreamMemo() if private_memo is None
                                        else private_memo))
    runner.private_memo.expect(
        key for item in pending for key in runner.stream_keys(item))
    if private_memo is not None:
        # Hand the caller's one expected use per job passed over to the
        # pending jobs' own counts, so skipped jobs hold no stream.
        private_memo.release(key for job in requested
                             for key in job_stream_keys(job, config, scale))
    runner.results_by_id.update(resumed)
    if pending:
        if inline:
            runner.run_inline(pending)
        else:
            runner.run_pool(pending, workers)
    runner.poll_telemetry(force=True)  # final fold: nothing left in flight

    failure_manifest_path = None
    if result_store is not None:
        # Rebuild the failure manifest from the store so it reflects every
        # still-outstanding failure, not just this pass's.
        contents = result_store.load()
        failure_manifest_path = write_failure_manifest(
            result_store.path,
            [contents.failures[jid] for jid in sorted(contents.failures)])

    wall = time.perf_counter() - wall_start
    if registry is not None:
        registry.set("campaign.wall_seconds", wall)
    report = CampaignReport(
        total=len(jobs),
        executed=len(runner.results_by_id) - skipped,
        skipped=skipped,
        failed=len(runner.failures),
        retries=progress_state.retries,
        results=[runner.results_by_id[jid] for jid in ids
                 if jid in runner.results_by_id],
        failures=runner.failures,
        results_by_id=dict(runner.results_by_id),
        job_ids=ids,
        wall_time_seconds=wall,
        store_path=result_store.path if result_store is not None else None,
        failure_manifest_path=failure_manifest_path,
        telemetry_dir=telemetry_dir,
        telemetry=runner.telemetry_view,
        pool_steals=runner.pool.steals if runner.pool is not None else 0,
        pool_respawns=(runner.pool.respawns
                       if runner.pool is not None else 0),
    )
    if raise_on_failure and report.failures:
        raise CampaignError(report.failures)
    return report
