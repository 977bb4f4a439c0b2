"""Persistent work-stealing worker pool for campaign execution.

Every campaign that does not run inline runs here (see
:func:`repro.campaign.engine.run_campaign` for the choice). Campaigns
are often many short jobs — deduplicated artifact plans, sensitivity
sweeps — so the pool keeps the per-job cost near the simulation itself
and keeps every worker busy:

* **fork once, stream jobs** — N long-lived workers are forked at campaign
  start; jobs stream to them over pipes and results stream back, so the
  per-job cost is one pickle round-trip, not a process launch. Each worker
  keeps a bounded in-memory trace memo
  (:class:`~repro.trace.store.MemoryTraceStore`, over the shared on-disk
  store when there is one), so a worker that re-sees a trace skips even
  the read/build step, and a private-stream memo
  (:class:`~repro.sim.private.PrivateStreamMemo`), so it runs each
  trace's private caches once and replays them for every later job on
  the same trace. The parent, which sees every dispatch, tells a worker
  which streams no undispatched job needs any more.
* **work stealing** — the parent deals pending jobs round-robin into
  per-worker deques (the same static distribution sharding uses across
  machines). A worker that drains its own deque *steals* the tail of the
  longest peer deque. Stealing is parent-mediated — deques live in the
  parent, so there are no cross-process locks — but the accounting is the
  classic one: owners take from the front, thieves from the back.
* **failure isolation** — a worker that dies mid-job is a ``crash`` (and
  only that worker is respawned, keeping its deque); an overdue job gets
  the worker killed and respawned and counts as a ``timeout``; exceptions
  come back over the pipe as ``error``. All three flow through the
  engine's retry/record paths, which the inline path shares, so failure
  records do not depend on where a job ran.
* **liveness for ``campaign watch``** — the pool atomically rewrites
  ``<store>.workers.json`` (per-worker pid, state, occupancy, steal
  counts) on a short cadence, and — when telemetry is on — appends
  pool-level gauges to a ``_pool`` spool the telemetry fold publishes.

A pool campaign and an inline campaign of the same jobs write equivalent
result stores up to volatile fields
(:func:`repro.campaign.store.canonical_records`), and a campaign started
on one path can be resumed on the other — the store format carries no
path-specific state.
"""

from __future__ import annotations

import json
import multiprocessing
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait
from typing import Deque, List, Optional

from collections import Counter, deque

from repro.campaign.store import write_worker_records
from repro.sim.private import PrivateStreamMemo
from repro.obs.telemetry import pool_spool_path
from repro.trace.store import trace_memo

__all__ = ["PoolExecutor"]

#: How often the pool republishes liveness/occupancy (seconds).
PUBLISH_INTERVAL = 0.5


def _pool_worker_main(recv_conn, send_conn, config, scale,
                      trace_store) -> None:
    """Long-lived worker loop: jobs stream in, results stream out.

    One ``("job", jid, job, attempt, telemetry_target, drop)`` message per
    attempt, where ``drop`` lists the private streams to free after the
    job; the reply is ``("ok", jid, result)`` or ``("err", jid, type,
    message, traceback)``. A ``("stop",)`` message (or a closed pipe) ends
    the loop. Telemetry spooling happens here, per attempt, through the
    same :func:`~repro.campaign.engine._spooled_execute` the inline path
    uses — so spool records are indistinguishable.
    """
    from repro.campaign.engine import _spooled_execute

    memo = trace_memo(trace_store)
    streams = PrivateStreamMemo()
    try:
        while True:
            try:
                message = recv_conn.recv()
            except (EOFError, OSError):
                break
            if message[0] == "stop":
                break
            _, jid, job, attempt, telemetry, drop = message
            try:
                result = _spooled_execute(job, config, scale, attempt, memo,
                                          telemetry, streams)
                send_conn.send(("ok", jid, result))
            except BaseException as exc:  # full capture is the point
                send_conn.send(("err", jid, type(exc).__name__, str(exc),
                                traceback.format_exc()))
            streams.drop(drop)
    finally:
        try:
            send_conn.close()
            recv_conn.close()
        except OSError:  # pragma: no cover — pipes already gone
            pass


@dataclass
class _Worker:
    """Parent-side handle for one pool slot (survives respawns)."""

    index: int
    proc: Optional[multiprocessing.Process] = None
    to_worker: Optional[object] = None
    from_worker: Optional[object] = None
    #: This slot's share of pending jobs. Lives in the parent — the owner
    #: takes from the front, thieves take from the back.
    queue: Deque = field(default_factory=deque)
    current: Optional[object] = None  # in-flight _Pending, if any
    dispatched_at: float = 0.0
    deadline: Optional[float] = None
    jobs_done: int = 0
    steals: int = 0
    respawns: int = 0
    busy_seconds: float = 0.0
    #: Private streams this slot's process may hold.
    streams: set = field(default_factory=set)


class PoolExecutor:
    """N persistent workers fed from parent-side deques with stealing.

    Drives one :class:`~repro.campaign.engine._CampaignRun` — all outcome
    handling (success records, retry/backoff, failure capture, telemetry
    polling) goes through the run's methods the inline path also uses, so
    the two paths cannot drift apart semantically.
    """

    def __init__(self, run, processes: int) -> None:
        self.run = run
        self.processes = processes
        self.workers: List[_Worker] = []
        self.steals = 0
        self.respawns = 0
        self._waiting: List = []  # backoff retries not yet ready
        self._published = 0.0
        self._started_at = 0.0
        #: Undispatched uses of each private stream, over all workers.
        self._stream_uses: Counter = Counter()

    # -- lifecycle -----------------------------------------------------------
    def _start_process(self, worker: _Worker) -> None:
        job_recv, job_send = multiprocessing.Pipe(duplex=False)
        result_recv, result_send = multiprocessing.Pipe(duplex=False)
        proc = multiprocessing.Process(
            target=_pool_worker_main,
            args=(job_recv, result_send, self.run.config, self.run.scale,
                  self.run.trace_store),
            daemon=True)
        proc.start()
        # Close the parent's copies of the child ends so EOF propagates.
        job_recv.close()
        result_send.close()
        worker.proc = proc
        worker.to_worker = job_send
        worker.from_worker = result_recv

    def _respawn(self, worker: _Worker) -> None:
        """Replace one slot's process, keeping its deque and tallies."""
        for conn in (worker.to_worker, worker.from_worker):
            try:
                conn.close()
            except OSError:  # pragma: no cover — already closed
                pass
        if worker.proc.is_alive():
            worker.proc.terminate()
            worker.proc.join(5.0)
            if worker.proc.is_alive():  # pragma: no cover — stubborn child
                worker.proc.kill()
        worker.proc.join()
        worker.current = None
        worker.deadline = None
        worker.streams = set()
        worker.respawns += 1
        self.respawns += 1
        registry = self.run.progress.registry
        if registry is not None:
            registry.count("campaign.pool.respawn")
        self._start_process(worker)

    def _shutdown(self) -> None:
        for worker in self.workers:
            try:
                worker.to_worker.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        for worker in self.workers:
            worker.proc.join(5.0)
            if worker.proc.is_alive():  # pragma: no cover — stuck in a job
                worker.proc.terminate()
                worker.proc.join(5.0)
            for conn in (worker.to_worker, worker.from_worker):
                try:
                    conn.close()
                except OSError:  # pragma: no cover
                    pass

    # -- scheduling ----------------------------------------------------------
    def _take(self, worker: _Worker):
        """Next job for an idle worker: own deque first, then steal."""
        if worker.queue:
            return worker.queue.popleft()
        victim = max((peer for peer in self.workers
                      if peer is not worker and peer.queue),
                     key=lambda peer: len(peer.queue), default=None)
        if victim is None:
            return None
        item = victim.queue.pop()  # thieves take from the back
        worker.steals += 1
        self.steals += 1
        registry = self.run.progress.registry
        if registry is not None:
            registry.count("campaign.pool.steal")
        return item

    def _dispatch(self, worker: _Worker, item) -> None:
        # Streams no undispatched job needs are freed once this job is done.
        keys = self.run.stream_keys(item)
        self._stream_uses.subtract(keys)
        worker.streams.update(keys)
        drop = [key for key in worker.streams if self._stream_uses[key] <= 0]
        try:
            worker.to_worker.send(("job", item.jid, item.job, item.attempt,
                                   self.run._telemetry_target(item), drop))
        except (BrokenPipeError, OSError):
            # The worker died between jobs; put the item back and refork.
            self._stream_uses.update(keys)
            worker.queue.appendleft(item)
            self._respawn(worker)
            return
        worker.streams.difference_update(drop)
        worker.current = item
        worker.dispatched_at = time.monotonic()
        worker.deadline = (worker.dispatched_at + self.run.timeout
                           if self.run.timeout is not None else None)

    def _dispatch_idle(self) -> None:
        for worker in self.workers:
            while worker.current is None:
                item = self._take(worker)
                if item is None:
                    break
                self._dispatch(worker, item)

    def _requeue(self, item) -> None:
        """Park a retry until its backoff delay elapses."""
        self._stream_uses.update(self.run.stream_keys(item))
        self._waiting.append(item)

    def _release_ready(self) -> None:
        now = time.monotonic()
        due = [item for item in self._waiting if item.ready_time <= now]
        if not due:
            return
        self._waiting = [item for item in self._waiting
                         if item.ready_time > now]
        due.sort(key=lambda item: item.index)
        for item in due:
            shortest = min(self.workers, key=lambda w: len(w.queue))
            shortest.queue.append(item)

    # -- outcome handling ----------------------------------------------------
    def _finish_current(self, worker: _Worker) -> object:
        item = worker.current
        worker.busy_seconds += time.monotonic() - worker.dispatched_at
        worker.current = None
        worker.deadline = None
        return item

    def _receive(self, worker: _Worker) -> None:
        try:
            payload = worker.from_worker.recv()
        except (EOFError, OSError):
            self._worker_died(worker)
            return
        item = worker.current
        if item is None or payload[1] != item.jid:
            # A respawn replaces the pipes wholesale, so a stale message
            # from a killed worker can never arrive here; be safe anyway.
            return  # pragma: no cover
        wall = time.monotonic() - worker.dispatched_at
        self._finish_current(worker)
        if payload[0] == "ok":
            worker.jobs_done += 1
            self.run._record_success(item, payload[2], wall)
            return
        _, _, error_type, message, trace = payload
        retry_item = self.run._attempt_failed(item, "error", error_type,
                                              message, trace)
        if retry_item is not None:
            self._requeue(retry_item)

    def _worker_died(self, worker: _Worker) -> None:
        """A worker's pipe hit EOF / its sentinel fired: crash semantics."""
        item = worker.current
        if item is not None:
            self._finish_current(worker)
        code = worker.proc.exitcode
        self._respawn(worker)
        if item is None:
            return  # died between jobs; nothing to record
        retry_item = self.run._attempt_failed(
            item, "crash", "WorkerCrash",
            f"worker exited with code {code} before reporting", "")
        if retry_item is not None:
            self._requeue(retry_item)

    def _kill_overdue(self) -> None:
        now = time.monotonic()
        for worker in self.workers:
            if (worker.current is None or worker.deadline is None
                    or now < worker.deadline):
                continue
            if worker.from_worker.poll():
                # Finished just under the wire — reap normally instead.
                self._receive(worker)
                continue
            item = self._finish_current(worker)
            self._respawn(worker)  # kill + refork only the offender
            retry_item = self.run._attempt_failed(
                item, "timeout", "JobTimeout",
                f"job exceeded {self.run.timeout:g}s and was killed", "")
            if retry_item is not None:
                self._requeue(retry_item)

    # -- waiting -------------------------------------------------------------
    def _busy(self) -> List[_Worker]:
        return [worker for worker in self.workers
                if worker.current is not None]

    def _wait_budget(self) -> Optional[float]:
        now = time.monotonic()
        budgets = [worker.deadline - now for worker in self._busy()
                   if worker.deadline is not None]
        budgets.extend(item.ready_time - now for item in self._waiting)
        budgets.append(self._published + PUBLISH_INTERVAL - now)
        if self.run.telemetry_view is not None:
            budgets.append(max(0.5, self.run.telemetry.interval_seconds))
        if not self._busy() and not budgets:
            return None  # pragma: no cover — loop exits before this
        return max(0.0, min(budgets)) if budgets else None

    def _wait(self) -> None:
        """Block until a result, a worker death, or the next deadline."""
        objects = {}
        for worker in self.workers:
            objects[worker.proc.sentinel] = worker
            if worker.current is not None:
                objects[worker.from_worker] = worker
        ready = _connection_wait(list(objects), self._wait_budget())
        seen = set()
        for handle in ready:
            worker = objects[handle]
            if worker.index in seen:
                continue  # conn and sentinel both fired; handle once
            seen.add(worker.index)
            if handle is worker.proc.sentinel:
                if worker.from_worker.poll():
                    # The report beat the death; consume it first.
                    self._receive(worker)
                elif not worker.proc.is_alive():
                    self._worker_died(worker)
            else:
                self._receive(worker)

    # -- liveness / telemetry ------------------------------------------------
    @staticmethod
    def _label(item) -> str:
        from repro.campaign.engine import _job_label

        return _job_label(item.job)

    def _worker_rows(self, now: float) -> List[dict]:
        elapsed = max(1e-9, now - self._started_at)
        rows = []
        for worker in self.workers:
            busy = worker.busy_seconds
            if worker.current is not None:
                busy += now - worker.dispatched_at
            item = worker.current
            rows.append({
                "index": worker.index,
                "pid": worker.proc.pid,
                "alive": worker.proc.is_alive(),
                "state": "busy" if item is not None else "idle",
                "job_id": item.jid if item is not None else None,
                "label": self._label(item) if item is not None else None,
                "attempt": item.attempt if item is not None else None,
                "queued": len(worker.queue),
                "jobs_done": worker.jobs_done,
                "steals": worker.steals,
                "respawns": worker.respawns,
                "busy_seconds": round(busy, 3),
                "occupancy": round(min(1.0, busy / elapsed), 4),
            })
        return rows

    def _publish(self, force: bool = False, running: bool = True) -> None:
        now = time.monotonic()
        if not force and now - self._published < PUBLISH_INTERVAL:
            return
        self._published = now
        rows = self._worker_rows(now)
        registry = self.run.progress.registry
        if registry is not None:
            registry.set("campaign.pool.workers", len(self.workers))
            for row in rows:
                prefix = f"campaign.pool.worker{row['index']}"
                registry.set(f"{prefix}.occupancy", row["occupancy"])
        if self.run.store is not None:
            write_worker_records(self.run.store.path, rows,
                                 steals=self.steals, respawns=self.respawns,
                                 running=running)
        if self.run.telemetry_dir is not None:
            self._spool_gauges(rows)

    def _spool_gauges(self, rows: List[dict]) -> None:
        """Append pool gauges to the ``_pool`` telemetry spool.

        Counters are encoded as gauges carrying absolute values, so
        re-reading the spool from the start (what ``watch`` does) is
        idempotent — the newest record simply wins.
        """
        gauges = {"campaign.pool.workers": float(len(self.workers)),
                  "campaign.pool.steals": float(self.steals),
                  "campaign.pool.respawns": float(self.respawns)}
        for row in rows:
            prefix = f"campaign.pool.worker{row['index']}"
            gauges[f"{prefix}.occupancy"] = row["occupancy"]
            gauges[f"{prefix}.jobs_done"] = float(row["jobs_done"])
            gauges[f"{prefix}.steals"] = float(row["steals"])
        record = json.dumps({"k": "delta", "gauges": gauges},
                            sort_keys=True, separators=(",", ":"))
        path = pool_spool_path(self.run.telemetry_dir)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(record + "\n")

    # -- main loop -----------------------------------------------------------
    def execute(self, pending: List) -> None:
        """Run every pending item to an outcome, then stop the workers."""
        self._started_at = time.monotonic()
        batch_start = time.perf_counter()
        self.workers = [_Worker(index) for index in range(self.processes)]
        for worker in self.workers:
            self._start_process(worker)
        # Static round-robin seeding — the distribution stealing repairs.
        for position, item in enumerate(pending):
            self.workers[position % self.processes].queue.append(item)
            self._stream_uses.update(self.run.stream_keys(item))
        try:
            while True:
                self._release_ready()
                self._dispatch_idle()
                if not self._waiting and not self._busy():
                    if not any(worker.queue for worker in self.workers):
                        break
                    continue  # a dispatch failed and respawned; retry
                self._wait()
                self._kill_overdue()
                self.run.poll_telemetry()
                self._publish()
        except BaseException:
            for worker in self.workers:
                worker.proc.terminate()
            for worker in self.workers:
                worker.proc.join(5.0)
            raise
        self._publish(force=True, running=False)
        self._shutdown()
        if self.run.profiler is not None:
            self.run.profiler.add_span(
                f"pool[{len(pending)} jobs x{self.processes}]",
                batch_start - self.run.profiler.origin,
                time.perf_counter() - batch_start)
