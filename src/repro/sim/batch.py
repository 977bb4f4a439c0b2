"""Job manifests: the declarative job vocabulary campaigns are written in.

The paper's Table I is a story about simulation cost; at reproduction
scale the practical answer is :mod:`repro.campaign` — a fault-tolerant
scheduler with retries, timeouts, a persistent result store, resume and
sharding, whose one entry point is :func:`repro.campaign.run_campaign`.
This module holds what every campaign is written in:
:class:`Job` / :func:`run_job` / :func:`campaign_jobs`. Jobs are
specified by *name*, not by object, so they pickle cheaply: each worker
serves its traces from a trace store by workload name.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import MachineConfig
from repro.core import PinteConfig
from repro.sim.multicore import _simulate
from repro.sim.private import PrivateStreamMemo, private_key, replays
from repro.sim.results import SimulationResult
from repro.sim.runner import ExperimentScale
from repro.trace.store import trace_memo


@dataclass(frozen=True)
class Job:
    """One simulation to run: isolation, PInTE, 2nd-Trace, or multicore.

    ``p_induce`` on a ``pair``/``multi`` job makes it a **hybrid** run:
    induced thefts layered on top of the co-runners' real contention
    (``mode="hybrid"`` on the result).

    ``co_seed`` optionally pins the adversary trace's seed in ``pair``
    and ``multi`` modes; the default (``None``) keeps the historical
    ``scale.seed + 1`` so paired runs never share a trace stream by
    accident. In ``multi`` mode the i-th co-runner's trace seed is
    ``co_seed + i``, the n-core study's convention.

    ``pinte_seed`` pins the PInTE RNG stream independently of the trace
    (the Fig. 3 stability study re-runs the same trace under fresh PInTE
    streams); ``trace_seed`` overrides the *primary* trace's seed (the
    partitioning study measures the aggressor's isolation baseline on the
    exact shifted-seed trace used in the shared run). ``scheme`` and
    ``repartition_interval`` select an LLC partitioner for ``multi`` jobs
    (``shared``/``static``/``ucp``/``casht``; ``None`` means no
    partitioning, like ``shared``).
    """

    workload: str
    mode: str = "isolation"  # isolation | pinte | pair | multi
    p_induce: Optional[float] = None
    co_runner: Optional[str] = None
    co_seed: Optional[int] = None
    pinte_seed: Optional[int] = None
    trace_seed: Optional[int] = None
    co_runners: Optional[Tuple[str, ...]] = None
    scheme: Optional[str] = None
    repartition_interval: Optional[int] = None

    def __post_init__(self) -> None:
        if self.mode not in ("isolation", "pinte", "pair", "multi"):
            raise ValueError(f"unknown job mode {self.mode!r}")
        if self.mode == "pinte" and self.p_induce is None:
            raise ValueError("pinte jobs need p_induce")
        if self.mode == "pair" and not self.co_runner:
            raise ValueError("pair jobs need a co_runner")
        if self.mode == "multi" and not self.co_runners:
            raise ValueError("multi jobs need co_runners")
        if (self.repartition_interval is not None
                and self.repartition_interval < 1):
            raise ValueError(f"repartition_interval must be at least 1, "
                             f"got {self.repartition_interval}")
        if self.co_runners is not None and not isinstance(self.co_runners,
                                                          tuple):
            # JSON round-trips hand back lists; keep the job hashable.
            object.__setattr__(self, "co_runners", tuple(self.co_runners))


def _job_partitioner(job: Job, config: MachineConfig):
    """Build the LLC partitioner a ``multi`` job asked for (or ``None``)."""
    if job.scheme is None or job.scheme == "shared":
        return None
    from repro.cache.partition import PARTITIONERS, make_partitioner
    if job.scheme not in PARTITIONERS:
        known = ", ".join(["shared"] + sorted(PARTITIONERS))
        raise ValueError(f"unknown partitioning scheme {job.scheme!r}; "
                         f"known: {known}")
    n_ways = config.llc.assoc
    n_sets = config.llc.size // (n_ways * config.block_size)
    owners = list(range(1 + len(job.co_runners)))
    # UCP's shadow monitor samples every 4th set at the scaled machine size.
    kwargs = {"sampling": 4} if job.scheme == "ucp" else {}
    return make_partitioner(job.scheme, n_sets, n_ways, owners, **kwargs)


def job_trace_keys(job: Job, config: MachineConfig,
                   scale: ExperimentScale) -> List[Tuple[str, int, int, int]]:
    """Each core's ``(workload, llc bytes, length, seed)`` trace, primary
    first — the trace-store key every input of ``job`` is read under."""
    llc, length = config.llc.size, scale.trace_length
    primary = job.trace_seed if job.trace_seed is not None else scale.seed
    keys = [(job.workload, llc, length, primary)]
    # Co-runners default to ``scale.seed + 1`` so paired runs never share
    # a trace stream by accident; the i-th multi co-runner adds ``i``.
    co_base = job.co_seed if job.co_seed is not None else scale.seed + 1
    if job.mode == "pair":
        keys.append((job.co_runner, llc, length, co_base))
    elif job.mode == "multi":
        keys.extend((name, llc, length, co_base + index)
                    for index, name in enumerate(job.co_runners))
    return keys


def job_stream_keys(job: Job, config: MachineConfig,
                    scale: ExperimentScale) -> List[tuple]:
    """The private-stream memo key of each of ``job``'s cores, primary
    first (:mod:`repro.sim.private`); empty when its cores cannot replay."""
    if not replays(config):
        return []
    private = private_key(config)
    return [(trace, core_id, private, scale.seed + core_id)
            for core_id, trace in enumerate(job_trace_keys(job, config,
                                                           scale))]


def run_job(job: Job, config: MachineConfig, scale: ExperimentScale,
            trace_store=None,
            observe=None,
            private_memo: Optional[PrivateStreamMemo] = None,
            ) -> SimulationResult:
    """Execute one job (also the campaign worker entry point).

    ``trace_store`` — a :class:`~repro.trace.store.MemoryTraceStore`, a
    :class:`~repro.trace.store.TraceStore`, a directory path or ``None`` —
    serves input traces through :func:`~repro.trace.store.trace_memo`, so
    a job that passes no memo gets a fresh one for itself. The result's ``extra`` carries the store's ``trace_cache_hits`` /
    ``trace_cache_misses`` deltas (together, one lookup per core) and
    ``phase_trace_gen_seconds`` so the campaign engine can aggregate
    trace-build cost across worker processes (each worker has its own
    registry; ``extra`` is the only channel home).

    ``observe`` (a :class:`repro.obs.Observation`) is forwarded to the
    host, and additionally receives a ``trace-gen`` profiler span plus
    ``trace.cache.hit`` / ``trace.cache.miss`` counters mirroring the
    extras — so a telemetry-spooling worker's registry agrees exactly
    with what rides home in ``result.extra``.

    ``private_memo`` (a :class:`~repro.sim.private.PrivateStreamMemo`)
    lets the job replay its cores' private stages from memoised streams,
    bit-identically, observed or not; a job on an inclusive or exclusive
    hierarchy walks its caches in lockstep instead. A replayed result's
    ``extra`` carries ``phase_private_seconds`` (private-stage time this
    job paid, building or extending streams) and
    ``phase_private_reused_seconds`` (what the part of the streams it
    replayed but did not build had cost to build).
    """
    store = trace_memo(trace_store)
    hits_before, misses_before = store.hits, store.misses
    trace_start = time.perf_counter()
    traces = [store.get_or_build(*key)
              for key in job_trace_keys(job, config, scale)]
    trace_seconds = time.perf_counter() - trace_start
    streams = None
    if private_memo is not None and replays(config):
        budget = scale.warmup_instructions + scale.sim_instructions
        keys = job_stream_keys(job, config, scale)
        streams = [private_memo.stream(key, config, trace, core_id,
                                       scale.seed + core_id, budget)
                   for core_id, (key, trace) in enumerate(zip(keys, traces))]
        built = [stream.seconds for stream in streams]
    pinte_seed = (job.pinte_seed if job.pinte_seed is not None
                  else scale.seed)
    # p_induce on a pair/multi job layers induced contention on top of the
    # real co-runners — the hybrid context.
    pinte = (PinteConfig(job.p_induce, seed=pinte_seed)
             if job.mode != "isolation" and job.p_induce is not None
             else None)
    partitioner = (_job_partitioner(job, config) if job.mode == "multi"
                   else None)
    results = _simulate(
        traces, [trace.name for trace in traces], config, pinte,
        scale.warmup_instructions, scale.sim_instructions,
        scale.sample_interval, scale.seed, observe, partitioner,
        (job.repartition_interval if job.repartition_interval is not None
         else 5_000), streams)
    result = results[0]
    if job.mode == "multi":
        result.co_results = results[1:]
        if partitioner is not None:
            for owner, ways in partitioner.allocate().items():
                result.extra[f"partition_quota_{owner}"] = float(ways)
    result.extra["phase_trace_gen_seconds"] = trace_seconds
    if streams is not None:
        # Paid: what this job's builds took. Reused: what the prefix it
        # replayed had cost the jobs that built it.
        paid = [stream.seconds - before
                for stream, before in zip(streams, built)]
        result.extra["phase_private_seconds"] = sum(paid)
        result.extra["phase_private_reused_seconds"] = sum(
            max(0.0, stream.cost_of(stream.reached) - spent)
            for stream, spent in zip(streams, paid))
    result.extra["trace_cache_hits"] = float(store.hits - hits_before)
    result.extra["trace_cache_misses"] = float(store.misses - misses_before)
    if observe is not None:
        observe.profiler.add_span(
            "trace-gen", trace_start - observe.profiler.origin, trace_seconds)
        if observe.registry is not None:
            # Mirror the extras into the worker registry so the telemetry
            # fold and the stored result agree to the integer.
            observe.registry.count("trace.cache.hit",
                                   int(result.extra["trace_cache_hits"]))
            observe.registry.count("trace.cache.miss",
                                   int(result.extra["trace_cache_misses"]))
    return result


def memo_off_seconds(result: SimulationResult) -> float:
    """What a run would have cost with the private-stream memo off: its
    wall time plus the build time of the memoised private stages it
    replayed (``phase_private_reused_seconds``)."""
    return (result.wall_time_seconds
            + result.extra.get("phase_private_reused_seconds", 0.0))


def campaign_jobs(
    workloads: Sequence[str],
    p_values: Sequence[float] = (),
    panel: Dict[str, Sequence[str]] = None,
    include_isolation: bool = True,
) -> List[Job]:
    """Build the standard three-context job list for a campaign."""
    jobs: List[Job] = []
    for workload in workloads:
        if include_isolation:
            jobs.append(Job(workload))
        for p in p_values:
            jobs.append(Job(workload, mode="pinte", p_induce=p))
        for adversary in (panel or {}).get(workload, ()):
            jobs.append(Job(workload, mode="pair", co_runner=adversary))
    return jobs
