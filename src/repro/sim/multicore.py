"""Multi-programmed (2nd-Trace) and hybrid simulation.

N workloads on N cores with private L1/L2, sharing the LLC, the DRAM
channels and the contention tracker — the paper's baseline source of real
contention. Scheduling is cycle-synchronised: each step advances the core
whose clock is furthest behind, so a fast core naturally retires more
instructions per unit of shared time, exactly like hardware. Non-primary
traces restart when exhausted, ChampSim-style, until the primary finishes
its budget.

:func:`simulate_pair` is the paper's two-core method;
:func:`simulate_multiprogrammed` generalises to the higher core counts the
paper's motivation section worries about ("if a pair of workloads is not
representative, then more than two workloads will need to be run
concurrently which increases CPU and memory costs").

Passing ``pinte=`` produces the **hybrid** context: induced thefts from the
PInTE engine layered on top of the real contention from the co-runners —
the experiment that measures whether induced and real thefts are additive.
The engine attaches to the primary core's hierarchy exactly as in the
single-core PInTE context; periodic and background-DRAM hooks tick on the
shared (primary) clock.

This host is a thin composition over :mod:`repro.sim.session`:
:class:`~repro.sim.session.CoreStepper` owns the furthest-behind schedule,
one ``run(count, limit)`` call per scheduling batch, with the hooks'
thresholds folded into the primary's limit, and
:func:`~repro.sim.session.drive` owns the warm-up / sampling /
repartition-epoch cadence shared by every host.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.config import MachineConfig
from repro.obs import Observation
from repro.obs.sampler import IntervalSampler
from repro.sim.results import SimulationResult
from repro.sim.session import (
    ADDRESS_SPACE_STRIDE,
    DEFAULT_SAMPLE_INTERVAL,
    CoreStepper,
    SessionBuilder,
    core_stream,
    drive,
    finalise_result,
    finish,
)
from repro.trace.record import Trace

__all__ = [
    "ADDRESS_SPACE_STRIDE",
    "all_pairs",
    "simulate_multiprogrammed",
    "simulate_pair",
]


def simulate_multiprogrammed(
    traces: List[Trace],
    config: MachineConfig,
    warmup_instructions: int = 0,
    sim_instructions: Optional[int] = None,
    sample_interval: int = DEFAULT_SAMPLE_INTERVAL,
    seed: int = 0,
    partitioner=None,
    repartition_interval: int = 5_000,
    pinte=None,
    observe: Optional[Observation] = None,
    private_streams: Optional[list] = None,
) -> List[SimulationResult]:
    """Run ``traces[0]`` with ``traces[1:]`` as concurrent contention sources.

    Returns one :class:`SimulationResult` per core, primary first. The
    primary's instruction budget terminates the simulation; other cores
    retire as many instructions as the shared timeline allows (their
    results report those counts). Periodic samples are collected for the
    primary core only.

    ``partitioner`` (a :class:`~repro.cache.partition.base.Partitioner`)
    installs per-owner LLC way quotas and is re-evaluated every
    ``repartition_interval`` primary instructions.

    ``pinte`` (a :class:`~repro.core.pinte_config.PinteConfig`) layers
    induced contention on top of the co-runners — the hybrid context; all
    results report ``mode="hybrid"`` and carry ``p_induce``.

    ``private_streams`` (one :class:`~repro.sim.private.PrivateStream` per
    trace, in the same order) replays recorded private stages instead of
    walking each core's private caches; results are bit-identical.
    """
    if len(traces) < 2:
        raise ValueError("multi-programmed simulation needs at least 2 traces")
    n_cores = len(traces)
    streams = ([stream.packed for stream in private_streams]
               if private_streams is not None else
               [core_stream(trace, core_id)
                for core_id, trace in enumerate(traces)])
    # Empty streams are rejected before any resource assembly, so a bad mix
    # cannot leave a half-built session.
    for trace, stream in zip(traces, streams):
        if not len(stream):
            raise ValueError(f"trace {trace.name!r} is empty")

    builder = (SessionBuilder(config, seed=seed).with_pinte(pinte)
               .with_private_streams(private_streams))
    if partitioner is not None:
        builder.with_partitioner(partitioner, repartition_interval)
    session = builder.with_observation(observe).build_timing(streams)

    total = (sim_instructions if sim_instructions is not None else
             max(0, len(traces[0]) - warmup_instructions))
    outcome = drive(session, CoreStepper(session),
                    warmup=warmup_instructions, total=total,
                    sample_interval=sample_interval)

    empty_samplers = [
        IntervalSampler(session.cores[core_id], session.llc, core_id,
                        session.tracker, sample_interval)
        for core_id in range(1, n_cores)
    ]
    mode = "hybrid" if pinte is not None else "2nd-trace"
    p_induce = pinte.p_induce if pinte is not None else None
    results = [finalise_result(
        session.cores[0], session.hierarchies[0], session.tracker, 0,
        outcome.start_cycles[0], outcome.sampler, traces[0].name, mode,
        session.wall_start, p_induce,
        "+".join(t.name for t in traces[1:]), seed)]
    for core_id in range(1, n_cores):
        results.append(finalise_result(
            session.cores[core_id], session.hierarchies[core_id],
            session.tracker, core_id, outcome.start_cycles[core_id],
            empty_samplers[core_id - 1], traces[core_id].name, mode,
            session.wall_start, p_induce, traces[0].name, seed,
        ))
    finish(session, outcome, results)
    return results


def simulate_pair(
    primary: Trace,
    secondary: Trace,
    config: MachineConfig,
    warmup_instructions: int = 0,
    sim_instructions: Optional[int] = None,
    sample_interval: int = DEFAULT_SAMPLE_INTERVAL,
    seed: int = 0,
    return_secondary: bool = False,
    pinte=None,
    observe: Optional[Observation] = None,
    private_streams: Optional[list] = None,
) -> SimulationResult:
    """Run ``primary`` with ``secondary`` as the contention source.

    Returns the primary core's result (the workload under study). With
    ``return_secondary`` the result's ``extra`` carries the secondary IPC so
    throughput studies can use both sides. ``pinte`` adds induced
    contention on top of the co-runner (the hybrid context).
    """
    results = simulate_multiprogrammed(
        [primary, secondary], config,
        warmup_instructions=warmup_instructions,
        sim_instructions=sim_instructions,
        sample_interval=sample_interval,
        seed=seed,
        pinte=pinte,
        observe=observe,
        private_streams=private_streams,
    )
    result = results[0]
    result.co_runner = secondary.name
    if return_secondary:
        result.extra["secondary_ipc"] = results[1].ipc
        result.extra["secondary_instructions"] = float(results[1].instructions)
    return result


def all_pairs(names: List[str]) -> List[Tuple[str, str]]:
    """All unique unordered workload pairs — the paper's 2nd-Trace matrix
    (``n * (n-1) / 2`` mixes for ``n`` traces)."""
    return [
        (names[i], names[j])
        for i in range(len(names))
        for j in range(i + 1, len(names))
    ]
