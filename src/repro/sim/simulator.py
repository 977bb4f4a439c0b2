"""Single-core simulation: isolation and PInTE modes.

``simulate(...)`` is the main entry point for one workload on one machine.
With ``pinte=None`` it produces the paper's *Isolation* context; with a
:class:`~repro.core.pinte_config.PinteConfig` it produces the *PInTE*
context. The 2nd-Trace and hybrid contexts live in
:mod:`repro.sim.multicore`.

This host is a thin composition over :mod:`repro.sim.session`: a
:class:`~repro.sim.session.SessionBuilder` assembles the machine, a
:class:`~repro.sim.session.CoreStepper` schedules its one core (the
degenerate furthest-behind schedule, with the live-clock hooks as clock
limits), and :func:`~repro.sim.session.drive` owns the warm-up ->
stats-reset -> measured-region -> sampling cadence shared by every host.
"""

from __future__ import annotations

from typing import Optional

from repro.config import MachineConfig
from repro.core import PinteConfig
from repro.obs import Observation
from repro.sim.results import SimulationResult
from repro.sim.session import (
    DEFAULT_SAMPLE_INTERVAL,
    CoreStepper,
    SessionBuilder,
    drive,
    finalise_result,
    finish,
)
from repro.trace.packed import as_packed

__all__ = ["DEFAULT_SAMPLE_INTERVAL", "simulate"]


def simulate(
    trace,
    config: MachineConfig,
    pinte: Optional[PinteConfig] = None,
    warmup_instructions: int = 0,
    sim_instructions: Optional[int] = None,
    sample_interval: int = DEFAULT_SAMPLE_INTERVAL,
    seed: int = 0,
    observe: Optional[Observation] = None,
    partitioner=None,
    repartition_interval: int = 5_000,
    private_streams: Optional[list] = None,
) -> SimulationResult:
    """Run one workload alone (optionally under PInTE contention).

    ``trace`` may be a :class:`~repro.trace.record.Trace`, a
    :class:`~repro.trace.packed.PackedTrace`, or any iterable of
    :class:`~repro.trace.record.TraceRecord` — it is packed into columns
    once up front and the hot loop iterates the columns directly.

    The trace is replayed from the start; statistics gathered during the
    first ``warmup_instructions`` are discarded (cache and predictor state is
    kept), mirroring the paper's 500M-warmup / 500M-measure protocol. If the
    trace is shorter than warmup+sim it is restarted, ChampSim-style.

    ``observe`` opts into the observability layer: its event trace (if any)
    is attached to the LLC and engine for the duration of the run, phase
    spans land on its profiler, and a unified
    :class:`~repro.obs.registry.MetricRegistry` is left on
    ``observe.registry`` at the end.

    ``partitioner`` (a :class:`~repro.cache.partition.base.Partitioner`)
    installs per-owner LLC way quotas, re-evaluated every
    ``repartition_interval`` measured instructions — useful for studying a
    partitioning scheme's overhead on a workload running alone.

    ``private_streams`` (a one-item list holding the trace's
    :class:`~repro.sim.private.PrivateStream`) replays its recorded private
    stage instead of walking the private caches; results are
    bit-identical.
    """
    packed = as_packed(trace)
    trace_name = getattr(trace, "name", "") or packed.name or "trace"
    n_records = len(packed)
    total = (sim_instructions if sim_instructions is not None else
             max(0, n_records - warmup_instructions))
    if n_records == 0:
        raise ValueError(f"trace {trace_name!r} is empty")

    builder = (SessionBuilder(config, seed=seed).with_pinte(pinte)
               .with_private_streams(private_streams))
    if partitioner is not None:
        builder.with_partitioner(partitioner, repartition_interval)
    session = builder.with_observation(observe).build_timing([packed])
    outcome = drive(session, CoreStepper(session),
                    warmup=warmup_instructions, total=total,
                    sample_interval=sample_interval)

    mode = "pinte" if pinte is not None else "isolation"
    result = finalise_result(
        session.cores[0], session.hierarchies[0], session.tracker, 0,
        outcome.start_cycles[0], outcome.sampler, trace_name, mode,
        session.wall_start, pinte.p_induce if pinte else None, None, seed)
    finish(session, outcome, [result])
    return result
