"""Single-core simulation: isolation and PInTE modes.

``simulate(...)`` is the main entry point for one workload on one machine.
With ``pinte=None`` it produces the paper's *Isolation* context; with a
:class:`~repro.core.pinte_config.PinteConfig` it produces the *PInTE*
context. The 2nd-Trace and hybrid contexts live in
:mod:`repro.sim.multicore`.

This host is the one-core case of the timing-host composition in
:mod:`repro.sim.multicore`: a :class:`~repro.sim.session.SessionBuilder`
assembles the machine, a :class:`~repro.sim.session.CoreStepper` schedules
its one core (the degenerate furthest-behind schedule, with the live-clock
hooks as clock limits), and :func:`~repro.sim.session.drive` owns the
warm-up -> stats-reset -> measured-region -> sampling cadence shared by
every host.
"""

from __future__ import annotations

from typing import Optional

from repro.config import MachineConfig
from repro.core import PinteConfig
from repro.obs import Observation
from repro.sim.multicore import _simulate
from repro.sim.results import SimulationResult
from repro.sim.session import DEFAULT_SAMPLE_INTERVAL
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

    ``trace`` may be a :class:`~repro.trace.packed.PackedTrace` or any
    iterable of :class:`~repro.trace.record.TraceRecord` — it is packed
    into columns once up front and the hot loop iterates the columns
    directly.

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
    return _simulate([packed], [trace_name], config, pinte,
                     warmup_instructions, sim_instructions, sample_interval,
                     seed, observe, partitioner, repartition_interval,
                     private_streams)[0]
