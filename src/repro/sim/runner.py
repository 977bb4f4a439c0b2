"""Experiment scale, trace cache and adversary panels.

The experiments in :mod:`repro.experiments` all follow the same recipe: pick
workloads, run them in isolation, under a PInTE sweep, and/or against
2nd-Trace adversaries, at a common scale. This module holds what those runs
share: the :class:`ExperimentScale`, a :class:`TraceLibrary` that builds
each trace once, and the deterministic 2nd-Trace :func:`adversary_panel`.
The runs themselves go through the artifact registry
(:mod:`repro.experiments.registry`) and the campaign engine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import MachineConfig
from repro.obs import Observation
from repro.obs.registry import MetricRegistry
from repro.serde import ConfigSerde
from repro.trace.record import Trace
from repro.trace.spec_models import get_workload
from repro.trace.store import TraceStore
from repro.trace.synthetic import build_trace


@dataclass(frozen=True)
class ExperimentScale(ConfigSerde):
    """How big each simulation is.

    The paper warms 500M and measures 500M instructions per trace; the
    defaults here are the scaled equivalents used by the benchmark harness.
    Every field is an ``int`` (``bool`` is not); the warm-up may be 0, the
    measured length and the sample interval must be at least 1. A bad value
    is one ``ValueError`` here, not a failure deep inside a run.
    """

    warmup_instructions: int = 10_000
    sim_instructions: int = 40_000
    sample_interval: int = 4_000
    seed: int = 1

    def __post_init__(self) -> None:
        for name in ("warmup_instructions", "sim_instructions",
                     "sample_interval", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"ExperimentScale.{name} must be an int, "
                                 f"got {value!r}")
        if self.warmup_instructions < 0:
            raise ValueError("ExperimentScale.warmup_instructions must be "
                             f">= 0, got {self.warmup_instructions}")
        for name in ("sim_instructions", "sample_interval"):
            if getattr(self, name) < 1:
                raise ValueError(f"ExperimentScale.{name} must be >= 1, "
                                 f"got {getattr(self, name)}")

    @property
    def trace_length(self) -> int:
        return self.warmup_instructions + self.sim_instructions


#: Small scale for unit/integration tests.
TEST_SCALE = ExperimentScale(warmup_instructions=2_000, sim_instructions=8_000,
                             sample_interval=1_000)
#: Default scale for the benchmark harness.
BENCH_SCALE = ExperimentScale()


class TraceLibrary:
    """Builds and caches synthetic traces keyed by (workload, llc, length).

    ``store`` plugs in a shared on-disk :class:`~repro.trace.store.TraceStore`
    consulted before generating, so repeated runs (and concurrent campaign
    workers) build each trace once per machine. ``observe`` attaches the
    observability bundle: builds/loads land as ``trace.cache.hit`` /
    ``trace.cache.miss`` registry counters and ``trace.generate`` /
    ``trace.load`` profiler spans.
    """

    def __init__(self, config: MachineConfig, scale: ExperimentScale,
                 store: Optional[TraceStore] = None,
                 observe: Optional[Observation] = None) -> None:
        self.config = config
        self.scale = scale
        self.store = store
        self.observe = observe
        self._cache: Dict[Tuple[str, int, int, int], Trace] = {}

    def _instruments(self):
        """(registry, profiler) from the attached observation, if any."""
        if self.observe is None:
            return None, None
        if self.observe.registry is None:
            self.observe.registry = MetricRegistry()
        return self.observe.registry, self.observe.profiler

    def _build(self, name: str, length: int, seed: int) -> Trace:
        registry, profiler = self._instruments()
        if self.store is not None:
            return self.store.get_or_build(name, self.config.llc.size, length,
                                           seed, registry=registry,
                                           profiler=profiler)
        start = time.perf_counter()
        trace = build_trace(get_workload(name), length, seed,
                            self.config.llc.size)
        seconds = time.perf_counter() - start
        if registry is not None:
            registry.count("trace.cache.miss")
        if profiler is not None:
            profiler.add_span("trace.generate", start - profiler.origin,
                              seconds)
        return trace

    def get(self, name: str, length: Optional[int] = None,
            seed: Optional[int] = None) -> Trace:
        """The trace for ``name`` — from memory, disk store, or generation."""
        length = length if length is not None else self.scale.trace_length
        seed = seed if seed is not None else self.scale.seed
        key = (name, self.config.llc.size, length, seed)
        trace = self._cache.get(key)
        if trace is None:
            trace = self._build(name, length, seed)
            self._cache[key] = trace
        return trace


def adversary_panel(target: str, all_names: Sequence[str], count: int) -> List[str]:
    """Deterministic subset of co-runners for ``target``.

    The paper runs all unique pairs (17,578 for 188 traces); at reproduction
    scale each benchmark is paired with a rotating panel of ``count``
    adversaries chosen deterministically from the suite.
    """
    others = [name for name in all_names if name != target]
    if count >= len(others):
        return others
    start = sum(ord(ch) for ch in target) % len(others)
    rotated = others[start:] + others[:start]
    return rotated[:count]
