"""Experiment scale and adversary panels.

The experiments in :mod:`repro.experiments` all follow the same recipe: pick
workloads, run them in isolation, under a PInTE sweep, and/or against
2nd-Trace adversaries, at a common scale. This module holds what those runs
share: the :class:`ExperimentScale` and the deterministic 2nd-Trace
:func:`adversary_panel`. The runs themselves go through the artifact
registry (:mod:`repro.experiments.registry`) and the campaign engine, which
serve their traces from :mod:`repro.trace.store`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.serde import ConfigSerde


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
