"""Shared simulation campaign for the evaluation experiments.

Most of the paper's tables and figures are different views of the same three
run contexts (Section V-A *Running Context*): isolation, PInTE sweep, and
2nd-Trace pairs. The artifact registry plans all three once for a suite
(:func:`repro.experiments.registry.plan_bundle`), executes them through the
campaign engine and reassembles a :class:`ContextBundle`
(:func:`repro.experiments.registry.bundle_from_results`); every table or
figure then analyses the bundle, exactly as the paper post-processes one experiment
campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.config import MachineConfig
from repro.sim import ExperimentScale, SimulationResult

@dataclass
class ContextBundle:
    """All three run contexts for one suite on one machine."""

    config: MachineConfig
    scale: ExperimentScale
    names: List[str]
    isolation: Dict[str, SimulationResult]
    pinte: Dict[str, Dict[float, SimulationResult]]
    pairs: Dict[str, List[SimulationResult]] = field(default_factory=dict)

    def pinte_results(self, name: str) -> List[SimulationResult]:
        """All PInTE runs of one benchmark, sweep order."""
        return list(self.pinte[name].values())

    def pair_results(self, name: str) -> List[SimulationResult]:
        """All 2nd-Trace runs with ``name`` as the measured workload.

        A benchmark that is in the bundle but was run without pairs
        (``panel_size=0``) yields ``[]``; an unknown benchmark
        raises ``KeyError`` naming the available ones.
        """
        if name not in self.names:
            raise KeyError(
                f"unknown benchmark {name!r}; bundle has: "
                f"{', '.join(self.names)}")
        return self.pairs.get(name, [])

    def all_pinte(self) -> List[SimulationResult]:
        return [r for sweep in self.pinte.values() for r in sweep.values()]

    def all_pairs(self) -> List[SimulationResult]:
        return [r for results in self.pairs.values() for r in results]

    def all_isolation(self) -> List[SimulationResult]:
        return list(self.isolation.values())
