"""Extension study: does adding cores fix 2nd-Trace's coverage problem?

The paper's motivation argues that multi-programmed simulation gets *more*
expensive with core count while still not guaranteeing contention coverage.
This study measures both claims: for 2, 3 and 4 concurrent workloads it
records the victim's observed contention rate and the wall-clock cost, then
compares against a PInTE sweep that reaches the same (and higher) contention
for a fraction of the cost on one core.

A run's cost is its wall time with the private-stream memo off
(:func:`~repro.sim.batch.memo_off_seconds`), as in Table I's memo-off
column: a job that replays a private stream an earlier job simulated is
charged the full simulation it stands for, whatever the execution order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.experiments.reporting import format_table
from repro.sim import SimulationResult
from repro.sim.batch import memo_off_seconds

#: Victim measured throughout; adversaries appended per core count.
DEFAULT_VICTIM = "450.soplex"
DEFAULT_ADVERSARIES = ("435.gromacs", "470.lbm", "605.mcf")
DEFAULT_PINDUCE = (0.05, 0.2, 0.5, 1.0)


@dataclass
class NcoreResult:
    """Coverage and cost measurements for one core count."""
    victim: str
    #: core count -> the victim's result in that co-run
    by_cores: Dict[int, SimulationResult]
    #: P_induce -> the victim's PInTE result
    pinte: Dict[float, SimulationResult]

    def contention_reached(self, cores: int) -> float:
        return self.by_cores[cores].contention_rate

    def pinte_max_contention(self) -> float:
        return max(r.contention_rate for r in self.pinte.values())

    def cost(self, cores: int) -> float:
        return memo_off_seconds(self.by_cores[cores])

    def pinte_mean_cost(self) -> float:
        costs = [memo_off_seconds(r) for r in self.pinte.values()]
        return sum(costs) / len(costs)


def format_report(result: NcoreResult) -> str:
    """Render the core-count study tables."""
    rows: List[tuple] = []
    for cores in sorted(result.by_cores):
        run = result.by_cores[cores]
        rows.append((f"{cores}-core co-run", run.contention_rate,
                     run.interference_rate, run.ipc, memo_off_seconds(run)))
    for p in sorted(result.pinte):
        run = result.pinte[p]
        rows.append((f"PInTE p={p}", run.contention_rate,
                     run.interference_rate, run.ipc, memo_off_seconds(run)))
    table = format_table(
        ["Context", "contention", "interference", "IPC", "wall (s)"],
        rows,
        title=f"N-core coverage/cost study — victim {result.victim}",
    )
    summary = (
        f"max contention from co-runs: "
        f"{max(result.contention_reached(c) for c in result.by_cores):.3f} "
        f"(4-core wall {result.cost(max(result.by_cores)):.2f}s); "
        f"PInTE reaches {result.pinte_max_contention():.3f} at "
        f"{result.pinte_mean_cost():.2f}s mean per run on one core"
    )
    return table + "\n\n" + summary
