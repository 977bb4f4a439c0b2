"""Table I — simulation run-times and experiment sizes.

Compares the three sources of contention on two axes the paper reports:

* measured wall-clock time of the reproduction's own simulations
  (count / avg / std / max / min / total), plus each source's average
  with the private-stream memo off: a job that replayed a memoised
  private stage (:mod:`repro.sim.private`) is charged the build time it
  reused (``phase_private_reused_seconds``) on top of its wall time, and

* the analytic experiment-count model at the paper's full scale
  (188 traces: all-pairs vs 12-configuration PInTE sweep), which is pure
  combinatorics and reproduces the paper's 7.79x experiment reduction
  exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.analysis.stability import std_dev
from repro.experiments.contexts import ContextBundle
from repro.experiments.reporting import format_table
from repro.sim.results import SimulationResult


@dataclass(frozen=True)
class RuntimeRow:
    """One Table I row."""

    source: str
    n_sims: int
    avg: float
    std: float
    max: float
    min: float
    total: float
    #: Average of wall + reused private-stage seconds: the memo off.
    avg_memo_off: float = 0.0


@dataclass
class Table1Result:
    """Measured wall-clock rows plus the analytic full-scale counts."""
    rows: List[RuntimeRow]
    #: full-scale analytic counts (the paper's 188-trace design)
    analytic: Dict[str, int]

    @property
    def avg_time_ratio(self) -> float:
        """2nd-Trace avg time / PInTE avg time (paper: 2.2x-2.4x)."""
        by_name = {row.source: row for row in self.rows}
        pinte = by_name["PInTE"].avg
        return by_name["2nd-Trace"].avg / pinte if pinte else 0.0

    @property
    def experiment_ratio(self) -> float:
        """Full-scale 2nd-Trace sims / PInTE sims (paper: 7.79x)."""
        return self.analytic["2nd-Trace"] / self.analytic["PInTE"]


def _row(source: str, results: List[SimulationResult]) -> RuntimeRow:
    if not results:
        return RuntimeRow(source, 0, 0.0, 0.0, 0.0, 0.0, 0.0)
    times = [result.wall_time_seconds for result in results]
    memo_off = [result.wall_time_seconds
                + result.extra.get("phase_private_reused_seconds", 0.0)
                for result in results]
    return RuntimeRow(
        source=source,
        n_sims=len(times),
        avg=sum(times) / len(times),
        std=std_dev(times) if len(times) > 1 else 0.0,
        max=max(times),
        min=min(times),
        total=sum(times),
        avg_memo_off=sum(memo_off) / len(memo_off),
    )


def analytic_counts(n_traces: int = 188, n_pinte_configs: int = 12) -> Dict[str, int]:
    """The paper's full-scale experiment-count model.

    2nd-Trace needs every unique pair (n*(n-1)/2 = 17,578 mixes for 188
    traces); PInTE needs ``configs x traces`` (2,256).
    """
    return {
        "None": n_traces,
        "2nd-Trace": n_traces * (n_traces - 1) // 2,
        "PInTE": n_pinte_configs * n_traces,
    }


def run_table1(bundle: ContextBundle) -> Table1Result:
    """Measure wall-clock statistics from a context bundle."""
    rows = [
        _row("None", bundle.all_isolation()),
        _row("2nd-Trace", bundle.all_pairs()),
        _row("PInTE", bundle.all_pinte()),
    ]
    n_pinte_configs = max(
        (len(sweep) for sweep in bundle.pinte.values()), default=12
    )
    return Table1Result(rows=rows, analytic=analytic_counts(188, n_pinte_configs))


def format_report(result: Table1Result) -> str:
    """Render the run-time and experiment-count tables."""
    table = format_table(
        ["Source", "# Sims", "Avg (s)", "Avg memo off (s)", "Std", "Max",
         "Min", "Total (s)"],
        [
            (row.source, row.n_sims, row.avg, row.avg_memo_off, row.std,
             row.max, row.min, row.total)
            for row in result.rows
        ],
        title="Table I: simulation run-times and experiment sizes (measured)",
    )
    analytic = format_table(
        ["Source", "# Sims @ 188 traces"],
        sorted(result.analytic.items()),
        title="Full-scale analytic experiment counts",
    )
    summary = (
        f"avg-time ratio (2nd-Trace / PInTE): {result.avg_time_ratio:.2f}x "
        f"(paper: 2.2-2.4x)\n"
        f"experiment ratio (2nd-Trace / PInTE): {result.experiment_ratio:.2f}x "
        f"(paper: 7.79x)"
    )
    return "\n\n".join([table, analytic, summary])
