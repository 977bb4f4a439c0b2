"""Fig 11 — the best design choice varies with contention.

The case study (paper Section VI): sweep ``P_induce`` and, at each level of
induced contention, ask which architectural option wins on IPC across the
workload suite — for four dimensions of design choice:

* replacement policy (LRU / tree-pLRU / nMRU / RRIP),
* LLC inclusion (non-inclusive / inclusive / exclusive),
* prefetch string (000 / NN0 / NNN / NNI),
* branch predictor (bimodal / gshare / perceptron / hashed perceptron).

For every dimension we report the paper's four columns: win share per
option, a primary metric, a secondary metric, and the tie share (all
options within 1% of the best).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from repro.config import MachineConfig
from repro.configs import DESIGN_DIMENSIONS
from repro.experiments.reporting import format_table, percent
from repro.sim import SimulationResult

#: Contention sweep for the case study; includes the paper's 7.5% and 70%
#: break-points.
FIG11_PINDUCE = (0.0, 0.075, 0.3, 0.7, 1.0)
#: Two results within this relative margin are a statistical tie.
TIE_MARGIN = 0.01


@dataclass(frozen=True)
class Dimension:
    """One row of Fig 11."""

    name: str
    options: Tuple[str, ...]
    configure: Callable[[MachineConfig, str], MachineConfig]
    primary_metric: str
    secondary_metric: str


#: Reported (primary, secondary) metric per design axis; the axes and
#: their variant transforms live in :data:`repro.configs.DESIGN_DIMENSIONS`
#: so the config registry's named variants and this sweep cannot drift.
_DIMENSION_METRICS: Dict[str, Tuple[str, str]] = {
    "replacement": ("miss_rate", "interference_rate"),
    "inclusion": ("miss_rate", "l2_miss_rate"),
    "prefetching": ("prefetch_miss_rate", "l1d_miss_rate"),
    "branching": ("branch_accuracy", "branch_mpki"),
}

DIMENSIONS: Tuple[Dimension, ...] = tuple(
    Dimension(
        name=axis.name,
        options=axis.options,
        configure=axis.apply,
        primary_metric=_DIMENSION_METRICS[axis.name][0],
        secondary_metric=_DIMENSION_METRICS[axis.name][1],
    )
    for axis in DESIGN_DIMENSIONS
)


@dataclass
class DimensionSweep:
    """Fig 11 columns for one dimension."""

    dimension: str
    options: Tuple[str, ...]
    #: p_induce -> option -> win share across workloads
    win_share: Dict[float, Dict[str, float]]
    #: p_induce -> share of workloads where all options tie within 1%
    tie_share: Dict[float, float]
    #: p_induce -> option -> mean primary metric
    primary: Dict[float, Dict[str, float]]
    #: p_induce -> option -> mean secondary metric
    secondary: Dict[float, Dict[str, float]]

    def winner(self, p: float) -> str:
        shares = self.win_share[p]
        return max(shares, key=shares.get)

    def tie_trend_increasing(self) -> bool:
        """Does the tie share grow from the lowest to the highest contention?"""
        ps = sorted(self.tie_share)
        return self.tie_share[ps[-1]] >= self.tie_share[ps[0]]


@dataclass
class Fig11Result:
    """Winner-per-contention-level sweeps for each design dimension."""
    sweeps: Dict[str, DimensionSweep]
    p_values: Tuple[float, ...]
    workloads: Tuple[str, ...]

    def sweep(self, dimension: str) -> DimensionSweep:
        return self.sweeps[dimension]


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def sweep_from_results(
    dimension: Dimension,
    results: Dict[float, Dict[str, Dict[str, SimulationResult]]],
    p_values: Tuple[float, ...],
    workloads: Tuple[str, ...],
) -> DimensionSweep:
    """Rank one dimension's options from ``results[p][option][workload]``.

    Called by the artifact registry's aggregate phase, once per dimension.
    """
    win_share: Dict[float, Dict[str, float]] = {}
    tie_share: Dict[float, float] = {}
    primary: Dict[float, Dict[str, float]] = {}
    secondary: Dict[float, Dict[str, float]] = {}
    for p in p_values:
        wins = {option: 0 for option in dimension.options}
        ties = 0
        for name in workloads:
            ipcs = {option: results[p][option][name].ipc
                    for option in dimension.options}
            best_option = max(ipcs, key=ipcs.get)
            best = ipcs[best_option]
            wins[best_option] += 1
            if best > 0 and all(value >= best * (1 - TIE_MARGIN)
                                for value in ipcs.values()):
                ties += 1
        n = len(workloads)
        win_share[p] = {option: wins[option] / n for option in dimension.options}
        tie_share[p] = ties / n
        primary[p] = {
            option: _mean([getattr(results[p][option][name],
                                   dimension.primary_metric)
                           for name in workloads])
            for option in dimension.options
        }
        secondary[p] = {
            option: _mean([getattr(results[p][option][name],
                                   dimension.secondary_metric)
                           for name in workloads])
            for option in dimension.options
        }
    return DimensionSweep(
        dimension=dimension.name,
        options=dimension.options,
        win_share=win_share,
        tie_share=tie_share,
        primary=primary,
        secondary=secondary,
    )


def format_report(result: Fig11Result) -> str:
    """Render one winners table per design dimension."""
    parts: List[str] = []
    for name, sweep in result.sweeps.items():
        rows = []
        for p in result.p_values:
            shares = " ".join(
                f"{option}={percent(sweep.win_share[p][option])}"
                for option in sweep.options
            )
            rows.append((p, shares, percent(sweep.tie_share[p]),
                         sweep.winner(p)))
        parts.append(format_table(
            ["P_induce", "win shares", "tie share", "winner"],
            rows,
            title=f"Fig 11 — {name}",
        ))
    return "\n\n".join(parts)
