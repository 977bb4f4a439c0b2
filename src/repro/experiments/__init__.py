"""Experiments: one module per paper table/figure.

Every table and figure is run the same way, through the artifact registry
(:mod:`repro.experiments.registry`): plan its jobs, execute them through
the campaign engine, aggregate the results and render the report. Each
module holds its result dataclass, the pure aggregation that builds it
and ``format_report`` rendering the paper-style rows/series. Most of them
view a shared :class:`~repro.experiments.contexts.ContextBundle` (isolation
+ PInTE sweep + 2nd-Trace panel over one suite) through ``run_*``; Fig 3,
10 and 11 and the two extension studies plan their own jobs.
"""

from repro.experiments import (
    ablations,
    ncore_study,
    partition_study,
    fig1,
    fig3,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    table1,
    table2,
)
from repro.experiments.contexts import ContextBundle
from repro.experiments.suites import (
    CASE_STUDY_SUITE,
    CORE_SUITE,
    FIG10_SUITE,
    FIG5_WORKLOADS,
    FULL_SUITE,
    QUICK_SUITE,
)
# The registry imports every driver module above, so it must come last.
from repro.experiments import registry

__all__ = [
    "CASE_STUDY_SUITE",
    "CORE_SUITE",
    "ContextBundle",
    "FIG10_SUITE",
    "FIG5_WORKLOADS",
    "FULL_SUITE",
    "QUICK_SUITE",
    "ablations",
    "fig1",
    "ncore_study",
    "partition_study",
    "registry",
    "fig3",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "table1",
    "table2",
]
