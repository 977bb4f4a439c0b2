"""One-shot reproduction driver: every table/figure from a single campaign.

``run_reproduction`` is a thin loop over the artifact registry
(:mod:`repro.experiments.registry`): it plans the union of the selected
artifacts, deduplicates shared jobs by deterministic id, executes the
unique set through the fault-tolerant campaign engine, then aggregates and
renders each artifact from the shared results. With a ``store`` the
campaign is persistent and ``resume=True`` skips every job already on
disk, so an interrupted reproduction picks up where it stopped and still
produces byte-identical reports. This is what ``python -m repro
reproduce`` runs; ``python -m repro artifact`` exposes the same registry
piecemeal.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Optional, Sequence

from repro.config import MachineConfig, scaled_config
from repro.core import PAPER_PINDUCE_SWEEP
from repro.experiments.registry import (
    PlanContext,
    execute_plan,
    get_artifact,
    plan_union,
)
from repro.experiments.suites import CORE_SUITE, QUICK_SUITE
from repro.sim import ExperimentScale

#: Artifacts rendered from the shared context-bundle campaign.
BUNDLE_ARTIFACTS = ("table1", "fig1", "table2", "fig5", "fig6", "fig7",
                    "fig8", "fig9")
#: Artifacts whose plans add jobs beyond the bundle (slower).
STANDALONE_ARTIFACTS = ("fig3", "fig10", "fig11", "ncore_study",
                        "partition_study")


def select_artifacts(artifacts: Optional[Sequence[str]] = None,
                     include_standalone: bool = False) -> Sequence[str]:
    """The artifact set one reproduction covers, in rendering order."""
    if artifacts is not None:
        return [get_artifact(name).name for name in artifacts]
    selected = list(BUNDLE_ARTIFACTS)
    if include_standalone:
        selected.extend(STANDALONE_ARTIFACTS)
    return selected


def run_reproduction(
    config: Optional[MachineConfig] = None,
    scale: Optional[ExperimentScale] = None,
    suite: Sequence[str] = tuple(QUICK_SUITE),
    p_values: Sequence[float] = PAPER_PINDUCE_SWEEP,
    panel_size: int = 3,
    include_standalone: bool = False,
    output_dir: Optional[Path] = None,
    processes: Optional[int] = None,
    trace_store=None,
    artifacts: Optional[Sequence[str]] = None,
    store=None,
    resume: bool = False,
    inject: Optional[str] = None,
) -> Dict[str, str]:
    """Plan, execute and render the selected artifacts; ``{name: text}``.

    With ``output_dir`` each report is also written to ``<artifact>.txt``.
    ``artifacts`` names an explicit registry subset (default: the bundle
    artifacts, plus the standalone ones when ``include_standalone``).
    Execution always goes through the campaign engine: ``processes > 1``
    fans out over worker processes; ``store`` (a JSONL path) makes the
    campaign persistent and ``resume=True`` skips the job ids it already
    holds; ``trace_store`` (a directory path or
    :class:`~repro.trace.store.TraceStore`) serves traces from the shared
    on-disk cache instead of regenerating them. ``inject`` adds one fault
    job (``raise``/``exit``/``hang``/``flaky:N+name``) for resumability
    drills. Reports are identical however the jobs were executed.
    """
    config = config or scaled_config()
    scale = scale or ExperimentScale()
    ctx = PlanContext(config=config, scale=scale, suite=tuple(suite),
                      p_values=tuple(p_values), panel_size=panel_size)
    selected = select_artifacts(artifacts, include_standalone)
    plan = plan_union(selected, ctx)
    outcome = execute_plan(plan, processes=processes,
                           trace_store=trace_store, store=store,
                           resume=resume, inject=inject)
    reports = {name: get_artifact(name).report(ctx, outcome.results)
               for name in selected}
    if output_dir is not None:
        output_dir = Path(output_dir)
        output_dir.mkdir(parents=True, exist_ok=True)
        for artifact, text in reports.items():
            (output_dir / f"{artifact}.txt").write_text(text + "\n")
    return reports


def suite_for_name(name: str) -> Sequence[str]:
    """Named suites accepted by the CLI."""
    suites = {"quick": QUICK_SUITE, "core": CORE_SUITE}
    try:
        return suites[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; known: "
                         f"{', '.join(sorted(suites))}") from None
