"""Declarative artifact registry: plan → execute → aggregate → render.

The paper's evaluation is one campaign viewed thirteen ways (Section V-A
*Running Context*). This module makes that literal, and it is the only way
any table, figure or study is run: every one is an :class:`Artifact` with
three pure-ish phases —

* ``plan(ctx) -> [PlannedJob]`` — enumerate the simulations the artifact
  needs (**no simulation happens here**; a plan is just jobs plus the
  machine/scale each runs under);
* ``aggregate(ctx, results) -> result object`` — build the artifact's
  result dataclass from campaign results with its module's pure helpers;
* ``render(result) -> str`` — the module's ``format_report``.

Between plan and aggregate sits :func:`execute_plan`, which routes every
job through the fault-tolerant campaign engine (:mod:`repro.campaign`), so
every artifact gets retries, timeouts, sharding, the shared trace cache, a
persistent :class:`ResultStore` and resume. ``tests/golden/
artifact_reports.json`` pins every artifact's report text at a tiny scale.

:func:`plan_union` exploits the deterministic job ids of
:mod:`repro.campaign.ids`: jobs requested by several artifacts (isolation
runs feed Table I *and* the partitioning study; the PInTE sweep feeds six
figures) are planned once and executed once, with results fanned back to
every consumer through the id-keyed :class:`ResultMap`.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.campaign.engine import CampaignReport, RetryPolicy, run_campaign
from repro.campaign.ids import job_id
from repro.campaign.store import ResultStore
from repro.config import MachineConfig
from repro.configs import get_machine_config
from repro.core import PAPER_PINDUCE_SWEEP
from repro.experiments import (
    fig1,
    fig3,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    ncore_study,
    partition_study,
    table1,
    table2,
)
from repro.experiments.contexts import ContextBundle
from repro.experiments.suites import CASE_STUDY_SUITE, FIG10_SUITE
from repro.sim import ExperimentScale, SimulationResult, adversary_panel
from repro.sim.batch import Job, job_stream_keys
from repro.sim.private import PrivateStreamMemo
from repro.trace.store import MemoryTraceStore

__all__ = [
    "Artifact",
    "ExecutionOutcome",
    "PlanContext",
    "PlannedJob",
    "REGISTRY",
    "ResultMap",
    "UnionPlan",
    "artifact_names",
    "bundle_from_results",
    "execute_plan",
    "get_artifact",
    "plan_bundle",
    "plan_union",
    "register",
]


@dataclass(frozen=True)
class PlanContext:
    """Shared planning inputs: machine, scale, suite and sweep shape.

    This is the ``(config, scale, suite)`` triple every artifact plans
    against, plus the two campaign-shape knobs ``repro reproduce`` exposes
    (the P_induce sweep and the 2nd-Trace panel size). Artifacts that pin
    their own suite or machine (Fig 10's xeon config, the case-study
    suite) ignore the corresponding field.
    """

    config: MachineConfig
    scale: ExperimentScale
    suite: Tuple[str, ...]
    p_values: Tuple[float, ...] = tuple(PAPER_PINDUCE_SWEEP)
    panel_size: int = 3

    def __post_init__(self) -> None:
        if self.panel_size < 0:
            raise ValueError(f"PlanContext.panel_size must be >= 0, got "
                             f"{self.panel_size}")
        object.__setattr__(self, "suite", tuple(self.suite))
        object.__setattr__(self, "p_values", tuple(self.p_values))


@dataclass(frozen=True)
class PlannedJob:
    """One job plus the machine/scale it runs under.

    Artifacts may plan jobs on *different* machine configs (Fig 11 sweeps
    config variants; Fig 10 uses the xeon config), so the pair travels
    with the job — and is hashed into :attr:`id`, which is what makes the
    union planner's dedup sound across configs.
    """

    job: Job
    config: MachineConfig
    scale: ExperimentScale

    @cached_property
    def id(self) -> str:
        """The deterministic campaign id this job will execute under."""
        return job_id(self.job, self.config, self.scale)


class ResultMap:
    """Campaign results keyed by deterministic job id."""

    def __init__(self, results_by_id: Dict[str, SimulationResult]) -> None:
        self._by_id = dict(results_by_id)

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, jid: str) -> bool:
        return jid in self._by_id

    def for_id(self, jid: str) -> SimulationResult:
        """The result stored under one job id."""
        try:
            return self._by_id[jid]
        except KeyError:
            raise KeyError(
                f"no result for job id {jid}; the campaign holds "
                f"{len(self._by_id)} results — was the plan fully "
                "executed (check the failure manifest)?") from None

    def for_job(self, job: Job, config: MachineConfig,
                scale: ExperimentScale) -> SimulationResult:
        """The result of one (job, config, scale) — id computed here."""
        return self.for_id(job_id(job, config, scale))

    def get(self, planned: PlannedJob) -> SimulationResult:
        """The result of one planned job."""
        return self.for_id(planned.id)


@dataclass(frozen=True)
class Artifact:
    """One registered table/figure: plan → aggregate → render."""

    name: str
    title: str
    plan: Callable[[PlanContext], List[PlannedJob]]
    aggregate: Callable[[PlanContext, "ResultMap"], object]
    render: Callable[[object], str]

    def report(self, ctx: PlanContext, results: "ResultMap") -> str:
        """Aggregate and render in one step."""
        return self.render(self.aggregate(ctx, results))


#: Registered artifacts in registration (= canonical rendering) order.
REGISTRY: Dict[str, Artifact] = {}


def register(artifact: Artifact) -> Artifact:
    """Add one artifact to the registry (name must be unused)."""
    if artifact.name in REGISTRY:
        raise ValueError(f"artifact {artifact.name!r} already registered")
    REGISTRY[artifact.name] = artifact
    return artifact


def get_artifact(name: str) -> Artifact:
    """Look up one artifact; ``KeyError`` lists what is registered."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown artifact {name!r}; registered: "
                       f"{', '.join(REGISTRY)}") from None


def artifact_names() -> List[str]:
    """All registered artifact names, registration order."""
    return list(REGISTRY)


# --------------------------------------------------------------------------
# Union planning and campaign-engine execution
# --------------------------------------------------------------------------

@dataclass
class UnionPlan:
    """Deduplicated union of several artifacts' plans.

    ``unique`` keeps first-occurrence order, so execution order is stable
    and resume skips a well-defined prefix.
    """

    artifacts: Tuple[str, ...]
    per_artifact: Dict[str, List[PlannedJob]]
    unique: List[PlannedJob]

    @property
    def planned_total(self) -> int:
        """Sum of per-artifact plan sizes (jobs *requested*)."""
        return sum(len(planned) for planned in self.per_artifact.values())

    @property
    def unique_total(self) -> int:
        """Jobs that will actually execute."""
        return len(self.unique)

    @property
    def dedup_ratio(self) -> float:
        """Requested jobs per executed job (> 1 means sharing paid off)."""
        if not self.unique:
            return 1.0
        return self.planned_total / self.unique_total


def plan_union(names: Sequence[str], ctx: PlanContext) -> UnionPlan:
    """Plan every named artifact and deduplicate across them by job id."""
    per_artifact: Dict[str, List[PlannedJob]] = {}
    unique: List[PlannedJob] = []
    seen = set()
    for name in names:
        planned = get_artifact(name).plan(ctx)
        per_artifact[name] = planned
        for item in planned:
            jid = item.id
            if jid not in seen:
                seen.add(jid)
                unique.append(item)
    return UnionPlan(artifacts=tuple(names), per_artifact=per_artifact,
                     unique=unique)


@dataclass
class ExecutionOutcome:
    """Results plus the per-context campaign reports behind them."""

    results: ResultMap
    reports: List[CampaignReport]

    @property
    def executed(self) -> int:
        """Jobs actually simulated in this invocation."""
        return sum(report.executed for report in self.reports)

    @property
    def skipped(self) -> int:
        """Jobs served from the result store (resume)."""
        return sum(report.skipped for report in self.reports)

    @property
    def failed(self) -> int:
        """Jobs that exhausted their retries."""
        return sum(report.failed for report in self.reports)

    @property
    def ok(self) -> bool:
        """True when every campaign pass completed every job."""
        return all(report.ok for report in self.reports)


def _context_key(config: MachineConfig, scale: ExperimentScale) -> str:
    """Canonical grouping key for one (machine, scale) execution context."""
    return json.dumps(
        {"machine": dataclasses.asdict(config),
         "scale": dataclasses.asdict(scale)},
        sort_keys=True, separators=(",", ":"))


def execute_plan(
    plan: UnionPlan,
    *,
    processes: Optional[int] = None,
    retry: Optional[RetryPolicy] = None,
    timeout_seconds: Optional[float] = None,
    store=None,
    resume: bool = False,
    shard: Optional[Tuple[int, int]] = None,
    trace_store=None,
    observe=None,
    progress=None,
    inject: Optional[str] = None,
    raise_on_failure: bool = True,
) -> ExecutionOutcome:
    """Execute a union plan through the campaign engine.

    Jobs are grouped by (machine config, scale) — one
    :func:`~repro.campaign.run_campaign` pass per context — and every
    pass shares one ``store`` (a path or
    :class:`~repro.campaign.store.ResultStore`), so a single JSONL file
    holds the whole reproduction and ``resume=True`` skips every job id
    it already contains. ``processes`` defaults to 1 (inline execution);
    inline runs without an explicit ``trace_store`` share an in-process
    :class:`~repro.trace.store.MemoryTraceStore` so each input trace is
    built once per invocation.

    ``inject`` names a fault workload (``raise``/``exit``/``hang``/
    ``flaky:N+name`` — the ``__fault:`` prefix is added if missing) that
    is inserted at the midpoint of the first context group, for
    resumability drills. ``shard=(i, n)`` partitions each context group
    deterministically across machines.

    One :class:`~repro.sim.private.PrivateStreamMemo` spans every context
    of an inline execution: contexts that differ only on the shared side
    (an LLC variant of Fig 11, say) replay the same private streams, and
    each stream is freed after the last job, in any context, that reads
    it.
    """
    processes = 1 if processes is None else processes
    if trace_store is None and timeout_seconds is None and processes <= 1:
        trace_store = MemoryTraceStore()

    groups: Dict[str, Tuple[MachineConfig, ExperimentScale, List[Job]]] = {}
    keys: Dict[Tuple[int, int], str] = {}  # by identity: plans share objects
    for item in plan.unique:
        ident = (id(item.config), id(item.scale))
        key = keys.get(ident)
        if key is None:
            key = keys[ident] = _context_key(item.config, item.scale)
        if key not in groups:
            groups[key] = (item.config, item.scale, [])
        groups[key][2].append(item.job)

    result_store: Optional[ResultStore] = None
    if store is not None:
        result_store = (store if isinstance(store, ResultStore)
                        else ResultStore(store))
    private_memo = PrivateStreamMemo()
    private_memo.expect(key for config, scale, jobs in groups.values()
                        for job in jobs
                        for key in job_stream_keys(job, config, scale))

    results_by_id: Dict[str, SimulationResult] = {}
    reports: List[CampaignReport] = []
    for index, (config, scale, jobs) in enumerate(groups.values()):
        jobs = list(jobs)
        if inject is not None and index == 0:
            fault = (inject if inject.startswith("__fault:")
                     else f"__fault:{inject}")
            jobs.insert(len(jobs) // 2, Job(fault))
        report = run_campaign(
            jobs, config, scale,
            processes=processes,
            retry=retry,
            timeout_seconds=timeout_seconds,
            store=result_store,
            # Later groups append to the store the first group created;
            # ids cannot collide across contexts, so this is safe.
            resume=(resume if index == 0 else result_store is not None),
            shard=shard,
            observe=observe,
            progress=progress,
            raise_on_failure=raise_on_failure,
            trace_store=trace_store,
            private_memo=private_memo,
        )
        reports.append(report)
        results_by_id.update(report.results_by_id)
    return ExecutionOutcome(results=ResultMap(results_by_id),
                            reports=reports)


# --------------------------------------------------------------------------
# Bundle artifacts (Table I/II, Fig 1/5/6/7/8/9) — one shared plan
# --------------------------------------------------------------------------

def plan_bundle(ctx: PlanContext) -> List[PlannedJob]:
    """The shared three-context campaign every bundle artifact consumes.

    Isolation runs first, then the PInTE sweep, then each workload's
    2nd-Trace panel (none when ``ctx.panel_size`` is 0). Pair jobs pin
    ``co_seed=scale.seed``, so both cores of a pair read the same
    per-workload traces the isolation and PInTE runs read;
    :func:`bundle_from_results` reassembles the
    :class:`~repro.experiments.contexts.ContextBundle`.
    """
    names = list(ctx.suite)
    jobs: List[Job] = [Job(name) for name in names]
    for name in names:
        jobs.extend(Job(name, mode="pinte", p_induce=p)
                    for p in ctx.p_values)
    if ctx.panel_size > 0:
        for name in names:
            panel = adversary_panel(name, names, ctx.panel_size)
            jobs.extend(Job(name, mode="pair", co_runner=other,
                            co_seed=ctx.scale.seed) for other in panel)
    return [PlannedJob(job, ctx.config, ctx.scale) for job in jobs]


def bundle_from_results(ctx: PlanContext,
                        results: ResultMap) -> ContextBundle:
    """Reassemble the :class:`ContextBundle` from campaign results."""
    names = list(ctx.suite)

    def res(job: Job) -> SimulationResult:
        return results.for_job(job, ctx.config, ctx.scale)

    isolation = {name: res(Job(name)) for name in names}
    pinte = {
        name: {p: res(Job(name, mode="pinte", p_induce=p))
               for p in ctx.p_values}
        for name in names
    }
    pairs: Dict[str, List[SimulationResult]] = {}
    if ctx.panel_size > 0:
        for name in names:
            panel = adversary_panel(name, names, ctx.panel_size)
            pairs[name] = [res(Job(name, mode="pair", co_runner=other,
                                   co_seed=ctx.scale.seed))
                           for other in panel]
    return ContextBundle(config=ctx.config, scale=ctx.scale, names=names,
                         isolation=isolation, pinte=pinte, pairs=pairs)


def _bundle_artifact(name: str, title: str, run: Callable,
                     render: Callable) -> Artifact:
    """Register one artifact that post-processes the shared bundle."""
    def aggregate(ctx: PlanContext, results: ResultMap):
        return run(bundle_from_results(ctx, results))
    return register(Artifact(name=name, title=title, plan=plan_bundle,
                             aggregate=aggregate, render=render))


def _aggregate_fig5(ctx: PlanContext, results: ResultMap):
    """Fig 5 with the reduced-suite fallback ``run_reproduction`` used."""
    bundle = bundle_from_results(ctx, results)
    try:
        return fig5.run_fig5(bundle)
    except ValueError:
        # The Fig 5 exemplars may not be in a reduced suite; fall back to
        # whatever the bundle contains.
        return fig5.run_fig5(bundle, workloads=tuple(bundle.names[:3]))


_bundle_artifact("table1", "Table I: simulation run-times and experiment "
                 "sizes", table1.run_table1, table1.format_report)
_bundle_artifact("fig1", "Fig 1: contention-rate coverage, 2nd-Trace vs "
                 "PInTE", fig1.run_fig1, fig1.format_report)
_bundle_artifact("table2", "Table II: average relative error in performance "
                 "metrics", table2.run_table2, table2.format_report)
register(Artifact(name="fig5", title="Fig 5: reuse histograms under PInTE "
                  "vs 2nd-Trace", plan=plan_bundle,
                  aggregate=_aggregate_fig5, render=fig5.format_report))
_bundle_artifact("fig6", "Fig 6: reuse KL divergence and worst-case root "
                 "cause", fig6.run_fig6, fig6.format_report)
_bundle_artifact("fig7", "Fig 7: run-time metric entropy and CRG coverage",
                 fig7.run_fig7, fig7.format_report)
_bundle_artifact("fig8", "Fig 8: contention sensitivity curves",
                 fig8.run_fig8, fig8.format_report)
_bundle_artifact("fig9", "Fig 9: AMAT under contention",
                 fig9.run_fig9, fig9.format_report)


# --------------------------------------------------------------------------
# Fig 3 — PInTE stability repeats
# --------------------------------------------------------------------------

#: Repeats at reproduction scale (the paper runs 25).
FIG3_REPEATS = 3


def _fig3_params(ctx: PlanContext) -> Tuple[List[str], Tuple[float, ...]]:
    """Fig 3's reduced suite/sweep, as ``run_reproduction`` always ran it."""
    names = list(ctx.suite)[:4]
    p_values = tuple(ctx.p_values[::3]) or tuple(ctx.p_values)
    return names, p_values


def _fig3_job(name: str, p: float, k: int) -> Job:
    """One stability run: fixed trace, per-repeat PInTE stream."""
    return Job(name, mode="pinte", p_induce=p,
               pinte_seed=fig3.REPEAT_SEED_BASE + k)


def _plan_fig3(ctx: PlanContext) -> List[PlannedJob]:
    """Plan the repeat matrix (repeats x names x sweep)."""
    names, p_values = _fig3_params(ctx)
    return [PlannedJob(_fig3_job(name, p, k), ctx.config, ctx.scale)
            for k in range(FIG3_REPEATS)
            for name in names
            for p in p_values]


def _aggregate_fig3(ctx: PlanContext, results: ResultMap):
    """Rebuild ``repeats[k][name][p]`` and reuse the driver's statistics."""
    names, p_values = _fig3_params(ctx)
    repeats = [
        {name: {p: results.for_job(_fig3_job(name, p, k), ctx.config,
                                   ctx.scale)
                for p in p_values}
         for name in names}
        for k in range(FIG3_REPEATS)
    ]
    return fig3.stability_from_repeats(repeats, names, p_values)


register(Artifact(name="fig3", title="Fig 3: PInTE stability across seeds",
                  plan=_plan_fig3, aggregate=_aggregate_fig3,
                  render=fig3.format_report))


# --------------------------------------------------------------------------
# Fig 10 — real-system proxy on the xeon config
# --------------------------------------------------------------------------

#: 2nd-Trace panel size of the Fig 10 scatter.
FIG10_PANEL_SIZE = 3


def _plan_fig10(ctx: PlanContext) -> List[PlannedJob]:
    """Plan the xeon-config sweep + pair scatter (ignores ``ctx.suite``)."""
    config = get_machine_config("xeon")
    names = list(FIG10_SUITE)
    jobs: List[Job] = []
    for name in names:
        jobs.extend(Job(name, mode="pinte", p_induce=p)
                    for p in fig10.FIG10_PINDUCE)
    for name in names:
        panel = adversary_panel(name, names, FIG10_PANEL_SIZE)
        jobs.extend(Job(name, mode="pair", co_runner=other,
                        co_seed=ctx.scale.seed) for other in panel)
    return [PlannedJob(job, config, ctx.scale) for job in jobs]


def _aggregate_fig10(ctx: PlanContext, results: ResultMap):
    """Rebuild the sweep/pair structures and reuse the driver's scatter."""
    config = get_machine_config("xeon")
    names = list(FIG10_SUITE)
    sweep = {
        name: {p: results.for_job(Job(name, mode="pinte", p_induce=p),
                                  config, ctx.scale)
               for p in fig10.FIG10_PINDUCE}
        for name in names
    }
    pairs_by_name = {
        name: [results.for_job(Job(name, mode="pair", co_runner=other,
                                   co_seed=ctx.scale.seed),
                               config, ctx.scale)
               for other in adversary_panel(name, names, FIG10_PANEL_SIZE)]
        for name in names
    }
    return fig10.points_from_results(names, sweep, pairs_by_name,
                                     fig10.allocation_fraction_for(config))


register(Artifact(name="fig10", title="Fig 10: real-system proxy vs PInTE "
                  "(xeon config)", plan=_plan_fig10,
                  aggregate=_aggregate_fig10, render=fig10.format_report))


# --------------------------------------------------------------------------
# Fig 11 — design-choice case study across config variants
# --------------------------------------------------------------------------

def _fig11_job(name: str, p: float) -> Job:
    """Isolation at p=0, PInTE otherwise."""
    if p > 0:
        return Job(name, mode="pinte", p_induce=p)
    return Job(name)


def _plan_fig11(ctx: PlanContext) -> List[PlannedJob]:
    """Plan every (dimension option, workload, P_induce) variant run."""
    workloads = tuple(CASE_STUDY_SUITE)
    planned: List[PlannedJob] = []
    for dimension in fig11.DIMENSIONS:
        for option in dimension.options:
            variant = dimension.configure(ctx.config, option)
            planned.extend(
                PlannedJob(_fig11_job(name, p), variant, ctx.scale)
                for name in workloads
                for p in fig11.FIG11_PINDUCE)
    return planned


def _aggregate_fig11(ctx: PlanContext, results: ResultMap):
    """Rebuild ``results[p][option][workload]`` per dimension and rank."""
    workloads = tuple(CASE_STUDY_SUITE)
    p_values = tuple(fig11.FIG11_PINDUCE)
    sweeps = {}
    for dimension in fig11.DIMENSIONS:
        by_p = {p: {option: {} for option in dimension.options}
                for p in p_values}
        for option in dimension.options:
            variant = dimension.configure(ctx.config, option)
            for name in workloads:
                for p in p_values:
                    by_p[p][option][name] = results.for_job(
                        _fig11_job(name, p), variant, ctx.scale)
        sweeps[dimension.name] = fig11.sweep_from_results(
            dimension, by_p, p_values, workloads)
    return fig11.Fig11Result(sweeps=sweeps, p_values=p_values,
                             workloads=workloads)


register(Artifact(name="fig11", title="Fig 11: best design choice vs "
                  "contention level", plan=_plan_fig11,
                  aggregate=_aggregate_fig11, render=fig11.format_report))


# --------------------------------------------------------------------------
# N-core coverage/cost study — multicore jobs
# --------------------------------------------------------------------------

def _ncore_multi_job(victim: str, adversaries: Sequence[str],
                     extra: int) -> Job:
    """The (1 + extra)-core co-run job; co-runner i's trace seed is
    ``scale.seed + 1 + i``."""
    return Job(victim, mode="multi", co_runners=tuple(adversaries[:extra]))


def _plan_ncore(ctx: PlanContext) -> List[PlannedJob]:
    """Plan the 2/3/4-core co-runs plus the single-core PInTE sweep."""
    victim = ncore_study.DEFAULT_VICTIM
    adversaries = ncore_study.DEFAULT_ADVERSARIES
    planned = [
        PlannedJob(_ncore_multi_job(victim, adversaries, extra),
                   ctx.config, ctx.scale)
        for extra in range(1, len(adversaries) + 1)
    ]
    planned.extend(
        PlannedJob(Job(victim, mode="pinte", p_induce=p), ctx.config,
                   ctx.scale)
        for p in ncore_study.DEFAULT_PINDUCE)
    return planned


def _aggregate_ncore(ctx: PlanContext, results: ResultMap):
    """Rebuild the by-cores/PInTE maps from the campaign results."""
    victim = ncore_study.DEFAULT_VICTIM
    adversaries = ncore_study.DEFAULT_ADVERSARIES
    by_cores = {
        extra + 1: results.for_job(
            _ncore_multi_job(victim, adversaries, extra), ctx.config,
            ctx.scale)
        for extra in range(1, len(adversaries) + 1)
    }
    pinte = {
        p: results.for_job(Job(victim, mode="pinte", p_induce=p),
                           ctx.config, ctx.scale)
        for p in ncore_study.DEFAULT_PINDUCE
    }
    return ncore_study.NcoreResult(victim=victim, by_cores=by_cores,
                                   pinte=pinte)


register(Artifact(name="ncore_study", title="N-core coverage/cost study",
                  plan=_plan_ncore, aggregate=_aggregate_ncore,
                  render=ncore_study.format_report))


# --------------------------------------------------------------------------
# Partitioning study — multicore jobs with partitioner schemes
# --------------------------------------------------------------------------

#: Repartitioning epoch of the study's partitioned co-runs.
PARTITION_REPARTITION_INTERVAL = 4_000


def _partition_jobs(ctx: PlanContext, *,
                    pair: Tuple[str, str] = partition_study.DEFAULT_PAIR):
    """The study's job vocabulary: two isolations + one co-run per scheme.

    ``pair`` is the (victim, aggressor) workload pair. The victim isolation
    is a plain isolation job — shared (and therefore deduplicated) with the
    bundle when the victim is in the suite. The aggressor's isolation pins
    ``trace_seed=scale.seed + 1``, the exact shifted-seed trace it runs on
    in the co-runs.
    """
    victim, aggressor = pair
    iso_victim = Job(victim)
    iso_aggressor = Job(aggressor, trace_seed=ctx.scale.seed + 1)
    scheme_jobs = {
        scheme: Job(victim, mode="multi", co_runners=(aggressor,),
                    scheme=scheme,
                    repartition_interval=PARTITION_REPARTITION_INTERVAL)
        for scheme in partition_study.SCHEMES
    }
    return iso_victim, iso_aggressor, scheme_jobs


def _plan_partition(ctx: PlanContext, *,
                    pair: Tuple[str, str] = partition_study.DEFAULT_PAIR,
                    ) -> List[PlannedJob]:
    """Plan the isolation baselines plus one co-run per scheme."""
    iso_victim, iso_aggressor, scheme_jobs = _partition_jobs(ctx, pair=pair)
    jobs = [iso_victim, iso_aggressor] + list(scheme_jobs.values())
    return [PlannedJob(job, ctx.config, ctx.scale) for job in jobs]


def _aggregate_partition(ctx: PlanContext, results: ResultMap, *,
                         pair: Tuple[str, str] = partition_study.DEFAULT_PAIR):
    """Rebuild per-scheme outcomes (quotas come home in ``extra``)."""
    victim, aggressor = pair
    iso_victim, iso_aggressor, scheme_jobs = _partition_jobs(ctx, pair=pair)
    isolations = [
        results.for_job(iso_victim, ctx.config, ctx.scale),
        results.for_job(iso_aggressor, ctx.config, ctx.scale),
    ]
    outcomes = {}
    for scheme, job in scheme_jobs.items():
        primary = results.for_job(job, ctx.config, ctx.scale)
        per_core = [primary] + list(primary.co_results)
        quotas = {
            int(key.rsplit("_", 1)[1]): int(value)
            for key, value in primary.extra.items()
            if key.startswith("partition_quota_")
        }
        outcomes[scheme] = partition_study.outcome_from_results(
            scheme, per_core, isolations, quotas)
    return partition_study.PartitionStudyResult(
        workloads=(victim, aggressor), outcomes=outcomes)


register(Artifact(name="partition_study",
                  title="Partitioning study: thefts vs LLC management",
                  plan=_plan_partition, aggregate=_aggregate_partition,
                  render=partition_study.format_report))
