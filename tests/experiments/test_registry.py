"""Tests for the declarative artifact registry (plan/aggregate/render)."""

import sys

import pytest

from repro.core import PAPER_PINDUCE_SWEEP
from repro.experiments.registry import (
    Artifact,
    PlanContext,
    PlannedJob,
    REGISTRY,
    ResultMap,
    artifact_names,
    execute_plan,
    get_artifact,
    plan_bundle,
    plan_union,
    register,
)
from repro.experiments.reproduce import BUNDLE_ARTIFACTS
from repro.experiments.suites import QUICK_SUITE
from repro.sim import ExperimentScale
from repro.sim.batch import Job

TINY = ExperimentScale(warmup_instructions=500, sim_instructions=2_000,
                       sample_interval=500, seed=7)
SUITE = ("435.gromacs", "453.povray", "470.lbm", "605.mcf")
P_VALUES = (0.05, 0.3, 1.0)

ALL_ARTIFACTS = ("table1", "fig1", "table2", "fig5", "fig6", "fig7", "fig8",
                 "fig9", "fig3", "fig10", "fig11", "ncore_study",
                 "partition_study")


@pytest.fixture()
def ctx(config):
    return PlanContext(config=config, scale=TINY, suite=SUITE,
                       p_values=P_VALUES, panel_size=2)


class TestRegistryContents:
    def test_all_thirteen_artifacts_registered(self):
        assert artifact_names() == list(ALL_ARTIFACTS)

    def test_titles_non_empty(self):
        for name in artifact_names():
            assert get_artifact(name).title.strip(), name

    def test_unknown_artifact_lists_registered(self):
        with pytest.raises(KeyError, match="unknown artifact 'fig99'.*table1"):
            get_artifact("fig99")

    def test_duplicate_registration_rejected(self):
        artifact = REGISTRY["table1"]
        with pytest.raises(ValueError, match="already registered"):
            register(Artifact(name="table1", title="dup",
                              plan=artifact.plan, aggregate=artifact.aggregate,
                              render=artifact.render))


class TestPlanContext:
    def test_coerces_sequences_to_tuples(self, config):
        ctx = PlanContext(config=config, scale=TINY,
                          suite=["470.lbm"], p_values=[0.5])
        assert ctx.suite == ("470.lbm",)
        assert ctx.p_values == (0.5,)

    def test_negative_panel_rejected(self, config):
        with pytest.raises(ValueError, match="panel_size must be >= 0"):
            PlanContext(config=config, scale=TINY, suite=SUITE,
                        panel_size=-3)


class TestPlanPurity:
    """plan() must enumerate jobs without simulating or building traces."""

    @pytest.fixture()
    def no_simulation(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("plan() must not simulate or build traces")

        # Every job runs through run_job, and every trace is built by
        # build_trace, in whichever module imported it.
        import repro.sim.batch as batch
        monkeypatch.setattr(batch, "run_job", forbidden)
        from repro.trace.synthetic import build_trace
        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "repro"
                    and getattr(module, "build_trace", None) is build_trace):
                monkeypatch.setattr(module, "build_trace", forbidden)

    def test_every_plan_is_pure_and_non_empty(self, ctx, no_simulation):
        for name in artifact_names():
            planned = get_artifact(name).plan(ctx)
            assert planned, name
            assert all(isinstance(item, PlannedJob) for item in planned)

    def test_union_planning_is_pure(self, ctx, no_simulation):
        plan = plan_union(artifact_names(), ctx)
        assert plan.unique_total > 0


class TestPlannedJobs:
    def test_bundle_plan_job_order(self, ctx):
        planned = plan_bundle(ctx)
        jobs = [item.job for item in planned]
        # isolation first, then the sweep, then the panel pairs
        assert jobs[:4] == [Job(name) for name in SUITE]
        assert all(job.mode == "pinte" for job in jobs[4:16])
        assert all(job.mode == "pair" and job.co_seed == TINY.seed
                   for job in jobs[16:])
        assert len(jobs) == 4 + 4 * len(P_VALUES) + 4 * 2

    def test_ids_are_stable_and_distinct(self, ctx):
        planned = plan_bundle(ctx)
        ids = [item.id for item in planned]
        assert len(set(ids)) == len(ids)
        assert ids == [item.id for item in plan_bundle(ctx)]

    def test_panel_size_zero_plans_no_pairs(self, config):
        ctx = PlanContext(config=config, scale=TINY, suite=SUITE,
                          p_values=P_VALUES, panel_size=0)
        assert all(item.job.mode != "pair" for item in plan_bundle(ctx))


class TestUnionPlan:
    def test_bundle_artifacts_fully_dedup(self, ctx):
        bundle_names = ["table1", "fig1", "table2", "fig5", "fig6", "fig7",
                        "fig8", "fig9"]
        plan = plan_union(bundle_names, ctx)
        assert plan.unique_total == len(plan_bundle(ctx))
        assert plan.planned_total == 8 * plan.unique_total
        assert plan.dedup_ratio == pytest.approx(8.0)

    def test_partition_study_shares_the_victim_isolation(self, config):
        ctx = PlanContext(config=config, scale=TINY,
                          suite=("450.soplex", "470.lbm"),
                          p_values=P_VALUES, panel_size=0)
        plan = plan_union(["table1", "partition_study"], ctx)
        # 450.soplex's isolation job is planned by both artifacts but
        # executes once.
        assert plan.planned_total == plan.unique_total + 1

    def test_partition_pair_is_a_keyword(self, ctx):
        from repro.experiments.registry import _plan_partition

        default = [item.job for item in _plan_partition(ctx)]
        swapped = [item.job for item in
                   _plan_partition(ctx, pair=("605.mcf", "429.mcf"))]
        assert default[0] == Job("450.soplex")
        assert swapped[0] == Job("605.mcf")
        assert swapped[1] == Job("429.mcf", trace_seed=TINY.seed + 1)
        assert all(job.co_runners == ("429.mcf",) for job in swapped[2:])
        assert len(swapped) == len(default)

    def test_quick_suite_union_counts_pinned(self, config):
        """Planned and unique job counts of the quick-suite reproduction
        (the 12-point sweep thinned to every fourth value, panel 2, seed
        3): the bundle shares one campaign eightfold and the full
        thirteen-artifact registry still nearly halves its jobs."""
        scale = ExperimentScale(warmup_instructions=1_000,
                                sim_instructions=4_000, sample_interval=400,
                                seed=3)
        ctx = PlanContext(config=config, scale=scale,
                          suite=tuple(QUICK_SUITE),
                          p_values=PAPER_PINDUCE_SWEEP[::4], panel_size=2)
        bundle = plan_union(list(BUNDLE_ARTIFACTS), ctx)
        assert (bundle.planned_total, bundle.unique_total) == (288, 36)
        assert bundle.dedup_ratio == pytest.approx(8.0)
        full = plan_union(artifact_names(), ctx)
        assert (full.planned_total, full.unique_total) == (667, 350)
        assert full.dedup_ratio == pytest.approx(667 / 350)

    def test_empty_plan_ratio_is_one(self):
        from repro.experiments.registry import UnionPlan
        empty = UnionPlan(artifacts=(), per_artifact={}, unique=[])
        assert empty.dedup_ratio == 1.0

    def test_unknown_artifact_rejected(self, ctx):
        with pytest.raises(KeyError, match="unknown artifact"):
            plan_union(["fig99"], ctx)


class TestResultMap:
    def test_missing_id_error_names_the_id(self):
        results = ResultMap({})
        with pytest.raises(KeyError, match="no result for job id deadbeef"):
            results.for_id("deadbeef")

    def test_contains_and_len(self, ctx):
        results = ResultMap({"abc": object()})
        assert "abc" in results
        assert len(results) == 1


class TestExecutePlan:
    @pytest.fixture(scope="class")
    def small_ctx(self, config):
        return PlanContext(config=config, scale=TINY,
                           suite=("435.gromacs", "470.lbm"),
                           p_values=(0.5,), panel_size=1)

    def test_results_cover_every_planned_job(self, small_ctx):
        plan = plan_union(["fig1"], small_ctx)
        outcome = execute_plan(plan)
        assert outcome.ok
        assert outcome.executed == plan.unique_total
        for item in plan.unique:
            assert item.id in outcome.results

    def test_store_and_resume_skip_completed_jobs(self, small_ctx, tmp_path):
        plan = plan_union(["fig1"], small_ctx)
        store = tmp_path / "results.jsonl"
        first = execute_plan(plan, store=store)
        assert first.executed == plan.unique_total
        resumed = execute_plan(plan, store=store, resume=True)
        assert resumed.executed == 0
        assert resumed.skipped == plan.unique_total
        # The resumed ResultMap rebuilds the same artifact byte-for-byte.
        artifact = get_artifact("fig1")
        assert (artifact.report(small_ctx, resumed.results)
                == artifact.report(small_ctx, first.results))

    def test_injected_fault_is_recorded_not_raised(self, small_ctx):
        from repro.campaign.engine import RetryPolicy

        plan = plan_union(["fig1"], small_ctx)
        outcome = execute_plan(plan, inject="raise", raise_on_failure=False,
                               retry=RetryPolicy(max_attempts=1))
        assert outcome.failed == 1
        assert outcome.executed == plan.unique_total
        assert not outcome.ok

    def test_multi_context_plans_execute_in_groups(self, small_ctx):
        plan = plan_union(["partition_study"], small_ctx)
        outcome = execute_plan(plan)
        assert outcome.ok
        report = get_artifact("partition_study").report(small_ctx,
                                                        outcome.results)
        assert "Partitioning study" in report


class TestAggregateReconstruction:
    def test_bundle_roundtrip_matches_direct_bundle(self, tiny_context,
                                                    tiny_results,
                                                    tiny_bundle):
        """A bundle artifact's report is its ``run_*`` helper applied to
        the bundle that bundle_from_results rebuilds (spot-check via
        fig1)."""
        from repro.experiments import fig1

        assert tiny_bundle.names == list(tiny_context.suite)
        assert (get_artifact("fig1").report(tiny_context, tiny_results)
                == fig1.format_report(fig1.run_fig1(tiny_bundle)))
