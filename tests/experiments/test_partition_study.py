"""Tests for the partitioning extension study, aggregated from the shared
artifact campaign (``artifact_run``) through the registry."""

import copy

import pytest

from repro import goldens
from repro.config import scaled_config
from repro.experiments import partition_study
from repro.experiments.registry import (
    PlanContext,
    execute_plan,
    get_artifact,
    plan_union,
)
from repro.sim.batch import Job, run_job


@pytest.fixture(scope="module")
def study(artifact_run):
    ctx, results = artifact_run
    return get_artifact("partition_study").aggregate(ctx, results)


class TestStudy:
    def test_all_schemes_present(self, study):
        assert set(study.outcomes) == set(partition_study.SCHEMES)

    def test_shared_suffers_thefts(self, study):
        assert study.outcome("shared").victim_thefts > 0

    def test_static_eliminates_thefts(self, study):
        assert study.outcome("static").victim_thefts == 0

    def test_casht_eliminates_thefts(self, study):
        assert study.outcome("casht").victim_thefts == 0

    def test_partitioning_improves_fairness(self, study):
        shared_fairness = study.outcome("shared").throughput["fairness"]
        static_fairness = study.outcome("static").throughput["fairness"]
        assert static_fairness > shared_fairness

    def test_quotas_reported_for_partitioned_schemes(self, study, config):
        assert study.outcome("shared").final_quotas == {}
        static_quotas = study.outcome("static").final_quotas
        assert sum(static_quotas.values()) == config.llc.assoc

    def test_throughput_keys(self, study):
        for outcome in study.outcomes.values():
            assert set(outcome.throughput) == {
                "weighted_speedup", "harmonic_mean_speedup", "fairness"}

    def test_report_renders(self, study):
        text = partition_study.format_report(study)
        assert "Partitioning study" in text
        assert "casht" in text

    def test_unknown_scheme_rejected(self, config, tiny_scale):
        job = Job("450.soplex", mode="multi", co_runners=("470.lbm",),
                  scheme="nucp")
        with pytest.raises(ValueError, match="unknown partitioning scheme"):
            run_job(job, config, tiny_scale)


def test_aggregate_leaves_shared_results_unchanged():
    # The registry's ResultMap is shared by every artifact aggregated from
    # one campaign, so aggregating the study must only read its results.
    ctx = PlanContext(config=scaled_config(), scale=goldens.ARTIFACT_SCALE,
                      suite=goldens.ARTIFACT_SUITE,
                      p_values=goldens.ARTIFACT_P_VALUES,
                      panel_size=goldens.ARTIFACT_PANEL)
    plan = plan_union(["partition_study"], ctx)
    results = execute_plan(plan).results
    every = []
    for planned in plan.unique:
        result = results.get(planned)
        every.extend([result, *result.co_results])
    before = [copy.deepcopy(result.extra) for result in every]
    study = get_artifact("partition_study").aggregate(ctx, results)
    assert [result.extra for result in every] == before
    assert study.outcome("shared").throughput_component(1) > 0
