"""Tests for the partitioning extension study, aggregated from the shared
artifact campaign (``artifact_run``) through the registry."""

import pytest

from repro.experiments import partition_study
from repro.experiments.registry import get_artifact
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
