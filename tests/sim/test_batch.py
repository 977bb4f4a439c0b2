"""Tests for job manifests and running a batch of jobs as a campaign."""

import pytest

from repro.campaign import run_campaign
from repro.sim import ExperimentScale
from repro.sim.batch import Job, campaign_jobs, run_job

TINY = ExperimentScale(warmup_instructions=500, sim_instructions=2_000,
                       sample_interval=500)


class TestJob:
    def test_isolation_default(self):
        job = Job("470.lbm")
        assert job.mode == "isolation"

    def test_pinte_needs_p(self):
        with pytest.raises(ValueError, match="p_induce"):
            Job("470.lbm", mode="pinte")

    def test_pair_needs_co_runner(self):
        with pytest.raises(ValueError, match="co_runner"):
            Job("470.lbm", mode="pair")

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            Job("470.lbm", mode="oracle")


class TestRunJob:
    def test_isolation(self, config):
        result = run_job(Job("435.gromacs"), config, TINY)
        assert result.mode == "isolation"
        assert result.instructions == 2_000

    def test_pinte(self, config):
        result = run_job(Job("470.lbm", mode="pinte", p_induce=0.5),
                         config, TINY)
        assert result.mode == "pinte"
        assert result.thefts_experienced > 0

    def test_pair(self, config):
        result = run_job(Job("470.lbm", mode="pair", co_runner="450.soplex"),
                         config, TINY)
        assert result.mode == "2nd-trace"
        assert result.co_runner == "450.soplex"


class TestRunBatch:
    """A job list through :func:`run_campaign`: results in job order."""

    def test_inline_order_preserved(self, config):
        jobs = [Job("435.gromacs"), Job("453.povray")]
        results = run_campaign(jobs, config, TINY, processes=1).results
        assert [r.trace_name for r in results] == ["435.gromacs",
                                                   "453.povray"]

    def test_parallel_matches_inline(self, config):
        jobs = [Job("435.gromacs"),
                Job("470.lbm", mode="pinte", p_induce=0.3),
                Job("453.povray")]
        inline = run_campaign(jobs, config, TINY, processes=1).results
        parallel = run_campaign(jobs, config, TINY, processes=2).results
        assert [r.trace_name for r in parallel] == ["435.gromacs", "470.lbm",
                                                    "453.povray"]
        for a, b in zip(inline, parallel):
            assert a.trace_name == b.trace_name
            assert a.ipc == b.ipc  # fully deterministic across processes
            assert a.thefts_experienced == b.thefts_experienced

    def test_single_job_runs_inline(self, config):
        results = run_campaign([Job("435.gromacs")], config, TINY,
                               processes=8).results
        assert len(results) == 1


class TestCampaignJobs:
    def test_three_contexts(self):
        jobs = campaign_jobs(["a", "b"], p_values=(0.1, 0.5),
                             panel={"a": ["b"], "b": ["a"]})
        modes = [(j.workload, j.mode) for j in jobs]
        assert modes.count(("a", "isolation")) == 1
        assert modes.count(("a", "pinte")) == 2
        assert modes.count(("a", "pair")) == 1
        assert len(jobs) == 8

    def test_isolation_optional(self):
        jobs = campaign_jobs(["a"], p_values=(0.5,), include_isolation=False)
        assert all(j.mode == "pinte" for j in jobs)
