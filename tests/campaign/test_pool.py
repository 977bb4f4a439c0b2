"""Tests for the persistent work-stealing pool executor.

The inline path's results are the contract; scenarios here check the pool
matches them — results, retries, crash capture, timeouts, resume in
either direction — or exercise the behaviour only the pool has (work
stealing, worker respawn, liveness records). Trace-cache accounting is
checked on both paths.
Timing-sensitive cases use tiny simulations and sub-second sleeps.
"""

from dataclasses import replace

import pytest

from repro.campaign import (
    Job,
    ResultStore,
    RetryPolicy,
    canonical_records,
    fault_workload,
    load_worker_records,
    run_campaign,
)
from repro.experiments.registry import PlannedJob, UnionPlan, execute_plan
from repro.sim import ExperimentScale
from repro.sim.batch import job_trace_keys, run_job
from repro.sim.serialize import result_to_dict
from repro.trace.store import TraceStore

TINY = ExperimentScale(warmup_instructions=500, sim_instructions=2_000,
                       sample_interval=500)

FAST_RETRY = RetryPolicy(max_attempts=3, backoff_seconds=0.01,
                         backoff_factor=1.0)
NO_RETRY = RetryPolicy(max_attempts=1)


def canonical(result):
    """Serialised result with wall-clock timing and trace-cache tallies
    stripped: whether a job's trace was a memo hit depends on which
    process ran it, and after which jobs."""
    record = result_to_dict(result)
    record.pop("wall_time_seconds", None)
    record["extra"] = {key: value for key, value in record["extra"].items()
                       if not key.endswith("_seconds")
                       and not key.startswith("trace_cache_")}
    return record


def result_dicts(report):
    return {jid: canonical(result)
            for jid, result in report.results_by_id.items()}


class TestExecutorSelection:
    """The inputs alone pick inline or pool; there is nothing to choose."""

    def test_pool_is_the_default(self, config, tmp_path, monkeypatch):
        """No ``processes``: one pool worker per CPU, capped at the jobs."""
        import repro.campaign.engine as engine

        monkeypatch.setattr(engine.multiprocessing, "cpu_count", lambda: 2)
        store = tmp_path / "results.jsonl"
        jobs = [Job("435.gromacs"), Job("453.povray"), Job("444.namd")]
        report = run_campaign(jobs, config, TINY, store=store)
        assert report.ok
        assert len(load_worker_records(store)["workers"]) == 2

    @pytest.mark.parametrize("processes, timeout, pool", [
        (1, None, False),     # one process, no timeout: inline
        (1, 30.0, True),      # a timeout needs a killable worker
    ])
    def test_inputs_pick_the_path(self, config, tmp_path, processes,
                                  timeout, pool):
        store = tmp_path / "results.jsonl"
        report = run_campaign([Job("435.gromacs"), Job("453.povray")],
                              config, TINY, processes=processes,
                              timeout_seconds=timeout, store=store)
        assert report.ok
        assert (load_worker_records(store) is not None) == pool

    def test_unknown_executor_rejected(self, config, tmp_path):
        from repro.cli import main

        with pytest.raises(TypeError):
            run_campaign([Job("470.lbm")], config, TINY, processes=2,
                         **{"executor": "pool"})
        with pytest.raises(SystemExit) as info:
            main(["campaign", "run", "--executor", "pool",
                  "--store", str(tmp_path / "r.jsonl"),
                  "--workloads", "470.lbm"])
        assert info.value.code == 2  # argparse: unrecognized arguments
        assert not (tmp_path / "r.manifest.json").exists()


class TestPoolSemantics:
    def test_pool_matches_inline(self, config):
        jobs = [Job("435.gromacs"),
                Job("470.lbm", mode="pinte", p_induce=0.3),
                Job("470.lbm", mode="pair", co_runner="450.soplex")]
        inline = run_campaign(jobs, config, TINY, processes=1)
        pool = run_campaign(jobs, config, TINY, processes=3)
        assert result_dicts(inline) == result_dicts(pool)
        assert inline.pool_steals == inline.pool_respawns == 0

    def test_error_capture(self, config):
        jobs = [Job("435.gromacs"), Job(fault_workload("raise"))]
        report = run_campaign(jobs, config, TINY, processes=2,
                              retry=NO_RETRY)
        assert report.executed == 1 and report.failed == 1
        [failure] = report.failures
        assert failure.kind == "error"
        assert failure.error_type == "InjectedFault"
        assert "InjectedFault" in failure.traceback


class TestWorkStealing:
    def test_idle_worker_steals_from_straggler(self, config):
        """One worker parks on a sleeper; its queued jobs get stolen.

        Round-robin seeding puts jobs 0 and 2 on worker 0 and jobs 1 and
        3 on worker 1. Worker 0 sleeps through job 0, so worker 1 must
        steal job 2 from its deque to finish the campaign promptly.
        """
        jobs = [Job(fault_workload("sleep", real_workload="470.lbm",
                                   sleep_seconds=0.8)),
                Job("435.gromacs"),
                Job("453.povray"),
                Job("444.namd")]
        report = run_campaign(jobs, config, TINY, processes=2,
                              retry=NO_RETRY)
        assert report.ok and report.executed == 4
        assert report.pool_steals >= 1

    def test_steal_from_dying_worker_loses_no_jobs(self, config):
        """A crashing worker's queued jobs still run (stolen or requeued)."""
        jobs = [Job(fault_workload("crash", 99, "470.lbm")),
                Job("435.gromacs"),
                Job("453.povray"),
                Job("444.namd")]
        report = run_campaign(jobs, config, TINY, processes=2,
                              retry=NO_RETRY)
        assert report.executed == 3 and report.failed == 1
        [failure] = report.failures
        assert failure.kind == "crash"
        assert "code 17" in failure.message
        assert report.pool_respawns >= 1


class TestCrashAndTimeout:
    def test_crash_respawns_worker_and_retry_heals(self, config):
        """A transient crash kills one worker; its respawn runs attempt 2."""
        job = Job(fault_workload("crash", 1, "470.lbm"))
        # A timeout forces subprocess execution even for a single job —
        # inline, the injected os._exit would take the test runner down.
        report = run_campaign([job], config, TINY, processes=2,
                              retry=FAST_RETRY, timeout_seconds=30.0)
        assert report.ok
        assert report.retries == 1
        assert report.pool_respawns >= 1
        direct = run_job(Job("470.lbm"), config, TINY)
        assert canonical(report.results[0]) == canonical(direct)

    def test_timeout_kills_only_the_offender(self, config):
        jobs = [Job("435.gromacs"), Job(fault_workload("hang"))]
        report = run_campaign(jobs, config, TINY, processes=2,
                              retry=NO_RETRY, timeout_seconds=1.0)
        assert report.executed == 1 and report.failed == 1
        [failure] = report.failures
        assert failure.kind == "timeout"
        assert "1s" in failure.message and "killed" in failure.message
        assert report.results[0].trace_name == "435.gromacs"
        assert report.pool_respawns >= 1

    def test_crash_leaves_clean_telemetry_tail(self, config, tmp_path):
        """The healing attempt supersedes the crashed attempt's spool."""
        from repro.campaign import telemetry_dir_for
        from repro.obs.telemetry import CampaignTelemetry

        store = tmp_path / "results.jsonl"
        job = Job(fault_workload("crash", 1, "470.lbm"))
        report = run_campaign([job], config, TINY, processes=2,
                              retry=FAST_RETRY, store=store,
                              timeout_seconds=30.0,
                              telemetry=0.05)
        assert report.ok
        telemetry = CampaignTelemetry(telemetry_dir_for(store))
        telemetry.poll()
        [job_view] = [view for key, view in telemetry.jobs.items()
                      if not key.startswith("_")]
        assert job_view.attempt == 2
        assert job_view.status == "ok"


class TestCrossExecutorResume:
    """A shard run on one path resumes on the other; stores match."""

    def _check_cross_resume(self, config, tmp_path, first, second):
        jobs = [Job("435.gromacs"), Job("453.povray"), Job("470.lbm"),
                Job("444.namd")]
        reference = run_campaign(jobs, config, TINY,
                                 store=tmp_path / "ref.jsonl",
                                 processes=second)
        store = tmp_path / "results.jsonl"
        partial = run_campaign(jobs, config, TINY, store=store,
                               shard=(0, 2), processes=first)
        assert partial.executed == 2
        resumed = run_campaign(jobs, config, TINY, store=store, resume=True,
                               processes=second)
        assert resumed.ok and reference.ok
        assert resumed.skipped == partial.executed
        assert canonical_records(ResultStore(store).load()) == \
            canonical_records(ResultStore(tmp_path / "ref.jsonl").load())

    def test_pool_shard_resumed_inline(self, config, tmp_path):
        self._check_cross_resume(config, tmp_path, first=2, second=1)
        assert load_worker_records(tmp_path / "results.jsonl") is not None
        assert load_worker_records(tmp_path / "ref.jsonl") is None

    def test_inline_shard_resumed_by_pool(self, config, tmp_path):
        self._check_cross_resume(config, tmp_path, first=1, second=2)
        assert load_worker_records(tmp_path / "results.jsonl") is not None
        assert load_worker_records(tmp_path / "ref.jsonl") is not None


class TestLiveness:
    def test_worker_records_written_and_stopped(self, config, tmp_path):
        store = tmp_path / "results.jsonl"
        report = run_campaign([Job("435.gromacs"), Job("453.povray")],
                              config, TINY, processes=2, store=store)
        assert report.ok
        document = load_worker_records(store)
        assert document is not None
        assert document["running"] is False
        assert len(document["workers"]) == 2
        assert sum(row["jobs_done"] for row in document["workers"]) == 2

    def test_load_worker_records_tolerates_absence(self, tmp_path):
        assert load_worker_records(tmp_path / "nothing.jsonl") is None


class TestTraceAccounting:
    """``trace_cache_misses`` counts generations on every path: each job
    looks up one trace per core, and a memo hit is a hit."""

    #: Shares traces across jobs: the pinte job and the pinned pair reuse
    #: the isolation job's trace, the default-seeded pair adds one.
    JOBS = [Job("470.lbm"), Job("470.lbm", mode="pinte", p_induce=0.5),
            Job("435.gromacs", mode="pair", co_runner="470.lbm"),
            Job("470.lbm", mode="pair", co_runner="435.gromacs", co_seed=1)]

    def _tallies(self, config, report):
        """Per job: (hits + misses, cores); and the campaign's misses."""
        per_job = []
        misses = 0
        for job, result in zip(self.JOBS, report.results):
            hits = result.extra["trace_cache_hits"]
            job_misses = result.extra["trace_cache_misses"]
            per_job.append((hits + job_misses,
                            len(job_trace_keys(job, config, TINY))))
            misses += job_misses
        return per_job, misses

    def _keys(self, config):
        return {key for job in self.JOBS
                for key in job_trace_keys(job, config, TINY)}

    def test_inline_storeless_generates_each_trace_once(self, config):
        report = run_campaign(self.JOBS, config, TINY, processes=1)
        per_job, misses = self._tallies(config, report)
        assert all(lookups == cores for lookups, cores in per_job)
        assert misses == len(self._keys(config)) == 3

    def test_pool_storeless_counts_one_lookup_per_core(self, config):
        report = run_campaign(self.JOBS, config, TINY, processes=2)
        assert report.ok
        per_job, misses = self._tallies(config, report)
        assert all(lookups == cores for lookups, cores in per_job)
        # Each worker generates each key it sees once. However the jobs
        # split, one worker sees the isolation trace twice (three jobs
        # read it), so at least one lookup is a memo hit.
        lookups = sum(cores for _lookups, cores in per_job)
        assert len(self._keys(config)) <= misses < lookups

    def test_inline_over_primed_store_generates_nothing(self, config,
                                                        tmp_path):
        primed = TraceStore(tmp_path / "traces")
        for key in sorted(self._keys(config)):
            primed.get_or_build(*key)
        report = run_campaign(self.JOBS, config, TINY, processes=1,
                              trace_store=str(tmp_path / "traces"))
        per_job, misses = self._tallies(config, report)
        assert all(lookups == cores for lookups, cores in per_job)
        assert misses == 0

    def test_plan_shares_one_memo_across_contexts(self, config):
        # Two machine contexts with the same LLC read the same traces:
        # one plan execution builds each of them once, not once per
        # context.
        variant = replace(config, name="variant")
        plan = UnionPlan(artifacts=(), per_artifact={}, unique=[
            PlannedJob(job, machine, TINY)
            for machine in (config, variant) for job in self.JOBS])
        outcome = execute_plan(plan)
        assert len(outcome.reports) == 2
        misses = sum(result.extra["trace_cache_misses"]
                     for report in outcome.reports
                     for result in report.results)
        assert misses == len(self._keys(config))
