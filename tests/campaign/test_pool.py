"""Tests for the persistent work-stealing pool executor.

The inline path's results are the contract; scenarios here check the pool
matches them — results, retries, crash capture, timeouts, resume in
either direction — or exercise the behaviour only the pool has (work
stealing, worker respawn, per-worker trace memo, liveness records).
Timing-sensitive cases use tiny simulations and sub-second sleeps.
"""

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
from repro.campaign.pool import WorkerTraceMemo
from repro.sim import ExperimentScale
from repro.sim.batch import run_job
from repro.sim.serialize import result_to_dict
from repro.trace.store import MemoryTraceStore

TINY = ExperimentScale(warmup_instructions=500, sim_instructions=2_000,
                       sample_interval=500)

FAST_RETRY = RetryPolicy(max_attempts=3, backoff_seconds=0.01,
                         backoff_factor=1.0)
NO_RETRY = RetryPolicy(max_attempts=1)


def canonical(result):
    """Serialised result with wall-clock timing stripped."""
    record = result_to_dict(result)
    record.pop("wall_time_seconds", None)
    record["extra"] = {key: value for key, value in record["extra"].items()
                       if not key.endswith("_seconds")}
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


class TestWorkerTraceMemo:
    def test_storeless_counts_every_request_as_miss(self, config):
        memo = WorkerTraceMemo(None)
        first = memo.get_or_build("470.lbm", config.llc.size, 2_500, 1)
        second = memo.get_or_build("470.lbm", config.llc.size, 2_500, 1)
        assert first is second  # memoised object, not a rebuild
        assert memo.hits == 0
        assert memo.misses == 2  # matches a storeless run_job per request

    def test_store_backed_memo_hit_counts_as_hit(self, config):
        store = MemoryTraceStore()
        memo = WorkerTraceMemo(store)
        memo.get_or_build("470.lbm", config.llc.size, 2_500, 1)
        memo.get_or_build("470.lbm", config.llc.size, 2_500, 1)
        assert memo.misses == 1  # the store build
        assert memo.hits == 1    # the memo hit — provably in the store
        assert store.misses == 1  # memo shielded the store from call 2

    def test_capacity_bounds_memo(self, config):
        memo = WorkerTraceMemo(None, capacity=2)
        for seed in (1, 2, 3):
            memo.get_or_build("470.lbm", config.llc.size, 2_500, seed)
        assert len(memo._traces) == 2
        # Seed 1 was evicted FIFO; re-requesting it rebuilds.
        memo.get_or_build("470.lbm", config.llc.size, 2_500, 1)
        assert memo.misses == 4
