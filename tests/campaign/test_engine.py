"""Tests for the fault-tolerant campaign engine.

The timing-sensitive cases (timeout kill, crash capture) use tiny
simulations and aggressive backoffs so the whole module stays in the
seconds range.
"""

import cProfile
import os
import pstats
import threading

import pytest

import repro.obs.resources
import repro.obs.telemetry
from repro.campaign import (
    CampaignError,
    CampaignLimitError,
    Job,
    ResultStore,
    RetryPolicy,
    campaign_jobs,
    fault_workload,
    run_campaign,
    telemetry_dir_for,
)
from repro.campaign.ids import job_id
from repro.sim import ExperimentScale
from repro.sim.batch import run_job
from repro.sim.serialize import result_to_dict

TINY = ExperimentScale(warmup_instructions=500, sim_instructions=2_000,
                       sample_interval=500)

FAST_RETRY = RetryPolicy(max_attempts=3, backoff_seconds=0.01,
                         backoff_factor=1.0)
NO_RETRY = RetryPolicy(max_attempts=1)


def canonical(result):
    """Serialised result with wall-clock timing and trace-cache tallies
    stripped (the only fields that legitimately differ between identical
    runs: whether a job's trace was a memo hit depends on which process
    ran it, and after which jobs)."""
    record = result_to_dict(result)
    record.pop("wall_time_seconds", None)
    record["extra"] = {key: value for key, value in record["extra"].items()
                       if not key.endswith("_seconds")
                       and not key.startswith("trace_cache_")}
    return record


def result_dicts(report):
    """Comparable per-job serialised results, keyed by job id."""
    return {jid: canonical(result)
            for jid, result in report.results_by_id.items()}


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(backoff_seconds=1.0, backoff_factor=4.0,
                             max_backoff_seconds=10.0)
        assert policy.delay_after(1) == 1.0
        assert policy.delay_after(2) == 4.0
        assert policy.delay_after(3) == 10.0  # capped

    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


class TestCampaignLimits:
    @pytest.mark.parametrize("processes, timeout, message", [
        (0, None, "processes must be >= 1, got 0"),
        (-3, None, "processes must be >= 1, got -3"),
        (2, 0.0, "timeout must be > 0 seconds, got 0.0"),
        (None, -1.0, "timeout must be > 0 seconds, got -1.0"),
        (1, float("nan"), "timeout must be > 0 seconds, got nan"),
        (0, 0, "processes must be >= 1, got 0; "
               "timeout must be > 0 seconds, got 0"),
    ])
    def test_rejected_before_any_job_runs(self, config, tmp_path,
                                          processes, timeout, message):
        events = []
        store = tmp_path / "results.jsonl"
        with pytest.raises(CampaignLimitError) as info:
            run_campaign([Job("435.gromacs"), Job("453.povray")], config,
                         TINY, processes=processes, timeout_seconds=timeout,
                         store=store, progress=events.append)
        assert str(info.value) == message
        assert isinstance(info.value, ValueError)
        assert events == [] and not store.exists()


class TestRetries:
    def test_transient_failure_heals(self, config):
        """A flaky job retried past its faults equals the direct run."""
        flaky = Job(fault_workload("flaky", 2, "470.lbm"))
        report = run_campaign([flaky], config, TINY, retry=FAST_RETRY)
        assert report.ok
        assert report.retries == 2
        direct = run_job(Job("470.lbm"), config, TINY)
        assert canonical(report.results[0]) == canonical(direct)

    def test_permanent_failure_recorded_not_raised(self, config):
        jobs = [Job("435.gromacs"), Job(fault_workload("raise"))]
        report = run_campaign(jobs, config, TINY, retry=FAST_RETRY)
        assert report.executed == 1 and report.failed == 1
        assert not report.ok
        [failure] = report.failures
        assert failure.kind == "error"
        assert failure.error_type == "InjectedFault"
        assert failure.attempts == FAST_RETRY.max_attempts
        assert "InjectedFault" in failure.traceback
        # The healthy job still produced its result.
        assert report.results[0].trace_name == "435.gromacs"

    def test_raise_on_failure_after_completion(self, config):
        jobs = [Job("435.gromacs"), Job(fault_workload("raise"))]
        with pytest.raises(CampaignError, match="InjectedFault"):
            run_campaign(jobs, config, TINY, retry=NO_RETRY,
                         raise_on_failure=True)


class TestTimeoutsAndCrashes:
    def test_hung_worker_killed_sibling_completes(self, config):
        jobs = [Job("435.gromacs"), Job(fault_workload("hang"))]
        report = run_campaign(jobs, config, TINY, processes=2,
                              retry=NO_RETRY, timeout_seconds=1.0)
        assert report.executed == 1 and report.failed == 1
        [failure] = report.failures
        assert failure.kind == "timeout"
        assert "1s" in failure.message and "killed" in failure.message
        assert report.results[0].trace_name == "435.gromacs"

    def test_timeout_forces_subprocess_even_single_process(self, config):
        # Inline execution could never kill a hang; the engine must switch
        # to a worker subprocess as soon as a timeout is requested.
        report = run_campaign([Job(fault_workload("hang"))], config, TINY,
                              processes=1, retry=NO_RETRY,
                              timeout_seconds=1.0)
        assert report.failed == 1
        assert report.failures[0].kind == "timeout"

    def test_worker_crash_captured(self, config):
        report = run_campaign([Job(fault_workload("exit"))], config, TINY,
                              processes=2, retry=NO_RETRY,
                              timeout_seconds=30.0)
        [failure] = report.failures
        assert failure.kind == "crash"
        assert "code 17" in failure.message


class TestInlineExecution:
    def test_single_process_runs_without_pool(self, config, monkeypatch):
        """processes=1 with no timeout must never spawn a subprocess."""
        import repro.campaign.engine as engine

        def no_processes(*args, **kwargs):
            raise AssertionError("inline campaign spawned a subprocess")

        monkeypatch.setattr(engine.multiprocessing, "Process", no_processes)
        jobs = [Job("435.gromacs"), Job("453.povray")]
        report = run_campaign(jobs, config, TINY, processes=1)
        assert report.ok
        assert [r.trace_name for r in report.results] == ["435.gromacs",
                                                          "453.povray"]

    def test_single_pending_job_runs_without_pool(self, config,
                                                  monkeypatch):
        """One pending job with no timeout runs inline at any width."""
        import repro.campaign.engine as engine

        def no_processes(*args, **kwargs):
            raise AssertionError("single-job campaign spawned a subprocess")

        monkeypatch.setattr(engine.multiprocessing, "Process", no_processes)
        report = run_campaign([Job("435.gromacs")], config, TINY,
                              processes=8)
        assert report.ok
        assert report.results[0].trace_name == "435.gromacs"

    def test_parallel_matches_inline(self, config):
        jobs = [Job("435.gromacs"),
                Job("470.lbm", mode="pinte", p_induce=0.3),
                Job("470.lbm", mode="pair", co_runner="450.soplex")]
        inline = run_campaign(jobs, config, TINY, processes=1)
        parallel = run_campaign(jobs, config, TINY, processes=3,
                                timeout_seconds=300.0)
        assert result_dicts(inline) == result_dicts(parallel)


class TestRaiseOnFailure:
    def test_failure_raises_campaign_error(self, config, tmp_path):
        """The error comes after every job ran and was stored."""
        store = tmp_path / "results.jsonl"
        jobs = [Job(fault_workload("raise")), Job("435.gromacs")]
        with pytest.raises(CampaignError) as info:
            run_campaign(jobs, config, TINY, processes=1, retry=NO_RETRY,
                         store=store, raise_on_failure=True)
        [failure] = info.value.failures
        assert failure.error_type == "InjectedFault"
        contents = ResultStore(store).load()
        assert len(contents.results) == 1 and len(contents.failures) == 1

    def test_empty_job_list(self, config):
        report = run_campaign([], config, TINY, raise_on_failure=True)
        assert report.ok
        assert report.results == [] and report.total == 0


class TestStoreIntegration:
    def test_existing_store_refused_without_resume(self, config, tmp_path):
        store = tmp_path / "results.jsonl"
        run_campaign([Job("435.gromacs")], config, TINY, store=store)
        with pytest.raises(FileExistsError, match="resume"):
            run_campaign([Job("435.gromacs")], config, TINY, store=store)

    def test_failure_manifest_written(self, config, tmp_path):
        store = tmp_path / "results.jsonl"
        report = run_campaign([Job(fault_workload("raise"))], config, TINY,
                              retry=NO_RETRY, store=store)
        assert report.failure_manifest_path.exists()
        import json
        document = json.loads(report.failure_manifest_path.read_text())
        assert document["count"] == 1
        assert document["failures"][0]["failure"]["error_type"] == \
            "InjectedFault"

    def test_clean_campaign_writes_empty_failure_manifest(self, config,
                                                          tmp_path):
        store = tmp_path / "results.jsonl"
        report = run_campaign([Job("435.gromacs")], config, TINY, store=store)
        import json
        assert json.loads(
            report.failure_manifest_path.read_text())["count"] == 0

    def test_stored_failure_retried_on_resume(self, config, tmp_path):
        store = tmp_path / "results.jsonl"
        flaky = Job(fault_workload("flaky", 1, "470.lbm"))
        first = run_campaign([flaky], config, TINY, retry=NO_RETRY,
                             store=store)
        assert first.failed == 1
        # Attempt numbering restarts on resume, so the retry budget must
        # cover the fault again; this time it heals.
        second = run_campaign([flaky], config, TINY, retry=FAST_RETRY,
                              store=store, resume=True)
        assert second.ok and second.executed == 1
        contents = ResultStore(store).load()
        assert len(contents.results) == 1 and not contents.failures


class TestResume:
    def test_interrupted_campaign_resumes_identically(self, config, tmp_path):
        """The acceptance test: kill mid-run, resume, identical results."""
        names = ["435.gromacs", "453.povray", "470.lbm"]
        jobs = campaign_jobs(names, p_values=(0.5,),
                             panel={"470.lbm": ["453.povray"]})
        reference = run_campaign(jobs, config, TINY,
                                 store=tmp_path / "ref.jsonl")
        assert reference.ok

        # "Interrupted" run: only shard 0/2 lands, then the driver dies
        # mid-append (a partial trailing line, as SIGKILL leaves behind).
        store = tmp_path / "results.jsonl"
        partial = run_campaign(jobs, config, TINY, store=store,
                               shard=(0, 2))
        with open(store, "a") as handle:
            handle.write('{"kind": "result", "job_id": "dead')
        resumed = run_campaign(jobs, config, TINY, store=store, resume=True)
        assert resumed.ok
        assert resumed.skipped == partial.executed  # nothing re-ran
        assert resumed.executed == len(jobs) - partial.executed
        assert result_dicts(resumed) == result_dicts(reference)

    def test_second_resume_skips_everything(self, config, tmp_path):
        store = tmp_path / "results.jsonl"
        jobs = [Job("435.gromacs"), Job("453.povray")]
        run_campaign(jobs, config, TINY, store=store)
        again = run_campaign(jobs, config, TINY, store=store, resume=True)
        assert again.skipped == 2 and again.executed == 0
        assert len(again.results) == 2  # resumed results still returned

    def test_resume_refuses_foreign_id_scheme(self, config, tmp_path):
        """A pre-v3 store fails loudly: its ids cannot match v3 ids."""
        import json

        store = tmp_path / "results.jsonl"
        jobs = [Job("435.gromacs")]
        run_campaign(jobs, config, TINY, store=store)
        lines = store.read_text().splitlines()
        header = json.loads(lines[0])
        header["id_scheme"] = "pinte-job-v2"
        store.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match="pinte-job-v2.*pinte-job-v3"):
            run_campaign(jobs, config, TINY, store=store, resume=True)

    def test_resume_refuses_unversioned_store(self, config, tmp_path):
        """A store whose header predates id-scheme stamping is refused."""
        import json

        store = tmp_path / "results.jsonl"
        jobs = [Job("435.gromacs")]
        run_campaign(jobs, config, TINY, store=store)
        lines = store.read_text().splitlines()
        header = json.loads(lines[0])
        del header["id_scheme"]
        store.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(ValueError, match="unversioned"):
            run_campaign(jobs, config, TINY, store=store, resume=True)


class TestSharding:
    def test_shards_union_into_complete_store(self, config, tmp_path):
        store = tmp_path / "results.jsonl"
        jobs = campaign_jobs(["435.gromacs", "453.povray"],
                             p_values=(0.5, 1.0))
        first = run_campaign(jobs, config, TINY, store=store, shard=(0, 2))
        second = run_campaign(jobs, config, TINY, store=store, shard=(1, 2),
                              resume=True)
        assert first.total + second.total - second.skipped == len(jobs)
        ids = {job_id(job, config, TINY) for job in jobs}
        assert set(ResultStore(store).load().results) == ids


class TestObservability:
    def test_progress_events_and_metrics(self, config):
        from repro.obs import Observation

        events = []
        observe = Observation()
        jobs = [Job("435.gromacs"), Job(fault_workload("raise"))]
        run_campaign(jobs, config, TINY, retry=FAST_RETRY, observe=observe,
                     progress=events.append)
        kinds = [event["event"] for event in events]
        assert kinds.count("done") == 1
        assert kinds.count("retry") == FAST_RETRY.max_attempts - 1
        assert kinds.count("failed") == 1
        done = next(e for e in events if e["event"] == "done")
        assert done["label"] == "435.gromacs"
        assert done["total"] == 2
        registry = observe.registry
        assert registry.value("campaign.success") == 1
        assert registry.value("campaign.failure") == 1
        assert registry.value("campaign.retry") == 2
        assert registry.value("campaign.jobs_total") == 2
        assert registry.value("campaign.wall_seconds") > 0


class TestTelemetryOff:
    """An unobserved campaign pays nothing for the telemetry bus."""

    def test_telemetry_off_campaign_leaves_no_artifacts(self, config,
                                                        tmp_path):
        store = tmp_path / "results.jsonl"
        threads_before = threading.active_count()
        report = run_campaign([Job("470.lbm")], config, TINY, processes=1,
                              store=store)
        assert report.ok
        assert report.telemetry is None
        assert report.telemetry_dir is None
        assert not telemetry_dir_for(store).exists()
        assert threading.active_count() == threads_before

    def test_telemetry_off_campaign_makes_no_telemetry_calls(self, config,
                                                             tmp_path):
        bus_modules = {os.path.realpath(module.__file__) for module in
                       (repro.obs.telemetry, repro.obs.resources)}
        profiler = cProfile.Profile()
        profiler.enable()
        report = run_campaign([Job("470.lbm")], config, TINY, processes=1,
                              store=tmp_path / "results.jsonl",
                              telemetry=None)
        profiler.disable()
        assert report.ok
        bus_calls = {f"{function}:{line}": calls
                     for (filename, line, function), (_cc, calls, *_rest)
                     in pstats.Stats(profiler).stats.items()
                     if os.path.realpath(filename) in bus_modules}
        assert bus_calls == {}
