"""Tests for the command-line interface."""

import json

import pytest

from repro.campaign import ResultStore
from repro.cli import build_parser, main
from repro.trace import read_trace


class TestList:
    def test_lists_all(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "49 synthetic" in out
        assert "470.lbm" in out

    def test_class_filter(self, capsys):
        assert main(["list", "--class", "core_bound"]) == 0
        out = capsys.readouterr().out
        assert "453.povray" in out
        assert "470.lbm" not in out


class TestRun:
    ARGS = ["--instructions", "3000", "--warmup", "500"]

    def test_isolation(self, capsys):
        assert main(["run", "435.gromacs"] + self.ARGS) == 0
        out = capsys.readouterr().out
        assert "isolation" in out
        assert "IPC" in out

    def test_pinte(self, capsys):
        assert main(["run", "470.lbm", "--p-induce", "0.5"] + self.ARGS) == 0
        out = capsys.readouterr().out
        assert "pinte(0.5)" in out

    def test_periodic_mode(self, capsys):
        assert main(["run", "638.imagick", "--p-induce", "1.0",
                     "--periodic"] + self.ARGS) == 0

    def test_dram_background(self, capsys):
        assert main(["run", "470.lbm", "--p-induce", "0.3",
                     "--dram-background", "50"] + self.ARGS) == 0

    def test_versus(self, capsys):
        assert main(["run", "470.lbm", "--versus", "450.soplex"]
                    + self.ARGS) == 0
        out = capsys.readouterr().out
        assert "470.lbm+450.soplex" in out

    def test_versus_with_p_induce_is_hybrid(self, capsys):
        assert main(["run", "470.lbm", "--versus", "450.soplex",
                     "--p-induce", "0.3"] + self.ARGS) == 0
        out = capsys.readouterr().out
        # The hybrid label: co-runner AND induction probability together.
        assert "470.lbm+450.soplex@pinte(0.3)" in out

    def test_unknown_workload(self):
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["run", "999.bogus"] + self.ARGS)

    def test_unknown_machine_rejected(self):
        with pytest.raises(SystemExit, match="unknown machine config"):
            main(["run", "470.lbm", "--machine", "cray"])

    def test_unknown_machine_suggests_candidates(self):
        with pytest.raises(SystemExit, match="did you mean"):
            main(["run", "470.lbm", "--machine", "scalde"])


class TestRunObservability:
    ARGS = ["--instructions", "3000", "--warmup", "500"]

    def test_json_to_stdout_suppresses_table(self, capsys):
        assert main(["run", "435.gromacs", "--json", "-"] + self.ARGS) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)  # the whole stdout is one JSON document
        assert payload["trace_name"] == "435.gromacs"
        assert payload["instructions"] == 3000
        assert payload["samples"]  # serialised samples ride along

    def test_json_to_file_keeps_table(self, tmp_path, capsys):
        output = tmp_path / "result.json"
        assert main(["run", "435.gromacs", "--json", str(output)]
                    + self.ARGS) == 0
        out = capsys.readouterr().out
        assert "IPC" in out  # human table still printed
        payload = json.loads(output.read_text())
        assert payload["mode"] == "isolation"

    def test_json_roundtrips_through_serialize(self, tmp_path):
        from repro.sim.serialize import result_from_dict

        output = tmp_path / "result.json"
        assert main(["run", "470.lbm", "--p-induce", "0.5",
                     "--json", str(output)] + self.ARGS) == 0
        result = result_from_dict(json.loads(output.read_text()))
        assert result.mode == "pinte"
        assert result.p_induce == 0.5

    def test_metrics_dump(self, capsys):
        assert main(["run", "470.lbm", "--p-induce", "0.5",
                     "--metrics", "-"] + self.ARGS) == 0
        out = capsys.readouterr().out
        assert "llc.miss " in out
        assert "pinte.theft " in out
        assert "core0.ipc " in out

    def test_events_and_chrome_trace(self, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        chrome_path = tmp_path / "chrome.json"
        assert main(["run", "470.lbm", "--p-induce", "0.5",
                     "--events", str(events_path),
                     "--chrome-trace", str(chrome_path)] + self.ARGS) == 0
        out = capsys.readouterr().out
        assert "events to" in out

        from repro.obs import load_events_jsonl

        events, meta = load_events_jsonl(events_path)
        assert events
        assert meta["recorded"] == len(events) + meta["dropped"]

        document = json.loads(chrome_path.read_text())
        phase_names = {e["name"] for e in document["traceEvents"]
                       if e["ph"] == "X"}
        assert {"trace-gen", "warmup", "simulate", "report"} <= phase_names

    def test_event_capacity_bounds_the_log(self, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        assert main(["run", "470.lbm", "--p-induce", "0.5",
                     "--events", str(events_path),
                     "--event-capacity", "64"] + self.ARGS) == 0
        out = capsys.readouterr().out
        assert "dropped past capacity" in out
        from repro.obs import load_events_jsonl

        events, meta = load_events_jsonl(events_path)
        assert len(events) == 64
        assert meta["dropped"] > 0


class TestObsCommand:
    def _write_log(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        assert main(["run", "470.lbm", "--p-induce", "0.5",
                     "--events", str(events_path),
                     "--instructions", "3000", "--warmup", "500"]) == 0
        return events_path

    def test_summarises_log(self, tmp_path, capsys):
        events_path = self._write_log(tmp_path)
        capsys.readouterr()
        assert main(["obs", str(events_path), "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "theft" in out
        assert "hottest sets" in out
        assert "heatmap" in out

    def test_kind_filter(self, tmp_path, capsys):
        events_path = self._write_log(tmp_path)
        capsys.readouterr()
        assert main(["obs", str(events_path), "--kinds", "fill"]) == 0
        out = capsys.readouterr().out
        assert "(fill)" in out

    def test_empty_log(self, tmp_path, capsys):
        events_path = tmp_path / "empty.jsonl"
        events_path.write_text("")
        assert main(["obs", str(events_path)]) == 0
        out = capsys.readouterr().out
        assert "0 events" in out


class TestSweep:
    def test_sweep_classifies(self, capsys):
        assert main(["sweep", "453.povray", "--p-induce", "0.1", "0.9",
                     "--instructions", "3000", "--warmup", "500"]) == 0
        out = capsys.readouterr().out
        assert "weighted IPC" in out
        assert "sensitivity: LOW" in out

    def test_sensitive_workload_flagged(self, capsys):
        assert main(["sweep", "470.lbm", "--p-induce", "0.2", "0.6", "1.0",
                     "--instructions", "6000", "--warmup", "1500"]) == 0
        out = capsys.readouterr().out
        assert "sensitivity: HIGH" in out


class TestCharacterize:
    def test_runs(self, capsys):
        assert main(["characterize", "453.povray", "--instructions", "6000",
                     "--warmup", "2000"]) == 0
        out = capsys.readouterr().out
        assert "Declared" in out
        assert "core_bound" in out


class TestMrc:
    def test_curve_monotone(self, capsys):
        assert main(["mrc", "470.lbm", "--length", "8000"]) == 0
        out = capsys.readouterr().out
        assert "Miss rate" in out
        assert "working-set knee" in out

    def test_core_bound_tiny_knee(self, capsys):
        assert main(["mrc", "453.povray", "--length", "8000"]) == 0
        out = capsys.readouterr().out
        assert "knee" in out


class TestPartitionStudyCommand:
    def test_runs(self, capsys):
        assert main(["partition-study", "--instructions", "6000",
                     "--warmup", "1500"]) == 0
        out = capsys.readouterr().out
        assert "Partitioning study" in out
        assert "casht" in out

    def test_victim_and_aggressor(self, capsys):
        assert main(["partition-study", "--victim", "605.mcf",
                     "--aggressor", "429.mcf", "--instructions", "3000",
                     "--warmup", "500"]) == 0
        out = capsys.readouterr().out
        assert "605.mcf (victim) vs 429.mcf (aggressor)" in out

    def test_unknown_victim_is_one_line_error(self):
        with pytest.raises(SystemExit, match="^repro: unknown workload"):
            main(["partition-study", "--victim", "999.nope"])


class TestScaleFlags:
    @pytest.mark.parametrize("argv, message", [
        (["reproduce", "--instructions", "0"],
         "repro: --instructions must be >= 1, got 0"),
        (["run", "470.lbm", "--instructions", "-5"],
         "repro: --instructions must be >= 1, got -5"),
        (["run", "470.lbm", "--warmup", "-5"],
         "repro: --warmup must be >= 0, got -5"),
        (["artifact", "plan", "fig1", "--panel", "-3"],
         "repro: --panel must be >= 0, got -3"),
        (["campaign", "run", "--store", "unused.jsonl", "--workloads",
          "470.lbm", "--panel", "-1"],
         "repro: --panel must be >= 0, got -1"),
    ])
    def test_out_of_range_is_one_line_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert str(info.value.code) == message
        assert capsys.readouterr().out == ""


class TestTrace:
    def test_writes_trace(self, tmp_path, capsys):
        output = tmp_path / "out.trace.gz"
        assert main(["trace", "build", "435.gromacs", str(output),
                     "--length", "2000"]) == 0
        trace = read_trace(output)
        assert len(trace) == 2000
        assert trace.name == "435.gromacs"

    def test_legacy_format_flag_removed(self, tmp_path, capsys):
        output = tmp_path / "legacy.trace.gz"
        with pytest.raises(SystemExit) as excinfo:
            main(["trace", "build", "435.gromacs", str(output),
                  "--length", "500", "--format", "1"])
        assert excinfo.value.code == 2
        assert "--format" in capsys.readouterr().err
        assert not output.exists()

    def test_info_reports_counts(self, tmp_path, capsys):
        output = tmp_path / "out.trace.gz"
        main(["trace", "build", "470.lbm", str(output), "--length", "1000"])
        capsys.readouterr()
        assert main(["trace", "info", str(output)]) == 0
        out = capsys.readouterr().out
        assert "470.lbm" in out
        assert "1000" in out
        assert "PNTR2" in out

    def test_cache_prime_ls_clear(self, tmp_path, capsys):
        store_dir = tmp_path / "store"
        assert main(["trace", "cache", "prime", "--dir", str(store_dir),
                     "--workloads", "470.lbm", "429.mcf",
                     "--length", "1000"]) == 0
        assert "2 generated" in capsys.readouterr().out
        # Second prime reuses everything.
        assert main(["trace", "cache", "prime", "--dir", str(store_dir),
                     "--workloads", "470.lbm", "429.mcf",
                     "--length", "1000"]) == 0
        assert "2 already cached" in capsys.readouterr().out
        assert main(["trace", "cache", "ls", "--dir", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "470.lbm" in out and "429.mcf" in out
        assert main(["trace", "cache", "clear", "--dir", str(store_dir)]) == 0
        assert "removed 2" in capsys.readouterr().out


class TestCampaignCommands:
    ARGS = ["--instructions", "2000", "--warmup", "500"]

    def _store(self, tmp_path):
        return str(tmp_path / "results.jsonl")

    def test_run_writes_store_and_manifests(self, tmp_path, capsys):
        store = self._store(tmp_path)
        assert main(["campaign", "run", "--store", store,
                     "--workloads", "435.gromacs", "453.povray",
                     "--p-induce", "0.5", "--processes", "1"]
                    + self.ARGS) == 0
        out = capsys.readouterr().out
        assert "campaign summary" in out
        assert "executed" in out
        assert (tmp_path / "results.jsonl").exists()
        assert (tmp_path / "results.manifest.json").exists()
        assert (tmp_path / "results.failures.json").exists()
        manifest = json.loads((tmp_path / "results.manifest.json").read_text())
        assert len(manifest["jobs"]) == 4  # 2 isolation + 2 pinte

    def test_injected_failure_reported_not_fatal(self, tmp_path, capsys):
        store = self._store(tmp_path)
        assert main(["campaign", "run", "--store", store,
                     "--workloads", "435.gromacs",
                     "--inject", "raise", "--retries", "2",
                     "--backoff", "0.01", "--processes", "1"]
                    + self.ARGS) == 0
        out = capsys.readouterr().out
        assert "retrying" in out
        assert "FAILED" in out and "InjectedFault" in out

    def test_strict_exit_code_on_failure(self, tmp_path, capsys):
        store = self._store(tmp_path)
        assert main(["campaign", "run", "--store", store,
                     "--workloads", "435.gromacs",
                     "--inject", "raise", "--retries", "1",
                     "--strict", "--processes", "1"] + self.ARGS) == 1

    def test_status_and_resume_flow(self, tmp_path, capsys):
        store = self._store(tmp_path)
        # Shard 0/2 first — the campaign is deliberately left incomplete.
        assert main(["campaign", "run", "--store", store,
                     "--workloads", "435.gromacs", "453.povray",
                     "--p-induce", "0.5", "--shard", "0/2",
                     "--processes", "1"] + self.ARGS) == 0
        capsys.readouterr()
        assert main(["campaign", "status", store]) == 0
        out = capsys.readouterr().out
        assert "campaign jobs" in out and "pending" in out
        assert "0/2" in out

        assert main(["campaign", "resume", store, "--processes", "1"]) == 0
        capsys.readouterr()
        assert main(["campaign", "status", store]) == 0
        out = capsys.readouterr().out
        contents_done = [line for line in out.splitlines()
                         if "completed" in line]
        assert contents_done and "4" in contents_done[0]
        assert any("pending" in line and "0" in line
                   for line in out.splitlines())

    def test_resume_without_manifest_fails(self, tmp_path):
        store = tmp_path / "results.jsonl"
        store.write_text("")
        with pytest.raises(SystemExit, match="manifest"):
            main(["campaign", "resume", str(store)])

    def test_status_missing_manifest_still_reports(self, tmp_path, capsys):
        store = self._store(tmp_path)
        assert main(["campaign", "run", "--store", store,
                     "--workloads", "435.gromacs", "--processes", "1"]
                    + self.ARGS) == 0
        (tmp_path / "results.manifest.json").unlink()
        capsys.readouterr()
        assert main(["campaign", "status", store]) == 0
        out = capsys.readouterr().out
        assert "missing" in out

    def test_status_missing_store_is_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="no result store"):
            main(["campaign", "status", str(tmp_path / "nothing.jsonl")])

    def test_watch_missing_store_is_clean_error(self, tmp_path):
        with pytest.raises(SystemExit, match="no result store"):
            main(["campaign", "watch", str(tmp_path / "nothing.jsonl"),
                  "--iterations", "1"])

    def test_status_empty_orphan_store_is_clean_error(self, tmp_path):
        """An empty file with no manifest cannot be a campaign store."""
        store = tmp_path / "orphan.jsonl"
        store.write_text("")
        with pytest.raises(SystemExit, match="empty"):
            main(["campaign", "status", str(store)])

    def test_legacy_executor_manifest_resumes(self, tmp_path, capsys):
        """Older manifests recorded an executor; resume ignores the key."""
        store = self._store(tmp_path)
        assert main(["campaign", "run", "--store", store,
                     "--workloads", "435.gromacs", "453.povray",
                     "--shard", "0/2", "--processes", "2"]
                    + self.ARGS) == 0
        manifest_path = tmp_path / "results.manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert "executor" not in manifest
        manifest["executor"] = 'spawn'  # a value older versions wrote
        manifest_path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["campaign", "resume", store, "--processes", "2",
                     "--strict"]) == 0
        out = capsys.readouterr().out
        assert "campaign summary" in out
        contents = ResultStore(store).load()
        assert len(contents.results) == 2 and not contents.failures

    @pytest.mark.parametrize("limits, message", [
        (["--timeout", "0", "--processes", "2"],
         "repro: timeout must be > 0 seconds, got 0.0"),
        (["--processes", "-3"], "repro: processes must be >= 1, got -3"),
        (["--processes", "0", "--timeout", "-1"],
         "repro: processes must be >= 1, got 0; "
         "timeout must be > 0 seconds, got -1.0"),
    ])
    def test_bad_limits_are_one_line_errors(self, tmp_path, limits,
                                            message):
        store = self._store(tmp_path)
        with pytest.raises(SystemExit) as info:
            main(["campaign", "run", "--store", store,
                  "--workloads", "435.gromacs", "453.povray"]
                 + limits + self.ARGS)
        assert str(info.value.code) == message
        assert not (tmp_path / "results.jsonl").exists()
        assert not (tmp_path / "results.manifest.json").exists()

    def test_bad_limits_on_resume_are_one_line_errors(self, tmp_path,
                                                     capsys):
        store = self._store(tmp_path)
        assert main(["campaign", "run", "--store", store,
                     "--workloads", "435.gromacs", "--processes", "1"]
                    + self.ARGS) == 0
        with pytest.raises(SystemExit,
                           match="^repro: processes must be >= 1, got 0$"):
            main(["campaign", "resume", store, "--processes", "0"])


class TestArtifactCommands:
    ARGS = ["--instructions", "2000", "--warmup", "500", "--panel", "1"]

    def test_ls_lists_all_thirteen(self, capsys):
        assert main(["artifact", "ls"]) == 0
        out = capsys.readouterr().out
        assert "13 registered artifacts" in out
        for name in ("table1", "fig11", "ncore_study", "partition_study"):
            assert name in out

    def test_plan_reports_dedup(self, capsys):
        assert main(["artifact", "plan", "table1", "fig1"] + self.ARGS) == 0
        out = capsys.readouterr().out
        assert "dedup ratio" in out
        assert "2.00x" in out  # two artifacts sharing one bundle plan

    def test_plan_defaults_to_all_artifacts(self, capsys):
        assert main(["artifact", "plan"] + self.ARGS) == 0
        out = capsys.readouterr().out
        assert "13 artifact(s)" in out

    def test_run_renders_selected_artifact(self, tmp_path, capsys):
        output = tmp_path / "reports"
        assert main(["artifact", "run", "fig1", "--output", str(output),
                     "--suite", "quick"] + self.ARGS) == 0
        out = capsys.readouterr().out
        assert "[fig1]" in out
        assert "dedup" in out
        assert (output / "fig1.txt").read_text().strip()

    def test_run_with_store_then_resume_executes_nothing(self, tmp_path,
                                                         capsys):
        store = tmp_path / "artifact.jsonl"
        assert main(["artifact", "run", "fig1", "--store", str(store)]
                    + self.ARGS) == 0
        first = capsys.readouterr().out
        assert "skipped 0 (resume)" in first
        assert main(["artifact", "run", "fig1", "--store", str(store),
                     "--resume"] + self.ARGS) == 0
        second = capsys.readouterr().out
        assert "executed 0 job(s)" in second

    def test_unknown_artifact_rejected(self):
        with pytest.raises(KeyError, match="unknown artifact"):
            main(["artifact", "plan", "fig99"] + self.ARGS)


class TestReproduceResume:
    ARGS = ["--instructions", "2000", "--warmup", "500", "--panel", "1",
            "--artifacts", "fig1"]

    def test_store_resume_roundtrip(self, tmp_path, capsys):
        store = tmp_path / "repro.jsonl"
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["reproduce", "--store", str(store),
                     "--output", str(out_a)] + self.ARGS) == 0
        capsys.readouterr()
        assert main(["reproduce", "--store", str(store), "--resume",
                     "--output", str(out_b)] + self.ARGS) == 0
        capsys.readouterr()
        assert ((out_a / "fig1.txt").read_text()
                == (out_b / "fig1.txt").read_text())

    def test_store_without_resume_refuses_overwrite(self, tmp_path, capsys):
        store = tmp_path / "repro.jsonl"
        assert main(["reproduce", "--store", str(store)] + self.ARGS) == 0
        capsys.readouterr()
        with pytest.raises(FileExistsError):
            main(["reproduce", "--store", str(store)] + self.ARGS)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_help_builds(self):
        parser = build_parser()
        assert parser.prog == "repro"

    def test_bench_command_removed(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bench"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestCampaignTelemetryCommands:
    ARGS = ["--instructions", "2000", "--warmup", "500"]

    def run_with_telemetry(self, tmp_path, capsys):
        store = str(tmp_path / "results.jsonl")
        assert main(["campaign", "run", "--store", store,
                     "--workloads", "435.gromacs", "453.povray",
                     "--telemetry", "0.05", "--processes", "2",
                     "--retries", "2", "--backoff", "0.01"]
                    + self.ARGS) == 0
        capsys.readouterr()
        return store

    def test_run_records_telemetry_and_spools(self, tmp_path, capsys):
        store = self.run_with_telemetry(tmp_path, capsys)
        manifest = json.loads((tmp_path / "results.manifest.json").read_text())
        assert manifest["telemetry_interval"] == 0.05
        spools = sorted((tmp_path / "results.telemetry").glob("*.jsonl"))
        job_spools = [s for s in spools if not s.stem.startswith("_")]
        assert len(job_spools) == 2
        # The pool executor adds its own scheduler-gauge pseudo-spool.
        assert (tmp_path / "results.telemetry" / "_pool.jsonl") in spools

    def test_status_shows_spools_and_failure_classes(self, tmp_path, capsys):
        store = self.run_with_telemetry(tmp_path, capsys)
        assert main(["campaign", "status", store]) == 0
        out = capsys.readouterr().out
        assert "telemetry spools" in out

    def test_status_failure_breakdown(self, tmp_path, capsys):
        store = str(tmp_path / "results.jsonl")
        assert main(["campaign", "run", "--store", store,
                     "--workloads", "435.gromacs", "--inject", "raise",
                     "--retries", "2", "--backoff", "0.01",
                     "--processes", "1"] + self.ARGS) == 0
        capsys.readouterr()
        assert main(["campaign", "status", store]) == 0
        out = capsys.readouterr().out
        assert "failures: error" in out
        assert "retries exhausted" in out

    def test_status_surfaces_torn_tail(self, tmp_path, capsys):
        store = self.run_with_telemetry(tmp_path, capsys)
        with open(store, "a") as handle:
            handle.write('{"kind": "result", "job_id": "tor')
        assert main(["campaign", "status", store]) == 0
        out = capsys.readouterr().out
        assert "torn trailing lines repaired" in out

    def test_status_follow(self, tmp_path, capsys):
        store = self.run_with_telemetry(tmp_path, capsys)
        assert main(["campaign", "status", store, "--follow",
                     "--interval", "0.01", "--iterations", "3"]) == 0
        out = capsys.readouterr().out
        # Complete campaign: the loop stops after the first line.
        assert out.count("\n") == 1
        assert "2/2 done" in out

    def test_watch_frames(self, tmp_path, capsys):
        store = self.run_with_telemetry(tmp_path, capsys)
        assert main(["campaign", "watch", store, "--iterations", "1",
                     "--no-clear"]) == 0
        out = capsys.readouterr().out
        assert "campaign watch" in out
        assert "2/2 done" in out
        assert "campaign complete." in out

    def test_timeline_export(self, tmp_path, capsys):
        store = self.run_with_telemetry(tmp_path, capsys)
        output = tmp_path / "timeline.json"
        assert main(["campaign", "timeline", store, "-o", str(output)]) == 0
        document = json.loads(output.read_text())
        assert document["traceEvents"]

    def test_timeline_without_telemetry_exits(self, tmp_path, capsys):
        store = str(tmp_path / "bare.jsonl")
        assert main(["campaign", "run", "--store", store,
                     "--workloads", "435.gromacs", "--processes", "1"]
                    + self.ARGS) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="telemetry"):
            main(["campaign", "timeline", store, "-o",
                  str(tmp_path / "out.json")])

    def test_resume_inherits_manifest_telemetry(self, tmp_path, capsys):
        store = str(tmp_path / "results.jsonl")
        assert main(["campaign", "run", "--store", store,
                     "--workloads", "435.gromacs", "453.povray",
                     "--telemetry", "0.05", "--shard", "0/2",
                     "--processes", "1"] + self.ARGS) == 0
        capsys.readouterr()
        assert main(["campaign", "resume", store, "--processes", "1"]) == 0
        capsys.readouterr()
        spools = sorted((tmp_path / "results.telemetry").glob("*.jsonl"))
        assert len(spools) == 2  # the resumed job spooled too


class TestComponentsCommand:
    def test_ls_shows_every_registry_kind(self, capsys):
        assert main(["components", "ls"]) == 0
        out = capsys.readouterr().out
        for kind in ("replacement policy", "partition scheme", "prefetcher",
                     "branch predictor", "workload", "machine config"):
            assert kind in out
        assert "scaled@replacement=nmru" in out  # fig11 variants enumerated
        # Introspected capability column: nmru takes a seed, lru doesn't.
        nmru = [line for line in out.splitlines()
                if line.split() and "nmru" == line.split()[2]]
        assert nmru and "seed" in nmru[0]

    def test_kind_filter(self, capsys):
        assert main(["components", "ls", "--kind", "prefetcher"]) == 0
        out = capsys.readouterr().out
        assert "ip_stride" in out
        assert "machine config" not in out

    def test_unknown_kind_exits_nonzero(self, capsys):
        assert main(["components", "ls", "--kind", "flux-capacitor"]) == 1


class TestConfigCommands:
    def test_show_emits_parseable_canonical_toml(self, capsys):
        from repro.configio import machine_from_toml
        from repro.configs import get_machine_config

        assert main(["config", "show", "scaled"]) == 0
        out = capsys.readouterr().out
        assert machine_from_toml(out) == get_machine_config("scaled")

    def test_show_variant_to_file_then_run_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.toml"
        assert main(["config", "show", "scaled@inclusion=exclusive",
                     "-o", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["run", "435.gromacs", "--config", str(cfg),
                     "--instructions", "2000", "--warmup", "500"]) == 0
        assert "IPC" in capsys.readouterr().out

    def test_run_config_matches_machine_byte_for_byte(self, tmp_path,
                                                      capsys):
        """The acceptance check: preset path == TOML round-trip path."""
        cfg = tmp_path / "cfg.toml"
        args = ["run", "470.lbm", "--instructions", "2000", "--warmup", "500"]
        assert main(["config", "show", "scaled", "-o", str(cfg)]) == 0
        capsys.readouterr()
        assert main(args + ["--machine", "scaled"]) == 0
        via_preset = capsys.readouterr().out
        assert main(args + ["--config", str(cfg)]) == 0
        assert capsys.readouterr().out == via_preset

    def test_validate_mixed_files(self, tmp_path, capsys):
        good = tmp_path / "good.toml"
        assert main(["config", "show", "xeon", "-o", str(good)]) == 0
        bad = tmp_path / "bad.toml"
        bad.write_text('schema = 1\nname = "x"\nwarp_drive = true\n')
        capsys.readouterr()
        assert main(["config", "validate", str(good)]) == 0
        assert main(["config", "validate", str(good), str(bad)]) == 1
        out = capsys.readouterr().out
        assert "ok" in out and "FAIL" in out and "warp_drive" in out

    def test_diff_reports_fields_and_exit_code(self, capsys):
        assert main(["config", "diff", "scaled", "scaled"]) == 0
        assert "identical" in capsys.readouterr().out
        assert main(["config", "diff", "scaled", "xeon"]) == 1
        out = capsys.readouterr().out
        assert "llc.size" in out

    def test_bad_config_file_is_clean_error(self, tmp_path):
        cfg = tmp_path / "broken.toml"
        cfg.write_text('name = "x"\n')  # missing schema tag
        with pytest.raises(SystemExit, match="schema"):
            main(["run", "470.lbm", "--config", str(cfg),
                  "--instructions", "2000", "--warmup", "500"])


class TestPluginFlag:
    PLUGIN = "examples/plugin_policy.py"

    def test_plugin_registers_component(self, capsys):
        assert main(["--plugin", self.PLUGIN, "components", "ls",
                     "--kind", "replacement"]) == 0
        assert "fifo" in capsys.readouterr().out

    def test_plugin_config_end_to_end(self, capsys):
        assert main(["--plugin", self.PLUGIN, "run", "435.gromacs",
                     "--config", "examples/fifo_scaled.toml",
                     "--instructions", "2000", "--warmup", "500"]) == 0
        assert "scaled-fifo" in capsys.readouterr().out

    def test_missing_plugin_is_clean_error(self):
        with pytest.raises(SystemExit, match="--plugin"):
            main(["--plugin", "no/such/plugin.py", "list"])

    def test_campaign_records_and_replays_plugin(self, tmp_path, capsys):
        store = str(tmp_path / "results.jsonl")
        assert main(["--plugin", self.PLUGIN, "campaign", "run",
                     "--store", store, "--workloads", "435.gromacs",
                     "--config", "examples/fifo_scaled.toml",
                     "--processes", "1", "--shard", "0/2",
                     "--instructions", "2000", "--warmup", "500"]) == 0
        manifest = json.loads(
            (tmp_path / "results.manifest.json").read_text())
        assert manifest["plugins"] == [self.PLUGIN]
        assert manifest["machine_preset"] == "scaled-fifo"
        assert manifest["machine_config"]["llc"]["policy"] == "fifo"
        capsys.readouterr()
        # Resume replays the plugin from the manifest (no --plugin here)
        # and rebuilds the machine from the canonical machine_config.
        assert main(["campaign", "resume", store, "--processes", "1"]) == 0
        capsys.readouterr()
        assert main(["campaign", "status", store]) == 0
        out = capsys.readouterr().out
        assert any("pending" in line and " 0" in line
                   for line in out.splitlines())


class TestCampaignIdSchemeGate:
    def test_resume_against_v2_store_fails_loudly(self, tmp_path, capsys):
        store = tmp_path / "results.jsonl"
        assert main(["campaign", "run", "--store", str(store),
                     "--workloads", "435.gromacs", "--processes", "1",
                     "--instructions", "2000", "--warmup", "500"]) == 0
        lines = store.read_text().splitlines()
        header = json.loads(lines[0])
        header["id_scheme"] = "pinte-job-v2"
        store.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        capsys.readouterr()
        with pytest.raises(ValueError,
                           match="pinte-job-v2.*cannot be matched"):
            main(["campaign", "resume", str(store), "--processes", "1"])
