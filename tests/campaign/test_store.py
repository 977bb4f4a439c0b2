"""Tests for the JSONL result store and campaign/failure manifests."""

import dataclasses
import json
import os
import tempfile
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.ids import job_id
from repro.campaign.store import (
    FAILURES_FORMAT,
    MANIFEST_FORMAT,
    STORE_FORMAT,
    ResultStore,
    failures_path_for,
    load_campaign_manifest,
    manifest_path_for,
    write_campaign_manifest,
    write_failure_manifest,
)
from repro.sim import ExperimentScale
from repro.sim.batch import Job, run_job

TINY = ExperimentScale(warmup_instructions=500, sim_instructions=2_000,
                       sample_interval=500)


@pytest.fixture(scope="module")
def result(config):
    return run_job(Job("435.gromacs"), config, TINY)


@pytest.fixture()
def store(tmp_path):
    return ResultStore(tmp_path / "results.jsonl")


class TestResultStore:
    def test_missing_file_loads_empty(self, store):
        contents = store.load()
        assert contents.results == {} and contents.failures == {}
        assert not store.exists()

    def test_header_written_once(self, store):
        store.ensure_header({"note": "first"})
        store.ensure_header({"note": "second"})
        lines = store.path.read_text().strip().split("\n")
        assert len(lines) == 1
        header = store.load().header
        assert header["format"] == STORE_FORMAT
        assert header["note"] == "first"

    def test_result_round_trip(self, store, config, result):
        job = Job("435.gromacs")
        jid = job_id(job, config, TINY)
        store.ensure_header()
        store.append_result(jid, job, result, attempts=2,
                            wall_time_seconds=1.5)
        contents = store.load()
        assert list(contents.results) == [jid]
        assert contents.results[jid]["attempts"] == 2
        assert contents.job_for(jid) == job
        loaded = contents.result_objects()[jid]
        assert loaded.trace_name == result.trace_name
        assert loaded.ipc == result.ipc
        assert loaded.thefts_experienced == result.thefts_experienced

    def test_failure_round_trip(self, store):
        job = Job("__fault:raise")
        store.append_failure("deadbeef00000000", job,
                             {"kind": "error", "error_type": "InjectedFault",
                              "message": "boom", "traceback": "tb",
                              "attempts": 3})
        contents = store.load()
        failure = contents.failures["deadbeef00000000"]
        assert failure["failure"]["error_type"] == "InjectedFault"
        assert contents.job_for("deadbeef00000000") == job

    def test_later_result_supersedes_failure(self, store, config, result):
        job = Job("435.gromacs")
        jid = job_id(job, config, TINY)
        store.append_failure(jid, job, {"kind": "timeout", "attempts": 3,
                                        "error_type": "JobTimeout",
                                        "message": "", "traceback": ""})
        store.append_result(jid, job, result, attempts=1,
                            wall_time_seconds=0.1)
        contents = store.load()
        assert jid in contents.results
        assert jid not in contents.failures

    def test_truncated_final_line_tolerated(self, store, config, result):
        job = Job("435.gromacs")
        jid = job_id(job, config, TINY)
        store.append_result(jid, job, result, attempts=1,
                            wall_time_seconds=0.1)
        with open(store.path, "a") as handle:
            handle.write('{"kind": "result", "job_id": "tru')  # SIGKILLed
        contents = store.load()
        assert contents.truncated_lines == 1
        assert list(contents.results) == [jid]

    def test_append_after_truncation_repairs_tail(self, store, config,
                                                  result):
        """Appending over a SIGKILL-truncated tail must not corrupt the
        store mid-file — the partial line is dropped first."""
        job = Job("435.gromacs")
        jid = job_id(job, config, TINY)
        store.ensure_header()
        with open(store.path, "a") as handle:
            handle.write('{"kind": "result", "job_id": "tru')
        store.append_result(jid, job, result, attempts=1,
                            wall_time_seconds=0.1)
        contents = store.load()  # no mid-file corruption error
        assert contents.truncated_lines == 0
        assert list(contents.results) == [jid]

    def test_mid_file_corruption_raises(self, store, config, result):
        store.path.parent.mkdir(parents=True, exist_ok=True)
        store.path.write_text('not json\n{"kind": "header", '
                              f'"format": "{STORE_FORMAT}"}}\n')
        with pytest.raises(ValueError, match="corrupt store record"):
            store.load()

    def test_foreign_format_rejected(self, store):
        store.path.parent.mkdir(parents=True, exist_ok=True)
        store.path.write_text('{"kind": "header", "format": "other-v9"}\n')
        with pytest.raises(ValueError, match="not a pinte-campaign"):
            store.load()

    def test_unknown_record_kind_rejected(self, store):
        store.path.parent.mkdir(parents=True, exist_ok=True)
        store.path.write_text('{"kind": "mystery"}\n\n')
        with pytest.raises(ValueError, match="unknown record kind"):
            store.load()


class TestManifests:
    def test_paths_derive_from_store_stem(self, tmp_path):
        store_path = tmp_path / "run7.jsonl"
        assert manifest_path_for(store_path) == tmp_path / "run7.manifest.json"
        assert failures_path_for(store_path) == tmp_path / "run7.failures.json"

    def test_campaign_manifest_round_trip(self, tmp_path, config):
        jobs = [Job("470.lbm"),
                Job("470.lbm", mode="pinte", p_induce=0.5)]
        path = write_campaign_manifest(
            tmp_path / "results.jsonl", jobs, config, TINY,
            machine_preset="scaled", retry={"max_attempts": 3},
            timeout_seconds=60.0, shard=(1, 4), processes=2)
        document = load_campaign_manifest(path)
        assert document["format"] == MANIFEST_FORMAT
        assert document["jobs"] == jobs  # deserialised back into Job objects
        assert document["scale"] == TINY
        assert document["shard"] == [1, 4]
        assert document["timeout_seconds"] == 60.0

    def test_campaign_manifest_foreign_format_rejected(self, tmp_path):
        path = tmp_path / "x.manifest.json"
        path.write_text(json.dumps({"format": "nope"}))
        with pytest.raises(ValueError, match="not a pinte-campaign-manifest"):
            load_campaign_manifest(path)

    def test_failure_manifest_always_written(self, tmp_path):
        path = write_failure_manifest(tmp_path / "results.jsonl", [])
        document = json.loads(path.read_text())
        assert document["format"] == FAILURES_FORMAT
        assert document["count"] == 0 and document["failures"] == []


class TestRepairedTailCounter:
    def test_counts_each_repair(self, store, config, result):
        job = Job("435.gromacs")
        jid = job_id(job, config, TINY)
        assert store.repaired_tails == 0
        store.ensure_header()
        assert store.repaired_tails == 0  # clean appends repair nothing
        with open(store.path, "a") as handle:
            handle.write('{"kind": "result", "job_id": "tru')
        store.append_result(jid, job, result, attempts=1,
                            wall_time_seconds=0.1)
        assert store.repaired_tails == 1
        with open(store.path, "a") as handle:
            handle.write("torn again")
        store.append_failure(jid, job, {"kind": "error", "error_type": "E",
                                        "message": "m", "traceback": "",
                                        "attempts": 1})
        assert store.repaired_tails == 2

    def test_whole_unterminated_record_survives_next_append(self, store,
                                                           config, result):
        """A complete record that lost only its newline is counted by
        load(); the next append must keep it, not truncate it away."""
        job = Job("435.gromacs")
        jid = job_id(job, config, TINY)
        store.ensure_header()
        store.append_result(jid, job, result, attempts=1,
                            wall_time_seconds=0.1)
        store.path.write_bytes(store.path.read_bytes()[:-1])
        assert list(ResultStore(store.path).load().results) == [jid]
        store.append_failure("feedface00000000", Job("__fault:raise"),
                             {"kind": "error", "error_type": "E",
                              "message": "m", "traceback": "",
                              "attempts": 1})
        assert store.repaired_tails == 1
        contents = ResultStore(store.path).load()
        assert contents.truncated_lines == 0
        assert list(contents.results) == [jid]
        assert list(contents.failures) == ["feedface00000000"]

    def test_telemetry_dir_for_shares_stem(self, tmp_path):
        from repro.campaign.store import telemetry_dir_for

        store_path = tmp_path / "campaign" / "results.jsonl"
        assert (telemetry_dir_for(store_path)
                == tmp_path / "campaign" / "results.telemetry")

    def test_manifest_records_telemetry_interval(self, tmp_path, config):
        path = write_campaign_manifest(tmp_path / "results.jsonl",
                                       [Job("470.lbm")], config, TINY,
                                       telemetry_interval=0.25)
        document = json.loads(path.read_text())
        assert document["telemetry_interval"] == 0.25
        # And absent/off campaigns record null, not a missing key.
        path = write_campaign_manifest(tmp_path / "other.jsonl",
                                       [Job("470.lbm")], config, TINY)
        assert json.loads(path.read_text())["telemetry_interval"] is None


# -- the in-memory index -----------------------------------------------------

_JOBS = (Job("435.gromacs"), Job("470.lbm", mode="pinte", p_induce=0.5),
         Job("470.lbm", mode="multi", co_runners=("429.mcf", "605.mcf")),
         Job("__fault:raise"))

_STORE_OPS = st.lists(st.one_of(
    st.tuples(st.sampled_from(["result", "failure", "other-result",
                               "other-failure"]),
              st.integers(0, len(_JOBS) - 1)),
    st.tuples(st.sampled_from(["header", "load", "other-load"])),
    st.tuples(st.just("torn"), st.booleans()),
    st.tuples(st.sampled_from(["truncate", "replace"]),
              st.floats(0.0, 1.0)),
), max_size=25)


def _assert_index_is_file_prefix(store: ResultStore) -> None:
    """Right after a store's own read or write, its index must be exactly
    what a fresh store reads from the file's first indexed bytes."""
    data = store.path.read_bytes() if store.path.exists() else b""
    indexed = data[:store._offset]
    assert len(indexed) == store._offset
    assert indexed.endswith(b"\n") or not indexed
    prefix = store.path.with_suffix(".prefix")
    prefix.write_bytes(indexed)
    expected = ResultStore(prefix).load()
    assert store._index == expected


def _meddle(path: Path, kind: str, arg, step: int) -> None:
    """Change the store file behind every instance's back."""
    if kind == "torn":
        line = json.dumps({"kind": "failure", "job_id": f"torn{step}",
                           "job": {"workload": "x"}, "failure": {}})
        with open(path, "a") as handle:  # whole record, or half of one
            handle.write(line if arg else line[:len(line) // 2])
    elif path.exists():
        data = path.read_bytes()[:int(path.stat().st_size * arg)]
        if kind == "truncate":
            with open(path, "r+b") as handle:
                handle.truncate(len(data))
        else:
            replacement = path.with_suffix(".new")
            replacement.write_bytes(data)
            os.replace(replacement, path)


class TestStoreIndex:
    """One long-lived store must always read what a fresh one reads."""

    @settings(max_examples=100, deadline=None)
    @given(ops=_STORE_OPS)
    def test_long_lived_load_equals_fresh_load(self, result, ops):
        results = (result, dataclasses.replace(result, co_results=[result]))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "results.jsonl"
            mine, other = ResultStore(path), ResultStore(path)
            # Every append carries its own wall time, as real appends do:
            # the index check compares the last indexed line, so only a
            # byte-identical line at the same offset could hide a rewrite.
            for step, op in enumerate(ops):
                kind = op[0]
                if kind in ("torn", "truncate", "replace"):
                    _meddle(path, kind, op[1], step)
                    continue
                store = other if kind.startswith("other") else mine
                if kind.endswith("result"):
                    store.append_result(f"job{op[1]}", _JOBS[op[1]],
                                        results[op[1] % 2], attempts=1,
                                        wall_time_seconds=step / 8)
                elif kind.endswith("failure"):
                    store.append_failure(f"job{op[1]}", _JOBS[op[1]],
                                         {"kind": "error", "attempts": 2,
                                          "message": f"step {step}"})
                elif kind == "header":
                    if store.exists():
                        continue  # writes nothing, so checks nothing
                    store.ensure_header({"step": step})
                else:
                    assert store.load() == ResultStore(path).load()
                _assert_index_is_file_prefix(store)
            assert mine.load() == ResultStore(path).load()
            assert other.load() == ResultStore(path).load()

    def test_rewrite_over_indexed_bytes_forces_full_read(self, store,
                                                         result):
        """Same inode, at least as long, different bytes under the index:
        truncation and regrowth past the indexed offset must be seen."""
        store.ensure_header()
        store.append_result("job0", _JOBS[0], result, attempts=1,
                            wall_time_seconds=0.5)
        header_end = store.path.read_bytes().index(b"\n") + 1
        with open(store.path, "r+b") as handle:
            handle.truncate(header_end)
        # A co-result makes this line longer than job0's, so the file now
        # reaches past the offset the first store indexed.
        ResultStore(store.path).append_result(
            "job1", _JOBS[1], dataclasses.replace(result, co_results=[result]),
            attempts=1, wall_time_seconds=0.5)
        assert store.load() == ResultStore(store.path).load()
        assert list(store.load().results) == ["job1"]

    def test_reproduction_parses_each_line_at_most_once(self, tmp_path,
                                                         config,
                                                         monkeypatch):
        """Each campaign of a reproduction loads the store twice, and
        fig10 runs on its own machine, so this plan has two campaigns;
        one instance must not re-parse what it already read or wrote."""
        from repro.campaign import store as store_module
        from repro.experiments.reproduce import run_reproduction

        calls = []

        def counting_loads(text, *args, **kwargs):
            calls.append(text)
            return json.loads(text, *args, **kwargs)

        monkeypatch.setattr(store_module, "json", types.SimpleNamespace(
            loads=counting_loads, dumps=json.dumps,
            JSONDecodeError=json.JSONDecodeError))
        scale = ExperimentScale(warmup_instructions=200,
                                sim_instructions=600, sample_interval=200)
        path = tmp_path / "results.jsonl"

        def reproduce(**kwargs):
            calls.clear()
            run_reproduction(config=config, scale=scale,
                             suite=("435.gromacs", "470.lbm"),
                             p_values=(0.5,), panel_size=1,
                             artifacts=("fig1", "fig10"),
                             **kwargs)
            return path.read_bytes().count(b"\n")

        lines = reproduce(store=ResultStore(path))
        assert lines > 10 and len(calls) <= lines
        lines = reproduce(store=ResultStore(path), resume=True)
        assert len(calls) == lines  # a resume reads the store once, in full
        assert len(set(calls)) == len(calls)
