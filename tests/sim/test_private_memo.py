"""Private-stream memo (``repro.sim.private``): replays equal the lockstep walk.

A memoised job runs its cores' private stages once per stream key and
replays them through the shared LLC; every stored number must be exactly
what the job computes when it runs alone with no memo. Wall-clock fields
(``wall_time_seconds`` and ``*_seconds`` extras) are the only difference
allowed, as in :func:`repro.campaign.store.canonical_records`.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import run_campaign
from repro.campaign.store import ResultStore, canonical_records
from repro.config import scaled_config
from repro.configs import get_machine_config
from repro.core import PAPER_PINDUCE_SWEEP, PinteConfig
from repro.experiments import table1
from repro.experiments.registry import (
    PlanContext,
    bundle_from_results,
    execute_plan,
    plan_union,
)
from repro.experiments.reproduce import run_reproduction, select_artifacts
from repro.sim import ExperimentScale
from repro.sim.batch import Job, job_stream_keys, run_job
from repro.sim.multicore import simulate_pair
from repro.sim.simulator import simulate
from repro.sim.private import PrivateStream, PrivateStreamMemo
from repro.sim.serialize import result_to_dict
from repro.trace import build_trace, get_workload
from repro.trace.store import MemoryTraceStore

SCALE = ExperimentScale(warmup_instructions=150, sim_instructions=500,
                        sample_interval=70, seed=3)
#: 500 is no multiple of 70 or 150: the sampler's tail interval is short.
INTERVALS = (70, 150)
WORKLOADS = ("470.lbm", "450.soplex", "403.gcc", "453.povray")


#: Where a job's traces came from, not what it computed.
PROVENANCE = ("trace_cache_hits", "trace_cache_misses")


def comparable(result) -> dict:
    """A result without its wall-clock and trace-provenance fields,
    co-runners included."""
    payload = result_to_dict(result)

    def strip(entry: dict) -> dict:
        entry = dict(entry)
        entry.pop("wall_time_seconds", None)
        entry["extra"] = {key: value for key, value in entry["extra"].items()
                          if not key.endswith("_seconds")
                          and key not in PROVENANCE}
        entry["co_results"] = [strip(co) for co in entry.get("co_results",
                                                              [])]
        return entry

    return strip(payload)


def assert_replays_exactly(jobs, config, scale=SCALE):
    """Run ``jobs`` in order on one memo; each equals its lone run."""
    memo = PrivateStreamMemo()
    store = MemoryTraceStore()
    for job in jobs:
        replayed = run_job(job, config, scale, trace_store=store,
                           private_memo=memo)
        assert "phase_private_reused_seconds" in replayed.extra
        alone = run_job(job, config, scale, trace_store=store)
        assert "phase_private_seconds" not in alone.extra
        assert comparable(replayed) == comparable(alone), job
    return memo


def machine(policy: str, prefetch: str, predictor: str):
    base = scaled_config(prefetch)
    return replace(
        base,
        l1i=replace(base.l1i, policy=policy),
        l1d=replace(base.l1d, policy=policy),
        l2=replace(base.l2, policy=policy),
        core=replace(base.core, branch_predictor=predictor))


@settings(max_examples=12, deadline=None)
@given(policy=st.sampled_from(("lru", "rrip", "random")),
       prefetch=st.sampled_from(("000", "NN0", "NNN", "NNI")),
       predictor=st.sampled_from(("hashed_perceptron", "gshare")),
       workload=st.sampled_from(WORKLOADS),
       p_induce=st.sampled_from((0.05, 0.5, 1.0)),
       interval=st.sampled_from(INTERVALS))
def test_replayed_jobs_equal_lockstep(policy, prefetch, predictor, workload,
                                      p_induce, interval):
    # Isolation builds the stream, the PInTE run and the pair replay it.
    config = machine(policy, prefetch, predictor)
    scale = replace(SCALE, sample_interval=interval)
    co_runner = "470.lbm" if workload != "470.lbm" else "453.povray"
    assert_replays_exactly(
        [Job(workload), Job(workload, mode="pinte", p_induce=p_induce),
         Job(workload, mode="pair", co_runner=co_runner)], config, scale)


def test_co_runner_outgrows_its_stream():
    # povray retires far more instructions than lbm's budget while lbm
    # waits on DRAM: its stream grows past the first build, live.
    config = scaled_config()
    budget = SCALE.warmup_instructions + SCALE.sim_instructions
    primary = build_trace(get_workload("470.lbm"), budget, 1, config.llc.size)
    co = build_trace(get_workload("453.povray"), budget, 2, config.llc.size)
    memo = PrivateStreamMemo()
    streams = [memo.stream(("lbm", 0), config, primary, 0, 1, budget),
               memo.stream(("povray", 1), config, co, 1, 2, budget)]
    for pinte in (None, PinteConfig(0.3, seed=5)):
        kwargs = dict(warmup_instructions=SCALE.warmup_instructions,
                      sim_instructions=SCALE.sim_instructions,
                      sample_interval=SCALE.sample_interval, seed=1,
                      pinte=pinte, return_secondary=True)
        replayed = simulate_pair(primary, co, config,
                                 private_streams=streams, **kwargs)
        alone = simulate_pair(primary, co, config, **kwargs)
        assert comparable(replayed) == comparable(alone)
    assert streams[0].length == budget
    assert streams[1].length > budget
    assert replayed.extra["secondary_instructions"] > budget


def test_primary_asked_past_its_target_reruns_its_private_stage():
    # A primary's stage is let go at its target; asking for more reruns
    # it from the trace's start, and the replay cannot tell.
    config = scaled_config()
    trace = build_trace(get_workload("450.soplex"), 400, 1, config.llc.size)
    stream = PrivateStreamMemo().stream("soplex", config, trace, 0, 1, 200)
    kwargs = dict(pinte=PinteConfig(0.2, seed=4), warmup_instructions=150,
                  sim_instructions=500, sample_interval=70, seed=1)
    replayed = simulate(trace, config, private_streams=[stream], **kwargs)
    assert comparable(replayed) == comparable(simulate(trace, config,
                                                       **kwargs))
    assert stream.length >= 650


def test_multi_job_under_ucp_replays_exactly():
    job = Job("450.soplex", mode="multi",
              co_runners=("470.lbm", "403.gcc"), scheme="ucp",
              repartition_interval=200)
    assert_replays_exactly([job, replace(job, p_induce=0.2)],
                           scaled_config())


def test_xeon_way_allocation_replays_exactly():
    assert_replays_exactly(
        [Job("470.lbm"), Job("470.lbm", mode="pinte", p_induce=0.3),
         Job("470.lbm", mode="pair", co_runner="450.soplex")],
        get_machine_config("xeon"))


@pytest.mark.parametrize("inclusion", ["inclusive", "exclusive"])
def test_inclusive_and_exclusive_jobs_add_no_stream(inclusion):
    config = replace(scaled_config(), inclusion=inclusion)
    memo = PrivateStreamMemo()
    for job in (Job("470.lbm", mode="pinte", p_induce=0.5),
                Job("470.lbm", mode="pair", co_runner="450.soplex")):
        assert job_stream_keys(job, config, SCALE) == []
        walked = run_job(job, config, SCALE, private_memo=memo)
        assert "phase_private_reused_seconds" not in walked.extra
        assert comparable(walked) == comparable(run_job(job, config, SCALE))
    assert len(memo) == 0


def test_observed_jobs_replay_like_unobserved_ones():
    from repro.obs import Observation

    job = Job("470.lbm", mode="pinte", p_induce=0.1)
    memo = PrivateStreamMemo()
    observed = run_job(job, scaled_config(), SCALE, observe=Observation(),
                       private_memo=memo)
    assert "phase_private_seconds" in observed.extra
    assert len(memo) == 1
    assert comparable(observed) == comparable(
        run_job(job, scaled_config(), SCALE))


class _CountingMemo(PrivateStreamMemo):
    """A memo that notes each stream it starts."""

    def __init__(self) -> None:
        super().__init__()
        self.started = []

    def stream(self, key, *args):
        before = len(self)
        stream = super().stream(key, *args)
        if len(self) > before:
            self.started.append(key)
        return stream


def test_telemetry_sweep_builds_one_stream_per_trace(tmp_path):
    # A spooled (observed) job replays like any other: the isolation run
    # and a 12-point PInTE sweep on one trace start one private stream.
    config = scaled_config()
    jobs = [Job("450.soplex")] + [Job("450.soplex", mode="pinte",
                                      p_induce=p)
                                  for p in PAPER_PINDUCE_SWEEP]
    memo = _CountingMemo()
    memo.expect(key for job in jobs
                for key in job_stream_keys(job, config, SCALE))
    report = run_campaign(jobs, config, SCALE, processes=1,
                          store=tmp_path / "sweep.jsonl", telemetry=0.05,
                          private_memo=memo)
    assert report.ok and report.executed == 13
    assert len(memo.started) == 1
    assert len(list((tmp_path / "sweep.telemetry").glob("*.jsonl"))) == 13
    assert all("phase_private_seconds" in result.extra
               for result in report.results)
    assert len(memo) == 0


def test_campaign_frees_every_stream_after_its_last_use():
    config = scaled_config()
    jobs = [Job("450.soplex", mode="pinte", p_induce=p) for p in (0.1, 0.9)]
    jobs += [Job(name, mode="pair", co_runner="470.lbm")
             for name in ("450.soplex", "403.gcc")]
    memo = PrivateStreamMemo()
    memo.expect(key for job in jobs
                for key in job_stream_keys(job, config, SCALE))
    report = run_campaign(jobs, config, SCALE, processes=1,
                          private_memo=memo)
    assert report.ok
    assert len(memo) == 0


def test_pool_workers_replay_what_inline_replays(tmp_path):
    # Two workers see the sweep and the shared co-runner in a different
    # order from the inline run; their memos must not change a number.
    config = scaled_config()
    jobs = [Job("450.soplex", mode="pinte", p_induce=p)
            for p in (0.05, 0.2, 0.6, 1.0)]
    jobs += [Job(name, mode="pair", co_runner="470.lbm")
             for name in ("450.soplex", "403.gcc")]
    stores = {}
    for processes in (1, 2):
        path = tmp_path / f"p{processes}.jsonl"
        report = run_campaign(jobs, config, SCALE, processes=processes,
                              store=path)
        assert report.ok
        stores[processes] = canonical_records(ResultStore(path).load())
    assert stores[1] == stores[2]


SUITE = ("435.gromacs", "450.soplex", "453.povray", "470.lbm")
TINY = ExperimentScale(warmup_instructions=200, sim_instructions=600,
                       sample_interval=60, seed=1)
P_VALUES = (0.05, 0.3, 1.0)


def test_reproduction_store_equals_every_job_run_alone(tmp_path):
    config = scaled_config()
    artifacts = select_artifacts(None, include_standalone=True)
    memoised = tmp_path / "memo.jsonl"
    run_reproduction(config=config, scale=TINY, suite=SUITE,
                     p_values=P_VALUES, panel_size=2, artifacts=artifacts,
                     store=memoised)
    ctx = PlanContext(config=config, scale=TINY, suite=SUITE,
                      p_values=P_VALUES, panel_size=2)
    alone = ResultStore(tmp_path / "alone.jsonl")
    alone.ensure_header()
    traces = MemoryTraceStore()
    for planned in plan_union(artifacts, ctx).unique:
        result = run_job(planned.job, planned.config, planned.scale,
                         trace_store=traces)
        alone.append_result(planned.id, planned.job, result, attempts=1,
                            wall_time_seconds=0.0)
    records = canonical_records(ResultStore(memoised).load())
    assert records == canonical_records(alone.load())
    assert any(record["job"]["mode"] == "multi" for record in records)


def test_each_reproduction_rebuilds_its_streams(monkeypatch):
    built = []
    build = PrivateStream.__init__

    def counting(self, config, trace, core_id, seed, target):
        built.append((trace.name, core_id))
        build(self, config, trace, core_id, seed, target)

    monkeypatch.setattr(PrivateStream, "__init__", counting)
    config = scaled_config()
    ctx = PlanContext(config=config, scale=TINY, suite=SUITE,
                      p_values=P_VALUES, panel_size=2)
    plan = plan_union(["table1"], ctx)
    keys = {key for planned in plan.unique
            for key in job_stream_keys(planned.job, planned.config,
                                       planned.scale)}
    for _ in range(2):
        run_reproduction(config=config, scale=TINY, suite=SUITE,
                         p_values=P_VALUES, panel_size=2,
                         artifacts=["table1"])
    # Each key is built once per call, never carried into the next one.
    assert len(built) == 2 * len(keys)
    assert sorted(built[:len(keys)]) == sorted(built[len(keys):])


def test_table1_reports_the_memo_off_average():
    # Without the memo each replayed job would have run its own private
    # stage: Table I adds back the build time of the prefix it replayed.
    config = scaled_config()
    ctx = PlanContext(config=config, scale=TINY, suite=SUITE,
                      p_values=P_VALUES, panel_size=2)
    results = execute_plan(plan_union(["table1"], ctx)).results
    bundle = bundle_from_results(ctx, results)
    rows = {row.source: row for row in table1.run_table1(bundle).rows}
    for source, runs in (("None", bundle.all_isolation()),
                         ("2nd-Trace", bundle.all_pairs()),
                         ("PInTE", bundle.all_pinte())):
        memo_off = [run.wall_time_seconds
                    + run.extra["phase_private_reused_seconds"]
                    for run in runs]
        assert rows[source].avg_memo_off == pytest.approx(
            sum(memo_off) / len(memo_off))
    # Every sweep point after the first replays its trace's stream.
    assert rows["PInTE"].avg_memo_off > rows["PInTE"].avg
    assert "Avg memo off (s)" in table1.format_report(
        table1.run_table1(bundle))
