"""Telemetry-bus overhead benchmark: the bus must be free when off.

The acceptance bar for the telemetry bus is that an unobserved campaign
pays nothing: with ``telemetry=None`` the worker path
(:func:`repro.campaign.engine._spooled_execute`) is a single ``is None``
branch in front of :func:`~repro.campaign.engine.execute_job` — no
observation bundle, no spool file, no sampler thread. This bench measures
that claim three ways:

* **off-path timing** — best-of-N job wall time through the campaign
  worker path with telemetry off vs. calling ``execute_job`` directly.
  Measured locally at a ~1.00 ratio (well inside the <=1% acceptance
  budget); the asserted floor is deliberately looser so only a structural
  regression — someone putting work on the off path — trips it in CI;
* **off-path structure** — a telemetry-off campaign leaves no spool
  directory and starts no sampler threads;
* **on-path cost** — with telemetry enabled the spool/sample machinery
  may cost at most a third of throughput (measured locally at ~2%).

The measured ratios land in ``benchmarks/reports/BENCH_telemetry_summary``
so the acceptance number is recorded, not just gated.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.campaign import Job, run_campaign, telemetry_dir_for
from repro.campaign.engine import _spooled_execute, execute_job
from repro.sim import ExperimentScale

#: Off-path floor: the telemetry-off worker path may cost at most 10%
#: vs. a direct execute_job call. The real overhead is one branch
#: (~0%); the slack absorbs CI scheduler noise on short jobs.
OFF_FLOOR = 0.90
#: On-path floor: full telemetry (spool + 10 ms sampler) may cost at
#: most a third of throughput on these tiny jobs.
ON_FLOOR = 0.67

SCALE = ExperimentScale(warmup_instructions=2_000, sim_instructions=20_000,
                        sample_interval=2_000)
JOB = Job("470.lbm")


def best_of(fn, repeats: int = 5) -> float:
    """Minimum wall time over ``repeats`` calls — the standard noise
    filter for micro-timing (the minimum is the least-perturbed run)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def timings(bench_config):
    """Best-of-5 per-job wall time for each execution path."""
    def plain():
        execute_job(JOB, bench_config, SCALE, 1)

    def off_path():
        _spooled_execute(JOB, bench_config, SCALE, 1, None, telemetry=None)

    # Warm both paths once so first-call import/setup cost is excluded.
    plain()
    off_path()
    return {"plain": best_of(plain), "off": best_of(off_path)}


def test_record_telemetry_overhead(timings, write_report, bench_config,
                                   tmp_path_factory):
    """Persist the measured ratios alongside the gated assertions."""
    store = tmp_path_factory.mktemp("telemetry-bench") / "results.jsonl"
    jobs = [Job("470.lbm"), Job("605.mcf")]

    start = time.perf_counter()
    run_campaign(jobs, bench_config, SCALE, processes=1, store=store)
    off_wall = time.perf_counter() - start

    on_store = store.with_name("on.jsonl")
    start = time.perf_counter()
    run_campaign(jobs, bench_config, SCALE, processes=1, store=on_store,
                 telemetry=0.01)
    on_wall = time.perf_counter() - start

    off_ratio = timings["plain"] / timings["off"]
    on_ratio = off_wall / on_wall
    lines = [
        "telemetry bus overhead (ratio, 1.0 = free):",
        f"  {'off-path vs execute_job (best-of-5)':44s} {off_ratio:10.3f}",
        f"  {'campaign off vs campaign on (0.01s)':44s} {on_ratio:10.3f}",
        f"  {'off-path job wall seconds':44s} {timings['off']:10.4f}",
        f"  {'plain job wall seconds':44s} {timings['plain']:10.4f}",
    ]
    write_report("BENCH_telemetry_summary", "\n".join(lines))


def test_telemetry_off_path_is_free(timings):
    """Acceptance: the telemetry-off worker path costs <=1% (gated at
    10% so only a structural regression fails in noisy CI)."""
    ratio = timings["plain"] / timings["off"]
    assert ratio >= OFF_FLOOR, (
        f"telemetry-off path runs at {ratio:.2f}x of execute_job — "
        f"the off path is supposed to be a single branch")


def test_telemetry_off_campaign_leaves_no_artifacts(bench_config,
                                                    tmp_path_factory):
    """Off means off: no spool directory, no sampler threads."""
    store = tmp_path_factory.mktemp("telemetry-off") / "results.jsonl"
    threads_before = threading.active_count()
    report = run_campaign([JOB], bench_config, SCALE, processes=1,
                          store=store)
    assert report.ok
    assert report.telemetry is None
    assert report.telemetry_dir is None
    assert not telemetry_dir_for(store).exists()
    assert threading.active_count() == threads_before


def test_telemetry_on_overhead_bounded(bench_config, tmp_path_factory):
    """Enabled-mode spool + sampling must stay cheap even on tiny jobs."""
    store = tmp_path_factory.mktemp("telemetry-on") / "results.jsonl"

    def off():
        execute_job(JOB, bench_config, SCALE, 1)

    counter = {"n": 0}

    def on():
        from repro.campaign.engine import _TelemetryTarget
        from repro.obs.telemetry import spool_path

        counter["n"] += 1
        target = _TelemetryTarget(
            path=str(spool_path(telemetry_dir_for(store),
                                f"bench{counter['n']:08d}")),
            job_id=f"bench{counter['n']:08d}", label="470.lbm",
            interval_seconds=0.01)
        _spooled_execute(JOB, bench_config, SCALE, 1, None, telemetry=target)

    telemetry_dir_for(store).mkdir(parents=True, exist_ok=True)
    off()
    on()
    ratio = best_of(off) / best_of(on)
    assert ratio >= ON_FLOOR, (
        f"enabled telemetry runs at {ratio:.2f}x of the plain path — "
        f"spooling got expensive")
