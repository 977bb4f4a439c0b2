#!/usr/bin/env python3
"""PInTE reproduction benchmark: one command per workload run.

    python3 perfbench/run.py --workload pinte-timing --seed 1 --seconds 25 --trace 0

Builds the workload's inputs from ``--seed`` (several times, timing each
set-up), then runs passes of the workload for ``--seconds`` seconds and
checks every output. With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics; with ``--trace 1`` the run
is split between untraced passes and one pass under ``cProfile``, and the
metrics are the per-layer ones. ``--update-expected`` rewrites the
workload's digests in ``expected.json`` after an intended model change.
See README.md.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import pstats
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"
#: Set-ups per run; ``setup_s`` and ``trace.build_s`` are their medians.
SETUP_REPEATS = 7
#: Reference-kernel calls timed before each set-up.
SETUP_CALIBRATION_SAMPLES = 3
#: Metric name -> unit. BENCHMARK.json lists the same names.
END_TO_END = {
    "setup_s": "s",
    "sim_ips": "instr/s",
    "pass_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "trace.build_s": "s",
    "trace.self_pct": "%",
    "trace.store_hits": "count",
    "trace.store_misses": "count",
    "trace.job_pct": "%",
    "trace.overhead_ratio": "ratio",
    "cpu.calls": "count",
    "cpu.instructions": "count",
    "cpu.self_pct": "%",
    "branch.calls": "count",
    "branch.self_pct": "%",
    "cache.access_calls": "count",
    "cache.fill_calls": "count",
    "cache.self_pct": "%",
    "cache.hierarchy_self_pct": "%",
    "cache.l2.accesses": "count",
    "cache.llc.accesses": "count",
    "cache.llc.hit_ratio": "ratio",
    "replacement.calls": "count",
    "replacement.self_pct": "%",
    "pinte.calls": "count",
    "pinte.triggers": "count",
    "pinte.invalidations": "count",
    "pinte.invalidations_per_trigger": "ratio",
    "pinte.self_pct": "%",
    "tracker.calls": "count",
    "tracker.thefts": "count",
    "tracker.interference_misses": "count",
    "tracker.self_pct": "%",
    "dram.calls": "count",
    "dram.self_pct": "%",
    "sim.build_pct": "%",
    "sim.self_pct": "%",
    "obs.sampler_calls": "count",
    "obs.self_pct": "%",
    "campaign.jobs": "count",
    "campaign.failed": "count",
    "campaign.retries": "count",
    "campaign.worker_busy_frac": "ratio",
    "campaign.self_pct": "%",
    "campaign.store_bytes": "bytes",
    "experiments.plan_pct": "%",
    "experiments.execute_pct": "%",
    "experiments.report_pct": "%",
    "experiments.planned_jobs": "count",
    "experiments.unique_jobs": "count",
}

def p90(values):
    """The 90th percentile, interpolated between the samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def peak_rss_mb() -> float:
    """Peak resident set of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def failed_keys(outcome, reference) -> set:
    """Operations of one pass that failed: raised, broke an invariant, or
    produced outputs whose digest differs from the reference."""
    failed = set(outcome.problems)
    for key in set(reference) | set(outcome.digests):
        if outcome.digests.get(key) != reference.get(key):
            failed.add(key)
    return failed


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the seed pinned in "
                             "expected.json)")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (smoke tests; digests "
                             "are then only checked pass against pass)")
    parser.add_argument("--update-expected", action="store_true",
                        help="run one pass at the default seed and rewrite "
                             "this workload's digests in expected.json")
    return parser.parse_args(argv)


def counted_stats(result) -> dict:
    """The counters layer metrics sum, from either host's result type."""
    replay = not hasattr(result, "llc_accesses")
    return {
        "l2_accesses": 0 if replay else result.l2_accesses,
        "llc_accesses": result.accesses if replay else result.llc_accesses,
        "llc_misses": result.misses if replay else result.llc_misses,
        "thefts_experienced": result.thefts_experienced,
        "interference_misses": result.interference_misses,
    }


def typical_job_s(outcomes) -> list:
    """Each job's median seconds over the passes, one value per job.

    The median per job drops the passes in which a host-speed swing or a
    noisy calibration reading hit that job, so the percentiles over jobs
    reflect how the jobs differ, not how the host varied.
    """
    seconds = defaultdict(list)
    for outcome in outcomes:
        for key, value in outcome.jobs.items():
            seconds[key].append(value)
    return [statistics.median(values) for values in seconds.values()]


def typical_pass_s(outcomes, scaled: bool = True) -> float:
    """Sum over a pass's host calls of each call's median wall time,
    scaled to nominal host speed unless ``scaled`` is false.

    A median per call drops the slow bursts a pass's total would absorb.
    """
    walls = defaultdict(list)
    for outcome in outcomes:
        for key, seconds in outcome.calls.items():
            walls[key].append(seconds / outcome.slowdowns[key]
                              if scaled else seconds)
    return sum(statistics.median(values) for values in walls.values())


def layer_metrics(workload, profile, traced, untraced, build_s):
    """Every per-layer metric for one traced pass (see README.md)."""
    from workloads import ReproduceRegistry

    untraced_wall = typical_pass_s(untraced, scaled=False)
    metrics = dict.fromkeys(PER_LAYER, 0)
    for layer in ("trace", "cpu", "branch", "cache", "replacement", "pinte",
                  "tracker", "dram", "sim", "obs", "campaign"):
        metrics[f"{layer}.self_pct"] = profile.self_pct(layer)
    for layer in ("cpu", "branch", "replacement", "tracker"):
        metrics[f"{layer}.calls"] = profile.entry_calls.get(layer, 0)
    triggers = profile.calls("core/counters.py", "record_trigger")
    invalidations = profile.edge(("core/pinte.py", "_induce"),
                                 ("core/counters.py", "record_theft"))
    build = (profile.cumulative("sim/session.py", "build_timing")
             + profile.cumulative("sim/session.py", "build_cache_only"))
    metrics.update({
        "trace.build_s": build_s,
        "trace.overhead_ratio": typical_pass_s([traced]) / untraced_wall,
        "cache.access_calls": profile.calls("cache/cache.py", "access"),
        "cache.fill_calls": profile.calls("cache/cache.py", "fill"),
        "cache.hierarchy_self_pct": profile.self_pct("hierarchy"),
        "pinte.calls": profile.calls("core/pinte.py", "on_llc_access"),
        "pinte.triggers": triggers,
        "pinte.invalidations": invalidations,
        "pinte.invalidations_per_trigger": (invalidations / triggers
                                            if triggers else 0.0),
        "dram.calls": profile.calls("dram/model.py", "access"),
        "sim.build_pct": profile.pct_of_total(build),
        "obs.sampler_calls": profile.calls("obs/sampler.py", "sample"),
    })

    if isinstance(workload, ReproduceRegistry):
        results = [record["result"] for record in workload.records]
        walls = [record["wall_time_seconds"] for record in workload.records]
        extras = [result.get("extra") or {} for result in results]
        registry = "experiments/registry.py"
        metrics.update({
            "cpu.instructions": sum(
                result["instructions"]
                + sum(co["instructions"] for co in result["co_results"])
                for result in results),
            "trace.store_hits": int(sum(e.get("trace_cache_hits", 0)
                                        for e in extras)),
            "trace.store_misses": int(sum(e.get("trace_cache_misses", 0)
                                          for e in extras)),
            "trace.job_pct": 100.0 * sum(
                e.get("phase_trace_gen_seconds", 0.0)
                for e in extras) / sum(walls),
            "campaign.jobs": len(workload.records),
            "campaign.failed": workload.failures,
            "campaign.retries": sum(record["attempts"] - 1
                                    for record in workload.records),
            "campaign.worker_busy_frac": statistics.median(
                sum(outcome.jobs.values()) / typical_pass_s([outcome])
                for outcome in untraced),
            "campaign.store_bytes": workload.store_bytes,
            "experiments.plan_pct": profile.pct_of_total(
                profile.cumulative(registry, "plan_union")),
            "experiments.execute_pct": profile.pct_of_total(
                profile.cumulative(registry, "execute_plan")),
            "experiments.report_pct": profile.pct_of_total(
                profile.cumulative(registry, "report")),
            "experiments.planned_jobs": workload.plan.planned_total,
            "experiments.unique_jobs": workload.plan.unique_total,
        })
        errors = []
    else:
        counts, errors = workload.reconcile(profile, traced)
        metrics.update(counts)
        results = [counted_stats(result) for _key, result in traced.results]
    accesses = sum(result["llc_accesses"] for result in results)
    misses = sum(result["llc_misses"] for result in results)
    metrics.update({
        "cache.l2.accesses": sum(result["l2_accesses"] for result in results),
        "cache.llc.accesses": accesses,
        "cache.llc.hit_ratio": 1.0 - misses / accesses if accesses else 0.0,
        "tracker.thefts": sum(result["thefts_experienced"]
                              for result in results),
        "tracker.interference_misses": sum(result["interference_misses"]
                                           for result in results),
    })
    return metrics, errors


def timed_pass(workload, spans, profiler=None):
    """One pass. A traced pass runs under ``profiler`` and is not
    calibrated."""
    if profiler is not None:
        profiler.enable()
    try:
        return workload.run_pass(spans, calibrate=profiler is None)
    finally:
        if profiler is not None:
            profiler.disable()


def run(args) -> int:
    import hostspeed
    import workloads
    from layers import LayerProfile, Spans

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    expected = load_expected()
    default_seed = expected.get("seed", workloads.DEFAULT_SEED)
    seed = default_seed if args.seed is None else args.seed
    if args.update_expected:
        seed, args.tiny, args.trace = default_seed, False, 0
    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](seed, args.tiny, work_dir)
    spans = Spans()
    try:
        setups, builds = [], []
        for _ in range(SETUP_REPEATS):
            slowdown = hostspeed.slowdown(SETUP_CALIBRATION_SAMPLES)
            span = spans.open("setup")
            builds.append(workload.setup() / slowdown)
            setups.append(spans.close(span) / slowdown)
        setup_s = statistics.median(setups)
        build_s = statistics.median(builds)

        budget = args.seconds / 2 if args.trace else args.seconds
        outcomes = []
        start = time.perf_counter()
        while not outcomes or time.perf_counter() - start < budget:
            outcomes.append(timed_pass(workload, spans))
            if len(outcomes) == 1:
                # Later passes repeat the same work; the parent's heap
                # still creeps up per pass, so the peak is taken here to
                # keep it independent of how many passes fit in a run.
                rss = peak_rss_mb()
            if args.update_expected:
                break

        if args.update_expected:
            outcome = outcomes[0]
            if outcome.problems:
                print(json.dumps(outcome.problems, indent=1), file=sys.stderr)
                return 1
            expected["seed"] = seed
            expected.setdefault("workloads", {})[args.workload] = dict(
                sorted(outcome.digests.items()))
            EXPECTED.write_text(json.dumps(expected, indent=1,
                                           sort_keys=True) + "\n")
            print(f"wrote {len(outcome.digests)} digests for "
                  f"{args.workload} at seed {seed} to {EXPECTED.name}")
            return 0

        pinned = (expected.get("workloads", {}).get(args.workload)
                  if seed == default_seed and not args.tiny else None)
        reference = pinned if pinned is not None else outcomes[0].digests
        errors = []
        if seed == default_seed and not args.tiny and pinned is None:
            errors.append(f"expected.json has no digests for {args.workload}")

        traced = None
        if args.trace:
            profiler = cProfile.Profile()
            traced = timed_pass(workload, spans, profiler)
            outcomes.append(traced)

        attempted = failed = 0
        for outcome in outcomes:
            attempted += outcome.attempted
            keys = failed_keys(outcome, reference)
            failed += len(keys)
            for key in sorted(keys)[:5]:
                problem = outcome.problems.get(key, "digest differs")
                errors.append(f"{key}: {problem}")

        # A pass whose reproduction raised has no wall time to measure.
        measured = [outcome for outcome in outcomes
                    if outcome is not traced and outcome.wall > 0]
        if not measured or (traced is not None and traced.wall <= 0):
            print("\n".join(errors) or "no pass completed", file=sys.stderr)
            return 1
        if args.trace:
            profile = LayerProfile(pstats.Stats(profiler))
            values, reconcile_errors = layer_metrics(
                workload, profile, traced, measured, build_s)
            errors += reconcile_errors
            units = PER_LAYER
            spans.write(ROOT / ".perfbench_out"
                        / f"spans-{args.workload}-seed{seed}.json")
        else:
            jobs = typical_job_s(measured)
            pass_s = typical_pass_s(measured)
            values = {
                "setup_s": setup_s,
                "sim_ips": statistics.median(
                    outcome.work for outcome in measured) / pass_s,
                "pass_s": pass_s,
                "jobs_per_s": statistics.median(
                    len(outcome.jobs) for outcome in measured) / pass_s,
                "job_p50_s": statistics.median(jobs),
                "job_p90_s": p90(jobs),
                "peak_rss_mb": rss,
            }
            units = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    for error in errors:
        print(f"check failed: {error}", file=sys.stderr)
    for name, unit in units.items():
        note = f"  ({workload.WORK})" if name == "sim_ips" else ""
        print(f"{name:34s} {values[name]:>16.6g} {unit}{note}")
    slowdowns = [factor for outcome in measured
                 for factor in outcome.slowdowns.values()]
    scaling = (f"host {statistics.median(slowdowns):.2f}x slower than "
               f"nominal (median), times scaled to nominal"
               if set(slowdowns) != {1.0} else "times not scaled")
    print(f"{len(outcomes)} passes, {attempted} operations, {failed} failed; "
          f"{scaling}; the model has no hardware reference (unvalidated)")
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
