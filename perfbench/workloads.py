"""The four benchmark workloads and the checks on their outputs.

Every workload builds its inputs from the seed during set-up, then runs
*passes*: a fixed list of calls into one public host function. A pass is
deterministic, so each call's simulated statistics repeat exactly from
pass to pass; only host time varies. See README.md for why each workload
exists and which layers it exercises.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import time
import traceback
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.campaign.store import ResultStore, canonical_records
from repro.config import scaled_config
from repro.core import PAPER_PINDUCE_SWEEP, PinteConfig
from repro.experiments.registry import PlanContext, plan_union
from repro.experiments.reproduce import (
    BUNDLE_ARTIFACTS,
    STANDALONE_ARTIFACTS,
    run_reproduction,
    select_artifacts,
)
from repro.experiments.suites import QUICK_SUITE
from repro.obs import Observation
from repro.sim import ExperimentScale
from repro.sim.fastcache import fast_contention_sweep
from repro.sim.multicore import simulate_pair
from repro.sim.simulator import simulate
from repro.trace import build_trace, get_workload
from repro.trace.store import TraceStore

import hostspeed
from layers import LayerProfile, Spans

#: The seed whose outputs are pinned in ``expected.json``.
DEFAULT_SEED = 1
#: PInTE's induction probability on ``pinte-timing``.
P_INDUCE = 0.1
#: Report text that embeds measured wall times, so it is not digested.
TIMED_REPORTS = ("table1", "ncore_study")


def digest(payload) -> str:
    """Short stable hash of a JSON-serialisable payload."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def simulated_stats(result) -> dict:
    """A result's simulated statistics: wall time and ``*_seconds`` dropped."""
    data = result if isinstance(result, dict) else dataclasses.asdict(result)
    data = dict(data)
    data.pop("wall_time_seconds", None)
    if "extra" in data:
        data["extra"] = {key: value for key, value in data["extra"].items()
                         if not key.endswith("_seconds")}
    if data.get("co_results"):
        data["co_results"] = [simulated_stats(co) for co in data["co_results"]]
    return data


@dataclass
class Call:
    """One call into a host: a key naming it, the call and its work."""

    key: str
    run: Callable[[], object]
    #: Instructions (trace records on the replay host) the call simulates.
    work: int
    #: The same call with its warm-up folded into the budget, reporting to
    #: an ``Observation`` (timing hosts; see ``TimingWorkload.reconcile``).
    probe: Optional[Callable[[Observation], object]] = None


@dataclass
class PassOutcome:
    """What one pass produced."""

    wall: float = 0.0
    #: Wall seconds of each sequential host call, by call key, and the host
    #: slowdown measured next to it (1.0 when not calibrated).
    calls: Dict[str, float] = field(default_factory=dict)
    slowdowns: Dict[str, float] = field(default_factory=dict)
    #: Seconds of each job (a host call, or a campaign job) by key, scaled to
    #: nominal host speed where the pass is calibrated.
    jobs: Dict[str, float] = field(default_factory=dict)
    work: int = 0
    attempted: int = 0
    #: Operation key -> digest of its outputs.
    digests: Dict[str, str] = field(default_factory=dict)
    #: Operation key -> why it failed (raised or broke an invariant).
    problems: Dict[str, str] = field(default_factory=dict)
    results: List[Tuple[str, object]] = field(default_factory=list)


class SimWorkload:
    """A workload whose pass is a list of direct host calls.

    The synthetic traces' behaviour (LLC accesses per instruction, a
    co-runner's IPC) varies by about 25% from one trace seed to another
    and does not average out with trace length. Each pass therefore runs
    every call over ``subseeds`` input sets derived from the seed, so the
    cost of a pass varies little between seeds.
    """

    name = ""
    #: What ``sim_ips`` counts on this workload.
    WORK = "instructions"
    #: Input sets per pass (full size, tiny).
    SUBSEEDS = (1, 1)

    def __init__(self, seed: int, tiny: bool, work_dir: Path) -> None:
        self.config = scaled_config()
        self.subseeds = [seed * 100 + index
                         for index in range(self.SUBSEEDS[tiny])]

    def trace(self, workload: str, length: int, seed: int):
        return build_trace(get_workload(workload), length, seed,
                           self.config.llc.size)

    def setup(self) -> float:
        """Build the inputs; returns the seconds spent building traces."""
        raise NotImplementedError

    def calls(self) -> List[Call]:
        raise NotImplementedError

    def check(self, result) -> Optional[str]:
        """An any-seed invariant the result breaks, or None."""
        raise NotImplementedError

    def run_pass(self, spans: Spans, calibrate: bool = True) -> PassOutcome:
        """Every call once, timed and calibrated by ``timed_calls``."""
        outcome = PassOutcome()
        pass_span = spans.open("pass", workload=self.name)
        for call, result, factor in timed_calls(self.calls(), spans, outcome,
                                                calibrate):
            outcome.jobs[call.key] = outcome.calls[call.key] / factor
            outcome.work += call.work
            outcome.results.append((call.key, result))
            outcome.digests[call.key] = digest(simulated_stats(result))
            problem = self.check(result)
            if problem is not None:
                outcome.problems[call.key] = problem
        outcome.wall = spans.close(pass_span)
        return outcome

    def reconcile(self, profile: LayerProfile,
                  outcome: PassOutcome) -> Tuple[dict, List[str]]:
        """Result-derived per-layer counts and count-reconciliation errors."""
        raise NotImplementedError


def timed_calls(calls: List[Call], spans: Spans, outcome: PassOutcome,
                calibrate: bool, samples: int = 1, records: bool = False):
    """Run every call once; yields ``(call, result, slowdown)`` for each call
    that returned, after recording its wall time and slowdown in
    ``outcome``. A call that raised is recorded as a problem instead.

    With ``calibrate`` the host's slowdown (``hostspeed.slowdown`` with
    ``samples`` and ``records``) is read before the first call and after
    each call, and a call's slowdown is the mean of the two readings
    around it; kernels are left out of traced passes, where the profiler
    would count them.
    """
    def read() -> float:
        return hostspeed.slowdown(samples, records) if calibrate else 1.0

    before = read()
    for call in calls:
        outcome.attempted += 1
        span = spans.open("host-call", key=call.key)
        error = None
        try:
            result = call.run()
        except Exception as exc:  # a failed operation, counted
            traceback.print_exc()
            error = exc
        wall = spans.close(span)
        after = read()
        factor, before = (before + after) / 2, after
        if error is not None:
            outcome.problems[call.key] = f"raised {error!r}"
            continue
        outcome.calls[call.key] = wall
        outcome.slowdowns[call.key] = factor
        yield call, result, factor


def timing_checks(result, budget: int) -> Optional[str]:
    """Invariants every timing-host result satisfies for any seed."""
    if result.instructions != budget:
        return f"retired {result.instructions} != budget {budget}"
    hits = sum(result.reuse_histogram)
    if hits + result.llc_misses != result.llc_accesses:
        return (f"LLC hits {hits} + misses {result.llc_misses} != "
                f"accesses {result.llc_accesses}")
    if not 0 <= result.l2_misses <= result.l2_accesses:
        return "L2 misses exceed L2 accesses"
    return None


def probe_counts(observe: Observation,
                 n_cores: int) -> Tuple[int, int, List[str]]:
    """From a probe: all cores' LLC demand accesses, the accesses of every
    cache (L1I, L1D, L2 per core and the LLC), and CacheStats errors."""
    registry = observe.registry
    errors = []
    prefixes = ["llc"] + [f"core{c}.{level}" for c in range(n_cores)
                          for level in ("l1i", "l1d", "l2")]
    total = 0
    for prefix in prefixes:
        hits = registry.value(f"{prefix}.hit")
        misses = registry.value(f"{prefix}.miss")
        accesses = registry.value(f"{prefix}.access")
        total += accesses
        if hits + misses != accesses:
            errors.append(f"{prefix}: hits {hits} + misses {misses} != "
                          f"accesses {accesses}")
    demand = sum(registry.value(f"core{c}.contention.llc_access")
                 for c in range(n_cores))
    return demand, total, errors


class TimingWorkload(SimWorkload):
    """A workload on the timing hosts (``simulate``/``simulate_pair``)."""

    CORES = 1
    #: Whether the PInTE engine is attached (it then sees core 0's accesses).
    PINTE = False

    def reconcile(self, profile, outcome):
        # A call's warm-up region is the call itself with no warm-up, so one
        # probe per call gives its whole-run counts.
        core0 = all_cores = cache_accesses = instructions = 0
        errors: List[str] = []
        for call in self.calls():
            observe = Observation()
            probe = call.probe(observe)
            core0 += probe.llc_accesses
            demand, accesses, problems = probe_counts(observe, self.CORES)
            all_cores += demand
            cache_accesses += accesses
            errors += problems
            instructions += probe.instructions + int(
                probe.extra.get("secondary_instructions", 0))
        errors += reconcile_counts(profile, core0 if self.PINTE else 0,
                                   all_cores, cache_accesses)
        return {"cpu.instructions": instructions}, errors


class PinteTiming(TimingWorkload):
    name = "pinte-timing"
    SUBSEEDS = (6, 2)
    PINTE = True
    #: Measured instructions per trace. perlbench runs about 3x faster, so
    #: it gets 3x the budget: every call then costs about the same host
    #: time and the per-call percentiles are not a mix of far-apart modes.
    #: With ``WARMUP`` these sizes give the LLC hit ratios of the 10k + 40k
    #: ExperimentScale within 0.02 (README.md, "Call sizes").
    BUDGETS = {"470.lbm": 5_000, "450.soplex": 5_000, "400.perlbench": 15_000}
    WARMUP = 5_000

    def __init__(self, seed: int, tiny: bool, work_dir: Path) -> None:
        super().__init__(seed, tiny, work_dir)
        self.warmup = 300 if tiny else self.WARMUP
        self.budgets = {name: budget // 5 if tiny else budget
                        for name, budget in self.BUDGETS.items()}

    def setup(self) -> float:
        start = time.perf_counter()
        self.traces = {(name, sub): self.trace(name, self.warmup + budget, sub)
                       for sub in self.subseeds
                       for name, budget in self.budgets.items()}
        return time.perf_counter() - start

    def _simulate(self, name, sub, warmup, budget, observe=None):
        return simulate(self.traces[(name, sub)], self.config,
                        pinte=PinteConfig(P_INDUCE, seed=sub),
                        warmup_instructions=warmup, sim_instructions=budget,
                        seed=sub, observe=observe)

    def calls(self) -> List[Call]:
        return [Call(f"{name}#{index}",
                     partial(self._simulate, name, sub, self.warmup, budget),
                     self.warmup + budget,
                     partial(self._simulate, name, sub, 0,
                             self.warmup + budget))
                for index, sub in enumerate(self.subseeds)
                for name, budget in self.budgets.items()]

    def check(self, result) -> Optional[str]:
        return timing_checks(result, self.budgets[result.trace_name])


class PairContention(TimingWorkload):
    name = "pair-contention"
    WORK = ("primary-core instructions; the co-runner's are in the traced "
            "run's cpu.instructions")
    #: A call's cost follows its co-runner's IPC, so the slowest tenth of
    #: calls must span several input sets for a steady p90.
    SUBSEEDS = (8, 2)
    CORES = 2
    PRIMARY, SECONDARY = "470.lbm", "450.soplex"

    def __init__(self, seed: int, tiny: bool, work_dir: Path) -> None:
        super().__init__(seed, tiny, work_dir)
        # 5k + 5k gives the contention rate of the 10k + 40k scale.
        self.warmup, self.budget = (200, 600) if tiny else (5_000, 5_000)

    def setup(self) -> float:
        start = time.perf_counter()
        length = self.warmup + self.budget
        # The co-runner's trace seed is one higher, as in campaign pair jobs.
        self.traces = {sub: (self.trace(self.PRIMARY, length, sub),
                             self.trace(self.SECONDARY, length, sub + 1))
                       for sub in self.subseeds}
        return time.perf_counter() - start

    def _pair(self, sub, warmup, budget, observe=None):
        primary, secondary = self.traces[sub]
        return simulate_pair(primary, secondary, self.config,
                             warmup_instructions=warmup,
                             sim_instructions=budget, seed=sub,
                             return_secondary=True, observe=observe)

    def calls(self) -> List[Call]:
        # Only the primary core's instructions count as work (Table I).
        length = self.warmup + self.budget
        return [Call(f"{self.PRIMARY}+{self.SECONDARY}#{index}",
                     partial(self._pair, sub, self.warmup, self.budget),
                     length, partial(self._pair, sub, 0, length))
                for index, sub in enumerate(self.subseeds)]

    def check(self, result) -> Optional[str]:
        return timing_checks(result, self.budget)


class ReplaySweep(SimWorkload):
    name = "replay-sweep"
    WORK = "trace records replayed"
    SUBSEEDS = (3, 2)
    TRACE = "450.soplex"

    def __init__(self, seed: int, tiny: bool, work_dir: Path) -> None:
        super().__init__(seed, tiny, work_dir)
        # 2000 warm-up LLC accesses fill the 1024-block LLC; the miss rates
        # at both ends of the sweep then match a 50k-record replay.
        self.records, self.warmup = (4_000, 200) if tiny else (20_000, 2_000)
        self.p_values = ((0.01, 0.5, 1.0) if tiny
                         else tuple(PAPER_PINDUCE_SWEEP))

    def setup(self) -> float:
        start = time.perf_counter()
        self.traces = {sub: self.trace(self.TRACE, self.records, sub)
                       for sub in self.subseeds}
        return time.perf_counter() - start

    def _sweep_point(self, sub, p):
        return fast_contention_sweep(self.traces[sub], self.config, [p],
                                     warmup_accesses=self.warmup,
                                     seed=sub)[0]

    def calls(self) -> List[Call]:
        return [Call(f"p={p}#{index}", partial(self._sweep_point, sub, p),
                     self.records)
                for index, sub in enumerate(self.subseeds)
                for p in self.p_values]

    def check(self, result) -> Optional[str]:
        hits = sum(result.reuse_histogram)
        if result.accesses <= 0:
            return "no LLC accesses measured"
        if hits + result.misses != result.accesses:
            return (f"LLC hits {hits} + misses {result.misses} != "
                    f"accesses {result.accesses}")
        return None

    def reconcile(self, profile, outcome):
        # Warm-up is counted in LLC accesses, so it is known exactly. Every
        # memory record of the trace goes through the L2-sized filter cache
        # and its misses through the LLC. The replay host inlines the
        # tracker, so record_access is not checked.
        memory = {f"#{index}": sum(1 for record in self.traces[sub]
                                   if record.load_addr is not None
                                   or record.store_addr is not None)
                  for index, sub in enumerate(self.subseeds)}
        demand = cache_accesses = 0
        for key, result in outcome.results:
            demand += self.warmup + result.accesses
            cache_accesses += (memory[key[key.rindex("#"):]]
                               + self.warmup + result.accesses)
        return {"cpu.instructions": 0}, reconcile_counts(
            profile, demand, None, cache_accesses)


def reconcile_counts(profile: LayerProfile, core0_demand: int,
                     all_demand: Optional[int],
                     cache_accesses: int) -> List[str]:
    """Check profiled call counts against what the results report.

    The engine's per-access entry runs once per core-0 LLC demand access;
    the timing hosts record every core's LLC demand access once in the
    contention tracker; ``Cache.access`` runs once per access a cache
    counts in its stats. Equal counts prove the module -> layer map sees
    the calls the results describe.
    """
    errors = []
    cache = profile.calls("cache/cache.py", "access")
    if cache != cache_accesses:
        errors.append(f"cache.access_calls {cache} != accesses counted by "
                      f"the caches {cache_accesses}")
    engine = profile.calls("core/pinte.py", "on_llc_access")
    if engine != core0_demand:
        errors.append(f"pinte.calls {engine} != core-0 LLC demand accesses "
                      f"{core0_demand}")
    if all_demand is not None:
        tracked = profile.calls("core/counters.py", "record_access")
        if tracked != all_demand:
            errors.append(f"tracker record_access {tracked} != LLC demand "
                          f"accesses {all_demand}")
    return errors


class ReproduceRegistry:
    """``run_reproduction`` over the whole artifact registry, in process.

    A pass reproduces every artifact into a fresh result store with one
    ``run_reproduction`` call per artifact group; each later call resumes
    the store, so every unique job runs once per pass, as in one call over
    all artifacts, and the reports are the same. Jobs run inline in the
    campaign engine (``processes=1``) and read their traces from a store
    primed during set-up. Splitting the pass gives calls of at most a few
    seconds, short enough for the host-speed calibration to track; one
    process keeps the load within the host's cores.
    """

    name = "reproduce-registry"
    WORK = "instructions of each job's primary core"
    PANEL = 2
    PROCESSES = 1
    #: Artifact groups, one call each: the bundle artifacts share one plan.
    GROUPS = ((BUNDLE_ARTIFACTS,)
              + tuple((name,) for name in STANDALONE_ARTIFACTS))

    def __init__(self, seed: int, tiny: bool, work_dir: Path) -> None:
        self.work_dir = work_dir
        self.config = scaled_config()
        # ``tiny`` keeps this size: at 100 + 400 instructions some seeds
        # (18 and 31 of 1-40) leave the bundle without the reuse hits fig6
        # compares, and its report raises; 200 + 600 passed seeds 1-250.
        self.scale = ExperimentScale(warmup_instructions=200,
                                     sim_instructions=600,
                                     sample_interval=60, seed=seed)
        self.p_values = tuple(PAPER_PINDUCE_SWEEP)
        self.artifacts = select_artifacts(None, include_standalone=True)
        self.passes = 0

    def _context(self) -> PlanContext:
        return PlanContext(config=self.config, scale=self.scale,
                           suite=tuple(QUICK_SUITE), p_values=self.p_values,
                           panel_size=self.PANEL)

    def setup(self) -> float:
        """Plan, then prime a fresh trace store with every job input."""
        self.plan = plan_union(self.artifacts, self._context())
        # The call that first runs each job: its slowdown scales the job.
        self.job_call = {}
        for group in self.GROUPS:
            for planned in plan_union(group, self._context()).unique:
                self.job_call.setdefault(planned.id, "+".join(group))
        self.trace_dir = self.work_dir / "traces"
        shutil.rmtree(self.trace_dir, ignore_errors=True)
        start = time.perf_counter()
        store = TraceStore(self.trace_dir)
        for key in sorted(job_trace_keys(self.plan)):
            store.get_or_build(*key)
        return time.perf_counter() - start

    def _reproduce(self, group, store_path: Path) -> Dict[str, str]:
        return run_reproduction(
            config=self.config, scale=self.scale, suite=tuple(QUICK_SUITE),
            p_values=self.p_values, panel_size=self.PANEL, artifacts=group,
            processes=self.PROCESSES, trace_store=str(self.trace_dir),
            store=str(store_path), resume=True)

    def run_pass(self, spans: Spans, calibrate: bool = True) -> PassOutcome:
        """Every artifact group once, calibrated like the host calls."""
        outcome = PassOutcome()
        store_path = self.work_dir / f"store-{self.passes}.jsonl"
        self.passes += 1
        span = spans.open("pass", workload=self.name)
        calls = [Call("+".join(group),
                      partial(self._reproduce, group, store_path), 0)
                 for group in self.GROUPS]
        reports = {}
        for _call, rendered, _factor in timed_calls(
                calls, spans, outcome, calibrate, samples=5, records=True):
            reports.update(rendered)
        outcome.wall = spans.close(span)
        if not store_path.exists():
            outcome.problems["store"] = "no result store written"
            return outcome
        contents = ResultStore(store_path).load()
        self.store_bytes = store_path.stat().st_size
        self.records = list(contents.results.values())
        self.failures = len(contents.failures)

        expected_ids = {planned.id for planned in self.plan.unique}
        outcome.attempted += len(expected_ids) + len(self.artifacts)
        for job_id in expected_ids - set(contents.results):
            outcome.problems[f"job:{job_id}"] = "no result in the store"
        result_lines = sum(1 for line in store_path.read_text().splitlines()
                           if '"kind":"result"' in line)
        if result_lines != len(contents.results) or (set(contents.results)
                                                     - expected_ids):
            outcome.problems["store"] = (
                f"{result_lines} result records for "
                f"{len(contents.results)} jobs; {len(expected_ids)} planned")
        # A trace the priming missed is built inside the timed pass.
        built = sum((record["result"].get("extra") or {}).get(
            "trace_cache_misses", 0) for record in self.records)
        if built:
            outcome.problems["trace-store"] = (
                f"{int(built)} job traces were not primed during set-up")
        budget = self.scale.sim_instructions
        for entry in canonical_records(contents):
            key = f"job:{entry['job_id']}"
            outcome.digests[key] = digest(entry)
            result = entry.get("result")
            if result is None:
                outcome.problems[key] = "job failed"
            elif result["instructions"] != budget:
                outcome.problems[key] = (f"retired {result['instructions']} "
                                         f"!= budget {budget}")
            elif not 0 <= result["llc_misses"] <= result["llc_accesses"]:
                outcome.problems[key] = "LLC misses exceed accesses"
        for record in self.records:
            spans.add("job", record["wall_time_seconds"],
                      job_id=record["job_id"])
            factor = outcome.slowdowns.get(self.job_call[record["job_id"]],
                                           1.0)
            outcome.jobs[record["job_id"]] = (record["wall_time_seconds"]
                                              / factor)
            outcome.work += (self.scale.warmup_instructions
                             + record["result"]["instructions"])
        for name in self.artifacts:
            if name not in reports:
                outcome.problems[f"report:{name}"] = "not rendered"
            elif name not in TIMED_REPORTS:
                outcome.digests[f"report:{name}"] = digest(reports[name])
        store_path.unlink()
        return outcome


def job_trace_keys(plan) -> set:
    """Every (workload, llc bytes, length, seed) trace the plan's jobs read.

    Mirrors the seeds ``repro.sim.batch.run_job`` asks its trace store
    for; a key missed here fails the pass's ``trace-store`` check.
    """
    keys = set()
    for planned in plan.unique:
        job, scale = planned.job, planned.scale
        llc, length = planned.config.llc.size, scale.trace_length
        primary = job.trace_seed if job.trace_seed is not None else scale.seed
        keys.add((job.workload, llc, length, primary))
        co_base = job.co_seed if job.co_seed is not None else scale.seed + 1
        if job.mode == "pair":
            keys.add((job.co_runner, llc, length, co_base))
        elif job.mode == "multi":
            for index, name in enumerate(job.co_runners):
                keys.add((name, llc, length, co_base + index))
    return keys


WORKLOADS = {cls.name: cls for cls in (PinteTiming, PairContention,
                                       ReplaySweep, ReproduceRegistry)}
