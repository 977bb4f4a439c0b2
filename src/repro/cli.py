"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``list`` — enumerate the synthetic SPEC-like workload models.
* ``run`` — simulate one workload (isolation / PInTE / 2nd-Trace); can
  dump the unified metric registry, a JSONL event log, a Chrome trace and
  a machine-readable JSON result.
* ``campaign run|status|resume`` — the fault-tolerant campaign engine:
  persistent JSONL result store, retries, per-job timeouts, resume,
  ``i/n`` sharding, failure manifests (see docs/CAMPAIGNS.md);
  ``--processes`` > 1 or a ``--timeout`` runs jobs on persistent
  work-stealing workers; ``--telemetry`` spools live per-job
  metrics/resources.
* ``campaign watch|timeline`` — tail the telemetry spools: a refreshing
  plain-text dashboard (``status --follow`` is the one-line-per-tick
  variant) and a merged per-job Chrome trace (docs/OBSERVABILITY.md).
* ``obs`` — inspect a JSONL event log (kind summary, hottest sets, heatmap).
* ``sweep`` — PInTE sensitivity sweep + classification for workloads.
* ``trace build|info|cache`` — generate trace files for external tooling,
  inspect them, and manage the shared on-disk trace store
  (``cache prime|ls|clear``).
* ``components ls`` — the unified component registry: every replacement
  policy, partition scheme, prefetcher, branch predictor, workload model
  and named machine config, with introspected capabilities (accepts seed,
  tunable parameters) — see docs/CONFIGURATION.md.
* ``config show|validate|diff`` — the declarative machine-config schema:
  print any named config as canonical TOML, schema-check TOML files, or
  diff two configs field by field; ``--config FILE.toml`` on ``run``,
  ``campaign run|resume``, ``reproduce`` and ``artifact run`` loads one.
* ``artifact ls|plan|run`` — the declarative artifact registry: list the
  registered tables/figures, preview the deduplicated union plan, or
  execute a subset through the campaign engine.
* ``reproduce`` — plan/execute/render every paper artifact; with
  ``--store`` the campaign persists and ``--resume`` finishes an
  interrupted reproduction without re-running stored jobs.

Every command prints plain text and returns a process exit code, so the CLI
is scriptable; all functions are also unit-testable by calling
:func:`main` with an argv list.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis import classify, contention_curve
from repro.campaign import CampaignLimitError
from repro.components import UnknownComponentError, load_plugin
from repro.config import MachineConfig
from repro.configio import load_machine_config, machine_to_dict, machine_to_toml
from repro.configs import get_machine_config, iter_registries
from repro.core import PAPER_PINDUCE_SWEEP, PinteConfig
from repro.experiments.reporting import format_table
from repro.sim import ExperimentScale, TraceLibrary, simulate, simulate_pair
from repro.trace import (
    SPEC_WORKLOADS,
    build_trace,
    get_workload,
    suite_names,
    write_trace,
)


def _machine(name: str) -> MachineConfig:
    """Build a named machine config from the registry.

    An unknown name raises :class:`UnknownComponentError` (with
    did-you-mean candidates), which :func:`main` turns into a clean
    one-line ``SystemExit``.
    """
    return get_machine_config(name)


def _load_config_file(path: str) -> MachineConfig:
    """Load a ``--config`` TOML file, exiting cleanly on schema errors."""
    try:
        return load_machine_config(path)
    except ValueError as exc:
        raise SystemExit(f"repro: {exc}")


def _resolve_machine(args: argparse.Namespace) -> MachineConfig:
    """The machine an invocation describes: ``--config`` file beats
    ``--machine`` name."""
    config_path = getattr(args, "config", None)
    if config_path:
        return _load_config_file(config_path)
    return _machine(args.machine)


def _named_or_file(text: str) -> MachineConfig:
    """Resolve a ``config show|diff`` operand: TOML file or registry name."""
    if text.endswith(".toml") or "/" in text or "\\" in text:
        return _load_config_file(text)
    return _machine(text)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--machine", default="scaled",
                        help="named machine config (default: scaled; see "
                             "`repro components ls`)")
    parser.add_argument("--config", default=None, metavar="FILE.toml",
                        help="load the machine config from a TOML file "
                             "(overrides --machine; write one with "
                             "`repro config show`)")
    parser.add_argument("--instructions", type=int, default=40_000,
                        help="measured instructions (default: 40000)")
    parser.add_argument("--warmup", type=int, default=10_000,
                        help="warm-up instructions (default: 10000)")
    parser.add_argument("--seed", type=int, default=1, help="experiment seed")


def cmd_list(args: argparse.Namespace) -> int:
    """``repro list`` — table of workload models, optionally by class."""
    rows = []
    for name in suite_names():
        spec = SPEC_WORKLOADS[name]
        if args.klass and spec.klass != args.klass:
            continue
        rows.append((name, spec.suite, spec.klass, spec.pattern,
                     f"{spec.footprint_factor:.3f}",
                     f"{spec.mem_fraction:.2f}", f"{spec.branch_fraction:.2f}"))
    print(format_table(
        ["Benchmark", "Suite", "Class", "Pattern", "Footprint xLLC",
         "Mem frac", "Br frac"],
        rows,
        title=f"{len(rows)} synthetic SPEC-like workload models",
    ))
    return 0


def _write_or_print(text: str, destination: str, what: str) -> None:
    """Send ``text`` to stdout (``-``) or a file (with a confirmation line)."""
    if destination == "-":
        print(text)
    else:
        Path(destination).write_text(text + "\n")
        print(f"wrote {what} to {destination}")


def cmd_run(args: argparse.Namespace) -> int:
    """``repro run`` — one simulation with optional observability dumps."""
    import json

    from repro.obs import (
        Observation,
        format_metrics,
        write_chrome_trace,
        write_events_jsonl,
    )
    from repro.sim.serialize import result_to_dict

    config = _resolve_machine(args)
    workload = get_workload(args.workload)
    length = args.warmup + args.instructions

    # Any observability output opts the run into the obs layer; event
    # tracing itself is only switched on when an event consumer asked for it.
    observe = None
    if args.events or args.chrome_trace or args.metrics:
        if args.events or args.chrome_trace:
            observe = Observation.with_events(args.event_capacity)
        else:
            observe = Observation()
    profiler = observe.profiler if observe is not None else None

    if profiler is not None:
        with profiler.span("trace-gen"):
            trace = build_trace(workload, length, args.seed, config.llc.size)
    else:
        trace = build_trace(workload, length, args.seed, config.llc.size)

    pinte = None
    if args.p_induce is not None:
        pinte = PinteConfig(
            p_induce=args.p_induce,
            seed=args.seed,
            trigger="periodic" if args.periodic else "per-access",
            dram_background_rpkc=args.dram_background,
        )

    if args.versus:
        # --versus alone is the 2nd-Trace context; --versus plus --p-induce
        # is the hybrid context (induced thefts on top of real contention).
        adversary = build_trace(get_workload(args.versus), length,
                                args.seed + 1, config.llc.size)
        result = simulate_pair(trace, adversary, config,
                               warmup_instructions=args.warmup,
                               sim_instructions=args.instructions,
                               seed=args.seed, pinte=pinte, observe=observe)
    else:
        result = simulate(trace, config, pinte=pinte,
                          warmup_instructions=args.warmup,
                          sim_instructions=args.instructions, seed=args.seed,
                          observe=observe)

    def report() -> None:
        # `--json -` is the machine-readable mode: the result document owns
        # stdout, so the human table is suppressed.
        if args.json != "-":
            print(format_table(
                ["Metric", "Value"],
                [
                    ("context", result.label()),
                    ("instructions", result.instructions),
                    ("cycles", result.cycles),
                    ("IPC", f"{result.ipc:.4f}"),
                    ("LLC miss rate", f"{result.miss_rate:.4f}"),
                    ("AMAT (cycles)", f"{result.amat:.2f}"),
                    ("contention rate", f"{result.contention_rate:.4f}"),
                    ("interference rate", f"{result.interference_rate:.4f}"),
                    ("thefts experienced", result.thefts_experienced),
                    ("branch accuracy", f"{result.branch_accuracy:.4f}"),
                    ("LLC occupancy", f"{result.occupancy:.3f}"),
                ],
                title=f"{args.workload} on {config.name}",
            ))
        if args.json:
            _write_or_print(json.dumps(result_to_dict(result), sort_keys=True),
                            args.json, "result JSON")
        if args.metrics:
            _write_or_print(format_metrics(observe.registry), args.metrics,
                            "metrics")
        if args.events:
            count = write_events_jsonl(observe.events, args.events)
            print(f"wrote {count} events to {args.events}"
                  + (f" ({observe.events.dropped} dropped past capacity)"
                     if observe.events.dropped else ""))

    if profiler is not None:
        with profiler.span("report"):
            report()
        if args.chrome_trace:
            count = write_chrome_trace(args.chrome_trace, trace=observe.events,
                                       profiler=profiler,
                                       run_label=result.label())
            print(f"wrote {count} trace events to {args.chrome_trace}")
    else:
        report()
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    """``repro obs`` — summarise a JSONL event log and map hot sets."""
    from repro.obs import build_heatmap, load_events_jsonl

    events, meta = load_events_jsonl(args.events)
    retained: dict = {}
    for event in events:
        retained[event.kind] = retained.get(event.kind, 0) + 1
    totals = meta.get("counts", retained)
    rows = [(kind, totals.get(kind, 0), retained.get(kind, 0))
            for kind in sorted(set(totals) | set(retained))]
    print(format_table(
        ["Kind", "Total", "Retained"], rows,
        title=f"{len(events)} events from {args.events}"
              + (f" ({meta['dropped']} dropped)" if meta.get("dropped")
                 else ""),
    ))
    if not events:
        return 0
    n_sets = args.sets or max(event.set_index for event in events) + 1
    kinds = tuple(args.kinds.split(","))
    heatmap = build_heatmap(events, n_sets=n_sets, interval=args.interval,
                            kinds=kinds)
    hottest = heatmap.hottest_sets(args.top)
    if not hottest:
        print(f"no {'/'.join(kinds)} events to map")
        return 0
    print(format_table(
        ["Set", "Events"], hottest,
        title=f"hottest sets ({'+'.join(kinds)})",
    ))
    print(heatmap.render(max_rows=args.top))
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """``repro sweep`` — P_induce sweep + sensitivity class per workload."""
    config = _resolve_machine(args)
    scale = ExperimentScale(warmup_instructions=args.warmup,
                            sim_instructions=args.instructions,
                            sample_interval=max(1, args.instructions // 10),
                            seed=args.seed)
    library = TraceLibrary(config, scale)
    p_values = (tuple(args.p_induce) if args.p_induce
                else PAPER_PINDUCE_SWEEP)
    for name in args.workloads:
        trace = library.get(name)
        isolation = simulate(trace, config,
                             warmup_instructions=scale.warmup_instructions,
                             sim_instructions=scale.sim_instructions,
                             sample_interval=scale.sample_interval,
                             seed=scale.seed)
        results = [
            simulate(trace, config, pinte=PinteConfig(p, seed=scale.seed),
                     warmup_instructions=scale.warmup_instructions,
                     sim_instructions=scale.sim_instructions,
                     sample_interval=scale.sample_interval, seed=scale.seed)
            for p in p_values
        ]
        rows = [
            (f"{r.p_induce:.3f}", f"{r.ipc / isolation.ipc:.3f}",
             f"{r.miss_rate:.3f}", f"{r.amat:.1f}",
             f"{r.interference_rate:.3f}")
            for r in results
        ]
        print(format_table(
            ["P_induce", "weighted IPC", "MR", "AMAT", "interference"],
            rows,
            title=f"{name} (isolation IPC {isolation.ipc:.4f})",
        ))
        report = classify(name, results, isolation)
        curve = contention_curve(results, isolation.ipc)
        print(f"sensitivity: {report.classification.upper()} "
              f"(SCP {report.scp:.0%}, TPL {report.tpl:.0%}, "
              f"{len(curve)} contention-rate groups)\n")
    return 0


def cmd_characterize(args: argparse.Namespace) -> int:
    """``repro characterize`` — declared vs measured behaviour classes."""
    from repro.sim.characterize import characterize

    config = _resolve_machine(args)
    rows = []
    for name in args.workloads:
        spec = get_workload(name)
        trace = build_trace(spec, args.warmup + args.instructions, args.seed,
                            config.llc.size)
        profile = characterize(trace, config,
                               warmup_instructions=args.warmup,
                               sim_instructions=args.instructions,
                               seed=args.seed)
        rows.append((
            name, spec.klass, profile.inferred_class(config),
            f"{profile.ipc:.3f}", f"{profile.amat:.1f}",
            f"{profile.l2_mpki:.1f}", f"{profile.llc_mpki:.1f}",
            f"{profile.llc_apki:.1f}",
        ))
    print(format_table(
        ["Benchmark", "Declared", "Measured", "IPC", "AMAT", "L2 MPKI",
         "LLC MPKI", "LLC APKI"],
        rows,
        title=f"workload characterisation on {config.name}",
    ))
    return 0


def cmd_mrc(args: argparse.Namespace) -> int:
    """``repro mrc`` — miss-rate curve and working-set knee of a workload."""
    from repro.analysis.mrc import trace_mrc, working_set_knee

    config = _resolve_machine(args)
    spec = get_workload(args.workload)
    trace = build_trace(spec, args.length, args.seed, config.llc.size)
    llc_blocks = config.llc.size // config.block_size
    capacities = sorted({max(1, llc_blocks // 16), llc_blocks // 8,
                         llc_blocks // 4, llc_blocks // 2, llc_blocks,
                         llc_blocks * 2})
    curve = trace_mrc(trace, capacities, max_depth=llc_blocks * 2)
    rows = [(capacity, f"{capacity * config.block_size // 1024} KB",
             f"{curve[capacity]:.3f}") for capacity in capacities]
    print(format_table(
        ["Blocks", "Capacity", "Miss rate"],
        rows,
        title=f"{args.workload} miss-rate curve ({args.length} instructions)",
    ))
    knee = working_set_knee(curve)
    print(f"working-set knee: {knee} blocks "
          f"(~{knee * config.block_size // 1024} KB)")
    return 0


def cmd_partition_study(args: argparse.Namespace) -> int:
    """``repro partition-study`` — LLC partitioning schemes vs thefts.

    Runs the registry's ``partition_study`` artifact for the requested
    victim/aggressor pair: plan, execute inline, aggregate, render.
    """
    from repro.experiments import partition_study
    from repro.experiments.registry import (
        PlanContext,
        UnionPlan,
        _aggregate_partition,
        _plan_partition,
        execute_plan,
    )

    config = _resolve_machine(args)
    scale = ExperimentScale(warmup_instructions=args.warmup,
                            sim_instructions=args.instructions,
                            sample_interval=max(1, args.instructions // 8),
                            seed=args.seed)
    ctx = PlanContext(config=config, scale=scale, suite=())
    pair = (args.victim, args.aggressor)
    for name in pair:
        get_workload(name)  # an unknown name fails here, in one line
    planned = _plan_partition(ctx, pair=pair)
    plan = UnionPlan(artifacts=("partition_study",),
                     per_artifact={"partition_study": planned},
                     unique=planned)
    outcome = execute_plan(plan)
    result = _aggregate_partition(ctx, outcome.results, pair=pair)
    print(partition_study.format_report(result))
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    """``repro reproduce`` — regenerate every paper table/figure report."""
    from repro.experiments.reproduce import run_reproduction, suite_for_name
    from repro.sim import ExperimentScale

    config = _resolve_machine(args)
    scale = ExperimentScale(warmup_instructions=args.warmup,
                            sim_instructions=args.instructions,
                            sample_interval=max(1, args.instructions // 10),
                            seed=args.seed)
    suite = suite_for_name(args.suite)
    reports = run_reproduction(
        config=config, scale=scale, suite=suite,
        panel_size=args.panel,
        include_standalone=args.full,
        output_dir=Path(args.output) if args.output else None,
        processes=args.processes,
        trace_store=args.trace_cache,
        artifacts=args.artifacts,
        store=args.store,
        resume=args.resume,
        inject=args.inject,
    )
    for artifact in sorted(reports):
        print(f"\n{'=' * 72}\n[{artifact}]\n{reports[artifact]}")
    if args.output:
        print(f"\nreports written to {args.output}/")
    return 0


def _artifact_context(args: argparse.Namespace):
    """Build the PlanContext an ``artifact plan|run`` invocation describes."""
    from repro.experiments.registry import PlanContext
    from repro.experiments.reproduce import suite_for_name

    config = _resolve_machine(args)
    scale = ExperimentScale(warmup_instructions=args.warmup,
                            sim_instructions=args.instructions,
                            sample_interval=max(1, args.instructions // 10),
                            seed=args.seed)
    return PlanContext(config=config, scale=scale,
                       suite=tuple(suite_for_name(args.suite)),
                       panel_size=args.panel)


def cmd_artifact(args: argparse.Namespace) -> int:
    """``repro artifact ls|plan|run`` — the declarative artifact registry."""
    from repro.experiments.registry import (
        artifact_names,
        execute_plan,
        get_artifact,
        plan_union,
    )

    if args.artifact_command == "ls":
        rows = [(name, get_artifact(name).title) for name in artifact_names()]
        print(format_table(["Artifact", "Title"], rows,
                           title=f"{len(rows)} registered artifacts"))
        return 0

    ctx = _artifact_context(args)
    names = args.names or artifact_names()
    plan = plan_union(names, ctx)

    if args.artifact_command == "plan":
        rows = [(name, len(plan.per_artifact[name]))
                for name in plan.artifacts]
        rows.append(("planned (sum over artifacts)", plan.planned_total))
        rows.append(("unique (will execute)", plan.unique_total))
        rows.append(("dedup ratio", f"{plan.dedup_ratio:.2f}x"))
        print(format_table(["Artifact", "Jobs"], rows,
                           title=f"union plan for {len(plan.artifacts)} "
                                 f"artifact(s), suite {args.suite!r}"))
        return 0

    outcome = execute_plan(plan, processes=args.processes, store=args.store,
                           resume=args.resume, trace_store=args.trace_cache,
                           progress=_campaign_progress)
    print(f"executed {outcome.executed} job(s), skipped {outcome.skipped} "
          f"(resume), {outcome.failed} failed "
          f"[{plan.planned_total} planned -> {plan.unique_total} unique, "
          f"{plan.dedup_ratio:.2f}x dedup]")
    for name in plan.artifacts:
        text = get_artifact(name).report(ctx, outcome.results)
        print(f"\n{'=' * 72}\n[{name}]\n{text}")
        if args.output:
            output = Path(args.output)
            output.mkdir(parents=True, exist_ok=True)
            (output / f"{name}.txt").write_text(text + "\n")
    if args.output:
        print(f"\nreports written to {args.output}/")
    return 0


def cmd_components(args: argparse.Namespace) -> int:
    """``repro components ls`` — every registered component + capabilities."""
    rows = []
    for registry in iter_registries():
        if args.kind and args.kind.lower() not in registry.kind:
            continue
        for spec in registry.specs():
            summary = spec.summary
            if len(summary) > 44:
                summary = summary[:41] + "..."
            rows.append((spec.kind, spec.name,
                         "seed" if spec.accepts_seed else "",
                         ", ".join(p for p in spec.tunable_params
                                   if p != "seed"),
                         summary))
    if not rows:
        print(f"no components match kind {args.kind!r}")
        return 1
    print(format_table(
        ["Kind", "Name", "Seeded", "Tunables", "Summary"], rows,
        title=f"{len(rows)} registered components",
    ))
    return 0


def cmd_config_show(args: argparse.Namespace) -> int:
    """``repro config show`` — canonical TOML for a named or file config."""
    config = _named_or_file(args.name)
    text = machine_to_toml(config)
    if args.output:
        Path(args.output).write_text(text)
        print(f"wrote machine config {config.name!r} to {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_config_validate(args: argparse.Namespace) -> int:
    """``repro config validate`` — schema-check TOML files; exit 1 on error."""
    from repro.configio import machine_from_toml

    failed = 0
    for path in args.files:
        try:
            config = load_machine_config(path)
        except ValueError as exc:
            print(f"FAIL {exc}")
            failed += 1
            continue
        # A valid file must also survive the canonical round-trip: what
        # `config show` would emit for it parses back to the same machine.
        if machine_from_toml(machine_to_toml(config)) != config:
            print(f"FAIL {path}: canonical round-trip drifted")
            failed += 1
            continue
        print(f"ok   {path}: machine {config.name!r}")
    return 1 if failed else 0


def _flatten_payload(payload: dict, prefix: str = "") -> dict:
    """Dotted-path view of a canonical config dict, for field-level diffs."""
    flat = {}
    for key, value in payload.items():
        dotted = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten_payload(value, prefix=f"{dotted}."))
        else:
            flat[dotted] = value
    return flat


def cmd_config_diff(args: argparse.Namespace) -> int:
    """``repro config diff`` — field-level diff of two machine configs.

    Exits 0 when the canonical payloads are identical (same job ids), 1
    when they differ — usable as a predicate in scripts.
    """
    flat_a = _flatten_payload(machine_to_dict(_named_or_file(args.a)))
    flat_b = _flatten_payload(machine_to_dict(_named_or_file(args.b)))
    rows = [(key, flat_a.get(key, "<absent>"), flat_b.get(key, "<absent>"))
            for key in sorted(set(flat_a) | set(flat_b))
            if flat_a.get(key, "<absent>") != flat_b.get(key, "<absent>")]
    if not rows:
        print(f"{args.a} == {args.b}: identical canonical payloads "
              "(identical job ids)")
        return 0
    print(format_table(["Field", args.a, args.b], rows,
                       title=f"{len(rows)} differing field(s)"))
    return 1


def _campaign_progress(event: dict) -> None:
    """Progress printer shared by ``campaign run`` and ``resume``."""
    kind = event["event"]
    if kind == "retry":
        print(f"    {event['label']} attempt {event['attempt']} failed "
              f"({event['failure_kind']}); retrying in "
              f"{event['retry_delay']:.1f}s")
        return
    if kind == "done":
        status = "ok"
    elif kind == "failed":
        status = f"FAILED ({event['failure_kind']})"
    else:
        return
    eta = event.get("eta_seconds")
    eta_text = f"  eta {eta:.0f}s" if eta else ""
    print(f"[{event['completed'] + event['failed']}/{event['total']}] "
          f"{event['label']}: {status}{eta_text}")


def _campaign_summary(report) -> None:
    """Print the end-of-campaign report table (+ failure details)."""
    rows = [
        ("jobs selected", report.total),
        ("executed", report.executed),
        ("resumed (skipped)", report.skipped),
        ("failed", report.failed),
        ("retries", report.retries),
        ("wall time", f"{report.wall_time_seconds:.1f}s"),
    ]
    if report.store_path is not None:
        rows.append(("result store", report.store_path))
        rows.append(("failure manifest", report.failure_manifest_path))
    print(format_table(["Campaign", "Value"], rows, title="campaign summary"))
    for failure in report.failures:
        print(f"  FAILED {failure.job_id} "
              f"{failure.job.workload}[{failure.job.mode}]: "
              f"{failure.kind}/{failure.error_type}: {failure.message} "
              f"(after {failure.attempts} attempt(s))")


def _campaign_scale(args: argparse.Namespace):
    """Build the ExperimentScale a campaign command describes."""
    return ExperimentScale(warmup_instructions=args.warmup,
                           sim_instructions=args.instructions,
                           sample_interval=max(1, args.instructions // 10),
                           seed=args.seed)


def _require_store(path: str) -> None:
    """One clean line — not a traceback — when the store isn't there yet.

    ``campaign status``/``watch`` read a store some other process is
    writing; pointing them at a path nothing ever wrote is an operator
    typo, so fail fast with the command that would create it.
    """
    from repro.campaign import manifest_path_for

    store = Path(path)
    if not store.exists():
        raise SystemExit(f"campaign: no result store at {path}; start one "
                         f"with `repro campaign run --store {path} ...`")
    if store.stat().st_size == 0 and not manifest_path_for(path).exists():
        raise SystemExit(f"campaign: result store {path} is empty and has "
                         "no manifest next to it; was the campaign started "
                         "with `repro campaign run`?")


def cmd_campaign_run(args: argparse.Namespace) -> int:
    """``repro campaign run`` — start (or resume) a stored campaign."""
    from repro.campaign import (
        RetryPolicy,
        campaign_jobs,
        parse_shard,
        run_campaign,
        write_campaign_manifest,
    )
    from repro.campaign.engine import check_limits
    from repro.sim import adversary_panel
    from repro.sim.batch import Job

    config = _resolve_machine(args)
    scale = _campaign_scale(args)
    panel = {}
    if args.panel:
        panel = {name: adversary_panel(name, args.workloads, args.panel)
                 for name in args.workloads}
    jobs = campaign_jobs(args.workloads,
                         p_values=tuple(args.p_induce or ()), panel=panel)
    for inject in args.inject or ():
        name = inject if inject.startswith("__fault:") else f"__fault:{inject}"
        jobs.append(Job(name))
    shard = parse_shard(args.shard) if args.shard else None
    retry = RetryPolicy(max_attempts=args.retries,
                        backoff_seconds=args.backoff)
    check_limits(args.processes, args.timeout)  # before the manifest lands
    if not args.resume:
        manifest = write_campaign_manifest(
            args.store, jobs, config, scale,
            machine_preset=config.name if args.config else args.machine,
            retry=retry.to_dict(), timeout_seconds=args.timeout,
            shard=shard, processes=args.processes,
            trace_cache=args.trace_cache,
            telemetry_interval=args.telemetry, plugins=args.plugins)
        print(f"wrote campaign manifest to {manifest}")
    report = run_campaign(jobs, config, scale, processes=args.processes,
                          retry=retry, timeout_seconds=args.timeout,
                          store=args.store, resume=args.resume, shard=shard,
                          progress=_campaign_progress,
                          trace_store=args.trace_cache,
                          telemetry=args.telemetry)
    _campaign_summary(report)
    return 1 if args.strict and report.failures else 0


def _manifest_machine(manifest: dict) -> MachineConfig:
    """The machine a campaign manifest pins.

    v3 manifests carry the full canonical ``machine_config`` (already a
    :class:`MachineConfig` after :func:`load_campaign_manifest`), so the
    exact machine — including ``--config`` files never registered under a
    name — is recoverable. Legacy manifests fall back to the recorded
    preset name.
    """
    config = manifest.get("machine_config")
    if isinstance(config, MachineConfig):
        return config
    return _machine(manifest["machine_preset"])


def cmd_campaign_status(args: argparse.Namespace) -> int:
    """``repro campaign status`` — progress of a stored campaign."""
    from repro.campaign import (
        ResultStore,
        job_id,
        load_campaign_manifest,
        manifest_path_for,
        telemetry_dir_for,
    )

    _require_store(args.store)
    if args.follow:
        from repro.campaign.watch import render_status_line, watch_campaign

        watch_campaign(args.store, interval_seconds=args.interval,
                       iterations=args.iterations, clear=False,
                       render=render_status_line)
        return 0
    contents = ResultStore(args.store).load()
    rows = [("stored results", len(contents.results)),
            ("stored failures", len(contents.failures))]
    if contents.truncated_lines:
        rows.append(("torn trailing lines repaired (job reruns)",
                     contents.truncated_lines))
    manifest_path = manifest_path_for(args.store)
    if manifest_path.exists():
        manifest = load_campaign_manifest(manifest_path)
        config = _manifest_machine(manifest)
        scale = manifest["scale"]
        ids = [job_id(job, config, scale) for job in manifest["jobs"]]
        done = sum(1 for jid in ids if jid in contents.results)
        failed = sum(1 for jid in ids if jid in contents.failures)
        rows = [
            ("campaign jobs", len(ids)),
            ("completed", done),
            ("failed", failed),
            ("pending", len(ids) - done - failed),
        ] + rows
        if manifest.get("shard"):
            index, count = manifest["shard"]
            rows.append(("last run shard", f"{index}/{count}"))
        if manifest.get("trace_cache"):
            rows.append(("trace cache", manifest["trace_cache"]))
    else:
        rows.append(("manifest", f"missing ({manifest_path})"))
    # Trace-build cost: summed from the stored results' extras, which is
    # how worker-process tallies come home (each worker has its own
    # in-memory registry).
    cache_hits = cache_misses = 0
    gen_seconds = 0.0
    for record in contents.results.values():
        extra = record["result"].get("extra") or {}
        cache_hits += int(extra.get("trace_cache_hits", 0))
        cache_misses += int(extra.get("trace_cache_misses", 0))
        gen_seconds += float(extra.get("phase_trace_gen_seconds", 0.0))
    if cache_hits or cache_misses:
        rows.append(("trace cache hits", cache_hits))
        rows.append(("trace generations (cache misses)", cache_misses))
        rows.append(("trace build time", f"{gen_seconds:.2f}s"))
    # Failure-class breakdown: what *kind* of failing is going on.
    kinds: dict = {}
    retries_exhausted = 0
    for record in contents.failures.values():
        failure = record.get("failure") or {}
        kind = failure.get("kind", "error")
        kinds[kind] = kinds.get(kind, 0) + 1
        if int(failure.get("attempts", 1)) > 1:
            retries_exhausted += 1
    for kind in sorted(kinds):
        rows.append((f"failures: {kind}", kinds[kind]))
    if retries_exhausted:
        rows.append(("failures after retries exhausted", retries_exhausted))
    telemetry_dir = telemetry_dir_for(args.store)
    if telemetry_dir.is_dir():
        from repro.obs.telemetry import CampaignTelemetry

        telemetry = CampaignTelemetry(telemetry_dir)
        telemetry.poll()
        rows.append(("telemetry spools", len(telemetry.jobs)))
        running = [job for job in telemetry.running_jobs()
                   if job.job_id not in contents.results
                   and job.job_id not in contents.failures]
        if running:
            rows.append(("telemetry: jobs in flight", len(running)))
        if telemetry.corrupt_lines:
            rows.append(("telemetry: corrupt lines skipped",
                         telemetry.corrupt_lines))
    print(format_table(["Campaign", "Value"], rows,
                       title=f"status of {args.store}"))
    for jid in sorted(contents.failures):
        failure = contents.failures[jid]["failure"]
        job = contents.failures[jid]["job"]
        print(f"  FAILED {jid} {job['workload']}[{job['mode']}]: "
              f"{failure['kind']}/{failure['error_type']}: "
              f"{failure['message']}")
    return 0


def cmd_campaign_resume(args: argparse.Namespace) -> int:
    """``repro campaign resume`` — finish a stored campaign's pending jobs.

    Reads the manifest next to the store; by default the *whole* campaign
    is resumed (all shards), so one machine can mop up after a sharded
    run. Completed jobs are skipped by id; recorded failures are retried.
    """
    from repro.campaign import (
        RetryPolicy,
        load_campaign_manifest,
        manifest_path_for,
        parse_shard,
        run_campaign,
    )

    manifest_path = manifest_path_for(args.store)
    if not manifest_path.exists():
        raise SystemExit(f"no campaign manifest at {manifest_path}; "
                         "was this store created by `repro campaign run`?")
    manifest = load_campaign_manifest(manifest_path)
    for spec in manifest.get("plugins") or ():
        load_plugin(spec)
    config = (_load_config_file(args.config) if args.config
              else _manifest_machine(manifest))
    scale = manifest["scale"]
    retry_fields = dict(manifest.get("retry") or {})
    if args.retries is not None:
        retry_fields["max_attempts"] = args.retries
    if args.backoff is not None:
        retry_fields["backoff_seconds"] = args.backoff
    timeout = (args.timeout if args.timeout is not None
               else manifest.get("timeout_seconds"))
    shard = parse_shard(args.shard) if args.shard else None
    trace_cache = (args.trace_cache if args.trace_cache is not None
                   else manifest.get("trace_cache"))
    telemetry = (args.telemetry if args.telemetry is not None
                 else manifest.get("telemetry_interval"))
    report = run_campaign(manifest["jobs"], config, scale,
                          processes=args.processes,
                          retry=RetryPolicy(**retry_fields),
                          timeout_seconds=timeout, store=args.store,
                          resume=True, shard=shard,
                          progress=_campaign_progress,
                          trace_store=trace_cache,
                          telemetry=telemetry)
    _campaign_summary(report)
    return 1 if args.strict and report.failures else 0


def cmd_campaign_watch(args: argparse.Namespace) -> int:
    """``repro campaign watch`` — live plain-text campaign dashboard."""
    from repro.campaign.watch import watch_campaign

    _require_store(args.store)
    try:
        view = watch_campaign(args.store, interval_seconds=args.interval,
                              iterations=args.iterations,
                              clear=not args.no_clear)
    except KeyboardInterrupt:
        print()
        return 0
    return 0 if view.failed == 0 else 1


def cmd_campaign_timeline(args: argparse.Namespace) -> int:
    """``repro campaign timeline`` — merged Chrome trace of all jobs."""
    from repro.campaign.watch import write_campaign_timeline

    try:
        count = write_campaign_timeline(args.store, args.output)
    except FileNotFoundError as exc:
        raise SystemExit(f"campaign timeline: {exc}")
    print(f"wrote {count} trace events to {args.output} "
          "(open in ui.perfetto.dev)")
    return 0


def cmd_trace_build(args: argparse.Namespace) -> int:
    """``repro trace build`` — export one synthetic trace to a file."""
    config = _resolve_machine(args)
    workload = get_workload(args.workload)
    trace = build_trace(workload, args.length, args.seed, config.llc.size)
    count = write_trace(trace, args.output)
    print(f"wrote {count} records for {args.workload} to {args.output} "
          "(PNTR2)")
    return 0


def cmd_trace_info(args: argparse.Namespace) -> int:
    """``repro trace info`` — summarise a trace file's contents."""
    import gzip

    from repro.trace import read_trace
    from repro.trace.packed import (
        FLAG_BRANCH,
        FLAG_HAS_LOAD,
        FLAG_HAS_STORE,
        as_packed,
    )

    path = Path(args.path)
    with gzip.open(path, "rb") as handle:
        magic = handle.read(6)
    packed = as_packed(read_trace(path))
    flags = packed.flags
    rows = [
        ("file", path),
        ("format", magic.strip().decode("ascii", "replace")),
        ("name", packed.name),
        ("records", len(packed)),
        ("size on disk", f"{path.stat().st_size:,} bytes"),
        ("loads", sum(1 for f in flags if f & FLAG_HAS_LOAD)),
        ("stores", sum(1 for f in flags if f & FLAG_HAS_STORE)),
        ("branches", sum(1 for f in flags if f & FLAG_BRANCH)),
    ]
    print(format_table(["Trace", "Value"], rows, title=f"trace {path.name}"))
    return 0


def cmd_trace_cache(args: argparse.Namespace) -> int:
    """``repro trace cache prime|ls|clear`` — manage the shared store."""
    from repro.trace.store import TraceStore

    store = TraceStore(args.dir)
    if args.cache_command == "prime":
        config = _resolve_machine(args)
        length = args.length
        generated, reused = store.prime(args.workloads, config.llc.size,
                                        length, args.seed)
        print(f"primed {store.root}: {generated} generated, "
              f"{reused} already cached "
              f"(llc={config.llc.size}, length={length}, seed={args.seed})")
        return 0
    if args.cache_command == "ls":
        entries = store.entries()
        if not entries:
            print(f"trace store {store.root} is empty")
            return 0
        rows = [(entry.path.name,
                 f"{entry.name}  {entry.records:,} records  "
                 f"{entry.size_bytes:,} bytes")
                for entry in entries]
        print(format_table(["File", "Contents"], rows,
                           title=f"trace store {store.root}"))
        return 0
    removed = store.clear()  # cache_command == "clear"
    print(f"removed {removed} trace file(s) from {store.root}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the full ``repro`` argument parser (all subcommands)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PInTE (IISWC 2022) reproduction toolkit",
    )
    parser.add_argument("--plugin", action="append", default=None,
                        dest="plugins", metavar="MODULE",
                        help="import a third-party component plugin (dotted "
                             "module path or .py file) before the command "
                             "runs; repeatable (see docs/CONFIGURATION.md)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list workload models")
    p_list.add_argument("--class", dest="klass", default=None,
                        help="filter by behaviour class")
    p_list.set_defaults(func=cmd_list)

    p_run = sub.add_parser("run", help="simulate one workload")
    p_run.add_argument("workload", help="benchmark name, e.g. 470.lbm")
    p_run.add_argument("--p-induce", type=float, default=None,
                       help="enable PInTE at this induction probability")
    p_run.add_argument("--periodic", action="store_true",
                       help="use the periodic (independent-module) trigger")
    p_run.add_argument("--dram-background", type=float, default=0.0,
                       help="background DRAM requests per kilocycle")
    p_run.add_argument("--versus", default=None,
                       help="run 2nd-Trace mode against this workload "
                            "(combine with --p-induce for the hybrid "
                            "induced+real contention context)")
    p_run.add_argument("--json", default=None, metavar="PATH",
                       help="write the full result as JSON "
                            "('-' for stdout, suppresses the table)")
    p_run.add_argument("--metrics", default=None, metavar="PATH",
                       help="dump the unified metric registry "
                            "('-' for stdout)")
    p_run.add_argument("--events", default=None, metavar="PATH",
                       help="trace cache/PInTE events to a JSONL file")
    p_run.add_argument("--chrome-trace", default=None, metavar="PATH",
                       help="write a Chrome trace_event file "
                            "(load in ui.perfetto.dev)")
    p_run.add_argument("--event-capacity", type=int, default=1 << 16,
                       help="event ring capacity (default: 65536)")
    _add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_campaign = sub.add_parser(
        "campaign", help="fault-tolerant campaign engine (see docs/CAMPAIGNS.md)")
    campaign_sub = p_campaign.add_subparsers(dest="campaign_command",
                                             required=True)

    c_run = campaign_sub.add_parser(
        "run", help="run a campaign into a JSONL result store")
    c_run.add_argument("--store", required=True, metavar="PATH",
                       help="JSONL result store (manifest written next to it)")
    c_run.add_argument("--workloads", nargs="+", required=True,
                       help="benchmark names")
    c_run.add_argument("--p-induce", type=float, nargs="*", default=None,
                       help="PInTE sweep values (one job per workload each)")
    c_run.add_argument("--panel", type=int, default=0,
                       help="2nd-Trace adversaries per workload (default: 0)")
    c_run.add_argument("--processes", type=int, default=None,
                       help="worker processes (default: one per CPU); "
                            "1 with no --timeout runs inline")
    c_run.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                       help="kill+retry any job running longer than this")
    c_run.add_argument("--retries", type=int, default=3, metavar="N",
                       help="attempts per job before recording a failure "
                            "(default: 3)")
    c_run.add_argument("--backoff", type=float, default=0.5, metavar="SECONDS",
                       help="base retry backoff, doubled per attempt "
                            "(default: 0.5)")
    c_run.add_argument("--shard", default=None, metavar="I/N",
                       help="run only this machine's 1/N-th of the campaign")
    c_run.add_argument("--resume", action="store_true",
                       help="skip jobs already stored (same as "
                            "`campaign resume`, but re-deriving jobs from "
                            "the flags rather than the manifest)")
    c_run.add_argument("--inject", action="append", default=None,
                       metavar="FAULT",
                       help="append a fault-injection job, e.g. raise, "
                            "hang, flaky:2+470.lbm (testing/CI)")
    c_run.add_argument("--strict", action="store_true",
                       help="exit 1 if any job failed permanently")
    c_run.add_argument("--trace-cache", default=None, metavar="PATH",
                       help="shared on-disk trace store directory: workers "
                            "load traces from it instead of regenerating "
                            "(prime with `repro trace cache prime`)")
    c_run.add_argument("--telemetry", type=float, nargs="?", const=1.0,
                       default=None, metavar="SECONDS",
                       help="spool per-job telemetry (metrics, spans, "
                            "resource samples) under <store>.telemetry/ "
                            "at this cadence (bare flag: 1s); enables "
                            "`campaign watch` and `campaign timeline`")
    _add_common(c_run)
    c_run.set_defaults(func=cmd_campaign_run)

    c_status = campaign_sub.add_parser(
        "status", help="show completed/failed/pending for a stored campaign")
    c_status.add_argument("store", help="JSONL result store path")
    c_status.add_argument("--follow", action="store_true",
                          help="append a one-line summary every --interval "
                               "seconds until the campaign completes "
                               "(non-TTY variant of `campaign watch`)")
    c_status.add_argument("--interval", type=float, default=2.0,
                          metavar="SECONDS",
                          help="refresh cadence for --follow (default: 2)")
    c_status.add_argument("--iterations", type=int, default=None, metavar="N",
                          help="stop --follow after N refreshes (default: "
                               "until complete)")
    c_status.set_defaults(func=cmd_campaign_status)

    c_watch = campaign_sub.add_parser(
        "watch", help="live refreshing dashboard for a stored campaign "
                      "(progress, ETA, slowest jobs, failure classes)")
    c_watch.add_argument("store", help="JSONL result store path")
    c_watch.add_argument("--interval", type=float, default=2.0,
                         metavar="SECONDS",
                         help="refresh cadence (default: 2)")
    c_watch.add_argument("--iterations", type=int, default=None, metavar="N",
                         help="render N frames then exit (default: until "
                              "the campaign completes)")
    c_watch.add_argument("--no-clear", action="store_true",
                         help="append frames instead of redrawing (for "
                              "piping to a file)")
    c_watch.set_defaults(func=cmd_campaign_watch)

    c_timeline = campaign_sub.add_parser(
        "timeline", help="merge all jobs' telemetry into one Chrome trace "
                         "(open in ui.perfetto.dev)")
    c_timeline.add_argument("store", help="JSONL result store path")
    c_timeline.add_argument("-o", "--output", required=True, metavar="PATH",
                            help="output trace_event JSON file")
    c_timeline.set_defaults(func=cmd_campaign_timeline)

    c_resume = campaign_sub.add_parser(
        "resume", help="finish a stored campaign (skips completed job ids)")
    c_resume.add_argument("store", help="JSONL result store path")
    c_resume.add_argument("--config", default=None, metavar="FILE.toml",
                          help="machine config TOML (default: the canonical "
                               "machine_config the manifest recorded)")
    c_resume.add_argument("--processes", type=int, default=None)
    c_resume.add_argument("--timeout", type=float, default=None)
    c_resume.add_argument("--retries", type=int, default=None)
    c_resume.add_argument("--backoff", type=float, default=None)
    c_resume.add_argument("--shard", default=None, metavar="I/N",
                          help="resume only one shard (default: whole "
                               "campaign)")
    c_resume.add_argument("--strict", action="store_true",
                          help="exit 1 if any job failed permanently")
    c_resume.add_argument("--trace-cache", default=None, metavar="PATH",
                          help="trace store directory (default: the one "
                               "recorded in the campaign manifest)")
    c_resume.add_argument("--telemetry", type=float, nargs="?", const=1.0,
                          default=None, metavar="SECONDS",
                          help="telemetry cadence (default: whatever the "
                               "campaign manifest recorded)")
    c_resume.set_defaults(func=cmd_campaign_resume)

    p_obs = sub.add_parser("obs", help="inspect a JSONL event log")
    p_obs.add_argument("events", help="JSONL file written by run --events")
    p_obs.add_argument("--top", type=int, default=10,
                       help="hottest sets to show (default: 10)")
    p_obs.add_argument("--kinds", default="theft,evict",
                       help="comma-separated event kinds for the heatmap "
                            "(default: theft,evict)")
    p_obs.add_argument("--interval", type=int, default=1_000,
                       help="heatmap column width in cycles (default: 1000)")
    p_obs.add_argument("--sets", type=int, default=None,
                       help="cache sets (default: inferred from the log)")
    p_obs.set_defaults(func=cmd_obs)

    p_sweep = sub.add_parser("sweep", help="PInTE sensitivity sweep")
    p_sweep.add_argument("workloads", nargs="+", help="benchmark names")
    p_sweep.add_argument("--p-induce", type=float, nargs="*", default=None,
                         help="P_induce values (default: the paper's 12)")
    _add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_char = sub.add_parser("characterize",
                            help="measure workload behaviour classes")
    p_char.add_argument("workloads", nargs="+", help="benchmark names")
    _add_common(p_char)
    p_char.set_defaults(func=cmd_characterize)

    p_mrc = sub.add_parser("mrc", help="miss-rate curve of a workload")
    p_mrc.add_argument("workload", help="benchmark name")
    p_mrc.add_argument("--length", type=int, default=20_000,
                       help="instructions to profile (default: 20000)")
    p_mrc.add_argument("--machine", default="scaled",
                       help="named machine config (default: scaled)")
    p_mrc.add_argument("--seed", type=int, default=1)
    p_mrc.set_defaults(func=cmd_mrc)

    p_part = sub.add_parser("partition-study",
                            help="compare LLC partitioning schemes")
    p_part.add_argument("--victim", default="450.soplex")
    p_part.add_argument("--aggressor", default="470.lbm")
    _add_common(p_part)
    p_part.set_defaults(func=cmd_partition_study)

    p_repro = sub.add_parser("reproduce",
                             help="regenerate the paper's tables/figures")
    p_repro.add_argument("--suite", default="quick",
                         choices=("quick", "core"))
    p_repro.add_argument("--panel", type=int, default=3,
                         help="2nd-Trace adversaries per benchmark")
    p_repro.add_argument("--full", action="store_true",
                         help="include the standalone Fig 3/10/11 campaigns")
    p_repro.add_argument("--output", default=None,
                         help="directory to write <artifact>.txt reports")
    p_repro.add_argument("--processes", type=int, default=None,
                         help="fan the context campaign out over N worker "
                              "processes (identical results)")
    p_repro.add_argument("--trace-cache", default=None, metavar="PATH",
                         help="shared on-disk trace store directory")
    p_repro.add_argument("--artifacts", nargs="+", default=None,
                         metavar="NAME",
                         help="explicit registry subset (default: bundle "
                              "artifacts; see `repro artifact ls`)")
    p_repro.add_argument("--store", default=None, metavar="PATH",
                         help="persistent JSONL result store for the "
                              "reproduction campaign")
    p_repro.add_argument("--resume", action="store_true",
                         help="skip jobs already in --store and finish the "
                              "interrupted reproduction")
    p_repro.add_argument("--inject", default=None, metavar="FAULT",
                         help="insert one fault-injection job, e.g. raise, "
                              "exit, hang, flaky:2+470.lbm (testing/CI)")
    _add_common(p_repro)
    p_repro.set_defaults(func=cmd_reproduce)

    p_art = sub.add_parser(
        "artifact", help="the declarative artifact registry (plan/run)")
    art_sub = p_art.add_subparsers(dest="artifact_command", required=True)
    a_ls = art_sub.add_parser("ls", help="list registered artifacts")
    a_ls.set_defaults(func=cmd_artifact)
    for verb, verb_help in (("plan", "preview the deduplicated union plan"),
                            ("run", "execute artifacts via the campaign "
                                    "engine and render them")):
        a_verb = art_sub.add_parser(verb, help=verb_help)
        a_verb.add_argument("names", nargs="*",
                            help="artifact names (default: all registered)")
        a_verb.add_argument("--suite", default="quick",
                            choices=("quick", "core"))
        a_verb.add_argument("--panel", type=int, default=3,
                            help="2nd-Trace adversaries per benchmark")
        if verb == "run":
            a_verb.add_argument("--processes", type=int, default=None,
                                help="worker processes (default: inline)")
            a_verb.add_argument("--store", default=None, metavar="PATH",
                                help="persistent JSONL result store")
            a_verb.add_argument("--resume", action="store_true",
                                help="skip jobs already in --store")
            a_verb.add_argument("--trace-cache", default=None,
                                metavar="PATH",
                                help="shared on-disk trace store directory")
            a_verb.add_argument("--output", default=None, metavar="DIR",
                                help="also write <artifact>.txt reports")
        _add_common(a_verb)
        a_verb.set_defaults(func=cmd_artifact)

    p_components = sub.add_parser(
        "components", help="the unified component registry")
    components_sub = p_components.add_subparsers(dest="components_command",
                                                 required=True)
    k_ls = components_sub.add_parser(
        "ls", help="list every registered component and its capabilities")
    k_ls.add_argument("--kind", default=None,
                      help="filter by kind substring, e.g. 'prefetcher' or "
                           "'machine'")
    k_ls.set_defaults(func=cmd_components)

    p_config = sub.add_parser(
        "config", help="declarative machine configs (TOML; see "
                       "docs/CONFIGURATION.md)")
    config_sub = p_config.add_subparsers(dest="config_command", required=True)
    f_show = config_sub.add_parser(
        "show", help="print a machine config as canonical TOML")
    f_show.add_argument("name",
                        help="registry name (e.g. scaled, "
                             "scaled@replacement=rrip) or a TOML file")
    f_show.add_argument("-o", "--output", default=None, metavar="PATH",
                        help="write the TOML here instead of stdout")
    f_show.set_defaults(func=cmd_config_show)
    f_validate = config_sub.add_parser(
        "validate", help="schema-check machine config TOML files")
    f_validate.add_argument("files", nargs="+", help="TOML files to check")
    f_validate.set_defaults(func=cmd_config_validate)
    f_diff = config_sub.add_parser(
        "diff", help="field-level diff of two machine configs "
                     "(exit 1 when they differ)")
    f_diff.add_argument("a", help="registry name or TOML file")
    f_diff.add_argument("b", help="registry name or TOML file")
    f_diff.set_defaults(func=cmd_config_diff)

    p_trace = sub.add_parser(
        "trace", help="trace files and the shared on-disk trace store")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)

    t_build = trace_sub.add_parser("build", help="generate a trace file")
    t_build.add_argument("workload", help="benchmark name")
    t_build.add_argument("output", help="output path (.trace.gz)")
    t_build.add_argument("--length", type=int, default=100_000,
                         help="instructions to generate (default: 100000)")
    t_build.add_argument("--machine", default="scaled",
                         help="named machine config (default: scaled)")
    t_build.add_argument("--seed", type=int, default=1)
    t_build.set_defaults(func=cmd_trace_build)

    t_info = trace_sub.add_parser("info", help="summarise a trace file")
    t_info.add_argument("path", help="trace file (.trace.gz)")
    t_info.set_defaults(func=cmd_trace_info)

    t_cache = trace_sub.add_parser(
        "cache", help="manage the shared on-disk trace store")
    cache_sub = t_cache.add_subparsers(dest="cache_command", required=True)
    tc_prime = cache_sub.add_parser(
        "prime", help="pre-build traces into the store")
    tc_prime.add_argument("--dir", required=True, metavar="PATH",
                          help="trace store directory")
    tc_prime.add_argument("--workloads", nargs="+", required=True,
                          help="benchmark names to prime")
    tc_prime.add_argument("--length", type=int, default=50_000,
                          help="trace length in instructions "
                               "(default: 50000 = campaign default "
                               "warmup+instructions)")
    tc_prime.add_argument("--machine", default="scaled",
                          help="named machine config (default: scaled)")
    tc_prime.add_argument("--seed", type=int, default=1)
    tc_prime.set_defaults(func=cmd_trace_cache)
    tc_ls = cache_sub.add_parser("ls", help="list cached traces")
    tc_ls.add_argument("--dir", required=True, metavar="PATH")
    tc_ls.set_defaults(func=cmd_trace_cache)
    tc_clear = cache_sub.add_parser("clear", help="delete cached traces")
    tc_clear.add_argument("--dir", required=True, metavar="PATH")
    tc_clear.set_defaults(func=cmd_trace_cache)

    return parser


#: Lowest value each scale flag accepts: ``(flag, attribute, minimum)``.
_SCALE_FLAG_MINIMA = (("--instructions", "instructions", 1),
                      ("--warmup", "warmup", 0),
                      ("--panel", "panel", 0))


def _check_scale_flags(args: argparse.Namespace) -> None:
    """Reject a scale flag no run can honour, before anything runs."""
    for flag, attribute, minimum in _SCALE_FLAG_MINIMA:
        value = getattr(args, attribute, None)
        if value is not None and value < minimum:
            raise SystemExit(f"repro: {flag} must be >= {minimum}, "
                             f"got {value}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    Unknown component names — workloads, machine configs, policies — are
    reported as one clean ``repro: unknown <kind> ...`` line (with
    did-you-mean candidates) instead of a traceback, mirroring the
    result-store checks in the campaign commands; so are campaign limits
    no run can honour (``--processes 0``, ``--timeout 0``) and scale flags
    out of range (``--instructions 0``, ``--warmup -1``, ``--panel -1``).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_scale_flags(args)
    for spec in args.plugins or ():
        try:
            load_plugin(spec)
        except (ImportError, FileNotFoundError) as exc:
            raise SystemExit(f"repro: --plugin {spec}: {exc}")
    try:
        return args.func(args)
    except (UnknownComponentError, CampaignLimitError) as exc:
        raise SystemExit(f"repro: {exc}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
