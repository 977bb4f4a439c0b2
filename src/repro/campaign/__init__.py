"""Fault-tolerant simulation campaigns: run thousands of jobs, keep them.

This package runs the jobs :mod:`repro.sim.batch` declares, as a
campaign subsystem sized for the paper's cost story — Table I's
O(N·|P_induce|) single-trace runs executed with the robustness a
multi-hour fan-out needs:

* :mod:`repro.campaign.ids` — deterministic job ids (a stable hash of
  Job + MachineConfig + ExperimentScale) and ``i/n`` shard partitioning;
* :mod:`repro.campaign.store` — an append-only JSONL result store with
  atomic appends, plus campaign and failure manifests;
* :mod:`repro.campaign.engine` — the scheduler: timeouts, bounded retry
  with backoff, failure capture, resume, progress/ETA wired into
  :mod:`repro.obs`;
* :mod:`repro.campaign.pool` — the parallel executor: N persistent
  work-stealing workers, each serving its jobs' traces from its own
  :class:`~repro.trace.store.MemoryTraceStore` (the inline path keeps one
  per call);
* :mod:`repro.campaign.faults` — deterministic ``__fault:`` workloads for
  exercising every failure path in CI.

Typical flow (see ``docs/CAMPAIGNS.md`` for the full story)::

    from repro.campaign import RetryPolicy, campaign_jobs, run_campaign

    jobs = campaign_jobs(["470.lbm", "605.mcf"], p_values=(0.1, 0.5, 1.0))
    report = run_campaign(jobs, config, scale, processes=8,
                          timeout_seconds=600, store="campaign/results.jsonl")
    report.results        # every SimulationResult, job order
    report.failures       # JobFailure records — the campaign never aborts

CLI: ``repro campaign run|status|resume``.
"""

from repro.campaign.engine import (
    CampaignError,
    CampaignLimitError,
    CampaignReport,
    JobFailure,
    RetryPolicy,
    TelemetrySettings,
    execute_job,
    run_campaign,
)
from repro.campaign.faults import (
    FAULT_PREFIX,
    FaultSpec,
    InjectedFault,
    fault_workload,
    parse_fault,
)
from repro.campaign.ids import (
    ID_SCHEME,
    canonical_job_payload,
    job_from_dict,
    job_id,
    job_to_dict,
    parse_shard,
    shard_jobs,
)
from repro.campaign.store import (
    FAILURES_FORMAT,
    MANIFEST_FORMAT,
    STORE_FORMAT,
    WORKERS_FORMAT,
    ResultStore,
    StoreContents,
    canonical_records,
    failures_path_for,
    load_campaign_manifest,
    load_worker_records,
    manifest_path_for,
    telemetry_dir_for,
    workers_path_for,
    write_campaign_manifest,
    write_failure_manifest,
    write_worker_records,
)
from repro.campaign.watch import (
    CampaignView,
    build_view,
    render_dashboard,
    render_status_line,
    write_campaign_timeline,
)
from repro.sim.batch import Job, campaign_jobs, run_job

__all__ = [
    "CampaignError",
    "CampaignLimitError",
    "CampaignReport",
    "CampaignView",
    "FAILURES_FORMAT",
    "FAULT_PREFIX",
    "FaultSpec",
    "ID_SCHEME",
    "InjectedFault",
    "Job",
    "JobFailure",
    "MANIFEST_FORMAT",
    "ResultStore",
    "RetryPolicy",
    "STORE_FORMAT",
    "StoreContents",
    "TelemetrySettings",
    "WORKERS_FORMAT",
    "build_view",
    "campaign_jobs",
    "canonical_job_payload",
    "canonical_records",
    "execute_job",
    "failures_path_for",
    "fault_workload",
    "job_from_dict",
    "job_id",
    "job_to_dict",
    "load_campaign_manifest",
    "load_worker_records",
    "manifest_path_for",
    "parse_fault",
    "parse_shard",
    "render_dashboard",
    "render_status_line",
    "run_campaign",
    "run_job",
    "shard_jobs",
    "telemetry_dir_for",
    "workers_path_for",
    "write_campaign_manifest",
    "write_campaign_timeline",
    "write_worker_records",
]
