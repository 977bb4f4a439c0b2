"""Shared fixtures for the benchmark harness.

The heavy three-context campaign (isolation + 12-point PInTE sweep +
2nd-Trace panel over a 16-workload suite) runs once per session through the
artifact registry; each table/figure bench consumes it, regenerates its
paper artifact, prints it, and writes it to ``benchmarks/reports/``. The
benches of artifacts that plan their own jobs (Fig 3/10/11, the n-core and
partitioning studies) run them by name with ``run_artifact``.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.config import scaled_config
from repro.core import PAPER_PINDUCE_SWEEP
from repro.experiments import CORE_SUITE
from repro.experiments.registry import (
    PlanContext,
    bundle_from_results,
    execute_plan,
    get_artifact,
    plan_union,
)
from repro.experiments.reproduce import BUNDLE_ARTIFACTS
from repro.sim import ExperimentScale

#: Scale used by the bench campaign (the scaled stand-in for the paper's
#: 500M warm-up + 500M measure, sampled every 10M).
BENCH_SCALE = ExperimentScale(
    warmup_instructions=10_000,
    sim_instructions=40_000,
    sample_interval=4_000,
    seed=1,
)

REPORT_DIR = Path(__file__).parent / "reports"


@pytest.fixture(scope="session")
def bench_config():
    return scaled_config()


@pytest.fixture(scope="session")
def bench_scale():
    return BENCH_SCALE


@pytest.fixture(scope="session")
def bench_bundle(bench_config):
    """The main campaign: 16 workloads x (1 iso + 12 PInTE + 4 pairs)."""
    ctx = PlanContext(config=bench_config, scale=BENCH_SCALE,
                      suite=CORE_SUITE, p_values=PAPER_PINDUCE_SWEEP,
                      panel_size=4)
    outcome = execute_plan(plan_union(BUNDLE_ARTIFACTS, ctx))
    return bundle_from_results(ctx, outcome.results)


@pytest.fixture(scope="session")
def run_artifact(bench_config):
    """Run one registered artifact by name; returns its result object.

    ``suite`` feeds the artifacts that read it (Fig 3 takes its first four
    workloads, every third point of the paper's sweep and three repeats);
    the others pin their own workloads.
    """
    def _run(name, scale, suite=()):
        ctx = PlanContext(config=bench_config, scale=scale, suite=suite)
        outcome = execute_plan(plan_union([name], ctx))
        return get_artifact(name).aggregate(ctx, outcome.results)

    return _run


@pytest.fixture(scope="session")
def write_report():
    """Persist a bench's paper-style report and echo it to stdout."""
    REPORT_DIR.mkdir(exist_ok=True)

    def _write(name: str, text: str) -> None:
        (REPORT_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{'=' * 72}\n{text}\n{'=' * 72}")

    return _write
