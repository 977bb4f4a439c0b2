"""Registry-vs-seed-driver equivalence: every artifact byte-identical.

The artifact registry replans each table/figure as campaign jobs and
reconstructs the driver's result object from id-keyed results. These
tests render all thirteen artifacts both ways — the seed serial drivers
exactly as the pre-registry ``run_reproduction`` invoked them, and the
registry's plan → execute → aggregate → render pipeline — and assert the
report text is byte-identical.

Wall-clock metrics (Table I and the n-core study render per-run seconds)
would differ between runs on a real clock, so both sides run under a
deterministic fake ``time.perf_counter`` that advances a fixed step per
call: durations become step x call-count, which is identical for
identical simulations regardless of execution order or host load. The
registry path also replays memoised private stages, which the serial
drivers never do; their build clock (``time.monotonic``) stands still
under the fake, so Table I's memo-off column equals the measured one on
both sides.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import pytest

from repro.config import scaled_config
from repro.experiments import (
    build_contexts,
    fig1,
    fig3,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    fig10,
    fig11,
    ncore_study,
    partition_study,
    table1,
    table2,
)
from repro.experiments.registry import (
    PlanContext,
    execute_plan,
    get_artifact,
    plan_union,
)
from repro.experiments.reproduce import run_reproduction
from repro.sim import ExperimentScale

SCALE = ExperimentScale(warmup_instructions=500, sim_instructions=2_000,
                        sample_interval=500, seed=7)
SUITE = ("435.gromacs", "453.povray", "470.lbm", "605.mcf")
P_VALUES = (0.05, 0.3, 1.0)
PANEL = 2

ALL_ARTIFACTS = ("table1", "fig1", "table2", "fig5", "fig6", "fig7", "fig8",
                 "fig9", "fig3", "fig10", "fig11", "ncore_study",
                 "partition_study")


class FakeClock:
    """Deterministic ``perf_counter``: a fixed step per call."""

    def __init__(self, step: float = 0.001) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


@contextmanager
def fake_perf_counter():
    """Swap ``time.perf_counter`` for the deterministic fake and stop the
    private-stream build clock."""
    real, real_monotonic = time.perf_counter, time.monotonic
    time.perf_counter = FakeClock()
    time.monotonic = lambda: 0.0
    try:
        yield
    finally:
        time.perf_counter, time.monotonic = real, real_monotonic


@pytest.fixture(scope="module")
def seed_texts():
    """Every artifact rendered by the seed serial drivers, with the exact
    parameters the pre-registry ``run_reproduction`` used."""
    config = scaled_config()
    with fake_perf_counter():
        bundle = build_contexts(list(SUITE), config, SCALE,
                                p_values=P_VALUES, panel_size=PANEL)
        texts = {
            "table1": table1.format_report(table1.run_table1(bundle)),
            "fig1": fig1.format_report(fig1.run_fig1(bundle)),
            "table2": table2.format_report(table2.run_table2(bundle)),
            "fig6": fig6.format_report(fig6.run_fig6(bundle)),
            "fig7": fig7.format_report(fig7.run_fig7(bundle)),
            "fig8": fig8.format_report(fig8.run_fig8(bundle)),
            "fig9": fig9.format_report(fig9.run_fig9(bundle)),
        }
        try:
            texts["fig5"] = fig5.format_report(fig5.run_fig5(bundle))
        except ValueError:
            texts["fig5"] = fig5.format_report(
                fig5.run_fig5(bundle, workloads=tuple(bundle.names[:3])))
        texts["fig3"] = fig3.format_report(
            fig3.run_fig3(list(SUITE)[:4], config, SCALE,
                          p_values=P_VALUES[::3] or P_VALUES, n_repeats=3))
        texts["fig10"] = fig10.format_report(fig10.run_fig10(scale=SCALE))
        texts["fig11"] = fig11.format_report(fig11.run_fig11(config, SCALE))
        texts["ncore_study"] = ncore_study.format_report(
            ncore_study.run_ncore_study(config, SCALE))
        texts["partition_study"] = partition_study.format_report(
            partition_study.run_partition_study(config, SCALE))
    return texts


@pytest.fixture(scope="module")
def registry_texts():
    """The same artifacts through plan -> execute -> aggregate -> render."""
    config = scaled_config()
    ctx = PlanContext(config=config, scale=SCALE, suite=SUITE,
                      p_values=P_VALUES, panel_size=PANEL)
    with fake_perf_counter():
        plan = plan_union(list(ALL_ARTIFACTS), ctx)
        outcome = execute_plan(plan)
        assert outcome.ok
        return {name: get_artifact(name).report(ctx, outcome.results)
                for name in ALL_ARTIFACTS}


@pytest.mark.parametrize("artifact", ALL_ARTIFACTS)
def test_artifact_byte_identical(seed_texts, registry_texts, artifact):
    assert registry_texts[artifact] == seed_texts[artifact]


def test_run_reproduction_matches_seed_bundle_reports(seed_texts):
    """The public reproduce loop renders the same bundle reports."""
    with fake_perf_counter():
        reports = run_reproduction(scale=SCALE, suite=SUITE,
                                   p_values=P_VALUES, panel_size=PANEL)
    for artifact, text in reports.items():
        assert text == seed_texts[artifact], artifact
