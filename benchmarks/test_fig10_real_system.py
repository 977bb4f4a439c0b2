"""Bench for Fig 10 — 'real system' (xeon config + RDT allocation +
change-in-occupancy proxy) vs PInTE on the same six SPEC 17 benchmarks."""

from repro.experiments import fig10
from repro.experiments.suites import FIG10_SUITE
from repro.sim import ExperimentScale

SCALE = ExperimentScale(warmup_instructions=8_000, sim_instructions=24_000,
                        sample_interval=4_000)


def test_fig10(benchmark, run_artifact, write_report):
    result = benchmark.pedantic(
        lambda: run_artifact("fig10", SCALE),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    write_report("fig10", fig10.format_report(result))

    assert set(result.real_points) == set(FIG10_SUITE)
    assert result.allocation_fraction < 1.0  # RDT cap modelled

    # Paper shape: lbm loses heavily under both sources (controlled
    # contention + constrained DRAM), exchange2 is insensitive under both.
    assert result.max_loss("619.lbm", "pinte") < -5.0
    assert result.max_loss("619.lbm", "real") < -1.0
    assert result.max_loss("648.exchange2", "pinte") > -5.0
    assert result.max_loss("648.exchange2", "real") > -5.0

    # Most benchmarks agree on the sensitive / insensitive call at 5%.
    agreement = result.classification_agreement(threshold=5.0)
    assert sum(agreement.values()) >= len(agreement) - 2
