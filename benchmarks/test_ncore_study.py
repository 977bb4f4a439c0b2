"""Extension bench: N-core co-run coverage and cost vs a PInTE sweep.

The paper's motivation claim, measured: more cores cost more wall-clock per
simulation while the single-core PInTE sweep spans at least as much of the
contention range.
"""

from repro.experiments import ncore_study
from repro.sim import ExperimentScale

SCALE = ExperimentScale(warmup_instructions=6_000, sim_instructions=24_000,
                        sample_interval=4_000)


def test_ncore_study(benchmark, run_artifact, write_report):
    result = benchmark.pedantic(
        lambda: run_artifact("ncore_study", SCALE),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    write_report("ncore_study", ncore_study.format_report(result))

    # Cost grows with core count (Table I's motivation).
    assert result.cost(4) > result.cost(2)

    # PInTE reaches at least the contention the fullest co-run produced.
    max_corun = max(result.contention_reached(c) for c in result.by_cores)
    assert result.pinte_max_contention() >= max_corun * 0.9

    # ...on one core, at a fraction of the 4-core cost.
    assert result.pinte_mean_cost() < result.cost(4)
