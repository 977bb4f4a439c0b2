"""Extension bench: partitioning vs theft contention.

Compares four LLC management schemes on a victim/aggressor pair — shared
(no partitioning), static even ways, UCP, and CASHT-style theft-driven
partitioning — reporting victim thefts, per-workload weighted IPC, system
weighted speedup and fairness (the related-work axis of the paper). The
registry's ``partition_study`` artifact repartitions every 4,000
instructions.
"""

from repro.experiments import partition_study
from repro.sim import ExperimentScale

SCALE = ExperimentScale(warmup_instructions=8_000, sim_instructions=30_000,
                        sample_interval=5_000)


def test_partitioning(benchmark, run_artifact, write_report):
    result = benchmark.pedantic(
        lambda: run_artifact("partition_study", SCALE),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    write_report("partition_study", partition_study.format_report(result))

    shared = result.outcome("shared")
    static = result.outcome("static")
    casht = result.outcome("casht")
    ucp = result.outcome("ucp")

    # Sharing produces thefts; way quotas suppress them.
    assert shared.victim_thefts > 0
    assert static.victim_thefts == 0
    assert casht.victim_thefts == 0
    assert ucp.victim_thefts <= shared.victim_thefts

    # Partitioning evens out the slowdown (fairness up vs shared).
    assert static.throughput["fairness"] > shared.throughput["fairness"]
    assert casht.throughput["fairness"] > shared.throughput["fairness"]

    # The theft-driven scheme matches static fairness without shadow tags —
    # "comparable to UCP but at a fraction of the cost" (paper Section VII-d).
    assert casht.throughput["fairness"] >= 0.8 * static.throughput["fairness"]
