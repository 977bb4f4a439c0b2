#!/usr/bin/env python3
"""Case study: does your design choice survive contention? (paper Section VI)

Runs the registry's Fig 11 artifact — every design dimension on the
case-study suite at increasing ``P_induce`` — and prints, for one dimension
(LLC replacement by default), which option wins, by how much, and how often
the result is a statistical tie: the paper's headline that isolation-tuned
advantages dissolve in a contended LLC.

Usage::

    python examples/design_under_contention.py [replacement|inclusion|
                                                prefetching|branching]
"""

import sys

from repro import scaled_config
from repro.experiments import fig11
from repro.experiments.registry import (
    PlanContext,
    execute_plan,
    get_artifact,
    plan_union,
)
from repro.sim import ExperimentScale

SCALE = ExperimentScale(warmup_instructions=5_000, sim_instructions=15_000,
                        sample_interval=3_000)


def main() -> None:
    wanted = sys.argv[1] if len(sys.argv) > 1 else "replacement"
    dimensions = [d for d in fig11.DIMENSIONS if d.name == wanted]
    if not dimensions:
        known = ", ".join(d.name for d in fig11.DIMENSIONS)
        raise SystemExit(f"unknown dimension {wanted!r}; pick one of: {known}")

    ctx = PlanContext(config=scaled_config(), scale=SCALE, suite=())
    print(f"sweeping every design dimension over P_induce "
          f"{fig11.FIG11_PINDUCE} on the case-study suite...")
    outcome = execute_plan(plan_union(["fig11"], ctx))
    result = get_artifact("fig11").aggregate(ctx, outcome.results)
    sweep = result.sweeps[wanted]
    print(f"{wanted} options: {', '.join(sweep.options)}; "
          f"workloads: {', '.join(result.workloads)}")

    print(f"\n{'P_induce':>9}  {'winner':>16}  {'win share':>9}  {'ties':>6}")
    for p in result.p_values:
        winner = sweep.winner(p)
        print(f"{p:9.3f}  {winner:>16}  "
              f"{sweep.win_share[p][winner]:9.0%}  "
              f"{sweep.tie_share[p]:6.0%}")

    p_low, p_high = result.p_values[0], result.p_values[-1]
    if sweep.tie_share[p_high] > sweep.tie_share[p_low]:
        print("\nties grew with contention: the options' advantages are "
              "being absorbed by the contended LLC (the paper's replacement/"
              "inclusion finding).")
    else:
        print("\nties did not grow: this dimension keeps its advantage "
              "under contention (the paper's speculation finding).")


if __name__ == "__main__":
    main()
