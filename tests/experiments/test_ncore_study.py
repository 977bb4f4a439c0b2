"""Tests for the n-core coverage/cost study's cost accounting."""

import pytest

from repro.experiments import ncore_study
from repro.experiments.ncore_study import NcoreResult
from repro.sim import SimulationResult


def run(wall, reused=None, contention=0.1):
    """A victim result that took ``wall`` seconds and replayed ``reused``
    seconds of memoised private stages."""
    result = SimulationResult(trace_name="450.soplex", mode="2nd-trace",
                              instructions=1000, cycles=2000, ipc=0.5,
                              miss_rate=0.1, amat=10.0,
                              contention_rate=contention,
                              wall_time_seconds=wall)
    if reused is not None:
        result.extra["phase_private_reused_seconds"] = reused
    return result


@pytest.fixture()
def study():
    # The 4-core co-run replayed most of its private stages, so its wall
    # time alone is below the 3-core run's.
    return NcoreResult(
        victim="450.soplex",
        by_cores={2: run(1.2), 3: run(1.6), 4: run(0.4, reused=1.4)},
        pinte={0.5: run(0.2, reused=0.3), 1.0: run(0.5)},
    )


class TestCost:
    def test_cost_charges_replayed_private_stages(self, study):
        assert study.cost(2) == pytest.approx(1.2)
        assert study.cost(4) == pytest.approx(1.8)
        assert study.cost(4) > study.cost(3)

    def test_pinte_mean_cost_charges_replayed_private_stages(self, study):
        assert study.pinte_mean_cost() == pytest.approx(0.5)

    def test_wall_column_renders_the_charged_cost(self, study):
        text = ncore_study.format_report(study)
        row = next(line for line in text.splitlines()
                   if line.startswith("4-core co-run"))
        assert row.split()[-1] == "1.800"
        assert "(4-core wall 1.80s)" in text
        assert "at 0.50s mean per run" in text
