"""Shared fixtures for the whole test suite.

Simulation-backed fixtures are session-scoped: the expensive campaigns run
once and every analysis/experiment test reads from them.
"""

from __future__ import annotations

import pytest

from repro.config import scaled_config
from repro.core import PinteConfig
from repro.sim import ExperimentScale, simulate
from repro.trace import build_trace, get_workload

#: Tiny scale so unit tests stay fast.
TINY = ExperimentScale(warmup_instructions=1_000, sim_instructions=6_000,
                       sample_interval=1_000)


@pytest.fixture(scope="session")
def config():
    return scaled_config()


@pytest.fixture(scope="session")
def tiny_scale():
    return TINY


@pytest.fixture(scope="session")
def lbm_trace(config):
    """An LLC-bound streaming trace (contention-sensitive)."""
    return build_trace(get_workload("470.lbm"), TINY.trace_length, 1,
                       config.llc.size)


@pytest.fixture(scope="session")
def povray_trace(config):
    """A core-bound trace (contention-insensitive)."""
    return build_trace(get_workload("453.povray"), TINY.trace_length, 1,
                       config.llc.size)


@pytest.fixture(scope="session")
def gromacs_trace(config):
    """A cache-friendly trace with real LLC reuse."""
    return build_trace(get_workload("435.gromacs"), TINY.trace_length, 1,
                       config.llc.size)


@pytest.fixture(scope="session")
def lbm_isolation(lbm_trace, config):
    return simulate(lbm_trace, config,
                    warmup_instructions=TINY.warmup_instructions,
                    sim_instructions=TINY.sim_instructions,
                    sample_interval=TINY.sample_interval)


@pytest.fixture(scope="session")
def lbm_pinte(lbm_trace, config):
    return simulate(lbm_trace, config, pinte=PinteConfig(p_induce=0.5),
                    warmup_instructions=TINY.warmup_instructions,
                    sim_instructions=TINY.sim_instructions,
                    sample_interval=TINY.sample_interval)


#: Suite and sweep of the tiny three-context campaign.
TINY_SUITE = ("435.gromacs", "453.povray", "470.lbm", "605.mcf")
TINY_P_VALUES = (0.02, 0.1, 0.3, 0.7, 1.0)


@pytest.fixture(scope="session")
def tiny_context(config):
    """The plan context of the tiny three-context campaign."""
    from repro.experiments.registry import PlanContext

    return PlanContext(config=config, scale=TINY, suite=TINY_SUITE,
                       p_values=TINY_P_VALUES, panel_size=2)


@pytest.fixture(scope="session")
def tiny_results(tiny_context):
    """The tiny campaign executed through the artifact registry."""
    from repro.experiments.registry import execute_plan, plan_union
    from repro.experiments.reproduce import BUNDLE_ARTIFACTS

    return execute_plan(plan_union(BUNDLE_ARTIFACTS, tiny_context)).results


@pytest.fixture(scope="session")
def tiny_bundle(tiny_context, tiny_results):
    """A small but complete three-context campaign for experiment tests."""
    from repro.experiments.registry import bundle_from_results

    return bundle_from_results(tiny_context, tiny_results)


@pytest.fixture(scope="session")
def artifact_run():
    """Every registered artifact's jobs at the artifact-golden scale,
    executed once: ``(PlanContext, ResultMap)``."""
    from repro import goldens

    return goldens.execute_artifacts()
