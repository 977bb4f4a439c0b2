"""Tests for wall-clock phase profiling."""

import pytest

from repro.obs import PhaseProfiler


class TestSpans:
    def test_context_manager_times_a_phase(self):
        profiler = PhaseProfiler()
        with profiler.span("work"):
            sum(range(1_000))
        assert len(profiler.spans) == 1
        span = profiler.spans[0]
        assert span.name == "work"
        assert span.duration >= 0.0
        assert span.start >= 0.0

    def test_span_recorded_even_on_exception(self):
        profiler = PhaseProfiler()
        with pytest.raises(RuntimeError):
            with profiler.span("doomed"):
                raise RuntimeError("boom")
        assert [s.name for s in profiler.spans] == ["doomed"]

    def test_add_span_records_external_timing(self):
        profiler = PhaseProfiler()
        profiler.add_span("warmup", 0.5, 1.25)
        assert profiler.spans[0] == ("warmup", 0.5, 1.25)

    def test_totals_sum_recurring_phases(self):
        profiler = PhaseProfiler()
        profiler.add_span("simulate", 0.0, 1.0)
        profiler.add_span("simulate", 1.0, 2.0)
        profiler.add_span("report", 3.0, 0.5)
        assert profiler.totals() == {"simulate": 3.0, "report": 0.5}

    def test_merge_rebases_origin(self):
        parent = PhaseProfiler()
        child = PhaseProfiler()
        child.origin = parent.origin + 10.0  # child born 10s later
        child.add_span("job", 1.0, 2.0)
        parent.merge(child)
        assert parent.spans[0].start == pytest.approx(11.0)
        assert parent.spans[0].duration == 2.0


class TestHostIntegration:
    def test_simulate_fills_phases_and_extras(self, config, gromacs_trace):
        from repro.obs import Observation
        from repro.sim import simulate

        observe = Observation()
        result = simulate(gromacs_trace, config, warmup_instructions=500,
                          sim_instructions=2_000, observe=observe)
        totals = observe.profiler.totals()
        assert set(totals) == {"warmup", "simulate"}
        assert totals["simulate"] > 0.0
        assert result.extra["phase_simulate_seconds"] == pytest.approx(
            totals["simulate"])
        assert result.extra["phase_warmup_seconds"] == pytest.approx(
            totals["warmup"])

    def test_phase_extras_present_without_observe(self, config,
                                                  gromacs_trace):
        from repro.sim import simulate

        result = simulate(gromacs_trace, config, sim_instructions=1_000)
        assert "phase_simulate_seconds" in result.extra
        assert "phase_warmup_seconds" in result.extra

    def test_batch_runner_emits_job_spans(self, config):
        from repro.campaign import run_campaign
        from repro.obs import Observation
        from repro.sim.batch import Job
        from repro.sim.runner import ExperimentScale

        scale = ExperimentScale(warmup_instructions=0,
                                sim_instructions=1_000,
                                sample_interval=500)
        profiler = PhaseProfiler()
        report = run_campaign([Job("470.lbm"), Job("453.povray")], config,
                              scale, processes=1,
                              observe=Observation(profiler=profiler))
        assert len(report.results) == 2
        names = [span.name for span in profiler.spans]
        assert names == ["job0:470.lbm", "job1:453.povray"]
