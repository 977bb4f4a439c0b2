"""Unit tests for the experiment scale, trace library and adversary panel."""

import pytest

from repro.sim import ExperimentScale, TraceLibrary, adversary_panel

SCALE = ExperimentScale(warmup_instructions=500, sim_instructions=2000,
                        sample_interval=500)


class TestExperimentScale:
    def test_trace_length(self):
        assert SCALE.trace_length == 2500

    def test_defaults(self):
        scale = ExperimentScale()
        assert scale.trace_length == scale.warmup_instructions + scale.sim_instructions

    def test_zero_warmup_accepted(self):
        assert ExperimentScale(warmup_instructions=0).trace_length == 40_000

    @pytest.mark.parametrize("field, value, message", [
        ("warmup_instructions", -5, "warmup_instructions must be >= 0"),
        ("sim_instructions", 0, "sim_instructions must be >= 1"),
        ("sim_instructions", -5, "sim_instructions must be >= 1"),
        ("sample_interval", 0, "sample_interval must be >= 1"),
        ("sim_instructions", 2.5, "sim_instructions must be an int"),
        ("sample_interval", 1000.0, "sample_interval must be an int"),
        ("warmup_instructions", True, "warmup_instructions must be an int"),
        ("seed", "1", "seed must be an int"),
    ])
    def test_bad_values_rejected(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            ExperimentScale(**{field: value})


class TestTraceLibrary:
    def test_caches_traces(self, config):
        library = TraceLibrary(config, SCALE)
        a = library.get("435.gromacs")
        b = library.get("435.gromacs")
        assert a is b

    def test_distinct_lengths_distinct_traces(self, config):
        library = TraceLibrary(config, SCALE)
        a = library.get("435.gromacs")
        b = library.get("435.gromacs", length=1000)
        assert a is not b
        assert len(b) == 1000

    def test_trace_named_after_workload(self, config):
        library = TraceLibrary(config, SCALE)
        assert library.get("470.lbm").name == "470.lbm"


class TestAdversaryPanel:
    NAMES = [f"bench{i}" for i in range(10)]

    def test_excludes_target(self):
        panel = adversary_panel("bench3", self.NAMES, 4)
        assert "bench3" not in panel

    def test_size(self):
        assert len(adversary_panel("bench0", self.NAMES, 4)) == 4

    def test_no_duplicates(self):
        for name in self.NAMES:
            panel = adversary_panel(name, self.NAMES, 7)
            assert len(panel) == len(set(panel))

    def test_caps_at_available(self):
        assert len(adversary_panel("bench0", self.NAMES, 100)) == 9

    def test_deterministic(self):
        assert (adversary_panel("bench1", self.NAMES, 4)
                == adversary_panel("bench1", self.NAMES, 4))

    def test_varies_by_target(self):
        panels = {tuple(adversary_panel(n, self.NAMES, 4)) for n in self.NAMES}
        assert len(panels) > 1
