"""Tests for the fault-injection workload grammar."""

import pytest

from repro.campaign.faults import (
    FAULT_PREFIX,
    FaultSpec,
    InjectedFault,
    fault_workload,
    parse_fault,
)


class TestParseFault:
    def test_real_workload_is_not_a_fault(self):
        assert parse_fault("470.lbm") is None

    def test_raise(self):
        assert parse_fault("__fault:raise") == FaultSpec("raise")

    def test_exit_and_hang(self):
        assert parse_fault("__fault:exit").kind == "exit"
        assert parse_fault("__fault:hang").kind == "hang"

    def test_flaky(self):
        spec = parse_fault("__fault:flaky:2+470.lbm")
        assert spec == FaultSpec("flaky", fail_attempts=2,
                                 real_workload="470.lbm")

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            parse_fault("__fault:segv")

    def test_flaky_needs_count(self):
        with pytest.raises(ValueError, match="count"):
            parse_fault("__fault:flaky+470.lbm")

    def test_flaky_needs_real_workload(self):
        with pytest.raises(ValueError, match="real workload"):
            parse_fault("__fault:flaky:2")

    def test_simple_kind_takes_no_parameter(self):
        with pytest.raises(ValueError, match="no parameter"):
            parse_fault("__fault:raise:3")

    @pytest.mark.parametrize("name, grammar", [
        ("__fault:flaky:-2+470.lbm", "__fault:flaky:N+real"),
        ("__fault:flaky:x+470.lbm", "__fault:flaky:N+real"),
        ("__fault:flaky:1.5+470.lbm", "__fault:flaky:N+real"),
        ("__fault:flaky:+470.lbm", "__fault:flaky:N+real"),
        ("__fault:crash:-1+470.lbm", "__fault:crash:N+real"),
        ("__fault:crash: 1+470.lbm", "__fault:crash:N+real"),
        ("__fault:sleep:-1+470.lbm", "__fault:sleep:SECS+real"),
        ("__fault:sleep:nan+470.lbm", "__fault:sleep:SECS+real"),
        ("__fault:sleep:inf+470.lbm", "__fault:sleep:SECS+real"),
        ("__fault:sleep:soon+470.lbm", "__fault:sleep:SECS+real"),
    ])
    def test_bad_parameter_rejected_with_grammar(self, name, grammar):
        with pytest.raises(ValueError) as info:
            parse_fault(name)
        assert str(info.value).endswith(grammar)
        assert repr(name.split(":")[2].split("+")[0]) in str(info.value)

    @pytest.mark.parametrize("name, spec", [
        ("__fault:flaky:0+470.lbm", FaultSpec("flaky", 0, "470.lbm")),
        ("__fault:crash:12+470.lbm", FaultSpec("crash", 12, "470.lbm")),
        ("__fault:sleep:0+470.lbm",
         FaultSpec("sleep", real_workload="470.lbm")),
        ("__fault:sleep:0.25+470.lbm",
         FaultSpec("sleep", real_workload="470.lbm", sleep_seconds=0.25)),
    ])
    def test_boundary_parameters_accepted(self, name, spec):
        assert parse_fault(name) == spec


class TestFaultApply:
    def test_raise_always_raises(self):
        spec = parse_fault("__fault:raise")
        for attempt in (1, 2, 5):
            with pytest.raises(InjectedFault):
                spec.apply(attempt)

    def test_flaky_deterministic_by_attempt(self):
        spec = parse_fault("__fault:flaky:2+470.lbm")
        with pytest.raises(InjectedFault):
            spec.apply(1)
        with pytest.raises(InjectedFault):
            spec.apply(2)
        assert spec.apply(3) == "470.lbm"
        assert spec.apply(3) == "470.lbm"  # no hidden state


class TestFaultWorkload:
    def test_builds_parseable_names(self):
        assert fault_workload("raise") == "__fault:raise"
        assert (fault_workload("flaky", 2, "470.lbm")
                == "__fault:flaky:2+470.lbm")
        assert fault_workload("raise").startswith(FAULT_PREFIX)

    def test_validates_eagerly(self):
        with pytest.raises(ValueError):
            fault_workload("segv")
        with pytest.raises(ValueError):
            fault_workload("flaky", 2)  # missing real workload
        with pytest.raises(ValueError, match="whole number"):
            fault_workload("flaky", -2, "470.lbm")
        with pytest.raises(ValueError, match="finite"):
            fault_workload("sleep", real_workload="470.lbm",
                           sleep_seconds=-1.0)
