"""The verdict logic of ``scripts/perf_compare.py`` on synthetic runs."""

import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

sys.path.insert(0, str(REPO_ROOT / "scripts"))
try:
    import perf_compare
finally:
    sys.path.pop(0)


END_TO_END = [{"name": "pass_s", "better": "lower", "bound": 0.25}]


def run(value, failed=0, metric="pass_s"):
    return {"correct": failed == 0, "attempted": 10, "failed": failed,
            "metrics": {metric: {"value": value, "unit": "s"}}}


class TestQuartiles:
    def test_inclusive_quartiles(self):
        assert perf_compare.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == {
            "median": 3.0, "q1": 2.0, "q3": 4.0}

    def test_single_value(self):
        assert perf_compare.quartiles([7.0]) == {
            "median": 7.0, "q1": 7.0, "q3": 7.0}


class TestCompareMetric:
    PARENT = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]

    def test_noise_is_same(self):
        row = perf_compare.compare_metric(self.PARENT, self.PARENT[::-1],
                                          "lower", 0.25)
        assert row["verdict"] == "same"
        assert row["pairs"] == 10

    def test_faster_on_every_pair_is_better(self):
        change = [value * 0.8 for value in self.PARENT]
        row = perf_compare.compare_metric(self.PARENT, change, "lower", 0.25)
        assert row["wins"] == 10
        assert row["gain"] == pytest.approx(0.2)
        assert row["gap_over_iqr"] > 1
        assert row["verdict"] == "better"

    def test_direction_follows_better(self):
        change = [value * 0.8 for value in self.PARENT]
        row = perf_compare.compare_metric(self.PARENT, change, "higher", 0.25)
        assert row["wins"] == 0
        assert row["verdict"] == "same"  # 20% lower, inside the 25% bound

    def test_beyond_the_bound_is_worse(self):
        change = [value * 1.3 for value in self.PARENT]
        row = perf_compare.compare_metric(self.PARENT, change, "lower", 0.25)
        assert row["verdict"] == "worse"

    def test_eight_wins_is_not_a_gain(self):
        change = [value * 0.8 for value in self.PARENT]
        change[0] = change[1] = 20.0
        row = perf_compare.compare_metric(self.PARENT, change, "lower", 0.25)
        assert row["wins"] == 8
        assert row["verdict"] == "same"


class TestCompareWorkload:
    def test_crashed_pairs_are_skipped_and_counted(self):
        runs = {"parent": [run(10.0), None, run(10.0)],
                "change": [run(10.0), run(10.0), None]}
        result = perf_compare.compare_workload(runs, END_TO_END)
        assert result["metrics"]["pass_s"]["pairs"] == 1
        assert result["failures"]["change"]["crashed_runs"] == 1
        assert not perf_compare.workload_ok(result)

    def test_failed_operation_fails_the_workload(self):
        runs = {"parent": [run(10.0)] * 3,
                "change": [run(10.0), run(10.0, failed=1), run(10.0)]}
        result = perf_compare.compare_workload(runs, END_TO_END)
        assert result["failures"]["change"]["failed"] == 1
        assert not perf_compare.workload_ok(result)

    def test_clean_equal_runs_pass(self):
        runs = {"parent": [run(10.0)] * 3, "change": [run(10.0)] * 3}
        result = perf_compare.compare_workload(runs, END_TO_END)
        assert perf_compare.workload_ok(result)


def test_unknown_workload_rejected(capsys):
    with pytest.raises(SystemExit) as excinfo:
        perf_compare.main(["HEAD", "no-such-workload"])
    assert excinfo.value.code == 2
    assert "unknown workload" in capsys.readouterr().err
