"""Tests for the artifacts that plan their own jobs: Fig 3 (stability),
Fig 10 (real system) and Fig 11 (case study). Each is aggregated from the
shared artifact campaign (``artifact_run``) through the registry."""

import pytest

from repro.experiments import fig3, fig10, fig11
from repro.experiments.registry import FIG3_REPEATS, get_artifact
from repro.experiments.suites import FIG10_SUITE


def aggregate(name, artifact_run):
    """One artifact's result object from the shared campaign."""
    ctx, results = artifact_run
    return get_artifact(name).aggregate(ctx, results)


class TestFig3:
    @pytest.fixture(scope="class")
    def result(self, artifact_run):
        return aggregate("fig3", artifact_run)

    def test_structure(self, result, artifact_run):
        ctx, _ = artifact_run
        assert set(result.per_benchmark) == set(ctx.suite[:4])
        assert set(result.per_config) == set(ctx.p_values[::3])
        assert result.n_repeats == FIG3_REPEATS

    def test_spreads_non_negative(self, result):
        for by_metric in result.per_benchmark.values():
            for values in by_metric.values():
                assert all(v >= 0 for v in values)

    def test_stability_shape(self, result):
        """PInTE re-runs must be stable: normalised std dev well under 1."""
        assert result.worst("ipc") < 0.5
        assert result.worst("miss_rate") < 0.5

    def test_medians_accessible(self, result):
        assert result.benchmark_median("470.lbm", "ipc") >= 0
        for p in result.per_config:
            assert result.config_median(p, "miss_rate") >= 0

    def test_needs_two_repeats(self, result):
        with pytest.raises(ValueError, match="at least two repeats"):
            fig3.stability_from_repeats([{}], list(result.per_benchmark),
                                        list(result.per_config))

    def test_report_renders(self, result):
        text = fig3.format_report(result)
        assert "Fig 3" in text


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self, artifact_run):
        return aggregate("fig10", artifact_run)

    def test_points_per_benchmark(self, result):
        assert set(result.real_points) == set(FIG10_SUITE)
        assert all(len(points) == len(fig10.FIG10_PINDUCE)
                   for points in result.pinte_points.values())

    def test_allocation_fraction(self, result):
        assert result.allocation_fraction == pytest.approx(14 / 16)

    def test_occupancy_proxy_non_positive_under_contention(self, result):
        """Eq. 6 measures loss from expected capacity; under a co-runner the
        LLC-bound workload cannot exceed its allocation for long."""
        lbm_points = result.real_points["619.lbm"]
        assert all(point.x <= 20.0 for point in lbm_points)

    def test_ipc_changes_are_relative_to_best(self, result):
        for points in result.pinte_points.values():
            assert max(point.ipc_change_percent for point in points) == \
                pytest.approx(0.0)

    def test_sensitive_vs_insensitive_shape(self, result):
        """lbm loses performance under PInTE; exchange2 does not."""
        assert result.max_loss("619.lbm", "pinte") < -5.0
        assert result.max_loss("648.exchange2", "pinte") > -5.0

    def test_report_renders(self, result):
        assert "Fig 10" in fig10.format_report(result)


class TestFig11:
    @pytest.fixture(scope="class")
    def result(self, artifact_run):
        return aggregate("fig11", artifact_run)

    def test_dimensions_present(self, result):
        assert set(result.sweeps) == {d.name for d in fig11.DIMENSIONS}

    def test_win_shares_sum_to_one(self, result):
        for sweep in result.sweeps.values():
            for p in result.p_values:
                assert sum(sweep.win_share[p].values()) == pytest.approx(1.0)

    def test_tie_share_in_unit_range(self, result):
        for sweep in result.sweeps.values():
            for p in result.p_values:
                assert 0.0 <= sweep.tie_share[p] <= 1.0

    def test_metrics_recorded(self, result):
        sweep = result.sweeps["replacement"]
        for p in result.p_values:
            assert set(sweep.primary[p]) == set(sweep.options)
            assert set(sweep.secondary[p]) == set(sweep.options)

    def test_winner_is_an_option(self, result):
        sweep = result.sweeps["branching"]
        for p in result.p_values:
            assert sweep.winner(p) in sweep.options

    def test_report_renders(self, result):
        text = fig11.format_report(result)
        assert "replacement" in text and "branching" in text
