"""Tests for result serialisation."""

import dataclasses
import json

import pytest

from repro.sim.serialize import (
    load_results,
    result_from_dict,
    result_to_dict,
    results_to_csv,
    save_results,
)


class TestRoundTrip:
    def test_dict_round_trip(self, lbm_pinte):
        clone = result_from_dict(result_to_dict(lbm_pinte))
        assert clone.trace_name == lbm_pinte.trace_name
        assert clone.ipc == lbm_pinte.ipc
        assert clone.p_induce == lbm_pinte.p_induce
        assert clone.reuse_histogram == lbm_pinte.reuse_histogram
        assert clone.extra == lbm_pinte.extra

    def test_samples_survive(self, lbm_pinte):
        clone = result_from_dict(result_to_dict(lbm_pinte))
        assert len(clone.samples) == len(lbm_pinte.samples)
        assert clone.sample_series("ipc") == lbm_pinte.sample_series("ipc")

    def test_file_round_trip(self, tmp_path, lbm_isolation, lbm_pinte):
        path = tmp_path / "results.json"
        assert save_results([lbm_isolation, lbm_pinte], path) == 2
        loaded = load_results(path)
        assert [r.label() for r in loaded] == [lbm_isolation.label(),
                                               lbm_pinte.label()]

    def test_derived_metrics_work_after_load(self, tmp_path, lbm_pinte):
        path = tmp_path / "r.json"
        save_results([lbm_pinte], path)
        loaded = load_results(path)[0]
        assert loaded.llc_mpki == lbm_pinte.llc_mpki
        assert loaded.prefetch_miss_rate == lbm_pinte.prefetch_miss_rate


class TestMatchesAsdict:
    """``result_to_dict`` is a one-pass copy; ``dataclasses.asdict`` is the
    reference it must reproduce exactly."""

    @pytest.fixture()
    def nested(self, lbm_isolation, lbm_pinte):
        co = dataclasses.replace(lbm_isolation,
                                 co_results=[lbm_isolation],
                                 extra={"secondary_ipc": 0.5})
        return dataclasses.replace(lbm_pinte, co_results=[co, lbm_pinte])

    def test_equal_dicts_and_json(self, nested):
        assert nested.samples and nested.extra and nested.co_results
        payload = result_to_dict(nested)
        reference = dataclasses.asdict(nested)
        assert payload == reference
        assert (json.dumps(payload, sort_keys=True)
                == json.dumps(reference, sort_keys=True))
        # Same key order too: save_results writes unsorted JSON.
        assert json.dumps(payload) == json.dumps(reference)

    def test_copy_is_independent(self, nested):
        payload = result_to_dict(nested)
        payload["reuse_histogram"].append(1)
        payload["extra"]["added"] = 1.0
        payload["samples"][0]["ipc"] = -1.0
        assert dataclasses.asdict(nested) == result_to_dict(nested)
        assert "added" not in nested.extra


class TestValidation:
    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "other", "results": []}))
        with pytest.raises(ValueError, match="format"):
            load_results(path)

    def test_unknown_fields_rejected(self, lbm_isolation):
        payload = result_to_dict(lbm_isolation)
        payload["bogus_field"] = 1
        with pytest.raises(ValueError, match="unknown result fields"):
            result_from_dict(payload)


class TestCsv:
    def test_csv_rows(self, tmp_path, lbm_isolation, lbm_pinte):
        path = tmp_path / "r.csv"
        assert results_to_csv([lbm_isolation, lbm_pinte], path) == 2
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3
        header = lines[0].split(",")
        assert "ipc" in header
        row = lines[2].split(",")
        assert row[header.index("mode")] == "pinte"

    def test_none_fields_empty(self, tmp_path, lbm_isolation):
        path = tmp_path / "r.csv"
        results_to_csv([lbm_isolation], path)
        lines = path.read_text().strip().splitlines()
        header = lines[0].split(",")
        row = lines[1].split(",")
        assert row[header.index("p_induce")] == ""
