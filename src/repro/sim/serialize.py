"""Result (de)serialisation: JSON round-trip for simulation results.

Campaigns are expensive; these helpers persist every
:class:`~repro.sim.results.SimulationResult` (including per-interval
samples) so analyses can be re-run without re-simulating, and results can be
shipped to external plotting tools.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Iterable, List, Union

from repro.sim.results import Sample, SimulationResult

#: Format marker written into every file for forward compatibility.
FORMAT = "pinte-results-v1"


_RESULT_FIELDS = tuple(f.name for f in dataclasses.fields(SimulationResult))
_SAMPLE_FIELDS = tuple(f.name for f in dataclasses.fields(Sample))


def result_to_dict(result: SimulationResult) -> dict:
    """Plain-dict form of one result (samples and co-results included).

    Equal to ``dataclasses.asdict(result)``, key order included, but a
    one-pass copy of the fields instead of ``asdict``'s slower recursive
    deep copy.
    """
    payload = {name: getattr(result, name) for name in _RESULT_FIELDS}
    payload["reuse_histogram"] = list(result.reuse_histogram)
    payload["samples"] = [{name: getattr(sample, name)
                           for name in _SAMPLE_FIELDS}
                          for sample in result.samples]
    payload["extra"] = dict(result.extra)
    payload["co_results"] = [result_to_dict(co) for co in result.co_results]
    return payload


def result_from_dict(payload: dict) -> SimulationResult:
    """Inverse of :func:`result_to_dict`."""
    data = dict(payload)
    samples = [Sample(**sample) for sample in data.pop("samples", [])]
    co_results = [result_from_dict(co) for co in data.pop("co_results", [])]
    field_names = {f.name for f in dataclasses.fields(SimulationResult)}
    unknown = set(data) - field_names
    if unknown:
        raise ValueError(f"unknown result fields: {sorted(unknown)}")
    result = SimulationResult(**{k: v for k, v in data.items()
                                 if k != "samples"})
    result.samples = samples
    result.co_results = co_results
    return result


def save_results(results: Iterable[SimulationResult],
                 path: Union[str, Path]) -> int:
    """Write results to a JSON file; returns the count written."""
    payload = {
        "format": FORMAT,
        "results": [result_to_dict(result) for result in results],
    }
    Path(path).write_text(json.dumps(payload))
    return len(payload["results"])


def load_results(path: Union[str, Path]) -> List[SimulationResult]:
    """Read results previously written by :func:`save_results`."""
    payload = json.loads(Path(path).read_text())
    if payload.get("format") != FORMAT:
        raise ValueError(
            f"{path}: not a {FORMAT} file (format={payload.get('format')!r})"
        )
    return [result_from_dict(entry) for entry in payload["results"]]


def results_to_csv(results: Iterable[SimulationResult],
                   path: Union[str, Path]) -> int:
    """Flat CSV of headline metrics (one row per result), for spreadsheets
    and plotting scripts. Samples are not included — use JSON for those."""
    columns = [
        "trace_name", "mode", "p_induce", "co_runner", "seed",
        "instructions", "cycles", "ipc", "miss_rate", "amat",
        "contention_rate", "interference_rate", "thefts_experienced",
        "interference_misses", "llc_accesses", "llc_misses",
        "branch_accuracy", "occupancy",
    ]
    lines = [",".join(columns)]
    count = 0
    for result in results:
        row = []
        for column in columns:
            value = getattr(result, column)
            row.append("" if value is None else str(value))
        lines.append(",".join(row))
        count += 1
    Path(path).write_text("\n".join(lines) + "\n")
    return count
