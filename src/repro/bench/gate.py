"""Benchmark-regression gate: compare a fresh run against a BENCH file.

``repro bench --baseline benchmarks/reports/BENCH_<suite>.json --check``
re-runs the suite the baseline file records and fails (exit code 1) when
any metric regressed by more than the tolerance. The gate is *generic*
over suites because every bench result dataclass follows one naming
convention:

* ``*_per_sec`` — throughput, higher is better;
* ``*_ratio``   — a computed ratio (dedup factor, enabled/plain overhead
  ratio), higher is better;
* ``*_seconds`` — wall time, lower is better;
* anything else (``repeats``, ``python``, job counts, ...) is metadata
  and ignored.

The reference values come from the baseline document's ``current`` entry
(what the last committed ``repro bench`` run measured), falling back to
``seed_baseline`` for files that only carry the seed record. CI runs the
gate in ``--report-only`` mode — shared runners are too noisy for a hard
wall — while release branches can enforce it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Union

__all__ = [
    "DEFAULT_TOLERANCE",
    "GateReport",
    "MetricCheck",
    "check_regressions",
    "load_reference",
    "metric_direction",
    "run_gate",
    "suite_for_baseline",
]

#: Allowed fractional regression before the gate trips. Generous on
#: purpose: these suites run on shared CI machines with noisy neighbours.
DEFAULT_TOLERANCE = 0.30

#: Suite name -> callable running it at (repeats, scale) -> result object.
_SUITES = ("datapath", "trace", "reproduce", "obs", "session")


def metric_direction(name: str) -> Optional[str]:
    """``"higher"``/``"lower"`` for gated metrics, ``None`` for metadata."""
    if name.endswith("_per_sec") or name.endswith("_ratio"):
        return "higher"
    if name.endswith("_seconds"):
        return "lower"
    return None


def suite_for_baseline(path: Union[str, Path]) -> str:
    """Infer the bench suite from a ``BENCH_<suite>.json`` filename."""
    stem = Path(path).stem
    if stem.startswith("BENCH_"):
        suite = stem[len("BENCH_"):]
        if suite in _SUITES:
            return suite
    raise ValueError(
        f"cannot infer bench suite from {Path(path).name!r}; expected "
        f"BENCH_<suite>.json with suite in {', '.join(_SUITES)}")


def load_reference(path: Union[str, Path]) -> Dict[str, float]:
    """Reference metric values from a BENCH file (``current`` preferred)."""
    document = json.loads(Path(path).read_text())
    reference = document.get("current") or document.get("seed_baseline")
    if not isinstance(reference, dict):
        raise ValueError(f"{path}: no 'current' or 'seed_baseline' entry")
    return {name: value for name, value in reference.items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)}


@dataclass
class MetricCheck:
    """One gated metric's verdict."""

    name: str
    direction: str
    reference: float
    measured: float
    #: Signed change in the *better* direction: +0.10 = 10% improvement,
    #: -0.10 = 10% regression, whatever the metric's polarity.
    change: float
    regressed: bool


@dataclass
class GateReport:
    """Outcome of one gate run against one baseline file."""

    suite: str
    baseline_path: Path
    tolerance: float
    checks: List[MetricCheck] = field(default_factory=list)
    #: Baseline metrics the fresh run did not produce (schema drift).
    missing: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricCheck]:
        return [check for check in self.checks if check.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions


def check_regressions(measured: Dict[str, float],
                      reference: Dict[str, float],
                      tolerance: float = DEFAULT_TOLERANCE) -> List[MetricCheck]:
    """Compare every gated metric present in the reference.

    A metric regresses when it moved more than ``tolerance`` (fractional)
    in its *worse* direction; improvements never trip the gate.
    """
    if tolerance < 0:
        raise ValueError("tolerance must be >= 0")
    checks: List[MetricCheck] = []
    for name in sorted(reference):
        direction = metric_direction(name)
        if direction is None or name not in measured:
            continue
        ref = float(reference[name])
        new = float(measured[name])
        if ref <= 0:
            continue  # degenerate baseline; nothing meaningful to gate
        if direction == "higher":
            change = new / ref - 1.0
        else:
            change = ref / new - 1.0 if new > 0 else -1.0
        checks.append(MetricCheck(
            name=name, direction=direction, reference=ref, measured=new,
            change=change, regressed=change < -tolerance))
    return checks


def _run_suite(suite: str, repeats: int, scale: float) -> dict:
    """Execute one bench suite and return its metrics as a plain dict."""
    if suite == "datapath":
        from repro.bench.datapath import run_datapath_bench
        result = run_datapath_bench(repeats=repeats, scale=scale)
    elif suite == "trace":
        from repro.bench.trace import run_trace_bench
        result = run_trace_bench(repeats=repeats, scale=scale)
    elif suite == "reproduce":
        from repro.bench.reproduce import run_reproduce_bench
        result = run_reproduce_bench(repeats=repeats, scale=scale)
    elif suite == "obs":
        from repro.bench.obs import run_obs_overhead_bench
        result = run_obs_overhead_bench(repeats=repeats, scale=scale)
    elif suite == "session":
        from repro.bench.session import run_session_bench
        result = run_session_bench(repeats=repeats, scale=scale)
    else:
        raise ValueError(f"unknown bench suite {suite!r}")
    metrics = dict(vars(result))
    # Derived metrics (e.g. the obs suite's enabled/plain ratios) live as
    # properties on the result class; the BENCH files record them too.
    for name in dir(type(result)):
        if isinstance(getattr(type(result), name, None), property):
            metrics[name] = getattr(result, name)
    return metrics


def run_gate(baseline_path: Union[str, Path],
             tolerance: float = DEFAULT_TOLERANCE,
             repeats: int = 3, scale: float = 1.0,
             measured: Optional[Dict[str, float]] = None,
             suite: Optional[str] = None) -> GateReport:
    """Run the baseline's suite afresh and gate it (the CLI entry point).

    ``measured`` short-circuits the fresh run with precomputed metrics —
    that is what unit tests use to exercise verdicts deterministically.
    ``suite`` overrides the suite inferred from the baseline filename —
    how ``repro bench --suite session --baseline BENCH_datapath.json``
    gates the session-layer run against the datapath floors (the two
    suites share their four metric names by construction).
    """
    baseline_path = Path(baseline_path)
    if suite is None:
        suite = suite_for_baseline(baseline_path)
    elif suite not in _SUITES:
        raise ValueError(f"unknown bench suite {suite!r}; "
                         f"known: {', '.join(_SUITES)}")
    reference = load_reference(baseline_path)
    if measured is None:
        measured = _run_suite(suite, repeats, scale)
    report = GateReport(suite=suite, baseline_path=baseline_path,
                        tolerance=tolerance)
    report.checks = check_regressions(measured, reference, tolerance)
    gated = {check.name for check in report.checks}
    report.missing = [name for name in sorted(reference)
                      if metric_direction(name) is not None
                      and name not in measured and name not in gated]
    return report
