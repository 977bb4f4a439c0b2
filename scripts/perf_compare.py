#!/usr/bin/env python3
"""Compare perfbench between a parent revision and the current checkout.

Exports the parent revision's committed files with ``git archive`` into a
temporary directory, then runs ``perfbench/run.py --trace 0`` (the command
and run length that ``BENCHMARK.json`` declares) on both trees. For each
workload it runs 10 pairs of runs, parent and change in alternating order
so a slow stretch of the host hits both sides alike. For every end-to-end
metric it prints each side's median [q1, q3] over the runs, how many pairs
the change won, and how its median gap compares with the parent's
interquartile range; then it appends the whole verdict to
``benchmarks/reports/BENCH_perfbench.json``.

A metric's verdict is

* ``worse`` when the change's median is worse than the parent's by more
  than the metric's ``bound`` in ``BENCHMARK.json``;
* ``better`` when the change wins at least 9 of 10 pairs and its median is
  better than the parent's by more than the parent's IQR;
* ``same`` otherwise.

The comparison fails (exit 1) when any metric is ``worse``, or when a run
of the change exits non-zero or reports an output that failed its check.

Usage::

    python3 scripts/perf_compare.py HEAD~1                  # every workload
    python3 scripts/perf_compare.py HEAD~1 pinte-timing     # a subset

The runs are sequential and take about a minute per pair per workload.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCHMARK_FILE = REPO_ROOT / "BENCHMARK.json"
REPORT = REPO_ROOT / "benchmarks" / "reports" / "BENCH_perfbench.json"
#: Pairs of runs per workload.
PAIRS = 10
#: Pairs the change must win, with a median gap beyond the parent's IQR,
#: for a metric to count as better.
WINS_FOR_GAIN = 9
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(("git", "-C", str(REPO_ROOT)) + args, check=True,
                          capture_output=True, text=True).stdout.strip()


def export_tree(rev: str, destination: Path) -> None:
    """Write the committed files of ``rev`` under ``destination``."""
    archive = subprocess.run(("git", "-C", str(REPO_ROOT), "archive", rev),
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(destination, filter="data")


def run_once(benchmark: dict, tree: Path, workload: str) -> Optional[dict]:
    """One perfbench run in ``tree``: its JSON result, or None on a crash."""
    command = list(benchmark["command"]) + [
        "--workload", workload, "--seconds", str(benchmark["run_seconds"]),
        "--trace", "0"]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(lines[-1])


def quartiles(values: List[float]) -> Dict[str, float]:
    """Median and quartiles (inclusive method; a single value is all three)."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare_metric(parent: List[float], change: List[float], better: str,
                   bound: float) -> dict:
    """The verdict for one metric from paired runs (index i = pair i)."""
    sign = 1.0 if better == "higher" else -1.0
    before, after = quartiles(parent), quartiles(change)
    gain = sign * (after["median"] - before["median"])
    iqr = before["q3"] - before["q1"]
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    relative = (gain / abs(before["median"])) if before["median"] else 0.0
    if relative < -bound:
        verdict = "worse"
    elif wins >= WINS_FOR_GAIN and gain > iqr:
        verdict = "better"
    else:
        verdict = "same"
    return {"parent": before, "change": after, "wins": wins,
            "pairs": len(parent), "gain": relative,
            "gap_over_iqr": gain / iqr if iqr else None, "verdict": verdict}


def compare_workload(runs: Dict[str, List[Optional[dict]]],
                     end_to_end: List[dict]) -> dict:
    """Fold both sides' runs of one workload into per-metric verdicts,
    one per ``BENCHMARK.json`` ``end_to_end`` entry."""
    failures = {}
    for side in SIDES:
        done = [run for run in runs[side] if run is not None]
        failures[side] = {
            "crashed_runs": len(runs[side]) - len(done),
            "attempted": sum(run["attempted"] for run in done),
            "failed": sum(run["failed"] for run in done),
            "incorrect_runs": sum(1 for run in done if not run["correct"])}
    # Only pairs where both runs completed are compared.
    pairs = [(p, c) for p, c in zip(runs["parent"], runs["change"])
             if p is not None and c is not None]
    metrics = {}
    for spec in end_to_end:
        name = spec["name"]
        if pairs and all(name in run["metrics"] for pair in pairs
                         for run in pair):
            metrics[name] = compare_metric(
                [p["metrics"][name]["value"] for p, _ in pairs],
                [c["metrics"][name]["value"] for _, c in pairs],
                spec["better"], spec["bound"])
    return {"failures": failures, "metrics": metrics}


def workload_ok(result: dict) -> bool:
    """No worse metric, and every run of the change completed correctly."""
    change = result["failures"]["change"]
    return (change["crashed_runs"] == 0 and change["incorrect_runs"] == 0
            and bool(result["metrics"])
            and all(metric["verdict"] != "worse"
                    for metric in result["metrics"].values()))


def print_workload(name: str, result: dict) -> None:
    print(f"\n{name}")
    for side in SIDES:
        failures = result["failures"][side]
        print(f"  {side:7s} {failures['failed']}/{failures['attempted']} "
              f"operations failed, {failures['crashed_runs']} runs crashed, "
              f"{failures['incorrect_runs']} incorrect")
    print(f"  {'metric':12s} {'parent median [q1, q3]':>34s} "
          f"{'change median [q1, q3]':>34s} {'wins':>6s} {'gain':>7s} "
          f"{'gap/IQR':>8s}  verdict")
    for metric, row in result["metrics"].items():
        cells = [f"{row[side]['median']:.4g} [{row[side]['q1']:.4g}, "
                 f"{row[side]['q3']:.4g}]" for side in SIDES]
        ratio = ("-" if row["gap_over_iqr"] is None
                 else f"{row['gap_over_iqr']:+.2f}")
        print(f"  {metric:12s} {cells[0]:>34s} {cells[1]:>34s} "
              f"{row['wins']:>3d}/{row['pairs']:<2d} {row['gain']:+7.1%} "
              f"{ratio:>8s}  {row['verdict']}")


def append_report(entry: dict) -> None:
    document = (json.loads(REPORT.read_text()) if REPORT.exists()
                else {"runs": []})
    document["runs"].append(entry)
    REPORT.parent.mkdir(parents=True, exist_ok=True)
    REPORT.write_text(json.dumps(document, indent=1) + "\n")


def main(argv=None) -> int:
    benchmark = json.loads(BENCHMARK_FILE.read_text())
    names = [spec["name"] for spec in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="git revision to compare against")
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help=f"workloads to run (default: all of "
                             f"{', '.join(names)})")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.workloads) - set(names))
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}; "
                     f"BENCHMARK.json has {', '.join(names)}")
    workloads = args.workloads or names
    parent_sha = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    change_sha = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--untracked-files=no"))

    scratch = Path(tempfile.mkdtemp(prefix="perf_compare-"))
    trees = {"parent": scratch / "parent", "change": REPO_ROOT}
    results = {}
    try:
        export_tree(parent_sha, trees["parent"])
        for workload in workloads:
            runs = {side: [] for side in SIDES}
            for pair in range(PAIRS):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    runs[side].append(
                        run_once(benchmark, trees[side], workload))
                print(f"{workload}: pair {pair + 1}/{PAIRS} done",
                      file=sys.stderr, flush=True)
            results[workload] = compare_workload(runs,
                                                 benchmark["end_to_end"])
            print_workload(workload, results[workload])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    ok = all(workload_ok(result) for result in results.values())
    append_report({
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "parent": parent_sha,
        "change": change_sha + ("+uncommitted" if dirty else ""),
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "run_seconds": benchmark["run_seconds"],
        "pairs": PAIRS,
        "ok": ok,
        "workloads": results,
    })
    print(f"\n{'OK' if ok else 'FAILED'}: verdict appended to "
          f"{REPORT.relative_to(REPO_ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
