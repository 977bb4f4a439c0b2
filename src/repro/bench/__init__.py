"""Performance benchmarking of the simulator's hot paths."""

from repro.bench.datapath import (
    BENCH_FILE,
    DatapathBenchResult,
    load_baseline,
    run_datapath_bench,
    write_record,
)
from repro.bench.gate import (
    DEFAULT_TOLERANCE,
    GateReport,
    MetricCheck,
    check_regressions,
    run_gate,
)
from repro.bench.reproduce import ReproduceBenchResult, run_reproduce_bench
from repro.bench.session import SessionBenchResult, run_session_bench
from repro.bench.trace import TraceBenchResult, run_trace_bench

__all__ = [
    "BENCH_FILE",
    "DEFAULT_TOLERANCE",
    "DatapathBenchResult",
    "GateReport",
    "MetricCheck",
    "ReproduceBenchResult",
    "SessionBenchResult",
    "TraceBenchResult",
    "check_regressions",
    "load_baseline",
    "run_datapath_bench",
    "run_gate",
    "run_reproduce_bench",
    "run_session_bench",
    "run_trace_bench",
    "write_record",
]
