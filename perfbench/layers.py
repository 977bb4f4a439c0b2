"""Per-layer accounting for the traced run: cProfile folding and spans.

The traced run repeats one pass of a workload under the stdlib
``cProfile``. :func:`fold` maps every profiled function to one of this
repository's layers by its module path, so call counts and self time can
be read per layer. Time spent in C built-ins (``dict.get``, ``min``, ...)
is charged to the layer of the Python function that called them, using
the per-caller split cProfile keeps.

:class:`Spans` records the benchmark's own spans (set-up, each pass, each
call into a host) in memory; they are written out once, at the end.
"""

from __future__ import annotations

import json
import os
import pstats
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: Layer name -> module paths relative to ``src/repro/``. Order matters:
#: the first matching prefix wins (``cache/replacement/`` before the
#: cache files). Anything unmatched is ``other`` (config, prefetch,
#: partitioning, the benchmark itself, the standard library).
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("trace", ("trace/",)),
    ("cpu", ("cpu/",)),
    ("branch", ("branch/",)),
    ("replacement", ("cache/replacement/",)),
    ("hierarchy", ("cache/hierarchy.py",)),
    ("cache", ("cache/cache.py", "cache/state.py")),
    ("pinte", ("core/pinte.py", "core/pinte_config.py", "core/mechanics.py",
               "core/extensions.py", "util/rng.py")),
    ("tracker", ("core/counters.py",)),
    ("dram", ("dram/",)),
    ("sim", ("sim/",)),
    ("obs", ("obs/",)),
    ("campaign", ("campaign/",)),
    ("experiments", ("experiments/",)),
)

_MARKER = os.sep + "repro" + os.sep


def module_of(filename: str) -> Optional[str]:
    """``cache/cache.py`` for ``.../src/repro/cache/cache.py``, else None."""
    at = filename.rfind(_MARKER)
    if at < 0:
        return None
    return filename[at + len(_MARKER):].replace(os.sep, "/")


def layer_of(filename: str) -> str:
    """The layer a source file belongs to (``other`` when none)."""
    module = module_of(filename)
    if module is None:
        return "other"
    for layer, prefixes in LAYERS:
        if module.startswith(prefixes):
            return layer
    return "other"


class LayerProfile:
    """One traced pass folded into layers.

    ``self_s`` is per-layer self time (built-ins charged to their
    caller's layer); ``entry_calls`` counts calls that enter a layer from
    a Python function of another layer. ``calls(module, function)`` and
    ``edge(...)`` give exact counts of one function and of one
    caller -> callee pair; ``cumulative`` gives a function's inclusive
    time.
    """

    def __init__(self, stats: pstats.Stats) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.entry_calls: Dict[str, int] = defaultdict(int)
        self._calls: Dict[Tuple[str, str], int] = defaultdict(int)
        self._cumulative: Dict[Tuple[str, str], float] = defaultdict(float)
        self._edges: Dict[Tuple[str, str, str, str], int] = defaultdict(int)
        self.total_s = 0.0
        for (filename, _line, name), (_cc, ncalls, tottime, cumtime,
                                      callers) in stats.stats.items():
            self.total_s += tottime
            if filename == "~":
                # A C built-in: split its time over the calling layers.
                for (caller_file, _l, _n), edge in callers.items():
                    self.self_s[layer_of(caller_file)] += edge[2]
                continue
            layer = layer_of(filename)
            self.self_s[layer] += tottime
            module = module_of(filename) or filename
            self._calls[(module, name)] += ncalls
            self._cumulative[(module, name)] += cumtime
            for (caller_file, _l, caller_name), edge in callers.items():
                if caller_file == "~":
                    continue
                caller_module = module_of(caller_file) or caller_file
                self._edges[(caller_module, caller_name, module, name)] += edge[1]
                if layer_of(caller_file) != layer:
                    self.entry_calls[layer] += edge[1]

    def calls(self, module: str, function: str) -> int:
        """Exact call count of one function."""
        return self._calls.get((module, function), 0)

    def edge(self, caller: Tuple[str, str], callee: Tuple[str, str]) -> int:
        """Exact count of calls from ``caller`` to ``callee``."""
        return self._edges.get(caller + callee, 0)

    def cumulative(self, module: str, function: str) -> float:
        """Inclusive seconds of one function (all calls)."""
        return self._cumulative.get((module, function), 0.0)

    def self_pct(self, layer: str) -> float:
        """A layer's share of all profiled self time, in percent."""
        if self.total_s <= 0:
            return 0.0
        return 100.0 * self.self_s.get(layer, 0.0) / self.total_s

    def pct_of_total(self, seconds: float) -> float:
        """``seconds`` as a percentage of all profiled self time."""
        return 100.0 * seconds / self.total_s if self.total_s > 0 else 0.0


class Spans:
    """In-memory span log: name, start, end and the enclosing span."""

    def __init__(self) -> None:
        self.records: List[dict] = []
        self._stack: List[int] = []
        self.origin = time.perf_counter()

    def open(self, name: str, **attrs) -> int:
        index = len(self.records)
        parent = self._stack[-1] if self._stack else None
        self.records.append({"name": name, "parent": parent,
                             "start": time.perf_counter() - self.origin,
                             "end": None, **attrs})
        self._stack.append(index)
        return index

    def close(self, index: int) -> float:
        record = self.records[index]
        record["end"] = time.perf_counter() - self.origin
        self._stack.remove(index)
        return record["end"] - record["start"]

    def add(self, name: str, seconds: float, **attrs) -> None:
        """A span measured elsewhere (a campaign job's stored wall time)."""
        parent = self._stack[-1] if self._stack else None
        self.records.append({"name": name, "parent": parent, "start": None,
                             "end": None, "seconds": seconds, **attrs})

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.records) + "\n")
