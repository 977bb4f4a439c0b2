"""Deterministic fault injection for exercising campaign robustness.

A campaign job whose workload name starts with ``__fault:`` does not name a
real workload model; it names a failure behaviour the worker acts out
before (or instead of) simulating. That makes the engine's retry, timeout
and failure-capture paths testable in CI with ordinary jobs — no
monkeypatching inside worker processes.

Grammar (examples)::

    __fault:raise                 always raise InjectedFault
    __fault:exit                  kill the worker process (exit code 17)
    __fault:hang                  block for an hour (trips the job timeout)
    __fault:flaky:2+470.lbm       raise on attempts 1..2, then simulate
                                  470.lbm normally — a transient failure
    __fault:crash:1+470.lbm       kill the worker on attempt 1, then
                                  simulate normally — a transient crash
    __fault:sleep:0.5+470.lbm     sleep 0.5 s, then simulate normally —
                                  a controllable straggler (work-stealing
                                  tests park one worker on it)

``flaky``/``crash``/``sleep`` require a real workload after ``+`` so the
job eventually produces a result; ``N`` is a whole number >= 0 and
``SECS`` a finite number >= 0. The always-failing kinds ignore any
``+workload`` suffix. Behaviour depends only on the attempt number the
engine passes in, so it is deterministic across processes and resumes.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from typing import Optional

__all__ = [
    "FAULT_PREFIX",
    "FaultSpec",
    "InjectedFault",
    "fault_workload",
    "parse_fault",
]

#: Workload-name prefix marking a fault-injection job.
FAULT_PREFIX = "__fault:"

#: How long a ``hang`` fault blocks — far beyond any sane job timeout.
HANG_SECONDS = 3600.0

#: Exit code used by the ``exit`` fault (distinctive in failure records).
EXIT_CODE = 17

_KINDS = ("raise", "exit", "hang", "flaky", "crash", "sleep")


class InjectedFault(RuntimeError):
    """The error raised by ``raise``/``flaky`` faults (a stand-in for any
    transient worker exception)."""


@dataclass(frozen=True)
class FaultSpec:
    """Parsed form of a ``__fault:`` workload name."""

    kind: str
    #: ``flaky``/``crash`` only: fail on attempts ``1..fail_attempts``.
    fail_attempts: int = 0
    #: Workload simulated once the fault stops firing.
    real_workload: Optional[str] = None
    #: ``sleep`` only: seconds to block before simulating.
    sleep_seconds: float = 0.0

    def apply(self, attempt: int) -> str:
        """Act out the fault for ``attempt`` (1-based).

        Returns the real workload name to simulate when the fault does not
        fire; raises (or hangs, or kills the process) when it does.
        """
        if self.kind == "raise":
            raise InjectedFault(f"injected failure (attempt {attempt})")
        if self.kind == "exit":
            os._exit(EXIT_CODE)
        if self.kind == "hang":
            time.sleep(HANG_SECONDS)
            raise InjectedFault("hang fault outlived its sleep")
        if self.kind == "sleep":
            time.sleep(self.sleep_seconds)
            return self.real_workload
        if self.kind == "crash":
            if attempt <= self.fail_attempts:
                os._exit(EXIT_CODE)
            return self.real_workload
        if attempt <= self.fail_attempts:  # flaky
            raise InjectedFault(
                f"injected transient failure "
                f"(attempt {attempt}/{self.fail_attempts})")
        return self.real_workload


def parse_fault(workload: str) -> Optional[FaultSpec]:
    """Parse a workload name; ``None`` when it is not a fault job."""
    if not workload.startswith(FAULT_PREFIX):
        return None
    body = workload[len(FAULT_PREFIX):]
    real: Optional[str] = None
    if "+" in body:
        body, real = body.split("+", 1)
    parts = body.split(":")
    kind = parts[0]
    if kind not in _KINDS:
        raise ValueError(
            f"unknown fault kind {kind!r}; known: {', '.join(_KINDS)}")
    if kind in ("flaky", "crash"):
        if len(parts) != 2:
            raise ValueError(
                f"{kind} fault needs a count: __fault:{kind}:N+real")
        if not real:
            raise ValueError(
                f"{kind} fault needs a real workload: __fault:{kind}:N+real")
        count = parts[1]
        if not (count.isascii() and count.isdigit()):
            raise ValueError(
                f"{kind} fault count must be a whole number >= 0, got "
                f"{count!r}: __fault:{kind}:N+real")
        return FaultSpec(kind, fail_attempts=int(count), real_workload=real)
    if kind == "sleep":
        if len(parts) != 2:
            raise ValueError(
                "sleep fault needs a duration: __fault:sleep:SECS+real")
        if not real:
            raise ValueError(
                "sleep fault needs a real workload: __fault:sleep:SECS+real")
        try:
            seconds = float(parts[1])
        except ValueError:
            seconds = math.nan
        if not (math.isfinite(seconds) and seconds >= 0):
            raise ValueError(
                "sleep fault duration must be a finite number of seconds "
                f">= 0, got {parts[1]!r}: __fault:sleep:SECS+real")
        return FaultSpec(kind, real_workload=real, sleep_seconds=seconds)
    if len(parts) != 1:
        raise ValueError(f"fault kind {kind!r} takes no parameter")
    return FaultSpec(kind)


def fault_workload(kind: str, fail_attempts: int = 0,
                   real_workload: Optional[str] = None,
                   sleep_seconds: float = 0.0) -> str:
    """Build (and validate) a fault workload name — the test-facing helper."""
    name = FAULT_PREFIX + kind
    if kind in ("flaky", "crash"):
        name += f":{fail_attempts}"
    elif kind == "sleep":
        name += f":{sleep_seconds:g}"
    if real_workload:
        name += f"+{real_workload}"
    parse_fault(name)  # validate eagerly so typos fail at build time
    return name
