"""On-disk campaign state: JSONL result store, manifests, failure reports.

The store is an append-only JSONL file — one self-describing record per
line — because append-only is the only write pattern that survives a
driver killed at an arbitrary instant (the acceptance test for this
subsystem). Records:

* ``header``  — format marker plus campaign metadata; first line only.
* ``result``  — one completed job: id, job spec, attempts, wall time and
  the full serialised :class:`~repro.sim.results.SimulationResult`.
* ``failure`` — one permanently-failed job: id, job spec and the captured
  error (type, message, traceback, attempt count, failure kind).

Appends are atomic in practice: a single ``write`` of one ``\\n``-terminated
line to a file opened in append mode, followed by flush+fsync. A SIGKILL
can at worst truncate the final line, which :meth:`ResultStore.load`
tolerates (and only there — corruption mid-file still raises).

Alongside the store live three derived documents:

* ``<store>.manifest.json`` — the campaign manifest: every job plus the
  machine/scale/retry/timeout/shard settings, written by
  ``campaign run`` and read back by ``campaign status``/``resume``.
* ``<store>.failures.json`` — the failure manifest, rewritten after every
  campaign pass so "what still needs attention" is one ``cat`` away.
* ``<store>.workers.json`` — pool worker liveness: per-worker
  pid/state/occupancy/steal counts, atomically rewritten by the pool
  while it runs (see :mod:`repro.campaign.pool`) and rendered by
  ``campaign watch``.

The store's contents do not depend on where jobs ran: the pool and the
inline path append the same records for the same jobs, up to volatile
fields (wall times, cache provenance, traceback frames).
:func:`canonical_records` strips exactly those fields so two stores can
be compared for semantic equality — the store-equivalence check CI
runs.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.config import MachineConfig
from repro.campaign.ids import ID_SCHEME, job_from_dict, job_to_dict
from repro.configio import machine_from_dict, machine_to_dict, to_dict
from repro.sim.batch import Job
from repro.sim.results import SimulationResult
from repro.sim.runner import ExperimentScale
from repro.sim.serialize import result_from_dict, result_to_dict

__all__ = [
    "MANIFEST_FORMAT",
    "STORE_FORMAT",
    "FAILURES_FORMAT",
    "WORKERS_FORMAT",
    "ResultStore",
    "StoreContents",
    "canonical_records",
    "failures_path_for",
    "load_campaign_manifest",
    "load_worker_records",
    "manifest_path_for",
    "telemetry_dir_for",
    "workers_path_for",
    "write_campaign_manifest",
    "write_failure_manifest",
    "write_worker_records",
]

#: Format marker in the store header record.
STORE_FORMAT = "pinte-campaign-v1"
#: Format marker in campaign manifests.
MANIFEST_FORMAT = "pinte-campaign-manifest-v1"
#: Format marker in failure manifests.
FAILURES_FORMAT = "pinte-campaign-failures-v1"
#: Format marker in pool-worker liveness documents.
WORKERS_FORMAT = "pinte-campaign-workers-v1"


@dataclass
class StoreContents:
    """Everything read back from one store file.

    Later records win: a success recorded on resume supersedes an earlier
    failure for the same id, and duplicate appends are harmless.
    """

    results: Dict[str, dict] = field(default_factory=dict)
    failures: Dict[str, dict] = field(default_factory=dict)
    header: Optional[dict] = None
    #: Count of truncated/partial trailing lines skipped during load.
    truncated_lines: int = 0

    def result_objects(self) -> Dict[str, SimulationResult]:
        """Deserialise every stored success into a ``SimulationResult``."""
        return {job_id: result_from_dict(record["result"])
                for job_id, record in self.results.items()}

    def job_for(self, job_id: str) -> Job:
        """The job spec recorded for ``job_id`` (success or failure)."""
        record = self.results.get(job_id) or self.failures[job_id]
        return job_from_dict(record["job"])


class ResultStore:
    """Append-only JSONL store for one campaign's job outcomes.

    An instance keeps an index of the records it has parsed or written,
    so it reads each line of the file at most once:

    * :meth:`load` parses only the bytes past the last newline-terminated
      line it has indexed.
    * An append adds its own record to the index after the fsync, but
      only when the file held exactly the indexed lines before the write
      and grew by exactly the bytes written.

    The index stays valid while the file keeps its device and inode, is
    at least as long as the indexed bytes, and the last indexed line
    still ends where it did. Anything else drops the index, and the next
    :meth:`load` reads the whole file again: an append by another shard
    that this instance has not read when it appends, a repaired tail,
    truncation, or a replaced file. A full load is the same incremental
    read, from byte 0 with an empty index.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        #: Torn trailing lines newline-terminated or truncated away before
        #: an append (see :meth:`_repair_tail`).
        self.repaired_tails = 0
        self._forget()

    def _forget(self) -> None:
        """Drop the in-memory index; the next :meth:`load` reads from 0."""
        #: Records of the ``_lines`` complete lines before byte ``_offset``.
        self._index = StoreContents()
        self._offset = 0
        self._lines = 0
        #: The last indexed line, newline included, and ``(st_dev,
        #: st_ino)`` of the file it was read from or written to.
        self._last = b""
        self._inode: Optional[Tuple[int, int]] = None

    def _holds_index(self, handle, stat: os.stat_result) -> bool:
        """True when the open file still begins with the indexed lines.

        Checking the last indexed line, not just the inode and length,
        catches a file rewritten in place or replaced by one that reuses
        the old inode number.
        """
        if self._offset == 0:
            return True
        if (self._inode != (stat.st_dev, stat.st_ino)
                or stat.st_size < self._offset):
            return False
        handle.seek(self._offset - len(self._last))
        return handle.read(len(self._last)) == self._last

    def _index_line(self, record: dict, line: bytes,
                    stat: os.stat_result) -> None:
        """Add one newline-terminated ``line`` and its parsed ``record``."""
        self._apply(self._index, record, self._lines + 1)
        self._offset += len(line)
        self._lines += 1
        self._last = line
        self._inode = (stat.st_dev, stat.st_ino)

    # -- writing -----------------------------------------------------------
    def exists(self) -> bool:
        """True when the store file exists and is non-empty."""
        try:
            return self.path.stat().st_size > 0
        except FileNotFoundError:
            return False

    def _repair_tail(self) -> None:
        """Terminate or drop a trailing line left by a killed writer.

        A tail that parses as one JSON object is a whole record that lost
        only its newline — :meth:`load` already counts it — so the newline
        is added. Anything else is a partial record and is truncated away.
        Without this, the next append would glue onto the unterminated
        line and corrupt it *mid-file* — unrecoverable instead of merely
        incomplete. The check is O(1) (one byte) when the store is clean.
        """
        try:
            with open(self.path, "rb+") as handle:
                handle.seek(0, os.SEEK_END)
                if handle.tell() == 0:
                    return
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) == b"\n":
                    return
                handle.seek(0)
                content = handle.read()
                cut = content.rfind(b"\n") + 1
                try:
                    whole = isinstance(json.loads(content[cut:]), dict)
                except ValueError:
                    whole = False
                if whole:
                    handle.write(b"\n")
                else:
                    handle.truncate(cut)
                self.repaired_tails += 1
        except FileNotFoundError:
            pass

    def _append(self, record: dict) -> None:
        data = (json.dumps(record, sort_keys=True, separators=(",", ":"))
                + "\n").encode("utf-8")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._repair_tail()
        # "a+b": writes always append; reads check the indexed tail.
        with open(self.path, "a+b") as handle:
            before = os.fstat(handle.fileno())
            indexed = (before.st_size == self._offset
                       and self._holds_index(handle, before))
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
            after = os.fstat(handle.fileno())
        if indexed and after.st_size == before.st_size + len(data):
            self._index_line(record, data, after)
        else:
            self._forget()

    def ensure_header(self, meta: Optional[dict] = None) -> None:
        """Write the header record if the store is new/empty.

        The job-id scheme is stamped in by default (``meta`` can override)
        so a later ``--resume`` can refuse a store whose ids were computed
        under a different scheme instead of silently re-running everything.
        """
        if not self.exists():
            self._append({"kind": "header", "format": STORE_FORMAT,
                          "created": time.time(), "id_scheme": ID_SCHEME,
                          **(meta or {})})

    def append_result(self, job_id: str, job: Job, result: SimulationResult,
                      attempts: int, wall_time_seconds: float) -> None:
        """Record one successful job."""
        self._append({
            "kind": "result",
            "job_id": job_id,
            "job": job_to_dict(job),
            "attempts": attempts,
            "wall_time_seconds": wall_time_seconds,
            "result": result_to_dict(result),
        })

    def append_failure(self, job_id: str, job: Job, failure: dict) -> None:
        """Record one permanently-failed job (after all retries)."""
        self._append({
            "kind": "failure",
            "job_id": job_id,
            "job": job_to_dict(job),
            "failure": dict(failure),
        })

    # -- reading -----------------------------------------------------------
    def load(self) -> StoreContents:
        """Read the store back, tolerating a truncated final line.

        Only the bytes this instance has not parsed yet are read. The
        returned dicts are the caller's own; the records in them are
        shared with the instance and must not be modified.
        """
        try:
            handle = open(self.path, "rb")
        except FileNotFoundError:
            self._forget()
            return StoreContents()
        with handle:
            stat = os.fstat(handle.fileno())
            if not self._holds_index(handle, stat):
                self._forget()
            handle.seek(self._offset)
            data = handle.read()
        lines = data.split(b"\n")
        torn = lines[-1] != b""
        if not torn:
            lines.pop()
        truncated = 0
        tail_record = None
        for position, line in enumerate(lines):
            last = position == len(lines) - 1
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if last:
                    # A driver killed mid-append leaves a partial last line;
                    # that job simply reruns on resume.
                    truncated = 1
                    break
                raise ValueError(
                    f"{self.path}:{self._lines + 1}: corrupt store record")
            if torn and last:
                # Whole but unterminated: returned, not indexed, since the
                # index covers newline-terminated lines only.
                tail_record = record
                break
            self._index_line(record, line + b"\n", stat)
        contents = StoreContents(results=dict(self._index.results),
                                 failures=dict(self._index.failures),
                                 header=self._index.header,
                                 truncated_lines=truncated)
        if tail_record is not None:
            self._apply(contents, tail_record, self._lines + 1)
        return contents

    def _apply(self, contents: StoreContents, record: dict,
               number: int) -> None:
        """Fold one parsed record (line ``number``) into ``contents``."""
        kind = record.get("kind")
        if kind == "header":
            if record.get("format") != STORE_FORMAT:
                raise ValueError(
                    f"{self.path}: not a {STORE_FORMAT} store "
                    f"(format={record.get('format')!r})")
            contents.header = record
        elif kind == "result":
            contents.results[record["job_id"]] = record
            contents.failures.pop(record["job_id"], None)
        elif kind == "failure":
            contents.failures[record["job_id"]] = record
        else:
            raise ValueError(
                f"{self.path}:{number}: unknown record kind {kind!r}")


# -- campaign manifest ------------------------------------------------------

def manifest_path_for(store_path: Union[str, Path]) -> Path:
    """Where the campaign manifest lives for a given store path."""
    store_path = Path(store_path)
    return store_path.with_name(store_path.stem.split(".")[0]
                                + ".manifest.json")


def failures_path_for(store_path: Union[str, Path]) -> Path:
    """Where the failure manifest lives for a given store path."""
    store_path = Path(store_path)
    return store_path.with_name(store_path.stem.split(".")[0]
                                + ".failures.json")


def telemetry_dir_for(store_path: Union[str, Path]) -> Path:
    """Where a campaign's telemetry spool files live for a given store.

    One directory per campaign, one JSONL spool per job id inside it —
    written by the workers (:class:`repro.obs.telemetry.TelemetrySpooler`)
    and tailed by the parent and ``repro campaign watch``.
    """
    store_path = Path(store_path)
    return store_path.with_name(store_path.stem.split(".")[0] + ".telemetry")


def write_campaign_manifest(
    store_path: Union[str, Path],
    jobs: Sequence[Job],
    config: MachineConfig,
    scale: ExperimentScale,
    *,
    machine_preset: Optional[str] = None,
    retry: Optional[dict] = None,
    timeout_seconds: Optional[float] = None,
    shard: Optional[tuple] = None,
    processes: Optional[int] = None,
    trace_cache: Optional[str] = None,
    telemetry_interval: Optional[float] = None,
    plugins: Optional[Sequence[str]] = None,
) -> Path:
    """Write ``<store>.manifest.json`` describing the whole campaign."""
    path = manifest_path_for(store_path)
    document = {
        "format": MANIFEST_FORMAT,
        "store": Path(store_path).name,
        "id_scheme": ID_SCHEME,
        "machine_preset": machine_preset or config.name,
        "machine_config": machine_to_dict(config),
        "scale": to_dict(scale),
        "jobs": [job_to_dict(job) for job in jobs],
        "retry": retry,
        "timeout_seconds": timeout_seconds,
        "shard": list(shard) if shard else None,
        "processes": processes,
        "trace_cache": trace_cache,
        "telemetry_interval": telemetry_interval,
        "plugins": list(plugins) if plugins else None,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return path


def load_campaign_manifest(path: Union[str, Path]) -> dict:
    """Read a campaign manifest and deserialise its contents in place.

    ``jobs``/``scale`` become objects; ``machine_config`` becomes a
    :class:`MachineConfig` when the payload carries the canonical
    ``schema`` tag (manifests written at id-scheme v3 or later). Legacy
    manifests keep their raw ``dataclasses.asdict`` dict — callers fall
    back to ``machine_preset`` for those, and the store's id-scheme gate
    refuses to resume them anyway. Keys this version no longer writes,
    such as the ``executor`` older manifests recorded, are left in the
    dict and ignored.
    """
    document = json.loads(Path(path).read_text())
    if document.get("format") != MANIFEST_FORMAT:
        raise ValueError(
            f"{path}: not a {MANIFEST_FORMAT} manifest "
            f"(format={document.get('format')!r})")
    document["jobs"] = [job_from_dict(payload)
                        for payload in document["jobs"]]
    document["scale"] = ExperimentScale(**document["scale"])
    machine_payload = document.get("machine_config")
    if isinstance(machine_payload, dict) and "schema" in machine_payload:
        document["machine_config"] = machine_from_dict(machine_payload)
    return document


# -- pool worker liveness ---------------------------------------------------

def workers_path_for(store_path: Union[str, Path]) -> Path:
    """Where the pool's worker-liveness document lives for a given store."""
    store_path = Path(store_path)
    return store_path.with_name(store_path.stem.split(".")[0]
                                + ".workers.json")


def write_worker_records(store_path: Union[str, Path],
                         workers: Sequence[dict], *,
                         steals: int = 0, respawns: int = 0,
                         running: bool = True) -> Path:
    """Atomically (re)write ``<store>.workers.json``.

    The pool rewrites this document on a short cadence while it runs, so
    the write must be atomic (temp file + ``os.replace``) — ``campaign
    watch`` in another process must never observe a half-written JSON
    body the way it can tolerate a torn JSONL tail.
    """
    path = workers_path_for(store_path)
    document = {
        "format": WORKERS_FORMAT,
        "store": Path(store_path).name,
        "running": running,
        "steals": steals,
        "respawns": respawns,
        "workers": list(workers),
        "updated": time.time(),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(path.name + ".tmp")
    temp.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    os.replace(temp, path)
    return path


def load_worker_records(store_path: Union[str, Path]) -> Optional[dict]:
    """Read the worker-liveness document for a store; ``None`` when absent.

    Lenient on purpose: a missing, unreadable or wrong-format document
    means "no pool information", never an error — the watch dashboard
    must render inline campaigns (and ones older versions ran)
    unchanged.
    """
    path = workers_path_for(store_path)
    try:
        document = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError, OSError):
        return None
    if (not isinstance(document, dict)
            or document.get("format") != WORKERS_FORMAT):
        return None
    return document


# -- store-equivalence canonicalisation -------------------------------------

#: ``result.extra`` keys that legitimately differ between runs: wall
#: times depend on scheduling, and cache hit/miss provenance depends on
#: which worker (with which warm memo) ran the job.
_VOLATILE_EXTRA_KEYS = ("trace_cache_hits", "trace_cache_misses")


def canonical_records(contents: StoreContents) -> List[dict]:
    """Path-independent view of a store's records, sorted by job id.

    Two campaigns over the same jobs are *equivalent* when this function
    returns the same list for both stores, however they ran (pool or
    inline, any process count, resumed or not). Stripped as
    volatile: result/record wall times and ``*_seconds`` extras, trace
    cache hit/miss provenance, failure tracebacks (frame lists differ
    between worker entry points), and the header timestamp (the header is
    dropped entirely).
    """
    canonical: List[dict] = []
    for job_id, record in sorted(contents.results.items()):
        entry = {key: value for key, value in record.items()
                 if key != "wall_time_seconds"}
        result = dict(entry["result"])
        result.pop("wall_time_seconds", None)
        extra = {key: value for key, value in (result.get("extra") or {}).items()
                 if key not in _VOLATILE_EXTRA_KEYS
                 and not key.endswith("_seconds")}
        result["extra"] = extra
        if result.get("co_results"):
            co_clean = []
            for co in result["co_results"]:
                co = dict(co)
                co.pop("wall_time_seconds", None)
                co["extra"] = {
                    key: value for key, value in (co.get("extra") or {}).items()
                    if key not in _VOLATILE_EXTRA_KEYS
                    and not key.endswith("_seconds")}
                co_clean.append(co)
            result["co_results"] = co_clean
        entry["result"] = result
        canonical.append(entry)
    for job_id, record in sorted(contents.failures.items()):
        entry = dict(record)
        failure = dict(entry.get("failure") or {})
        failure.pop("traceback", None)
        entry["failure"] = failure
        canonical.append(entry)
    return canonical


def write_failure_manifest(store_path: Union[str, Path],
                           failures: Sequence[dict]) -> Path:
    """(Re)write ``<store>.failures.json`` from permanent-failure records.

    Always written — an empty ``failures`` list is the explicit "all clear"
    that distinguishes a clean campaign from one whose manifest was lost.
    """
    path = failures_path_for(store_path)
    document = {
        "format": FAILURES_FORMAT,
        "store": Path(store_path).name,
        "count": len(failures),
        "failures": list(failures),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    return path
