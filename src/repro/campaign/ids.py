"""Deterministic job identities and shard partitioning for campaigns.

Every campaign job gets a stable hexadecimal id derived from everything
that determines its outcome: the :class:`~repro.sim.batch.Job` fields, the
full :class:`~repro.config.MachineConfig` and the
:class:`~repro.sim.runner.ExperimentScale`. Two invocations that would
produce the same simulation therefore agree on the id — across processes,
machines and sessions — which is what makes ``--resume`` (skip ids already
in the store) and ``--shard i/n`` (partition ids across machines) safe
without any coordination service.

The id scheme is versioned (:data:`ID_SCHEME`); changing what goes into
the hash means bumping the version so old stores are never silently
misread as covering new jobs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, List, Sequence, Tuple

from repro.config import MachineConfig
from repro.configio import machine_to_dict, to_dict
from repro.sim.batch import Job
from repro.sim.runner import ExperimentScale

__all__ = [
    "ID_SCHEME",
    "canonical_job_payload",
    "job_from_dict",
    "job_id",
    "job_to_dict",
    "parse_shard",
    "shard_jobs",
]

#: Version tag hashed into every id; bump when the payload shape changes.
#: v2: Job grew multicore fields (co_runners/scheme/repartition_interval)
#: and seed overrides (pinte_seed/trace_seed).
#: v3: machine/scale hashed in their versioned canonical schema form
#: (:mod:`repro.configio` — ``schema`` tag, ``llc_way_allocation`` omitted
#: when None) instead of a raw ``dataclasses.asdict``, so a config loaded
#: from TOML and its preset twin hash identically.
ID_SCHEME = "pinte-job-v3"


#: Job field names in declaration order, as ``dataclasses.asdict`` lists them.
_JOB_FIELDS = tuple(field.name for field in dataclasses.fields(Job))


def job_to_dict(job: Job) -> dict:
    """Plain-dict form of a :class:`Job` (manifest / store serialisation).

    JSON-shaped: ``co_runners`` is a list, as a JSON round trip returns it,
    so a record the store keeps in memory equals the one it reads back.
    """
    payload = {name: getattr(job, name) for name in _JOB_FIELDS}
    if job.co_runners is not None:
        payload["co_runners"] = list(job.co_runners)
    return payload


def job_from_dict(payload: dict) -> Job:
    """Inverse of :func:`job_to_dict`; rejects unknown fields loudly."""
    field_names = {f.name for f in dataclasses.fields(Job)}
    unknown = set(payload) - field_names
    if unknown:
        raise ValueError(f"unknown job fields: {sorted(unknown)}")
    return Job(**payload)


def canonical_job_payload(job: Job, config: MachineConfig,
                          scale: ExperimentScale) -> dict:
    """The exact dict hashed into a job id (exposed for tests and docs)."""
    return {
        "scheme": ID_SCHEME,
        "job": job_to_dict(job),
        "machine": machine_to_dict(config),
        "scale": to_dict(scale),
    }


def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


#: ``"machine":...,"scale":...`` of recent (config, scale) pairs, keyed by
#: object identity. Each entry holds its objects, so an identity cannot be
#: reused while its entry lives; equal-but-distinct configs are simply
#: serialised again.
_CONTEXT_JSON: Dict[Tuple[int, int], Tuple[object, object, str]] = {}
_CONTEXT_JSON_SIZE = 64


def _context_json(config: MachineConfig, scale: ExperimentScale) -> str:
    key = (id(config), id(scale))
    entry = _CONTEXT_JSON.get(key)
    if entry is None:
        if len(_CONTEXT_JSON) >= _CONTEXT_JSON_SIZE:
            _CONTEXT_JSON.pop(next(iter(_CONTEXT_JSON)))
        text = (f'"machine":{_dumps(machine_to_dict(config))},'
                f'"scale":{_dumps(to_dict(scale))}')
        entry = _CONTEXT_JSON[key] = (config, scale, text)
    return entry[2]


def job_id(job: Job, config: MachineConfig, scale: ExperimentScale) -> str:
    """Stable 16-hex-digit id for one (job, machine, scale) triple.

    The sha256 of :func:`canonical_job_payload` as sorted, compact JSON.
    The blob is spliced from its sorted top-level keys (``job``,
    ``machine``, ``scale``, ``scheme``) so the machine and scale parts
    are serialised once per config rather than once per job.
    """
    blob = (f'{{"job":{_dumps(job_to_dict(job))},'
            f'{_context_json(config, scale)},"scheme":{_dumps(ID_SCHEME)}}}')
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse a ``"i/n"`` shard selector into ``(index, count)``.

    ``index`` is zero-based: ``0/2`` and ``1/2`` together cover a campaign.
    """
    try:
        index_text, count_text = text.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ValueError(f"shard must look like 'i/n', got {text!r}") from None
    if count < 1 or not 0 <= index < count:
        raise ValueError(
            f"shard index must be in [0, {count}), got {index}/{count}")
    return index, count


def shard_jobs(jobs: Sequence[Job], shard_index: int, shard_count: int,
               config: MachineConfig, scale: ExperimentScale) -> List[Job]:
    """The subset of ``jobs`` belonging to shard ``shard_index`` of
    ``shard_count``.

    Jobs are ordered by id and dealt round-robin, so the partition is
    disjoint, exhaustive, balanced to within one job, and independent of
    the order the caller listed the jobs in — every machine computes the
    same split from the same manifest.
    """
    if shard_count < 1 or not 0 <= shard_index < shard_count:
        raise ValueError(
            f"shard index must be in [0, {shard_count}), got {shard_index}")
    keyed = sorted(
        ((job_id(job, config, scale), position, job)
         for position, job in enumerate(jobs)),
        key=lambda item: (item[0], item[1]),
    )
    return [job for rank, (_, _, job) in enumerate(keyed)
            if rank % shard_count == shard_index]
