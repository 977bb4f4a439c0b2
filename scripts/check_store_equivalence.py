#!/usr/bin/env python3
"""Assert two campaign result stores hold equivalent records.

Equivalence is :func:`repro.campaign.canonical_records` — the stores'
result and failure records compared after stripping everything the
execution path is allowed to vary (wall-clock timings, ``*_seconds``
extras, trace-cache provenance, failure tracebacks). Two runs of the same
campaign on the work-stealing pool and inline (``processes=1``), at
different process counts, or through different resume paths must pass;
any divergence in *simulated* values fails with a per-job diff summary.

Usage::

    python scripts/check_store_equivalence.py A.jsonl B.jsonl

Exit 0 when equivalent, 1 with the first differing job ids otherwise,
and 2 on a usage error or a path that holds no store (missing or empty),
so a comparison never passes because no store was written. CI's
``pool-smoke`` job runs this against a pool store and an inline rerun
of the same jobs.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

#: How many differing job ids to print before truncating.
MAX_REPORTED = 10


def _by_id(records):
    """Canonical records keyed by (job id, record kind)."""
    return {(entry.get("job_id"), entry.get("kind")): entry
            for entry in records}


def main(argv) -> int:
    """Compare the two store paths in ``argv``; return the exit code."""
    if len(argv) != 2:
        print("usage: check_store_equivalence.py STORE_A STORE_B",
              file=sys.stderr)
        return 2
    from repro.campaign import ResultStore, canonical_records

    left_path, right_path = argv
    stores = [ResultStore(path) for path in argv]
    missing = [path for path, store in zip(argv, stores)
               if not store.exists()]
    if missing:
        print(f"no campaign store at {' or '.join(missing)}",
              file=sys.stderr)
        return 2
    left, right = (canonical_records(store.load()) for store in stores)
    if left == right:
        results = sum(1 for entry in left if entry.get("kind") == "result")
        print(f"stores equivalent: {results} result(s), "
              f"{len(left) - results} failure(s) "
              f"({left_path} == {right_path})")
        return 0
    left_map, right_map = _by_id(left), _by_id(right)
    differing = sorted(
        key for key in set(left_map) | set(right_map)
        if left_map.get(key) != right_map.get(key))
    print(f"stores differ: {left_path} vs {right_path} "
          f"({len(differing)} differing record(s))", file=sys.stderr)
    for job_id, kind in differing[:MAX_REPORTED]:
        in_left = (job_id, kind) in left_map
        in_right = (job_id, kind) in right_map
        if in_left and in_right:
            detail = "records differ"
        else:
            detail = ("only in " + (left_path if in_left else right_path))
        print(f"  {job_id} [{kind}]: {detail}", file=sys.stderr)
    if len(differing) > MAX_REPORTED:
        print(f"  ... and {len(differing) - MAX_REPORTED} more",
              file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
