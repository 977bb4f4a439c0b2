"""Regression pins for the multi-owner cache-only host.

The golden configurations replay a single owner only. These pins cover
``simulate_cache_only(co_traces=...)`` with a short co-runner that wraps,
with the L2-sized filter on and off, on four LLC policies, with PInTE off
and at p = 0.3. Each case pins the primary's and the co-runner's counters
and reuse histograms exactly. To re-capture after an intended behaviour
change, print ``{case: outcome(case) for case in PINNED}`` and paste it.
"""

import pytest

from repro.config import scaled_config
from repro.core import PinteConfig
from repro.sim.fastcache import simulate_cache_only
from repro.trace import build_trace, get_workload

PRIMARY_RECORDS = 6_000
CO_RECORDS = 600
WARMUP = 100
SEED = 5


def _fields(result):
    return (result.accesses, result.misses, result.thefts_experienced,
            result.interference_misses, tuple(result.reuse_histogram))


def outcome(case):
    """(primary fields, co-runner fields) of one pinned case."""
    policy, filter_cache, p_induce = case
    config = scaled_config().with_llc_policy(policy)
    primary = build_trace(get_workload("450.soplex"), PRIMARY_RECORDS, SEED,
                          config.llc.size)
    co_runner = build_trace(get_workload("429.mcf"), CO_RECORDS, SEED + 1,
                            config.llc.size)
    pinte = None if p_induce is None else PinteConfig(p_induce, seed=SEED)
    result = simulate_cache_only(primary, config, pinte=pinte,
                                 warmup_accesses=WARMUP,
                                 filter_cache=filter_cache, seed=SEED,
                                 co_traces=[co_runner])
    (co,) = result.co_results
    return _fields(result), _fields(co)


#: (policy, filter on, P_induce) -> the primary's, then the co-runner's
#: (accesses, misses, thefts experienced, interference misses, reuse
#: histogram), as the Cache-backed filter produced them.
PINNED = {
    ('lru', True, None): (
        (2344, 922, 0, 0,
         (0, 10, 28, 45, 68, 77, 131, 96, 123, 143, 146, 130, 119, 140,
          101, 65)),
        (2344, 141, 0, 0,
         (3, 7, 33, 72, 178, 247, 301, 348, 325, 282, 197, 110, 59, 29,
          6, 6))),
    ('lru', True, 0.3): (
        (2344, 2075, 1971, 1296,
         (0, 3, 9, 17, 14, 18, 17, 16, 16, 11, 19, 21, 23, 19, 32, 34)),
        (2344, 1662, 1598, 1521,
         (2, 3, 10, 26, 42, 53, 49, 52, 50, 28, 39, 62, 53, 61, 77, 75))),
    ('lru', False, None): (
        (2749, 924, 0, 0,
         (93, 111, 93, 96, 99, 107, 132, 116, 112, 149, 152, 140, 124,
          128, 98, 75)),
        (2749, 141, 0, 0,
         (4, 16, 43, 118, 218, 328, 369, 457, 353, 308, 213, 108, 45, 20,
          5, 3))),
    ('lru', False, 0.3): (
        (2749, 2205, 2106, 1420,
         (70, 58, 28, 26, 44, 27, 34, 24, 16, 25, 34, 28, 31, 26, 29,
          44)),
        (2749, 1934, 1862, 1793,
         (2, 7, 19, 23, 51, 55, 59, 63, 65, 56, 54, 54, 46, 76, 73, 112))),
    ('rrip', True, None): (
        (2344, 910, 0, 0,
         (83, 87, 76, 66, 68, 90, 95, 82, 81, 93, 103, 112, 127, 98, 99,
          74)),
        (2344, 141, 0, 0,
         (42, 90, 166, 215, 227, 233, 225, 234, 231, 171, 168, 107, 58,
          25, 11, 0))),
    ('rrip', True, 0.3): (
        (2344, 2220, 2191, 1441,
         (0, 0, 1, 1, 0, 4, 3, 3, 4, 7, 5, 9, 11, 18, 32, 26)),
        (2344, 1995, 1987, 1854,
         (1, 3, 2, 7, 13, 12, 24, 18, 30, 17, 21, 27, 22, 33, 42, 77))),
    ('rrip', False, None): (
        (2749, 924, 0, 0,
         (164, 136, 116, 110, 100, 109, 124, 119, 109, 90, 109, 131, 116,
          118, 106, 68)),
        (2749, 141, 0, 0,
         (25, 92, 157, 229, 250, 274, 274, 289, 286, 267, 187, 131, 88,
          37, 16, 6))),
    ('rrip', False, 0.3): (
        (2749, 2466, 2444, 1681,
         (0, 2, 4, 3, 4, 6, 3, 7, 5, 11, 13, 24, 37, 46, 47, 71)),
        (2749, 2398, 2387, 2257,
         (1, 2, 4, 8, 6, 8, 12, 11, 16, 15, 18, 16, 29, 32, 60, 113))),
    ('drrip', True, None): (
        (2344, 907, 4, 0,
         (103, 105, 84, 82, 69, 63, 65, 57, 56, 53, 59, 88, 116, 120,
          152, 165)),
        (2344, 145, 4, 4,
         (40, 91, 150, 168, 177, 196, 186, 198, 180, 180, 160, 122, 109,
          85, 84, 73))),
    ('drrip', True, 0.3): (
        (2344, 2240, 2196, 1461,
         (0, 0, 1, 1, 0, 1, 2, 3, 4, 2, 4, 7, 10, 10, 32, 27)),
        (2344, 2016, 1983, 1875,
         (4, 6, 7, 8, 8, 8, 13, 16, 22, 15, 17, 23, 15, 36, 42, 88))),
    ('drrip', False, None): (
        (2749, 921, 10, 4,
         (171, 145, 132, 110, 101, 78, 94, 87, 74, 54, 81, 84, 138, 129,
          150, 200)),
        (2749, 151, 11, 10,
         (24, 82, 133, 180, 205, 220, 238, 250, 233, 207, 196, 162, 145,
          110, 119, 94))),
    ('drrip', False, 0.3): (
        (2749, 2477, 2440, 1692,
         (0, 3, 1, 1, 2, 3, 3, 5, 5, 7, 11, 21, 37, 50, 51, 72)),
        (2749, 2423, 2382, 2282,
         (2, 4, 5, 0, 3, 5, 8, 5, 17, 11, 14, 18, 23, 36, 65, 110))),
    ('random', True, None): (
        (2344, 900, 75, 37,
         (79, 88, 94, 82, 98, 79, 101, 95, 90, 96, 97, 83, 109, 84, 76,
          93)),
        (2344, 252, 86, 78,
         (118, 119, 147, 144, 127, 132, 116, 134, 117, 143, 138, 136,
          127, 126, 142, 126))),
    ('random', True, 0.3): (
        (2344, 2109, 2018, 1330,
         (11, 6, 26, 11, 19, 13, 15, 13, 15, 17, 19, 15, 18, 14, 11, 12)),
        (2344, 1733, 1685, 1592,
         (40, 41, 43, 40, 39, 28, 41, 32, 35, 43, 39, 42, 29, 39, 39,
          41))),
    ('random', False, None): (
        (2749, 899, 75, 37,
         (120, 105, 120, 124, 106, 113, 106, 129, 125, 120, 110, 120,
          107, 122, 127, 96)),
        (2749, 240, 83, 77,
         (175, 150, 150, 131, 157, 154, 139, 163, 152, 167, 161, 150,
          157, 174, 166, 163))),
    ('random', False, 0.3): (
        (2749, 2285, 2193, 1500,
         (30, 38, 27, 22, 27, 23, 27, 38, 25, 30, 34, 28, 33, 27, 36,
          19)),
        (2749, 2051, 1980, 1910,
         (31, 53, 41, 26, 45, 45, 45, 39, 42, 56, 40, 49, 49, 49, 41,
          47))),
}


@pytest.mark.parametrize("case", sorted(PINNED, key=repr), ids=repr)
def test_multi_owner_replay_matches_pin(case):
    assert outcome(case) == PINNED[case]


def test_co_runner_wraps():
    # The co-runner lands one LLC access per primary access; it makes more
    # than one pass over its short stream in every case.
    co_memory = sum(1 for record in build_trace(
        get_workload("429.mcf"), CO_RECORDS, SEED + 1,
        scaled_config().llc.size) if record.is_memory)
    for _primary, co in PINNED.values():
        assert co[0] + WARMUP > co_memory
