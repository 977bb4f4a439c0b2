"""Regression pins for the timing hosts' live-clock hooks and event traces.

The golden configurations run neither the periodic PInTE trigger nor
background DRAM traffic, and trace no events. These pins cover both hooks,
alone and together, and the per-access trigger with neither, each through
``simulate``, the two-core run ``simulate_pair`` makes and a three-core
``simulate_multiprogrammed`` run, with warm-up and sampling, plus
event-traced single-core and pair runs whose full event sequence is pinned
by digest. An event-traced run replays its memoised private streams
(:mod:`repro.sim.private`) to the same pin as it walks its private caches
in lockstep. To re-capture after an intended behaviour change, print
``{case: outcome(case) for case in PINNED}`` and
``{case: trace_outcome(case) for case in PINNED_EVENTS}`` and paste them.
"""

import hashlib
import re

import pytest

from repro.config import scaled_config
from repro.core import PinteConfig
from repro.obs import Observation
from repro.sim.multicore import simulate_multiprogrammed
from repro.sim.private import PrivateStream
from repro.sim.simulator import simulate
from repro.trace import build_trace, get_workload

RECORDS = 2_500
WARMUP, BUDGET, INTERVAL = 700, 3_000, 1_000
SEED = 4

#: The hook combinations: periodic trigger and background DRAM together, a
#: periodic trigger every 7 cycles (often more than one period per
#: instruction), background DRAM alone and the per-access trigger alone.
PINTES = {
    "periodic+background": PinteConfig(
        0.5, seed=3, trigger="periodic", period_cycles=150,
        dram_background_rpkc=40),
    "periodic-7": PinteConfig(0.2, seed=5, trigger="periodic",
                              period_cycles=7),
    "background": PinteConfig(0.3, seed=7, dram_background_rpkc=60),
    "per-access": PinteConfig(0.3, seed=9),
}
HOOK_EXTRAS = ("pinte_triggers", "pinte_invalidations",
               "pinte_periodic_rounds", "dram_background_requests")


def _traces():
    config = scaled_config()
    return [build_trace(get_workload(name), RECORDS, SEED + i,
                        config.llc.size)
            for i, name in enumerate(("470.lbm", "450.soplex",
                                      "435.gromacs"))]


def _fields(result):
    return (result.instructions, result.cycles, result.llc_accesses,
            result.llc_misses, result.thefts_experienced,
            result.thefts_caused, result.interference_misses,
            result.l2_misses, result.amat,
            tuple((s.instructions, s.cycles, s.llc_misses, s.thefts)
                  for s in result.samples),
            tuple(result.extra.get(name) for name in HOOK_EXTRAS))


def _run(host, pinte, observe=None, replayed=False):
    config = scaled_config()
    traces = _traces()[:{"single": 1, "pair": 2}.get(host, 3)]
    kwargs = dict(pinte=pinte, warmup_instructions=WARMUP,
                  sim_instructions=BUDGET, sample_interval=INTERVAL,
                  seed=SEED, observe=observe)
    if replayed:
        kwargs["private_streams"] = [
            PrivateStream(config, trace, core_id, SEED + core_id,
                          WARMUP + BUDGET)
            for core_id, trace in enumerate(traces)]
    if host == "single":
        return [simulate(traces[0], config, **kwargs)]
    return simulate_multiprogrammed(traces, config, **kwargs)


def outcome(case):
    """Every result's fields, primary first, for one pinned case."""
    host, pinte = case
    return tuple(_fields(result) for result in _run(host, PINTES[pinte]))


def _observed(case, replayed=False):
    """One event-traced case's results and observation."""
    host, pinte = case
    observe = Observation.with_events()
    return _run(host, PINTES.get(pinte), observe, replayed), observe


def trace_outcome(case, replayed=False):
    """(events recorded, per-kind counts, digest of every event, the
    primary's fields) for one event-traced case."""
    results, observe = _observed(case, replayed)
    events = observe.events
    assert events.dropped == 0
    digest = hashlib.sha256(
        repr([tuple(event) for event in events.events()]).encode()
    ).hexdigest()
    return (events.recorded, tuple(sorted(events.counts.items())), digest,
            _fields(results[0]))


#: (host, hook combination) -> every core's (instructions, cycles, LLC
#: accesses, LLC misses, thefts experienced, thefts caused, interference
#: misses, L2 misses, AMAT, samples, hook extras), as the stepwise loops
#: produced them.
PINNED = {
    ('single', 'periodic+background'): (
        (3000, 77220, 1360, 1287, 1683, 0, 731, 1360, 157.262656641604,
         ((1000, 26840, 452, 601), (1000, 25360, 426, 508), (1000, 25020,
         409, 574)), (546.0, 1683.0, 266.0, 3089.0)),
    ),
    ('single', 'periodic-7'): (
        (3000, 59672, 1360, 1338, 1895, 0, 782, 1360, 122.08020050125313,
         ((1000, 20561, 452, 659), (1000, 19275, 445, 610), (1000, 19836,
         441, 626)), (1367.0, 1895.0, 1743.0, None)),
    ),
    ('single', 'background'): (
        (3000, 107575, 1360, 1221, 1496, 0, 665, 1360, 218.1263157894737,
         ((1000, 36993, 452, 442), (1000, 35801, 390, 540), (1000, 34781,
         379, 514)), (406.0, 1496.0, None, 6452.0)),
    ),
    ('single', 'per-access'): (
        (3000, 58785, 1360, 1225, 1496, 0, 669, 1360, 120.30075187969925,
         ((1000, 19863, 452, 394), (1000, 20099, 401, 601), (1000, 18823,
         372, 501)), (428.0, 1496.0, None, None)),
    ),
    ('pair', 'periodic+background'): (
        (3000, 83600, 1360, 1288, 1601, 10, 721, 1360, 170.0546365914787,
         ((1000, 29133, 452, 590), (1000, 28699, 434, 552), (1000, 25768,
         402, 459)), (583.0, 2990.0, 285.0, 3340.0)),
        (3385, 83499, 1352, 1187, 1408, 9, 789, 1352, 162.8237288135593, (),
         (None, None, None, None)),
    ),
    ('pair', 'periodic-7'): (
        (3000, 75056, 1360, 1349, 1931, 0, 793, 1360, 152.92431077694235,
         ((1000, 25049, 452, 620), (1000, 24837, 449, 658), (1000, 25170,
         448, 653)), (1773.0, 3512.0, 2223.0, None)),
        (3072, 75011, 1239, 1208, 1581, 0, 801, 1239, 159.61278394083465,
         (), (None, None, None, None)),
    ),
    ('pair', 'background'): (
        (3000, 145293, 1360, 1219, 1310, 50, 590, 1360, 293.75137844611527,
         ((1000, 47118, 452, 414), (1000, 54142, 398, 452), (1000, 44033,
         369, 444)), (406.0, 2348.0, None, 8730.0)),
        (3367, 145202, 1352, 1066, 1134, 46, 639, 1352, 282.3535108958838,
         (), (None, None, None, None)),
    ),
    ('pair', 'per-access'): (
        (3000, 82416, 1360, 1218, 1330, 55, 610, 1360, 167.68170426065163,
         ((1000, 28553, 452, 380), (1000, 29180, 405, 521), (1000, 24683,
         361, 429)), (428.0, 2344.0, None, None)),
        (3009, 82208, 1210, 1015, 1109, 40, 588, 1210, 179.10665944775312,
         (), (None, None, None, None)),
    ),
    ('triple', 'periodic+background'): (
        (3000, 83960, 1360, 1285, 1591, 14, 716, 1360, 170.77744360902255,
         ((1000, 29130, 452, 582), (1000, 28847, 433, 556), (1000, 25983,
         400, 453)), (585.0, 3079.0, 287.0, 3355.0)),
        (3402, 83933, 1359, 1199, 1408, 14, 791, 1359, 162.65688161693936,
         (), (None, None, None, None)),
        (77892, 83900, 466, 32, 108, 0, 32, 466, 11.542113323124044, (),
         (None, None, None, None)),
    ),
    ('triple', 'periodic-7'): (
        (3000, 76283, 1360, 1345, 1943, 0, 789, 1360, 155.38496240601503,
         ((1000, 25549, 452, 637), (1000, 25595, 448, 664), (1000, 25139,
         445, 642)), (1811.0, 3787.0, 2269.0, None)),
        (3166, 76244, 1265, 1228, 1600, 0, 830, 1265, 158.944099378882, (),
         (None, None, None, None)),
        (63976, 76222, 384, 168, 244, 0, 168, 384, 12.551627698847746, (),
         (None, None, None, None)),
    ),
    ('triple', 'background'): (
        (3000, 148638, 1360, 1219, 1306, 66, 588, 1360, 300.45664160401003,
         ((1000, 49406, 452, 414), (1000, 53863, 397, 453), (1000, 45369,
         370, 439)), (406.0, 2413.0, None, 8935.0)),
        (3380, 148574, 1355, 1065, 1126, 60, 634, 1355, 288.32817786370225,
         (), (None, None, None, None)),
        (140249, 148619, 841, 21, 107, 0, 21, 841, 11.568964637444507, (),
         (None, None, None, None)),
    ),
    ('triple', 'per-access'): (
        (3000, 83242, 1360, 1217, 1316, 75, 610, 1360, 169.337343358396,
         ((1000, 29300, 452, 382), (1000, 29079, 403, 510), (1000, 24863,
         362, 424)), (428.0, 2425.0, None, None)),
        (2988, 83119, 1200, 1012, 1105, 52, 591, 1200, 182.47790507364977,
         (), (None, None, None, None)),
        (75771, 83067, 455, 42, 131, 0, 42, 455, 11.72209803859837, (),
         (None, None, None, None)),
    ),
}

#: (host, hook combination or None) -> trace_outcome.
PINNED_EVENTS = {
    ('single', 'periodic+background'): (
        6671, (('fill', 1622), ('promote', 2748), ('theft', 1683),
         ('writeback', 618)),
        'b7189e5d6b4407e77d1d6cf83f50be2e110241a952d4aa3b8b6450de4f55e7de',
        (3000, 77220, 1360, 1287, 1683, 0, 731, 1360, 157.262656641604,
         ((1000, 26840, 452, 601), (1000, 25360, 426, 508), (1000, 25020,
         409, 574)), (546.0, 1683.0, 266.0, 3089.0))),
    ('pair', 'periodic+background'): (
        8778, (('evict', 36), ('fill', 3041), ('promote', 1727), ('theft',
         2990), ('writeback', 984)),
        '1231cc87c5f910384149e25e4e494c61d503d92b006730843f096942837afb3f',
        (3000, 83600, 1360, 1288, 1601, 10, 721, 1360, 170.0546365914787,
         ((1000, 29133, 452, 590), (1000, 28699, 434, 552), (1000, 25768,
         402, 459)), (583.0, 2990.0, 285.0, 3340.0))),
    ('pair', 'per-access'): (
        6965, (('evict', 186), ('fill', 2557), ('promote', 978), ('theft',
         2344), ('writeback', 900)),
        '45701428dab49e2f53dd3b11e0422f4472412de31ffd6c2a12d5f09ecd927320',
        (3000, 82416, 1360, 1218, 1330, 55, 610, 1360, 167.68170426065163,
         ((1000, 28553, 452, 380), (1000, 29180, 405, 521), (1000, 24683,
         361, 429)), (428.0, 2344.0, None, None))),
    ('pair', None): (
        4157, (('evict', 1558), ('fill', 1972), ('writeback', 627)),
        '17a911ff3a79b95bbbb7d8d2fdc0081b7ba322a018bb3ae8948ceaa9f67de557',
        (3000, 95987, 1360, 1100, 416, 361, 238, 1360, 194.89122807017543,
         ((1000, 31442, 452, 114), (1000, 37237, 364, 201), (1000, 27308,
         284, 101)), (None, None, None, None))),
}


@pytest.mark.parametrize("case", sorted(PINNED, key=repr), ids=repr)
def test_hooked_run_matches_pin(case):
    assert outcome(case) == PINNED[case]


@pytest.mark.parametrize("case", sorted(PINNED_EVENTS, key=repr), ids=repr)
def test_event_trace_matches_pin(case):
    assert trace_outcome(case) == PINNED_EVENTS[case]
    assert trace_outcome(case, replayed=True) == PINNED_EVENTS[case]


#: A core's private-level registry fields: ``core<i>.<level>.<field>``.
PRIVATE_FIELD = re.compile(r"core\d+\.(l1i|l1d|l2)\.(\w+)$")


@pytest.mark.parametrize("case", sorted(PINNED_EVENTS, key=repr), ids=repr)
def test_replayed_registry_matches_lockstep(case):
    # A replayed private level publishes only what its stream knows; every
    # field both paths publish is equal.
    results, observe = _observed(case)
    walked = observe.registry.as_dict()
    replayed = _observed(case, replayed=True)[1].registry.as_dict()
    assert {name for name in walked if not PRIVATE_FIELD.match(name)} == {
        name for name in replayed if not PRIVATE_FIELD.match(name)}
    private = [PRIVATE_FIELD.match(name) for name in replayed]
    assert sorted(match.group(2) for match in private if match) == sorted(
        ["access", "hit", "miss", "miss_rate"] * 3 * len(results))
    for name, value in replayed.items():
        assert walked[name] == value, name


def test_pins_exercise_the_hooks():
    for (host, pinte), results in PINNED.items():
        rounds, requests = results[0][-1][2:]
        assert (rounds is not None) == pinte.startswith("periodic"), host
        assert (requests is not None) == ("background" in pinte), host
        if rounds is not None:
            assert rounds > 0, (host, pinte)
        if requests is not None:
            assert requests > 0, (host, pinte)
