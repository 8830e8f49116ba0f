"""The traffic of the DEFAULT_MIX families, pinned request by request.

Outputs compared as sorted multisets stay equal when a rewrite splits,
merges or reorders packets; the per-run traffic counters do not.  This
table was recorded from the simulator before the local computation of the
Lenzen request path was rewritten (route tables, slotted packets and
messages), and every later run must reproduce it exactly: digest, rounds,
packets, words, the widest edge and the shared-cache hit/miss counts, on
both engines.  A change that moves traffic on purpose updates the table
and says why in CHANGES.md.
"""

import pytest

from repro.core.engine import RunRequest
from repro.routing import route_lenzen
from repro.routing.problem import uniform_instance
from repro.scenarios.generators import DEFAULT_MIX, parse_mix
from repro.service.batch import execute_request
from repro.sorting import sort_lenzen
from repro.sorting.problem import uniform_sort_instance

SEED = 7

# (kind, family, n): digest, rounds, total_packets, total_words,
# max_edge_words, shared_cache_hits, shared_cache_misses
PINNED = {
    ("routing", "balanced", 16): ("48d68ac9283db673", 16, 2752, 9152, 7, 147, 45),
    ("routing", "balanced", 25): ("81fe3ec2661af3c7", 16, 6500, 21000, 7, 244, 56),
    ("routing", "skewed", 16): ("cb8627f33d9f5dc7", 16, 2752, 9152, 7, 147, 45),
    ("routing", "skewed", 25): ("21d3a6624b299a07", 16, 6500, 21000, 7, 244, 56),
    ("routing", "adversarial", 16): ("c4b5ee787fbc3ec2", 16, 2752, 9152, 7, 147, 45),
    ("routing", "adversarial", 25): ("d7fc1b0386992882", 16, 6500, 21000, 7, 244, 56),
    ("sorting", "uniform", 16): ("443cab6fc3dfa8b8", 37, 4120, 21320, 16, 222, 66),
    ("sorting", "uniform", 25): ("a59d47b9ffb963bf", 37, 9355, 44333, 16, 364, 81),
    ("sorting", "duplicates", 16): ("86f288cc3d4b1eb0", 37, 3980, 20926, 16, 222, 66),
    ("sorting", "duplicates", 25): ("f2d5f40e1530aa61", 37, 9061, 43553, 16, 364, 81),
    ("multiplex", "bursty", 16): ("c8c4ebcd93cfb452", 8, 75, 375, 5, 0, 0),
    ("multiplex", "bursty", 25): ("1420e92a0b192bb3", 10, 168, 845, 10, 0, 0),
    # n=20 is not a perfect square: routing runs on the general overlay.
    ("routing", "balanced", 20): ("959bdbcd54b94c67", 16, 3682, 24296, 18, 306, 94),
}

# OperationMeter reports (steps per node, peak live words per node).
ROUTE_METER_N25 = ([251] * 25, [75] * 25)
SORT_METER_N16 = (
    [967, 813, 636, 619, 682, 488, 367, 358,
     687, 448, 354, 334, 541, 293, 305, 297],
    [45, 48, 42, 30, 45, 48, 45, 30, 45, 45, 39, 33, 45, 48, 45, 28],
)


def test_pinned_requests_cover_the_default_mix():
    families = {(kind, family) for kind, family, _ in parse_mix(DEFAULT_MIX)}
    assert {(kind, family) for kind, family, _ in PINNED} == families


@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_default_mix_traffic_matches_the_pinned_table(engine):
    got = {}
    for kind, family, n in PINNED:
        s = execute_request(
            RunRequest(kind=kind, family=family, n=n, seed=SEED, engine=engine)
        )
        assert s.ok, s.error
        got[(kind, family, n)] = (
            s.digest,
            s.rounds,
            s.total_packets,
            s.total_words,
            s.max_edge_words,
            s.shared_cache_hits,
            s.shared_cache_misses,
        )
    assert got == PINNED


@pytest.mark.parametrize("engine", ["reference", "fast"])
def test_meter_reports_match_the_pinned_table(engine):
    route = route_lenzen(uniform_instance(25, seed=SEED), meter=True,
                         engine=engine).meters
    assert (route.steps_per_node, route.peak_words_per_node) == ROUTE_METER_N25
    sort = sort_lenzen(uniform_sort_instance(16, seed=SEED), meter=True,
                       engine=engine).meters
    assert (sort.steps_per_node, sort.peak_words_per_node) == SORT_METER_N16
