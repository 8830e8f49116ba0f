"""The simulator leaves no cyclic garbage behind.

Everything a run allocates should be freed by reference counting as soon
as the run drops it.  What reference counting cannot free waits for the
cyclic collector, whose full passes walk every tracked object in the
process: in a long-lived ``serve`` process those passes, not the garbage
itself, are what the cycles cost.
"""

import gc
from collections import Counter

import pytest

from repro.core.engine import RunRequest
from repro.scenarios.generators import DEFAULT_MIX, parse_mix
from repro.service.batch import execute_request


def _requests(seed, engine):
    requests = [
        RunRequest(kind=kind, family=family, n=n, seed=seed, engine=engine)
        for kind, family, _ in parse_mix(DEFAULT_MIX)
        for n in (16, 25)
    ]
    # n=20 is not a perfect square: routing runs on the general overlay.
    requests.append(RunRequest(
        kind="routing", family="balanced", n=20, seed=seed, engine=engine
    ))
    return requests


# Distinct seeds per engine, so no window replays plans stored by another.
@pytest.mark.parametrize("engine,seed", [("reference", 1), ("fast", 2)])
def test_execute_request_leaves_no_cyclic_garbage(engine, seed):
    # Lazy imports and registries settle before the measured window.
    execute_request(_requests(seed=0, engine=engine)[0])
    requests = _requests(seed=seed, engine=engine)
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        summaries = [execute_request(req) for req in requests]
        found = gc.collect()
        leaked = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert all(s.ok for s in summaries), [s.error for s in summaries]
    assert found == 0, (
        f"{len(requests)} runs left {found} objects of cyclic garbage: "
        f"{leaked.most_common(6)}"
    )
