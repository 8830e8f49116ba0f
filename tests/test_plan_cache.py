"""PlanCache semantics: scoped verify bypass, FIFO eviction, admission.

The regression tests here pin the two properties ISSUE 3 fixed:

* ``SharedCache.verify_mode`` must not mutate the *global* plan-cache
  ``enabled`` flag — the bypass has to be scoped to the verifying
  computation, or interleaved/concurrent runs observe (and clobber) each
  other's toggle;
* the cache's bounded store evicts strictly FIFO, with hit/miss/eviction
  counters that a model-based property test can predict exactly.

A plan is stored on its second computation, so a test that needs a stored
plan computes it twice (:func:`_store_plan`).
"""

import sys
import threading
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PlanCache, SharedCache, plan_cache, planned
from repro.core.errors import ProtocolError


@pytest.fixture
def clean_plan_cache():
    """The process-wide cache, emptied, with counters rebased afterwards.

    ``clear()`` keeps the history, so the fixture empties it too: whether
    a key is stored on its next computation must not depend on which
    tests ran before.
    """
    pc = plan_cache()
    pc.clear()
    pc._history.clear()
    yield pc
    pc.clear()
    pc._history.clear()


def _store_plan(cache, key, value):
    """Compute ``key`` twice: the first sighting is only remembered, the
    second stores the plan."""
    for _ in range(2):
        assert cache.compute(key, lambda: value) == value
    assert cache._store[key] == value


# -- scoped verify bypass ----------------------------------------------------


def test_verify_bypass_does_not_clobber_global_toggle(clean_plan_cache):
    """Regression: the verify-mode recompute used to flip
    ``plan_cache().enabled`` for its duration, so *any* concurrent run --
    engines interleaved on threads, a batch service shard, a nested
    computation -- saw the process-wide cache silently disabled (or had its
    own disable re-enabled underneath it).  The bypass must be invisible
    outside the verifying computation itself.
    """
    pc = clean_plan_cache
    shared = SharedCache(verify_mode=True)
    shared.compute("key", lambda: 7)  # prime: stores 7

    in_recompute = threading.Event()
    release = threading.Event()
    errors = []

    def slow_recompute():
        in_recompute.set()
        if not release.wait(10):
            errors.append("probe thread never released")
        return 7

    def verifying_run():
        try:
            assert shared.compute("key", slow_recompute) == 7
        except Exception as exc:  # pragma: no cover - failure reporting
            errors.append(repr(exc))

    thread = threading.Thread(target=verifying_run)
    thread.start()
    try:
        assert in_recompute.wait(10), "verify recompute never started"
        # While the other run's determinism audit is mid-recompute, this
        # run's view of the process-wide cache must be untouched: still
        # enabled, still serving hits, still counting.
        assert pc.enabled
        _store_plan(pc, "probe", "fresh")
        hits_before = pc.hits
        assert pc.compute("probe", lambda: "stale") == "fresh"
        assert pc.hits == hits_before + 1
    finally:
        release.set()
        thread.join(10)
    assert not errors, errors
    assert pc.enabled


def test_verify_bypass_is_reentrant(clean_plan_cache):
    pc = clean_plan_cache
    _store_plan(pc, "k", "cached")
    with pc.bypassed():
        with pc.bypassed():
            assert pc.compute("k", lambda: "inner") == "inner"
        # Still bypassed after the inner scope exits.
        assert pc.compute("k", lambda: "outer") == "outer"
    # Fully restored: the stored plan is served again.
    assert pc.compute("k", lambda: "post") == "cached"


def test_bypassed_scope_leaves_counters_untouched(clean_plan_cache):
    pc = clean_plan_cache
    _store_plan(pc, "k", 1)
    stats_before = (pc.hits, pc.misses, pc.evictions)
    with pc.bypassed():
        pc.compute("k", lambda: 2)
        pc.compute("other", lambda: 3)
        pc.compute("other", lambda: 3)
    assert (pc.hits, pc.misses, pc.evictions) == stats_before
    assert pc._store == {"k": 1}
    # A bypassed compute is not a sighting either.
    assert hash("other") not in pc._history


def test_bypassed_is_per_cache_instance(clean_plan_cache):
    """Bypassing one cache must not switch off other PlanCache instances
    that happen to compute within the bypass scope.
    """
    other = PlanCache()
    _store_plan(other, "k", "cached")
    with clean_plan_cache.bypassed():
        assert other.compute("k", lambda: "fresh") == "cached"
        assert other.hits == 1


def test_verify_mode_recompute_is_genuine(clean_plan_cache):
    """The audit must re-run the underlying plan computation, not read the
    warm plan back -- otherwise it compares a cached value to itself and
    can never catch nondeterminism.
    """
    calls = []

    def build():
        calls.append(1)
        return len(calls)  # nondeterministic on purpose

    _store_plan(clean_plan_cache, "plan", 0)  # the plan cache is warm
    shared = SharedCache(verify_mode=True)
    assert shared.compute("s", lambda: planned("plan", build)) == 0
    assert not calls, "a warm plan is replayed, not rebuilt"
    with pytest.raises(ProtocolError, match="not .*deterministic"):
        shared.compute("s", lambda: planned("plan", build))
    assert len(calls) == 1, "verify hit must have recomputed the plan"


def test_verify_mode_still_passes_for_deterministic_plans(clean_plan_cache):
    shared = SharedCache(verify_mode=True)
    fn = lambda: planned("stable", lambda: (1, 2, 3))
    assert shared.compute("s", fn) == (1, 2, 3)
    assert shared.compute("s", fn) == (1, 2, 3)
    assert shared.hits == 1 and shared.misses == 1


# -- FIFO eviction / counters ------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    maxsize=st.integers(min_value=1, max_value=8),
    accesses=st.lists(st.integers(min_value=0, max_value=15), max_size=60),
)
def test_fifo_eviction_model(maxsize, accesses):
    """Model-based check: store and history contents, their insertion
    order, and the hit/miss/eviction counters all match an OrderedDict
    FIFO oracle that stores a plan on its second computation.
    """
    cache = PlanCache(maxsize=maxsize)
    model = OrderedDict()
    history = OrderedDict()
    hits = misses = evictions = 0
    for key in accesses:
        if key in model:
            hits += 1
            got = cache.compute(key, lambda: "WRONG: fn ran on a hit")
            assert got == model[key]
        else:
            misses += 1
            value = f"plan-{key}"
            assert cache.compute(key, lambda v=value: v) == value
            if hash(key) not in history:
                if len(history) >= maxsize:
                    history.popitem(last=False)
                history[hash(key)] = None
            else:
                if len(model) >= maxsize:
                    model.popitem(last=False)
                    evictions += 1
                model[key] = value
        assert list(cache._store) == list(model)
        assert list(cache._history) == list(history)
    assert cache.hits == hits
    assert cache.misses == misses
    assert cache.evictions == evictions
    assert cache.stats() == (hits, misses, len(model))
    assert len(cache) == len(model)


def test_eviction_order_is_insertion_not_recency():
    """FIFO, not LRU: re-hitting the oldest plan does not save it."""
    cache = PlanCache(maxsize=2)
    _store_plan(cache, "a", 1)
    _store_plan(cache, "b", 2)
    cache.compute("a", lambda: 0)  # hit; must not refresh a's age
    _store_plan(cache, "c", 3)  # evicts a (oldest inserted)
    assert list(cache._store) == ["b", "c"]
    assert cache.evictions == 1


def test_concurrent_eviction_never_raises():
    """Regression (found by the network service's 256-instance
    differential): thread-backend workers share the process plan cache,
    and two threads evicting at once used to race ``pop(next(iter))`` to
    the same oldest key — the loser crashed its run with a bare KeyError
    deep inside an algorithm's plan computation.  Eviction must treat
    "someone else already evicted it" as success.
    """
    cache = PlanCache(maxsize=8)
    errors = []
    barrier = threading.Barrier(4)

    def hammer(worker):
        try:
            barrier.wait()
            for i in range(2000):
                cache.compute((worker, i), lambda: i)
        except BaseException as exc:  # pragma: no cover - the regression
            errors.append(exc)
            raise

    threads = [
        threading.Thread(target=hammer, args=(w,)) for w in range(4)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors, errors
    # concurrent insert/evict pairs can overshoot transiently, but the
    # bound stays within one entry per racing thread
    assert len(cache) <= 8 + 4


def test_concurrent_admission_never_raises():
    """The history is shared the same way as the store: four threads
    recording, admitting and evicting at once under a short switch
    interval must never fail a plan computation, and both tables stay
    within one entry per racing thread of their bound.
    """
    cache = PlanCache(maxsize=8)
    errors = []
    barrier = threading.Barrier(4, timeout=10)

    def hammer(worker):
        try:
            barrier.wait()
            for i in range(2000):
                for _ in range(2):  # the second computation stores it
                    assert cache.compute((worker, i), lambda: i) == i
        except BaseException as exc:  # pragma: no cover - the regression
            errors.append(exc)
            raise

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    assert len(cache) <= 8 + 4
    assert len(cache._history) <= 8 + 4
    assert cache.evictions > 0


def test_disable_enable_roundtrip():
    cache = PlanCache()
    cache.disable()
    assert cache.compute("k", lambda: 1) == 1
    assert len(cache) == 0 and cache.misses == 0
    cache.enable()
    # A disabled compute is not a sighting: the first enabled one is.
    assert cache.compute("k", lambda: 1) == 1
    assert len(cache) == 0 and cache.misses == 1
    assert cache.compute("k", lambda: 1) == 1
    assert len(cache) == 1 and cache.misses == 2
