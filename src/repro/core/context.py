"""Per-node execution context and the shared deterministic-computation cache.

A :class:`NodeContext` is what a protocol generator receives: the node's
identity, the system size, helpers for deterministic common-knowledge
computations, and instrumentation hooks.  Protocols must treat the context as
their *only* window onto the system — all cross-node information flows
through messages.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from typing import Any, Callable, Dict, Hashable, Iterator, Optional, Tuple

from .errors import ProtocolError
from .metrics import OperationMeter

#: sentinel distinguishing "evicted nothing" from an evicted ``None`` plan.
_MISSING = object()


class SharedCache:
    """Memoizer for deterministic computations performed by every node.

    Semantics: every node evaluates the same pure function of commonly known
    data and obtains the identical result (this is how the paper's nodes
    agree on edge colorings without communication).  In a single-process
    simulation it is wasteful to recompute the result ``n`` times, so nodes
    may route such computations through this cache.

    ``verify_mode`` recomputes on every call and asserts agreement with the
    cached value — tests use it to confirm that "shared" computations really
    are a pure function of their key-identified inputs.
    """

    def __init__(self, verify_mode: bool = False) -> None:
        self._store: Dict[Hashable, Any] = {}
        self.verify_mode = verify_mode
        self.hits = 0
        self.misses = 0

    def compute(self, key: Hashable, fn: Callable[[], Any]) -> Any:
        if key in self._store:
            self.hits += 1
            if self.verify_mode:
                # The recompute must be genuine: shared computations may
                # route through the process-wide plan cache, which would
                # hand back the stored object and make this audit compare
                # a value to itself.  The bypass is *scoped* — flipping the
                # cache's global ``enabled`` flag here would be observable
                # by (and clobbered by) any other run interleaved with this
                # one; see :meth:`PlanCache.bypassed`.
                with _GLOBAL_PLAN_CACHE.bypassed():
                    fresh = fn()
                if fresh != self._store[key]:
                    raise ProtocolError(
                        f"shared computation for key {key!r} is not "
                        "deterministic: nodes would disagree"
                    )
            return self._store[key]
        self.misses += 1
        value = fn()
        self._store[key] = value
        return value


def _bounded_put(
    table: Dict[Any, Any], key: Hashable, value: Any, maxsize: int
) -> int:
    """Insert ``key``, first evicting the oldest entries while ``table`` is
    full; returns how many this call evicted.

    Concurrent evictors (thread-backend workers share the plan cache) may
    race to the same oldest key, or mutate the dict mid-iteration; both
    must degrade to "someone else already evicted", never fail the run
    computing a plan.  The size is checked again after a lost race, so
    lost races cannot add up to a table beyond its bound.
    """
    evicted = 0
    while len(table) >= maxsize:
        try:
            oldest = next(iter(table))
        except RuntimeError:
            continue
        except StopIteration:
            break
        if table.pop(oldest, _MISSING) is not _MISSING:
            evicted += 1
    table[key] = value
    return evicted


class PlanCache:
    """Process-level memoizer for *structural plans*, layered under
    :class:`SharedCache`.

    A plan is a pure function of its key — a Koenig coloring of a demand
    matrix, a group partition of ``n`` nodes, a packed-header codec for
    ``(n, load_bound)``.  Unlike the per-run :class:`SharedCache` (which
    models the paper's "every node computes the same thing" argument and
    is torn down with the run), some plans recur *across* runs: group
    partitions and header codecs for every run at the same ``n``, the
    colorings of uniform announce demands, and every plan of a repeated
    instance (scenario sweeps, benchmark repeats).  Most colorings do not:
    they color demand matrices built from one instance's own data, so
    fresh-seed traffic computes each of them once.

    Admission: a plan is stored on its *second* computation.  The first
    sighting of a key records only ``hash(key)`` in a history (the
    doorkeeper of TinyLFU, Einziger, Friedman & Manes 2017), so one-off
    plans are computed and dropped instead of filling the store and
    pushing out the plans that recur.  A hash collision can only admit a
    plan one sighting early; the store itself is keyed by the full key.

    Layering contract: algorithm code keeps calling
    ``ctx.shared_compute(key, fn)`` so per-run hit/miss statistics (and the
    engine-equivalence guarantees built on them) are untouched; only ``fn``
    itself routes through :meth:`compute`.  On a shared-cache miss the plan
    cache either replays the stored plan or computes it.

    Cached values are shared by reference across runs and therefore MUST be
    treated as immutable by every consumer (all built-in plans are only ever
    read).  ``verify_mode`` of the shared cache disables the plan cache
    around its recomputation, so determinism audits genuinely re-run the
    underlying computation even when the plan cache is warm.

    The store and the history are each bounded by ``maxsize``: beyond it
    the oldest entries are evicted FIFO — long-lived services sweeping many
    distinct structures cannot grow the cache without bound.
    ``evictions`` counts the plans dropped from the store this way.

    Determinism audits must *not* toggle ``enabled``: that flag is process
    state, so one run flipping it is visible to every interleaved or
    concurrent run.  Use :meth:`bypassed` instead — a re-entrant, scope-local
    bypass carried in a :mod:`contextvars` variable, so it covers exactly the
    dynamic extent of the ``with`` block in the calling thread/task and
    nothing else.
    """

    def __init__(self, maxsize: int = 4096) -> None:
        self._store: Dict[Hashable, Any] = {}
        #: ``hash(key)`` of the keys computed here, oldest first.
        self._history: Dict[int, None] = {}
        self.maxsize = maxsize
        self.enabled = True
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def compute(self, key: Hashable, fn: Callable[[], Any]) -> Any:
        """Return the plan for ``key``, computing it with ``fn`` on a miss.

        A miss stores the plan if ``key`` was computed before (its hash is
        in the history); otherwise it records the hash and drops the plan.
        """
        if not self.enabled or id(self) in _BYPASSED_CACHES.get():
            return fn()
        store = self._store
        try:
            value = store[key]
        except KeyError:
            self.misses += 1
            value = fn()
            digest = hash(key)
            if digest in self._history:
                self.evictions += _bounded_put(store, key, value, self.maxsize)
            else:
                _bounded_put(self._history, digest, None, self.maxsize)
            return value
        self.hits += 1
        return value

    @contextmanager
    def bypassed(self) -> Iterator["PlanCache"]:
        """Scoped cache bypass: within the block every :meth:`compute` *on
        this cache* in the current thread/task calls ``fn`` directly,
        without reading or writing the store or the counters.

        Re-entrant (nesting just stacks the id again; the token reset pops
        exactly one level) and invisible to other caches, other threads,
        and code outside the block — unlike mutating ``enabled``, which is
        process-global state.
        """
        token = _BYPASSED_CACHES.set(_BYPASSED_CACHES.get() + (id(self),))
        try:
            yield self
        finally:
            _BYPASSED_CACHES.reset(token)

    def __len__(self) -> int:
        return len(self._store)

    def clear(self) -> None:
        """Drop every stored plan (statistics and the history are kept)."""
        self._store.clear()

    def disable(self) -> None:
        """Bypass the cache entirely (every compute calls ``fn``)."""
        self.enabled = False

    def enable(self) -> None:
        self.enabled = True

    def stats(self) -> Tuple[int, int, int]:
        """``(hits, misses, size)`` — the perf counters the benches record."""
        return self.hits, self.misses, len(self._store)


#: Scope-local stack of bypassed cache ids for :meth:`PlanCache.bypassed`.
#: A contextvar — not an attribute on the cache — so concurrent
#: threads/tasks each see only their own bypasses; ids — not a bare depth —
#: so bypassing one cache never affects another instance.  (The context
#: manager holds a reference to its cache, so an id cannot be recycled
#: while it is on the stack.)
_BYPASSED_CACHES: contextvars.ContextVar[Tuple[int, ...]] = (
    contextvars.ContextVar("plan_cache_bypassed_ids", default=())
)

#: The process-wide plan cache every algorithm layer routes its setup
#: through.  Swap or clear it via :func:`plan_cache` in tests/benchmarks.
_GLOBAL_PLAN_CACHE = PlanCache()


def plan_cache() -> PlanCache:
    """The process-wide :class:`PlanCache` instance."""
    return _GLOBAL_PLAN_CACHE


def planned(key: Hashable, fn: Callable[[], Any]) -> Any:
    """Shorthand for ``plan_cache().compute(key, fn)``."""
    return _GLOBAL_PLAN_CACHE.compute(key, fn)


class NodeContext:
    """Everything a protocol running at one node may see and use.

    Attributes:
        node_id: this node's identifier in ``{0, ..., n-1}``.  (The paper
            numbers nodes 1..n; we use 0-based ids throughout and translate
            only in documentation.)
        n: total number of nodes.
        capacity: maximum words per packet on any edge.
        meter: operation meter for Section-5 computation/memory accounting,
            or ``None`` when metering is disabled.
    """

    def __init__(
        self,
        node_id: int,
        n: int,
        capacity: int,
        shared: SharedCache,
        meter: Optional[OperationMeter] = None,
        phase_sink: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.node_id = node_id
        self.n = n
        self.capacity = capacity
        self._shared = shared
        self.meter = meter
        self._phase_sink = phase_sink

    def shared_compute(self, key: Hashable, fn: Callable[[], Any]) -> Any:
        """Evaluate a deterministic common-knowledge function.

        ``key`` must uniquely identify the inputs of ``fn``: two nodes calling
        with the same key are asserting they would compute the same value.
        """
        return self._shared.compute(key, fn)

    def enter_phase(self, name: str) -> None:
        """Attribute subsequent rounds to a named algorithm phase.

        Idempotent across nodes: the engine records the phase transition once
        per round regardless of how many nodes announce it.
        """
        if self._phase_sink is not None:
            self._phase_sink(name)

    def charge(self, steps: int = 1) -> None:
        """Charge local computation steps to this node's meter, if any."""
        if self.meter is not None:
            self.meter.charge(steps)

    def charge_sort(self, length: int) -> None:
        if self.meter is not None:
            self.meter.charge_sort(length)

    def observe_live_words(self, words: int) -> None:
        if self.meter is not None:
            self.meter.observe_live_words(words)
