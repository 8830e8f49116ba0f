"""Scenario taxonomy: named workload families over sizes and seeds.

A :class:`Scenario` is a reproducible (kind, family, n, seed) coordinate;
``build()`` materializes the concrete workload object.  Families:

========== ============ ====================================================
kind       family       workload
========== ============ ====================================================
routing    balanced     :func:`~repro.routing.problem.uniform_instance` —
                        random doubly-balanced assignment
routing    skewed       :func:`~repro.routing.problem.block_skew_instance` —
                        traffic concentrated between group pairs
routing    adversarial  :func:`~repro.routing.problem.permutation_instance`
                        — the hotspot-per-node worst case for direct routing
routing    transpose    :func:`~repro.routing.problem.transpose_instance` —
                        all-to-all, perfectly balanced per edge
routing    bursty       :func:`~repro.routing.problem.bursty_instance` —
                        relaxed instance, bursts from few hot sources
sorting    uniform      random keys, duplicates possible
sorting    duplicates   only a handful of distinct values (tie-breaking)
sorting    presorted    input already in globally sorted placement
sorting    reversed     anti-sorted placement
multiplex  bursty       :class:`BurstyMultiplexWorkload` — two channels with
                        uneven per-node bursts multiplexed on one clique
========== ============ ====================================================

The matrix helpers (:func:`scenario_matrix`, :func:`default_scenarios`)
enumerate scenarios for sweeps; the :mod:`repro.scenarios.runner` executes
them on any algorithm and any engine and cross-checks the results.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Sequence, Tuple

from ..core.context import NodeContext
from ..core.errors import VerificationError
from ..core.message import Packet
from ..core.topology import is_perfect_square
from ..routing.multiplex import Channel, multiplex
from ..routing.problem import (
    block_skew_instance,
    bursty_instance,
    permutation_instance,
    transpose_instance,
    uniform_instance,
)
from ..sorting.problem import (
    duplicate_heavy_instance,
    presorted_instance,
    reversed_instance,
    uniform_sort_instance,
)

KINDS = ("routing", "sorting", "multiplex")


@dataclass(frozen=True)
class Scenario:
    """One reproducible workload coordinate."""

    kind: str
    family: str
    n: int
    seed: int = 0

    def __post_init__(self) -> None:
        if (self.kind, self.family) not in _BUILDERS:
            known = ", ".join(f"{k}/{f}" for k, f in sorted(_BUILDERS))
            raise ValueError(
                f"unknown scenario family {self.kind}/{self.family}; "
                f"known: {known}"
            )

    @property
    def name(self) -> str:
        return f"{self.kind}/{self.family}[n={self.n},seed={self.seed}]"

    def build(self) -> Any:
        """Materialize the workload (a problem instance or workload object)."""
        return _BUILDERS[(self.kind, self.family)](self.n, self.seed)


class BurstyMultiplexWorkload:
    """Two concurrently multiplexed channels carrying uneven bursts.

    Channel ``A`` spans all ``n`` nodes; channel ``B`` spans the even nodes.
    In each channel, member ``j`` sends ``bursts[j]`` packets — one per
    round, each a :data:`width`-word payload — to its successor in the
    channel ring, then idles until the channel's longest burst drains.  The
    two channels share physical edges through the frame multiplexer, so this
    exercises exactly the machinery Theorem 3.7's overlay relies on, under
    deliberately skewed ("bursty") load.

    ``expected_outputs()`` is computable in closed form, which makes the
    workload a differential oracle for engines.
    """

    #: payload words per burst packet.
    width = 3

    def __init__(self, n: int, seed: int = 0) -> None:
        if n < 4:
            raise ValueError("bursty multiplex needs n >= 4")
        rng = random.Random(seed)
        self.n = n
        self.seed = seed
        max_burst = max(2, n // 2)
        self.bursts_a = [rng.randrange(0, max_burst + 1) for _ in range(n)]
        self.members_b = tuple(range(0, n, 2))
        self.bursts_b = [
            rng.randrange(0, max_burst + 1) for _ in self.members_b
        ]
        # one channel packet per edge per round: width words + [ch, len]
        # framing, two channels max on one physical edge.
        self.capacity = 2 * (self.width + 2)

    def _word(self, channel: int, sender: int, rnd: int, slot: int) -> int:
        return ((channel * self.n + sender) * self.n + rnd % self.n) * self.width + slot

    def _channel_factory(
        self, channel_index: int, bursts: Sequence[int]
    ) -> Callable[[Any], Generator]:
        width = self.width
        word = self._word
        rounds_total = max(bursts) if bursts else 0

        def factory(sub: Any) -> Generator:
            def gen() -> Generator:
                m = sub.n
                me = sub.node_id
                target = (me + 1) % m
                got: List[int] = []
                for r in range(rounds_total):
                    outbox: Dict[int, Packet] = {}
                    if r < bursts[me]:
                        outbox[target] = Packet(
                            tuple(word(channel_index, me, r, s) for s in range(width))
                        )
                    inbox = yield outbox
                    for pkt in inbox.values():
                        got.extend(pkt.words)
                return sorted(got)

            return gen()

        return factory

    def make_program(self) -> Callable[[NodeContext], Generator]:
        channels = [
            Channel(
                "A", None, self._channel_factory(0, self.bursts_a), self.width
            ),
            Channel(
                "B",
                self.members_b,
                self._channel_factory(1, self.bursts_b),
                self.width,
            ),
        ]

        def program(ctx: NodeContext) -> Generator:
            outs = yield from multiplex(ctx, channels)
            return outs

        return program

    def expected_outputs(self) -> List[List[Optional[List[int]]]]:
        """Closed form for what every node must return, per channel."""
        n = self.n
        width = self.width
        expected: List[List[Optional[List[int]]]] = [
            [None, None] for _ in range(n)
        ]
        for j in range(n):
            pred = (j - 1) % n
            expected[j][0] = sorted(
                self._word(0, pred, r, s)
                for r in range(self.bursts_a[pred])
                for s in range(width)
            )
        m = len(self.members_b)
        for local_j, gid in enumerate(self.members_b):
            local_pred = (local_j - 1) % m
            expected[gid][1] = sorted(
                self._word(1, local_pred, r, s)
                for r in range(self.bursts_b[local_pred])
                for s in range(width)
            )
        return expected

    def verify(self, outputs: Sequence[Any]) -> None:
        expected = self.expected_outputs()
        for i, (got, want) in enumerate(zip(outputs, expected)):
            if list(got) != want:
                raise VerificationError(
                    f"multiplex node {i}: channel outputs {got!r} != "
                    f"expected {want!r}"
                )

    #: number of rounds the multiplexed run must take: channels advance in
    #: lockstep, so the longer channel sets the pace (plus nothing else —
    #: the multiplexer spends no extra rounds on framing).
    @property
    def expected_rounds(self) -> int:
        return max(
            max(self.bursts_a) if self.bursts_a else 0,
            max(self.bursts_b) if self.bursts_b else 0,
        )


_BUILDERS: Dict[Tuple[str, str], Callable[[int, int], Any]] = {
    ("routing", "balanced"): lambda n, seed: uniform_instance(n, seed=seed),
    ("routing", "skewed"): lambda n, seed: block_skew_instance(n, seed=seed),
    ("routing", "adversarial"): lambda n, seed: permutation_instance(
        n, shift=1 + seed % max(1, n - 1)
    ),
    ("routing", "transpose"): lambda n, seed: transpose_instance(n),
    ("routing", "bursty"): lambda n, seed: bursty_instance(n, seed=seed),
    ("sorting", "uniform"): lambda n, seed: uniform_sort_instance(n, seed=seed),
    ("sorting", "duplicates"): lambda n, seed: duplicate_heavy_instance(
        n, seed=seed
    ),
    ("sorting", "presorted"): lambda n, seed: presorted_instance(n),
    ("sorting", "reversed"): lambda n, seed: reversed_instance(n),
    ("multiplex", "bursty"): lambda n, seed: BurstyMultiplexWorkload(n, seed),
}


def families(kind: str) -> List[str]:
    """Family names available for one scenario kind."""
    return sorted(f for k, f in _BUILDERS if k == kind)


def scenario_matrix(
    kind: str,
    sizes: Iterable[int],
    seeds: Iterable[int] = (0,),
    only_families: Optional[Iterable[str]] = None,
) -> List[Scenario]:
    """Cross product of families x sizes x seeds for one kind."""
    wanted = set(only_families) if only_families is not None else None
    out = []
    for family in families(kind):
        if wanted is not None and family not in wanted:
            continue
        for n in sizes:
            for seed in seeds:
                out.append(Scenario(kind, family, n, seed))
    return out


#: Default composition of a batched-service workload: a weighted blend of
#: the routing families the paper optimizes for, the two interesting sort
#: families, and multiplexed traffic.  Weights are relative frequencies.
DEFAULT_MIX = (
    "routing/balanced:3,routing/skewed:2,routing/adversarial:1,"
    "sorting/uniform:2,sorting/duplicates:1,multiplex/bursty:1"
)


#: Composition of the network service's loopback selfcheck
#: (``python -m repro.service selfcheck`` and CI's ``net-smoke``):
#: every family in the taxonomy appears — the point of the differential
#: is coverage of the wire path, not realism of the traffic blend — with
#: extra weight on the routing families whose instances stress the
#: columnar envelopes hardest.
REMOTE_SELFCHECK_MIX = (
    "routing/balanced:2,routing/skewed:2,routing/adversarial:1,"
    "routing/transpose:1,routing/bursty:1,sorting/uniform:2,"
    "sorting/duplicates:1,sorting/presorted:1,sorting/reversed:1,"
    "multiplex/bursty:2"
)


def remote_selfcheck_batch(batch: int, seed0: int = 0) -> List["Scenario"]:
    """The deterministic batch the remote selfcheck differentials run on.

    A :func:`mixed_batch` over :data:`REMOTE_SELFCHECK_MIX` with small
    sizes (16/25-node instances, perfect squares for the sorters), so a
    256-instance batch stays cheap enough to execute four ways — remote
    client, mock client, in-process gateway, sequential baseline — in a
    CI smoke job while still touching every family's encode/decode path.
    """
    return mixed_batch(
        batch,
        mix=REMOTE_SELFCHECK_MIX,
        routing_sizes=(16, 25),
        sorting_sizes=(16, 25),
        multiplex_sizes=(16, 20),
        seed0=seed0,
    )


def parse_mix(spec: str) -> List[Tuple[str, str, int]]:
    """Parse a ``kind/family:weight`` mix spec into ``(kind, family, w)``.

    Entries are comma-separated; ``:weight`` is optional (default 1) and
    must be a positive integer.  Families are validated against the
    taxonomy.  Example: ``"routing/balanced:3,sorting/uniform"``.
    """
    out: List[Tuple[str, str, int]] = []
    for raw_entry in spec.split(","):
        entry = raw_entry.strip()
        if not entry:
            continue
        coord, _, weight_s = entry.partition(":")
        kind, sep, family = coord.partition("/")
        kind, family = kind.strip(), family.strip()
        if not sep or (kind, family) not in _BUILDERS:
            known = ", ".join(f"{k}/{f}" for k, f in sorted(_BUILDERS))
            raise ValueError(
                f"bad mix entry {entry!r}: want kind/family[:weight] with "
                f"a known family ({known})"
            )
        try:
            weight = int(weight_s) if weight_s else 1
        except ValueError:
            weight = 0
        if weight < 1:
            raise ValueError(
                f"bad mix entry {entry!r}: weight must be a positive integer"
            )
        out.append((kind, family, weight))
    if not out:
        raise ValueError(f"empty scenario mix {spec!r}")
    return out


def mixed_batch(
    batch: int,
    mix: str = DEFAULT_MIX,
    routing_sizes: Sequence[int] = (16, 25),
    sorting_sizes: Sequence[int] = (16, 25),
    multiplex_sizes: Sequence[int] = (16, 20),
    seed0: int = 0,
) -> List[Scenario]:
    """A deterministic batch of ``batch`` scenarios following a mix spec.

    This is the workload feed of the batch-execution service
    (:mod:`repro.service`): families are interleaved in weighted round-robin
    order (heterogeneity *within* a shard, not one family per shard), sizes
    cycle per family, and every scenario gets a distinct seed derived from
    ``seed0`` — so the batch is reproducible from ``(batch, mix, seed0)``
    alone, which is what lets differential backends compare digests.

    Sorting families are pinned to perfect-square sizes (Algorithm 4's
    requirement).
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    bad = [s for s in sorting_sizes if not is_perfect_square(s)]
    if bad:
        raise ValueError(f"sorting sizes must be perfect squares; got {bad}")
    sizes = {
        "routing": tuple(routing_sizes),
        "sorting": tuple(sorting_sizes),
        "multiplex": tuple(multiplex_sizes),
    }
    for kind, options in sizes.items():
        if not options:
            raise ValueError(f"no sizes configured for kind {kind!r}")
    cycle: List[Tuple[str, str]] = []
    for kind, family, weight in parse_mix(mix):
        cycle.extend([(kind, family)] * weight)
    per_family_count: Dict[Tuple[str, str], int] = {}
    out: List[Scenario] = []
    for i in range(batch):
        kind, family = cycle[i % len(cycle)]
        k = per_family_count.get((kind, family), 0)
        per_family_count[(kind, family)] = k + 1
        n = sizes[kind][k % len(sizes[kind])]
        out.append(Scenario(kind, family, n, seed=seed0 + i))
    return out


# -- arrival processes -------------------------------------------------------
#
# The streaming gateway (:mod:`repro.service.stream`) is driven open-loop:
# requests arrive on a clock that does not wait for completions, which is
# what makes backpressure and tail latency observable at all.  These
# helpers produce the arrival timeline (seconds from stream start, sorted
# ascending, one entry per request).


def poisson_arrivals(rate: float, count: int, seed: int = 0) -> List[float]:
    """``count`` Poisson-process arrival times at ``rate`` per second.

    Interarrival gaps are i.i.d. exponential with mean ``1/rate`` —
    the classic open-loop load model (memoryless, bursty at every
    timescale).  Deterministic in ``(rate, count, seed)``.
    """
    if rate <= 0:
        raise ValueError(f"poisson arrivals need rate > 0, got {rate}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rng = random.Random(seed)
    t = 0.0
    out = []
    for _ in range(count):
        t += rng.expovariate(rate)
        out.append(t)
    return out


def uniform_arrivals(rate: float, count: int) -> List[float]:
    """``count`` evenly spaced arrivals at ``rate`` per second.

    The deterministic comparison baseline for the Poisson process: same
    offered load, zero burstiness.
    """
    if rate <= 0:
        raise ValueError(f"uniform arrivals need rate > 0, got {rate}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    gap = 1.0 / rate
    return [gap * (i + 1) for i in range(count)]


def saturated_arrivals(count: int) -> List[float]:
    """Every request arrives at t=0 — the closed-loop/throughput regime.

    Under this timeline the gateway is permanently backlogged, so sustained
    throughput is bounded by the worker pool, not the arrival clock; it is
    what :mod:`benchmarks.bench_stream` measures against the sequential
    backend.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return [0.0] * count


def bursty_arrivals(
    rate: float,
    count: int,
    burst: int = 8,
    idle_s: float = 1.0,
    seed: int = 0,
) -> List[float]:
    """``count`` arrivals in bursts of ``burst`` separated by idle gaps.

    Within a burst, requests arrive back to back at ``rate`` per second;
    between bursts the stream goes quiet for ``idle_s`` seconds (jittered
    ±25% so gaps are not phase-locked with any poller).  Queue depth
    spikes during a burst and drains to zero in the gap, so a gateway
    fed this stream must coalesce, drain and go idle again without
    stranding a request.  Deterministic in
    ``(rate, count, burst, idle_s, seed)``.
    """
    if rate <= 0:
        raise ValueError(f"bursty arrivals need rate > 0, got {rate}")
    if burst <= 0:
        raise ValueError(f"burst size must be > 0, got {burst}")
    if idle_s < 0:
        raise ValueError(f"idle gap must be >= 0, got {idle_s}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rng = random.Random(seed)
    gap = 1.0 / rate
    t = 0.0
    out: List[float] = []
    for i in range(count):
        if i and i % burst == 0:
            t += idle_s * (0.75 + 0.5 * rng.random())
        else:
            t += gap
        out.append(t)
    return out


def recorded_arrivals(
    offsets: List[float], timescale: float = 1.0
) -> List[float]:
    """Normalize captured arrival offsets into a replayable timeline.

    A traffic capture (:mod:`repro.service.recording`) stamps each
    request with its offset from the first recorded event; this turns
    those raw offsets into a monotone, zero-based arrival list a replay
    can feed straight into the gateway.  ``timescale`` stretches or
    compresses the timeline (``0`` collapses it into a saturated
    replay); negative gaps — a capture merged from interleaved writers —
    clamp to zero rather than reordering requests, preserving the
    recorded submission order.
    """
    if timescale < 0:
        raise ValueError(f"timescale must be >= 0, got {timescale}")
    if not offsets:
        return []
    base = offsets[0]
    out = []
    prev = 0.0
    for off in offsets:
        t = (off - base) * timescale
        if t < prev:
            t = prev
        out.append(t)
        prev = t
    return out


def arrival_times(
    process: str, rate: float, count: int, seed: int = 0
) -> List[float]:
    """Dispatch on an arrival-process name: poisson, uniform, saturated
    or bursty."""
    if process == "poisson":
        return poisson_arrivals(rate, count, seed)
    if process == "uniform":
        return uniform_arrivals(rate, count)
    if process == "saturated":
        return saturated_arrivals(count)
    if process == "bursty":
        return bursty_arrivals(rate, count, seed=seed)
    raise ValueError(
        f"unknown arrival process {process!r}; "
        f"want poisson, uniform, saturated or bursty"
    )


def flap_times(
    period_s: float,
    duration_s: float,
    jitter_frac: float = 0.0,
    seed: int = 0,
) -> List[float]:
    """Connection-flap instants for a reconnect soak: one per
    ``period_s`` across ``duration_s`` seconds.

    ``jitter_frac`` spreads each flap uniformly within
    ``[-jitter_frac, +jitter_frac] * period_s`` of its slot, so flaps
    decorrelate from any periodic structure in the offered load.
    Deterministic in ``(period_s, duration_s, jitter_frac, seed)``;
    times are strictly increasing and strictly inside
    ``(0, duration_s)``.
    """
    if period_s <= 0:
        raise ValueError(f"flap period must be > 0, got {period_s}")
    if duration_s < 0:
        raise ValueError(f"duration must be >= 0, got {duration_s}")
    if not 0.0 <= jitter_frac <= 1.0:
        raise ValueError(
            f"jitter_frac must be in [0, 1], got {jitter_frac}"
        )
    rng = random.Random(seed)
    out: List[float] = []
    t = period_s
    while t < duration_s:
        jittered = t + (2.0 * rng.random() - 1.0) * jitter_frac * period_s
        jittered = min(max(jittered, 1e-9), duration_s - 1e-9)
        if not out or jittered > out[-1]:
            out.append(jittered)
        t += period_s
    return out


def default_scenarios(quick: bool = True) -> List[Scenario]:
    """The standard sweep: every family, square and non-square sizes.

    ``quick=True`` is the CI smoke matrix; ``quick=False`` widens sizes and
    seeds for a nightly-style sweep.  Sorting scenarios use perfect-square
    sizes only (Algorithm 4's requirement).
    """
    if quick:
        routing_sizes, sorting_sizes, seeds = [16, 20, 25], [16], (0,)
    else:
        routing_sizes, sorting_sizes, seeds = [16, 20, 25, 27, 36], [16, 25], (0, 1)
    scenarios = scenario_matrix("routing", routing_sizes, seeds)
    scenarios += scenario_matrix("sorting", sorting_sizes, seeds)
    scenarios += scenario_matrix(
        "multiplex", [s for s in routing_sizes if s >= 4], seeds
    )
    assert all(is_perfect_square(s) for s in sorting_sizes)
    return scenarios
