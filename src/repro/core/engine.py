"""Pluggable execution engines for the congested-clique simulator.

The simulator separates *what* is executed (a per-node protocol generator,
see :mod:`repro.core.network`) from *how* the round loop is driven.  An
:class:`ExecutionEngine` owns the loop; :class:`~repro.core.network.
CongestedClique` is the configuration facade that picks one.

Two engines ship with the package:

* :class:`ReferenceEngine` — the fully-audited loop.  Every packet is
  validated against the model bounds on every round, every node is visited
  every round, and traffic statistics are recorded packet by packet.  This
  is the "simulator as proof checker" mode used by the correctness suite.
* :class:`FastEngine` — the throughput loop.  It keeps a *live set* so
  finished or idle nodes cost nothing, builds mailboxes lazily only for
  nodes that actually receive traffic, batches per-round statistics into
  flat counters, caches the word-magnitude bound, and audits packets on a
  sampled stride (or not at all).  Outputs, round counts, and aggregate
  statistics are identical to the reference engine for any well-behaved
  protocol — the engine-equivalence suite enforces this — but a protocol
  that *violates* the model may slip through a sampled audit.

Select an engine by name (``"reference"``, ``"fast"``), by instance (for
custom tuning, such as ``FastEngine(validation="full")`` to audit every
packet), or register your own with :func:`register_engine`::

    from repro import CongestedClique
    from repro.core.engine import FastEngine

    CongestedClique(n, engine="fast").run(program)            # by name
    CongestedClique(n, engine=FastEngine(validation="full"))  # by instance
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple, Union

from .context import NodeContext, SharedCache
from .errors import ModelViolation, ProtocolError
from .message import Packet
from .wire import WireBatch, validate_words, word_bound
from .metrics import (
    MeterReport,
    OperationMeter,
    PhaseSpan,
    RoundStats,
    RunStats,
    collect_meters,
)

#: Request lifecycle values carried in :attr:`RunSummary.status`.  The
#: taxonomy is owned here — beside the envelopes — because every layer
#: (batch service, streaming gateway, recording, chaos harness) must agree
#: on what each value means:
#:
#: * ``STATUS_COMPLETED`` — the run executed to the end and was judged;
#:   ``ok`` carries the verdict (a verification/bounds failure is still a
#:   *completed* run).
#: * ``STATUS_FAILED`` — the run never produced a judged result: the engine
#:   crashed, the request could not be resolved, or the executor/pool died
#:   underneath it.  Failed runs carry no output digest and must never be
#:   folded into success latency percentiles or cross-backend digests.
#: * ``STATUS_REJECTED`` — backpressure shed the request before it entered
#:   the queue (streaming gateway only).
#: * ``STATUS_CANCELLED`` — a deadline expired in the queue or mid-run, or
#:   the gateway closed before the request could execute.
STATUS_COMPLETED = "completed"
STATUS_FAILED = "failed"
STATUS_REJECTED = "rejected"
STATUS_CANCELLED = "cancelled"

#: A per-node protocol: yields outboxes, receives inboxes, returns its output.
NodeGen = Generator[Dict[int, Packet], Dict[int, Packet], Any]

#: Factory building the protocol generator for one node.
ProgramFactory = Callable[[NodeContext], NodeGen]


@dataclass
class RunResult:
    """Outcome of one simulated protocol execution."""

    outputs: List[Any]
    stats: RunStats
    meters: Optional[MeterReport] = None
    shared_cache_hits: int = 0
    shared_cache_misses: int = 0
    #: name of the engine that produced this result.
    engine: str = "reference"

    @property
    def rounds(self) -> int:
        return self.stats.rounds

    def phase_table(self) -> Dict[str, int]:
        return self.stats.phase_table()


@dataclass(frozen=True)
class RunRequest:
    """Picklable description of one execution in a batched workload.

    This is the wire envelope of the batch-execution service
    (:mod:`repro.service`): a *coordinate*, not live objects, so it crosses
    process boundaries and can be replayed deterministically.  The scenario
    layer resolves ``(kind, family, n, seed)`` to a concrete workload and
    ``algorithm``/``engine`` to registered implementations.  ``None`` means
    "the kind's default algorithm" / "the simulator's default engine" (the
    fully-audited reference engine, as for ``get_engine(None)``) — note
    the batch service stamps its own engine default onto unset requests
    before execution.
    """

    kind: str
    family: str
    n: int
    seed: int = 0
    algorithm: Optional[str] = None
    #: engine *name* (registry key) — instances are not picklable.
    engine: Optional[str] = None
    #: free-form correlation id echoed back on the summary.
    tag: str = ""
    #: per-request latency budget in milliseconds, measured from submission
    #: to the streaming gateway.  ``None`` defers to the gateway's default
    #: (which may also be ``None`` — no deadline).  The batch service
    #: ignores deadlines: a batch is judged on completion, not latency.
    deadline_ms: Optional[float] = None

    @property
    def name(self) -> str:
        algo = self.algorithm or "default"
        return (
            f"{self.kind}/{self.family}[n={self.n},seed={self.seed}]"
            f"@{algo}"
        )


@dataclass
class RunSummary:
    """Picklable digest of one :class:`RunResult`, judged and timed.

    What the batch service streams back instead of the full result: outputs
    are collapsed to a canonical digest (full per-node outputs of a large
    batch would dwarf the traffic they summarize), statistics are flattened
    to scalars, and verification/bound failures are carried as ``error``.
    """

    request: RunRequest
    ok: bool
    engine: str = ""
    rounds: int = 0
    total_packets: int = 0
    total_words: int = 0
    max_edge_words: int = 0
    digest: str = ""
    wall_s: float = 0.0
    shared_cache_hits: int = 0
    shared_cache_misses: int = 0
    error: str = ""
    #: lifecycle: one of the ``STATUS_*`` values above.  Every execution
    #: path stamps it — :data:`STATUS_COMPLETED` for runs that executed to
    #: a judged end, :data:`STATUS_FAILED` for runs that never produced a
    #: result — so crashed runs are never mistaken for completions.
    status: str = ""

    @property
    def resolved(self) -> bool:
        """The run executed to a judged end (its digest is meaningful)."""
        return bool(self.digest)
    #: seconds spent waiting in the gateway queue before execution began.
    queue_s: float = 0.0
    #: submission-to-resolution seconds (queue wait + execution) as seen
    #: by the gateway — the latency the histograms record.
    latency_s: float = 0.0


def coerce_outbox(raw: Any, src: int, n: int) -> Dict[int, Packet]:
    """Normalize a yielded outbox and check addressing."""
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ModelViolation(
            f"node {src} yielded {type(raw).__name__}, expected dict"
        )
    outbox: Dict[int, Packet] = {}
    for dst, pkt in raw.items():
        # Exact-type fast path first; isinstance fallback keeps int/Packet
        # subclasses (and bool destinations, which are ints) accepted as
        # before.
        if not (
            (dst.__class__ is int or isinstance(dst, int)) and 0 <= dst < n
        ):
            raise ModelViolation(
                f"node {src} addressed invalid destination {dst!r}"
            )
        if pkt.__class__ is Packet:
            outbox[dst] = pkt
            continue
        if isinstance(pkt, tuple):
            pkt = Packet(pkt)
        if not isinstance(pkt, Packet):
            raise ModelViolation(
                f"node {src} sent non-packet {pkt!r} to {dst}"
            )
        outbox[dst] = pkt
    return outbox


class _RunState:
    """Per-run scaffolding shared by every engine.

    Builds the shared cache, per-node meters, statistics, phase plumbing and
    node contexts, primes the generators (the first yielded value is the
    round-1 outbox) and assembles the final :class:`RunResult`.
    """

    def __init__(self, net: Any) -> None:
        n = net.n
        self.n = n
        self.shared = SharedCache(verify_mode=net.verify_shared)
        self.meters: List[Optional[OperationMeter]] = [
            OperationMeter() if net.meter else None for _ in range(n)
        ]
        self.stats = RunStats(n=n)
        self.current_phase: List[Optional[PhaseSpan]] = [None]

        stats = self.stats
        current_phase = self.current_phase

        def phase_sink(name: str) -> None:
            span = current_phase[0]
            if span is not None and span.name == name:
                return
            new_span = PhaseSpan(name=name, start_round=stats.rounds)
            stats.phase_rounds.append(new_span)
            current_phase[0] = new_span

        self.contexts = [
            NodeContext(
                node_id=i,
                n=n,
                capacity=net.capacity,
                shared=self.shared,
                meter=self.meters[i],
                phase_sink=phase_sink,
            )
            for i in range(n)
        ]

    def prime(
        self,
        program_factory: ProgramFactory,
        coerce: Callable[[Any, int, int], Dict[int, Packet]],
    ) -> Tuple[
        List[Optional[NodeGen]],
        List[Any],
        List[bool],
        List[Dict[int, Packet]],
    ]:
        """Instantiate and prime every generator.

        Returns ``(gens, outputs, done, pending)`` where ``pending[i]`` is
        node ``i``'s round-1 outbox (``{}`` for nodes that returned without
        yielding).
        """
        n = self.n
        gens: List[Optional[NodeGen]] = [
            program_factory(ctx) for ctx in self.contexts
        ]
        outputs: List[Any] = [None] * n
        done = [False] * n
        pending: List[Dict[int, Packet]] = [{} for _ in range(n)]
        for i in range(n):
            try:
                pending[i] = coerce(next(gens[i]), i, n)
            except StopIteration as stop:
                outputs[i] = stop.value
                done[i] = True
                gens[i] = None
                pending[i] = {}
        return gens, outputs, done, pending

    def finish(self, outputs: List[Any], net: Any, engine: str) -> RunResult:
        meter_report = collect_meters(self.meters) if net.meter else None
        return RunResult(
            outputs=outputs,
            stats=self.stats,
            meters=meter_report,
            shared_cache_hits=self.shared.hits,
            shared_cache_misses=self.shared.misses,
            engine=engine,
        )


class ExecutionEngine:
    """Abstract round-loop driver.  Subclasses implement :meth:`execute`."""

    #: registry name; also stamped on the :class:`RunResult`.
    name: str = "abstract"

    def execute(self, net: Any, program_factory: ProgramFactory) -> RunResult:
        """Run ``program_factory`` on all ``net.n`` nodes until completion."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} name={self.name!r}>"


class ReferenceEngine(ExecutionEngine):
    """The fully-audited loop (the original ``CongestedClique.run``).

    Audits the model constraints the paper assumes (Section 2) on every
    packet of every round: at most ``capacity`` words per packet, every word
    polynomially bounded in ``n``, and no packet delivered to a node that
    already terminated.  Use this engine whenever the simulator doubles as a
    proof checker; use :class:`FastEngine` for large-scale sweeps.
    """

    name = "reference"

    def execute(self, net: Any, program_factory: ProgramFactory) -> RunResult:
        n = net.n
        state = _RunState(net)
        stats = state.stats
        current_phase = state.current_phase
        gens, outputs, done, pending_outbox = state.prime(
            program_factory, coerce_outbox
        )
        batch = WireBatch()

        while not all(done):
            if stats.rounds >= net.max_rounds:
                raise ProtocolError(
                    f"protocol exceeded max_rounds={net.max_rounds}"
                )
            round_stats = stats.begin_round(stats.rounds)
            if current_phase[0] is not None:
                current_phase[0].rounds += 1

            # Collect this round's traffic into the columnar wire batch.
            # Per-edge uniqueness is structural: each source's outbox is
            # keyed by destination, so one packet per ordered pair per round
            # is guaranteed here (concurrent activities merge through
            # :func:`repro.core.protocol.merge_outboxes`, which raises
            # ``EdgeConflict`` on overlap).  Collection order — ascending
            # source, outbox insertion order — is the audit and delivery
            # order.
            batch.clear()
            for src in range(n):
                outbox = pending_outbox[src]
                if outbox:
                    batch.add_outbox(src, outbox)
            if net.validate:
                batch.validate(n, net.capacity)
            inboxes: List[Dict[int, Packet]] = [{} for _ in range(n)]
            packets, words, max_edge = batch.deliver(inboxes)
            round_stats.packets = packets
            round_stats.words = words
            round_stats.max_words_on_edge = max_edge
            any_traffic = packets > 0
            stats.commit_round(round_stats)

            # Deliver inboxes; collect next outboxes.
            for i in range(n):
                gen = gens[i]
                if gen is None:
                    if inboxes[i]:
                        raise ProtocolError(
                            f"packet delivered to finished node {i} in round "
                            f"{stats.rounds - 1}"
                        )
                    continue
                try:
                    pending_outbox[i] = coerce_outbox(
                        gen.send(inboxes[i]), i, n
                    )
                except StopIteration as stop:
                    outputs[i] = stop.value
                    done[i] = True
                    gens[i] = None
                    pending_outbox[i] = {}

            if not any_traffic and all(done):
                break

        return state.finish(outputs, net, self.name)


class FastEngine(ExecutionEngine):
    """Throughput-oriented loop: live-set, lazy mailboxes, sampled audits.

    Args:
        validation: ``"sampled"`` (default) audits every ``sample_stride``-th
            packet, ``"full"`` audits every packet, ``"off"`` skips the audit
            entirely.  ``CongestedClique(validate=False)`` forces ``"off"``.
        sample_stride: stride between audited packets in ``"sampled"`` mode.

    For well-behaved protocols the outputs, round counts, phase tables and
    aggregate traffic statistics are identical to :class:`ReferenceEngine`:
    generators are stepped in the same ascending node order, so inbox
    insertion order, shared-cache hit patterns and meter charges all match.
    The differences are purely in overhead:

    * nodes that finished are dropped from the live list instead of being
      re-inspected every round;
    * inbox dicts exist only for nodes that receive traffic this round;
    * traffic statistics accumulate in local counters and are committed once
      per round;
    * the polynomial word bound ``max(n, 2)**k`` is computed once per run
      instead of once per packet, and the audit runs on a sampled stride.

    Addressing errors (non-int or out-of-range destinations, packets to
    finished nodes) are always checked exactly, on every packet, in every
    validation mode.  Packet-level audits (type, capacity, word magnitude)
    follow the validation mode: ``"full"`` matches the reference audit
    packet-for-packet, ``"sampled"`` checks every ``sample_stride``-th
    packet, ``"off"`` trusts the protocol.
    """

    name = "fast"

    def __init__(
        self, validation: str = "sampled", sample_stride: int = 64
    ) -> None:
        if validation not in ("off", "sampled", "full"):
            raise ValueError(
                f"validation must be 'off', 'sampled' or 'full', "
                f"got {validation!r}"
            )
        self.validation = validation
        self.sample_stride = max(1, int(sample_stride))

    def execute(self, net: Any, program_factory: ProgramFactory) -> RunResult:
        n = net.n
        state = _RunState(net)
        stats = state.stats
        current_phase = state.current_phase
        gens, outputs, done, pending = state.prime(
            program_factory, self._coerce_fast
        )
        live = [i for i in range(n) if not done[i]]
        live_set = set(live)

        capacity = net.capacity
        max_rounds = net.max_rounds
        validation = self.validation if net.validate else "off"
        audit_all = validation == "full"
        audit_some = validation == "sampled"
        stride = self.sample_stride
        bound = word_bound(n)
        per_round = stats.per_round
        seen = 0  # packets inspected so far, drives the sampling stride
        audit_words = validate_words

        while live:
            rounds = stats.rounds
            if rounds >= max_rounds:
                raise ProtocolError(
                    f"protocol exceeded max_rounds={max_rounds}"
                )
            span = current_phase[0]
            if span is not None:
                span.rounds += 1

            # One fused pass over the wire representation: flat payload
            # tuples bucketed into lazily-created mailboxes (delivery moves
            # references, never copies), with the hoisted-bound audit run
            # inline on selected packets.  Destination typing is checked
            # exactly per packet: a float like 1.0 hashes equal to a live
            # node id, so set membership alone would silently deliver it.
            packets = 0
            words = 0
            max_edge = 0
            inboxes: Dict[int, Dict[int, Packet]] = {}
            for src in live:
                outbox = pending[src]
                if not outbox:
                    continue
                for dst, pkt in outbox.items():
                    if dst.__class__ is not int and not isinstance(dst, int):
                        raise ModelViolation(
                            f"node {src} addressed invalid destination "
                            f"{dst!r}"
                        )
                    try:
                        payload = pkt.words
                    except AttributeError:
                        pkt = self._coerce_packet(pkt, src, dst)
                        payload = pkt.words
                    if audit_all or (audit_some and seen % stride == 0):
                        if (
                            pkt.__class__ is not Packet
                            and not isinstance(pkt, Packet)
                        ):
                            raise ModelViolation(
                                f"node {src} sent non-packet {pkt!r} to "
                                f"{dst}"
                            )
                        audit_words(pkt, payload, n, capacity, bound)
                    seen += 1
                    box = inboxes.get(dst)
                    if box is None:
                        if dst not in live_set:
                            self._bad_destination(src, dst, n, rounds)
                        box = inboxes[dst] = {}
                    box[src] = pkt
                    n_words = len(payload)
                    packets += 1
                    words += n_words
                    if n_words > max_edge:
                        max_edge = n_words

            per_round.append(RoundStats(rounds, packets, words, max_edge))
            stats.rounds = rounds + 1
            stats.total_packets += packets
            stats.total_words += words

            # Deliver inboxes; collect next outboxes.  Ascending order over
            # the live list mirrors the reference engine's 0..n-1 sweep.
            any_finished = False
            coerce = self._coerce_fast
            for i in live:
                try:
                    raw = gens[i].send(inboxes.get(i) or {})
                except StopIteration as stop:
                    outputs[i] = stop.value
                    gens[i] = None
                    pending[i] = _EMPTY_OUTBOX
                    any_finished = True
                else:
                    # The copy in coerce() (snapshot-at-yield) is load-bearing:
                    # see _coerce_fast.
                    pending[i] = coerce(raw, i, n)
            if any_finished:
                live = [i for i in live if gens[i] is not None]
                live_set = set(live)

        return state.finish(outputs, net, self.name)

    @staticmethod
    def _coerce_fast(raw: Any, src: int, n: int) -> Dict[int, Packet]:
        """Trusting outbox coercion: dicts are shallow-copied, not validated.

        The traffic loop re-checks destinations exactly on every packet and
        audits packet values per the validation mode, so the per-yield cost
        here is one ``type`` check plus a C-level ``dict`` copy.  The copy is
        what pins down the yield-time snapshot semantics of the reference
        engine: a protocol that mutates or reuses its outbox dict after
        ``yield`` (or shares one dict object across nodes) must not be able
        to retroactively change what was sent.
        """
        if type(raw) is dict:
            return dict(raw)
        return coerce_outbox(raw, src, n)

    @staticmethod
    def _coerce_packet(pkt: Any, src: int, dst: Any) -> Packet:
        if isinstance(pkt, tuple):
            return Packet(pkt)
        raise ModelViolation(f"node {src} sent non-packet {pkt!r} to {dst}")

    @staticmethod
    def _bad_destination(src: int, dst: Any, n: int, rounds: int) -> None:
        if isinstance(dst, int) and 0 <= dst < n:
            raise ProtocolError(
                f"packet delivered to finished node {dst} in round {rounds}"
            )
        raise ModelViolation(
            f"node {src} addressed invalid destination {dst!r}"
        )


#: Shared immutable placeholder for the pending outbox of a finished node.
_EMPTY_OUTBOX: Dict[int, Packet] = {}

#: Accepted engine selectors: ``None`` (default), a registry name, or an
#: engine instance.
EngineSpec = Union[None, str, ExecutionEngine]

_REGISTRY: Dict[str, Callable[[], ExecutionEngine]] = {}


def register_engine(name: str, factory: Callable[[], ExecutionEngine]) -> None:
    """Register an engine factory under ``name`` for string lookup."""
    _REGISTRY[name] = factory


def available_engines() -> List[str]:
    """Names accepted by :func:`get_engine` (and ``engine=`` parameters)."""
    return sorted(_REGISTRY)


def get_engine(spec: EngineSpec) -> ExecutionEngine:
    """Resolve an engine selector to an engine instance.

    ``None`` resolves to the fully-audited :class:`ReferenceEngine`; engine
    instances pass through; strings are looked up in the registry.
    """
    if spec is None:
        return ReferenceEngine()
    if isinstance(spec, ExecutionEngine):
        return spec
    if isinstance(spec, str):
        try:
            return _REGISTRY[spec]()
        except KeyError:
            raise ValueError(
                f"unknown engine {spec!r}; available: "
                f"{', '.join(available_engines())}"
            ) from None
    raise TypeError(f"engine must be None, a name, or an ExecutionEngine; "
                    f"got {type(spec).__name__}")


register_engine("reference", ReferenceEngine)
register_engine("fast", FastEngine)
