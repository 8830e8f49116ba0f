"""The synchronous congested-clique simulator facade.

The simulator advances ``n`` per-node protocol generators in lockstep.  In
each round every live generator emits an *outbox* — a mapping from
destination node id to :class:`~repro.core.message.Packet` — and receives
the *inbox* assembled from the previous round's sends.  The engine audits
the model constraints the paper assumes (Section 2):

* at most one packet per ordered node pair per round (structural: outboxes
  are keyed by destination; concurrent activities merge through
  :func:`repro.core.protocol.merge_outboxes`, which raises ``EdgeConflict``);
* at most ``capacity`` words per packet (``CapacityExceeded``);
* every word an integer polynomially bounded in ``n`` (``WordSizeViolation``).

Nodes may send to themselves (the paper explicitly allows this).

Protocol shape::

    def my_protocol(ctx: NodeContext, my_input) -> NodeGen:
        inbox = yield {}                      # round 1: send nothing
        inbox = yield {peer: packet(42)}      # round 2: one packet to peer
        return result                         # done; return value is output

All generators must finish within ``max_rounds`` (guard against livelock).

The round loop itself is pluggable: :class:`CongestedClique` delegates to an
:class:`~repro.core.engine.ExecutionEngine` (the fully-audited
``ReferenceEngine`` by default, or the throughput-oriented ``FastEngine``
via ``engine="fast"``).  See :mod:`repro.core.engine`.
"""

from __future__ import annotations

from typing import Any

from .engine import (
    EngineSpec,
    ExecutionEngine,
    NodeGen,
    ProgramFactory,
    RunResult,
    get_engine,
)
from .message import DEFAULT_CAPACITY

__all__ = [
    "CongestedClique",
    "NodeGen",
    "ProgramFactory",
    "RunResult",
    "run_protocol",
]


class CongestedClique:
    """A fully connected synchronous network of ``n`` nodes.

    Args:
        n: number of nodes (ids ``0..n-1``).
        capacity: words per packet (the model's O(log n) bits as a constant
            number of machine words).
        validate: audit packets against the model (disable only for
            large-scale benchmarking where the audit dominates runtime;
            with the fast engine this forces validation ``"off"``).
        meter: create an :class:`OperationMeter` per node for Section-5
            computation accounting.
        verify_shared: run the shared-computation cache in verify mode
            (recompute on hit and assert determinism).
        max_rounds: abort if a protocol runs longer than this many rounds.
        engine: round-loop driver — ``None`` for the fully-audited reference
            engine, a registered name (``"reference"``, ``"fast"``), or
            an :class:`~repro.core.engine.ExecutionEngine` instance.
    """

    def __init__(
        self,
        n: int,
        capacity: int = DEFAULT_CAPACITY,
        validate: bool = True,
        meter: bool = False,
        verify_shared: bool = False,
        max_rounds: int = 10_000,
        engine: EngineSpec = None,
    ) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        self.capacity = capacity
        self.validate = validate
        self.meter = meter
        self.verify_shared = verify_shared
        self.max_rounds = max_rounds
        self.engine: ExecutionEngine = get_engine(engine)

    def run(self, program_factory: ProgramFactory) -> RunResult:
        """Execute one protocol on all ``n`` nodes until every node returns."""
        return self.engine.execute(self, program_factory)


def run_protocol(
    n: int,
    program_factory: ProgramFactory,
    capacity: int = DEFAULT_CAPACITY,
    **kwargs: Any,
) -> RunResult:
    """One-shot convenience wrapper around :class:`CongestedClique`."""
    return CongestedClique(n, capacity=capacity, **kwargs).run(program_factory)
