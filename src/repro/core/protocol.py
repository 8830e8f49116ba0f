"""Protocol-composition helpers.

Protocols are plain generators, so *sequencing* is native ``yield from``.
This module provides the remaining glue:

* piggyback broadcast — attach one extra word to every outgoing packet of a
  round and fill otherwise-unused edges, so a node can disseminate a single
  value to all nodes "for free" (message size stays O(log n)).  Algorithm 4
  uses this to spread post-bucket-exchange key counts without spending a
  round (see DESIGN.md Section 2).
* idle rounds — explicit synchronization filler so all nodes advance in
  lockstep even when only a subset communicates.
* outbox merging — combine outboxes produced for edge-disjoint concurrent
  activities, with conflict detection.
"""

from __future__ import annotations

from typing import Dict, Generator, Iterable, Optional, Tuple

from .errors import EdgeConflict, ProtocolError
from .message import Packet
from .wire import fast_packet

Outbox = Dict[int, Packet]
Inbox = Dict[int, Packet]


def attach_piggyback(outbox: Outbox, word: int, n: int) -> Outbox:
    """Append ``word`` to every packet and fill unused edges with it.

    After this transformation the sender transmits to *all* ``n`` nodes, and
    every recipient can recover ``word`` as the last word of the packet it
    received.  The caller is responsible for leaving one word of slack in the
    packet capacity during piggyback rounds.

    Wire-level fast path: packet words are already tuples, so the appended
    payload is built with one tuple concatenation and materialized through
    :func:`~repro.core.wire.fast_packet`; all otherwise-unused edges share
    one broadcast-only packet object (packets are immutable, and the engines
    deliver by reference).  The result lists destinations ``0..n-1`` in
    order; an outbox key outside them, or a ``None`` packet, is ignored.
    """
    tail = (word,)
    out: Outbox = dict.fromkeys(range(n), fast_packet(tail))
    for dst, pkt in outbox.items():
        if pkt is not None and dst in out:
            out[dst] = fast_packet(pkt.words + tail)
    return out


def strip_piggyback(inbox: Inbox) -> Tuple[Inbox, Dict[int, int]]:
    """Split piggybacked inbox packets into payload and broadcast words.

    Returns ``(clean_inbox, words)`` where ``words[src]`` is the piggybacked
    word from ``src`` and ``clean_inbox`` retains only packets that carried
    real payload besides the piggyback word.

    :func:`attach_piggyback` always emits at least the broadcast word, so in
    a piggyback round every received packet carries >= 1 word.  An *empty*
    packet means the sender skipped the attach step; silently dropping it
    (as this function once did) would lose that sender's broadcast word and
    desynchronize the receivers, so it is reported loudly instead.

    Raises:
        ProtocolError: if a zero-word packet arrives — the sender did not
            run :func:`attach_piggyback` for this round.
    """
    clean: Inbox = {}
    words: Dict[int, int] = {}
    for src, pkt in inbox.items():
        payload = pkt.words
        if not payload:
            raise ProtocolError(
                f"piggyback round received an empty packet from node {src}; "
                "attach_piggyback always carries at least the broadcast word"
            )
        words[src] = payload[-1]
        rest = payload[:-1]
        if rest:
            clean[src] = fast_packet(rest)
    return clean, words


def merge_outboxes(parts: Iterable[Outbox]) -> Outbox:
    """Union outboxes from edge-disjoint concurrent activities.

    Raises:
        EdgeConflict: if two parts address the same destination — that would
            put two packets on one edge in one round, which the concurrency
            argument of the algorithm must rule out.
    """
    merged: Outbox = {}
    for part in parts:
        for dst, pkt in part.items():
            if dst in merged:
                raise EdgeConflict(
                    f"merged outboxes both address node {dst}; concurrent "
                    "activities are not edge-disjoint"
                )
            merged[dst] = pkt
    return merged


def idle(rounds: int) -> Generator[Outbox, Inbox, None]:
    """Yield ``rounds`` empty outboxes (a node sitting out a known span).

    Raises:
        EdgeConflict: if a packet arrives while idling — a bug in the
            caller's round accounting.
    """
    for _ in range(rounds):
        inbox = yield {}
        if inbox:
            raise EdgeConflict(
                f"node received {len(inbox)} packet(s) while idle"
            )


def single_round(outbox: Optional[Outbox] = None) -> Generator[Outbox, Inbox, Inbox]:
    """Send ``outbox`` (default empty), return the inbox of that round."""
    inbox = yield (outbox or {})
    return inbox
