"""Packets: the unit of communication on the congested clique.

The model allows ``O(log n)`` bits per directed edge per round.  We express
this as a *packet* of at most ``capacity`` machine words, where each word is
an integer polynomially bounded in ``n`` (so each word is ``O(log n)`` bits).
This mirrors the paper's convention that "in each message nodes may encode a
constant number of integer numbers that are polynomially bounded in n"
(Section 2).

Packets are immutable tuples of ints.  Helper functions bundle and unbundle
logical values (e.g. "two keys per message" in Algorithm 4's Step 6).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Sequence, Tuple, Union

from .errors import CapacityExceeded, WordSizeViolation

#: Default number of words a packet may carry.  The paper allows any constant;
#: 8 words comfortably fits every primitive in the paper (the largest bundling
#: factor used is 4 keys plus bookkeeping in Algorithm 3 Step 6).
DEFAULT_CAPACITY = 8

#: Exponent ``k`` such that words must satisfy ``|w| < max(n, 2) ** k``.
#: The paper requires words polynomially bounded in ``n``; exponent 12 covers
#: every quantity we ever encode: packed (source, dest, seq) headers are
#: < 8n^3, tagged sort keys are < n^5, and a packed *pair* of tagged keys
#: (Algorithm 4 Step 6, "bundling up to two keys in each message") is
#: < n^10.
POLY_BOUND_EXPONENT = 12


@dataclass(frozen=True, slots=True)
class Packet:
    """An immutable message: a tuple of integer words.

    Slotted: a packet is one words reference and carries no instance dict
    (the simulator allocates one per edge per round).

    Attributes:
        words: the payload words, most-significant semantics first.  The
            interpretation of the words is entirely up to the protocol; the
            simulator only audits count and magnitude.
    """

    words: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.words, tuple):
            object.__setattr__(self, "words", tuple(self.words))

    def __len__(self) -> int:
        return len(self.words)

    def __iter__(self) -> Iterator[int]:
        return iter(self.words)

    def __getitem__(self, idx: Union[int, slice]) -> Union[int, Tuple[int, ...]]:
        return self.words[idx]


def packet(*words: int) -> Packet:
    """Build a packet from the given words."""
    return Packet(tuple(int(w) for w in words))


def validate_packet(pkt: Packet, n: int, capacity: int) -> None:
    """Audit one packet against the model constraints.

    Raises:
        CapacityExceeded: if the packet has more than ``capacity`` words.
        WordSizeViolation: if any word is not an int within the polynomial
            magnitude bound.
    """
    if len(pkt.words) > capacity:
        raise CapacityExceeded(
            f"packet with {len(pkt.words)} words exceeds capacity {capacity}"
        )
    bound = max(n, 2) ** POLY_BOUND_EXPONENT
    for w in pkt.words:
        if not isinstance(w, int) or isinstance(w, bool):
            raise WordSizeViolation(f"non-integer word {w!r} in packet")
        if not -bound < w < bound:
            raise WordSizeViolation(
                f"word {w} outside polynomial bound +-{max(n, 2)}^"
                f"{POLY_BOUND_EXPONENT} for n={n}"
            )


def bundle(values: Sequence[int], per_packet: int) -> List[Packet]:
    """Split a flat list of words into packets of ``per_packet`` words each.

    Used for the paper's "bundling a constant number of keys in each message"
    arguments (e.g. Lemma 4.4: four keys per message in Step 6).
    """
    if per_packet < 1:
        raise ValueError("per_packet must be >= 1")
    return [
        Packet(tuple(values[i : i + per_packet]))
        for i in range(0, len(values), per_packet)
    ]


def unbundle(packets: Iterable[Packet]) -> List[int]:
    """Concatenate packet payloads back into a flat word list."""
    out: List[int] = []
    for pkt in packets:
        out.extend(pkt.words)
    return out


def pack_pair(a: int, b: int, base: int) -> int:
    """Encode two non-negative ints ``< base`` into one word."""
    if not (0 <= a < base and 0 <= b < base):
        raise ValueError(f"pack_pair operands out of range [0, {base})")
    return a * base + b

def unpack_pair(word: int, base: int) -> Tuple[int, int]:
    """Inverse of :func:`pack_pair`."""
    return divmod(word, base)


def pack_triple(a: int, b: int, c: int, base: int) -> int:
    """Encode three non-negative ints ``< base`` into one word.

    With ``base = n`` the result is ``< n^3``, within the polynomial bound.
    Used to tag messages with (source, destination, sequence) as Problem 3.1
    requires ("each such message explicitly contains these values").
    """
    if not (0 <= a < base and 0 <= b < base and 0 <= c < base):
        raise ValueError(f"pack_triple operands out of range [0, {base})")
    return (a * base + b) * base + c


def unpack_triple(word: int, base: int) -> Tuple[int, int, int]:
    """Inverse of :func:`pack_triple`."""
    ab, c = divmod(word, base)
    a, b = divmod(ab, base)
    return a, b, c
