"""The retry vocabulary of :class:`~repro.service.net.client.Client`.

The client makes the RPC path survive the network failing under it; this
module holds the policy it follows and the typed errors it gives up
with:

* :class:`BackoffPolicy` — capped exponential backoff with jitter, plus
  the retry budget (an attempt cap and an overall deadline);
* :class:`CircuitBreaker` — after ``threshold`` consecutive connect
  failures calls fail fast with a typed :class:`CircuitOpen` until
  ``reset_s`` has passed (then one half-open probe decides);
* :class:`RetriesExhausted` — the budget ran out: a dead server
  surfaces as this typed error (or :class:`CircuitOpen`), never a hang;
* :class:`QuotaExceeded` — an envelope larger than the session quota,
  which no retry could ever get admitted.

See DESIGN.md §13 for the invariant the client holds with them:
*at-least-once delivery, at-most-once execution*.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Optional

from .framing import NetError

__all__ = [
    "BackoffPolicy",
    "CircuitBreaker",
    "CircuitOpen",
    "QuotaExceeded",
    "RetriesExhausted",
]


class CircuitOpen(NetError):
    """The circuit breaker is open: the server has failed enough
    consecutive connect attempts that calls fail fast instead of
    burning a timeout each."""

    code = "circuit-open"


class RetriesExhausted(NetError):
    """The retry budget (attempt count or overall deadline) ran out
    before the operation could complete."""

    code = "retries-exhausted"


class QuotaExceeded(NetError):
    """An envelope holds more requests than the session quota: the
    server would refuse it on every attempt, so the client raises this
    before sending it."""

    code = "quota-exceeded"


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential backoff with jitter, plus the retry budget.

    Delay for attempt *k* (1-based) is
    ``min(max_s, base_s * factor**(k-1))`` stretched by a uniform
    jitter in ``[1 - jitter_frac, 1 + jitter_frac]`` — jitter prevents
    a fleet of reconnecting clients from thundering in lockstep.
    ``max_attempts`` bounds one operation's retries; ``deadline_s``
    bounds the operation's total wall clock including the time spent
    inside attempts, not just between them.
    """

    base_s: float = 0.05
    factor: float = 2.0
    max_s: float = 2.0
    jitter_frac: float = 0.25
    max_attempts: int = 8
    deadline_s: float = 60.0

    def delay_s(self, attempt: int, rng: random.Random) -> float:
        """The jittered sleep before retry ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        raw = min(self.max_s, self.base_s * self.factor ** (attempt - 1))
        spread = max(0.0, min(1.0, self.jitter_frac))
        return raw * (1.0 - spread + 2.0 * spread * rng.random())


@dataclass
class CircuitBreaker:
    """Consecutive-failure circuit breaker (closed / open / half-open).

    ``record_failure`` past ``threshold`` opens the circuit;
    :meth:`allow` then fails fast until ``reset_s`` has elapsed, after
    which exactly one probe is allowed through (half-open) — its
    success closes the circuit, its failure re-opens it for another
    ``reset_s``.
    """

    threshold: int = 5
    reset_s: float = 5.0
    failures: int = 0
    opened_at: Optional[float] = None
    _probing: bool = field(default=False, repr=False)

    @property
    def state(self) -> str:
        """``"closed"``, ``"open"`` or ``"half-open"``."""
        if self.opened_at is None:
            return "closed"
        if time.monotonic() - self.opened_at >= self.reset_s:
            return "half-open"
        return "open"

    def allow(self) -> bool:
        """Whether a connect attempt may proceed right now."""
        state = self.state
        if state == "closed":
            return True
        if state == "half-open" and not self._probing:
            self._probing = True
            return True
        return False

    def record_success(self) -> None:
        """A connect succeeded: close the circuit."""
        self.failures = 0
        self.opened_at = None
        self._probing = False

    def record_failure(self) -> None:
        """A connect failed: count it; open the circuit past threshold."""
        self.failures += 1
        self._probing = False
        if self.failures >= self.threshold:
            self.opened_at = time.monotonic()
