"""Instrumentation: round, traffic, and local-computation accounting.

Round counts are the paper's primary cost measure; Section 5 additionally
claims ``O(n log n)`` local computation steps and memory bits per node.  The
:class:`OperationMeter` lets algorithm code charge abstract "computational
steps" (basic arithmetic on O(log n)-bit values, per the paper's model in
Section 2) and track peak live words, so benchmarks can exhibit the claimed
scaling empirically.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class RoundStats:
    """Traffic statistics for one synchronous round."""

    round_index: int
    packets: int = 0
    words: int = 0
    max_words_on_edge: int = 0

    def record_packet(self, n_words: int) -> None:
        self.packets += 1
        self.words += n_words
        if n_words > self.max_words_on_edge:
            self.max_words_on_edge = n_words


@dataclass
class RunStats:
    """Aggregate statistics for a full protocol run."""

    n: int
    rounds: int = 0
    total_packets: int = 0
    total_words: int = 0
    per_round: List[RoundStats] = field(default_factory=list)
    #: rounds attributed to named phases, in execution order.
    phase_rounds: List["PhaseSpan"] = field(default_factory=list)

    def begin_round(self, round_index: int) -> RoundStats:
        stats = RoundStats(round_index)
        self.per_round.append(stats)
        return stats

    def commit_round(self, stats: RoundStats) -> None:
        self.rounds += 1
        self.total_packets += stats.packets
        self.total_words += stats.words

    def phase_table(self) -> Dict[str, int]:
        """Rounds per phase name (summed over repeated phases)."""
        table: Dict[str, int] = {}
        for span in self.phase_rounds:
            table[span.name] = table.get(span.name, 0) + span.rounds
        return table


@dataclass
class PhaseSpan:
    """A contiguous span of rounds attributed to a named algorithm phase."""

    name: str
    start_round: int
    rounds: int = 0


class OperationMeter:
    """Per-node counter of abstract local computation steps and memory.

    The paper's computation model (Section 2) charges one step per basic
    arithmetic operation on an O(log n)-bit value.  Algorithms call
    :meth:`charge` at the granularity of such operations (or a tight upper
    bound on a block of them) and :meth:`observe_live_words` when their
    working set changes.  Benchmark E2 reports ``max over nodes of steps``
    against ``c * n * log2(n)``.
    """

    def __init__(self) -> None:
        self.steps = 0
        self.peak_live_words = 0

    def charge(self, steps: int = 1) -> None:
        """Charge ``steps`` computational steps."""
        self.steps += steps

    def observe_live_words(self, words: int) -> None:
        """Record the current working-set size in words."""
        if words > self.peak_live_words:
            self.peak_live_words = words

    def charge_sort(self, length: int) -> None:
        """Charge a comparison sort of ``length`` items: ~length*log2(length)."""
        if length > 1:
            self.charge(int(length * math.log2(length)) + length)
        else:
            self.charge(1)


@dataclass
class MeterReport:
    """Snapshot of every node's meter after a run."""

    steps_per_node: List[int]
    peak_words_per_node: List[int]

    @property
    def max_steps(self) -> int:
        return max(self.steps_per_node) if self.steps_per_node else 0

    @property
    def max_peak_words(self) -> int:
        return max(self.peak_words_per_node) if self.peak_words_per_node else 0

    def normalized_steps(self, n: int) -> float:
        """``max_steps / (n log2 n)`` — constant iff steps are O(n log n)."""
        if n < 2:
            return float(self.max_steps)
        return self.max_steps / (n * math.log2(n))

    def normalized_words(self, n: int) -> float:
        """``max_peak_words / n`` — constant iff memory is O(n log n) bits."""
        return self.max_peak_words / max(n, 1)


class LatencyHistogram:
    """Geometric-bucket histogram for latency-style measurements.

    The streaming gateway's tail-latency metrics core: ``record`` is O(log
    buckets), the state is a flat counter array (mergeable across workers or
    runs), and percentiles are answered by linear interpolation inside the
    matching bucket — so p99 over millions of samples costs a few hundred
    bytes, not a sample reservoir.

    Buckets span ``[low_s, high_s]`` with ``growth``-factor widths (default
    ~19% per bucket, i.e. percentile error bounded by one bucket width).
    Samples outside the span clamp into the first/last bucket; exact
    ``min``/``max``/``sum``/``count`` are tracked alongside, so means and
    extremes are not quantized.
    """

    __slots__ = ("bounds", "counts", "count", "sum_s", "min_s", "max_s")

    def __init__(
        self,
        low_s: float = 1e-6,
        high_s: float = 600.0,
        growth: float = 2 ** 0.25,
    ) -> None:
        if not (0 < low_s < high_s) or growth <= 1.0:
            raise ValueError("need 0 < low_s < high_s and growth > 1")
        bounds = [low_s]
        while bounds[-1] < high_s:
            bounds.append(bounds[-1] * growth)
        #: upper bound of each bucket; bucket i covers (bounds[i-1], bounds[i]].
        self.bounds = bounds
        self.counts = [0] * len(bounds)
        self.count = 0
        self.sum_s = 0.0
        self.min_s = math.inf
        self.max_s = 0.0

    def record(self, seconds: float) -> None:
        """Record one sample (negative values clamp to zero)."""
        s = seconds if seconds > 0.0 else 0.0
        i = bisect_left(self.bounds, s)
        if i >= len(self.counts):
            i = len(self.counts) - 1
        self.counts[i] += 1
        self.count += 1
        self.sum_s += s
        if s < self.min_s:
            self.min_s = s
        if s > self.max_s:
            self.max_s = s

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other``'s samples into this histogram (same bucketing)."""
        if self.bounds != other.bounds:
            raise ValueError("cannot merge histograms with different buckets")
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.sum_s += other.sum_s
        self.min_s = min(self.min_s, other.min_s)
        self.max_s = max(self.max_s, other.max_s)

    @property
    def mean_s(self) -> float:
        return self.sum_s / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (``0 <= q <= 100``) in seconds.

        Linear interpolation within the matching bucket, clamped to the
        exact observed ``[min, max]`` so the quantization never reports a
        tail beyond what was measured.
        """
        if not 0 <= q <= 100:
            raise ValueError(f"percentile wants 0 <= q <= 100, got {q}")
        if self.count == 0:
            return 0.0
        rank = q / 100.0 * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            if c == 0:
                continue
            if seen + c >= rank:
                lo = self.bounds[i - 1] if i > 0 else 0.0
                hi = self.bounds[i]
                frac = (rank - seen) / c
                value = lo + (hi - lo) * frac
                return max(self.min_s, min(self.max_s, value))
            seen += c
        return self.max_s

    def summary(self) -> Dict[str, float]:
        """The standard latency rollup (milliseconds for readability)."""
        to_ms = 1e3
        return {
            "count": self.count,
            "mean_ms": round(self.mean_s * to_ms, 3),
            "min_ms": round((self.min_s if self.count else 0.0) * to_ms, 3),
            "p50_ms": round(self.percentile(50) * to_ms, 3),
            "p95_ms": round(self.percentile(95) * to_ms, 3),
            "p99_ms": round(self.percentile(99) * to_ms, 3),
            "max_ms": round(self.max_s * to_ms, 3),
        }


def collect_meters(meters: List[Optional[OperationMeter]]) -> MeterReport:
    """Aggregate per-node meters (``None`` entries count as zero)."""
    steps = [m.steps if m is not None else 0 for m in meters]
    words = [m.peak_live_words if m is not None else 0 for m in meters]
    return MeterReport(steps, words)
