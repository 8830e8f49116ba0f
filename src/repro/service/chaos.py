"""Fault injection against live gateways, with recovery gates.

The batch service and streaming gateway are elsewhere only exercised on
healthy workers; this module is the hostile-operations counterpart.  It
plants three fault families inside otherwise ordinary workloads and
drives them through a *live* gateway, then gates on how the service
behaved:

* ``poison`` — the request crashes the engine (an exception inside
  ``execute_request``); must resolve as ``STATUS_FAILED``, never as a
  completion, and never enter success percentiles or digests.
* ``kill`` — the pool worker executing the request SIGKILLs itself,
  breaking the whole ``ProcessPoolExecutor``; the gateway must replace
  the pool and keep serving (in-flight collateral fails, later requests
  complete).
* ``slow:<ms>`` — a straggler: the worker sleeps before executing, the
  run still completes correctly; p99 must degrade *boundedly*.

Fault transport rides the request envelope itself: a ``chaos:``-prefixed
``tag`` travels in the pickled :class:`~repro.core.engine.RunRequest`
and is interpreted by ``execute_request`` inside whichever process runs
it — no worker-side setup, no shared state, works across every backend.
The warmup/prefetch passes skip chaos-tagged requests, so a fault can
only ever fire behind the executor boundary in a disposable worker.

Gates (all must hold for exit code 0):

1. **recovered** — after a kill, ``pool_replacements >= 1`` and requests
   submitted after the kill point complete.
2. **faults contained** — every injected poison/kill request resolves as
   ``STATUS_FAILED`` (with its latency in the failure histogram only).
3. **digests correct** — the digest over the surviving (completed) runs
   is byte-identical to a sequential re-execution of exactly those
   requests.
4. **p99 bounded** — success p99 under stragglers stays within
   ``factor * (clean_p99 + straggler_ms) + slack``.

This module's faults live at the *request* level.  The wire-level
counterpart — latency, jitter, rate caps, mid-frame disconnects,
blackholes and byte corruption against the RPC byte stream — is
:mod:`repro.service.net.faultproxy`, which shares this module's typed
:class:`ChaosFault` for malformed fault specs.

Command line::

    python -m repro.service chaos --requests 24 --kills 1 --poisons 2
    python -m repro.service chaos --record chaos.jsonl --json

See DESIGN.md section 9 for the semantics.
"""

from __future__ import annotations

import os
import random
import signal
import time
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional

from ..core.engine import STATUS_FAILED, RunRequest
from ..scenarios.generators import DEFAULT_MIX, arrival_times, mixed_batch
from .batch import (
    CHAOS_TAG_PREFIX,
    BatchService,
    requests_from_scenarios,
)

__all__ = [
    "ChaosFault",
    "ChaosPlan",
    "ChaosReport",
    "apply_fault",
    "build_chaos_plan",
    "inject",
    "run_chaos",
]


class ChaosFault(RuntimeError):
    """Raised by a poison request inside the executing process."""


def inject(req: RunRequest, fault: str) -> RunRequest:
    """Arm ``req`` with a chaos fault (``poison``/``kill``/``slow:<ms>``)."""
    return replace(req, tag=f"{CHAOS_TAG_PREFIX}{fault}")


def apply_fault(tag: str) -> None:
    """Interpret a ``chaos:`` tag inside the process executing the run.

    Called by ``execute_request`` before the scenario runs.  ``poison``
    raises (a clean engine crash), ``kill`` SIGKILLs the executing
    process (un-catchable — exactly what an OOM kill looks like to the
    pool), ``slow:<ms>`` sleeps and then lets the run proceed normally.
    An unknown fault raises, which surfaces as a failed run rather than
    silently executing a request that asked for chaos.
    """
    spec = tag[len(CHAOS_TAG_PREFIX):]
    if spec == "poison":
        raise ChaosFault("poison request: injected engine crash")
    if spec == "kill":
        os.kill(os.getpid(), signal.SIGKILL)
        return  # pragma: no cover - process is gone
    if spec.startswith("slow:"):
        try:
            delay_ms = float(spec[len("slow:"):])
        except ValueError:
            raise ChaosFault(f"malformed slow fault {spec!r}") from None
        time.sleep(max(0.0, delay_ms) / 1e3)
        return
    raise ChaosFault(f"unknown chaos fault {spec!r}")


@dataclass
class ChaosPlan:
    """A workload with faults planted at known indices."""

    requests: List[RunRequest]
    clean: List[RunRequest]
    kill_indices: List[int] = field(default_factory=list)
    poison_indices: List[int] = field(default_factory=list)
    straggler_indices: List[int] = field(default_factory=list)

    @property
    def fault_indices(self) -> List[int]:
        """Indices whose requests must fail (kills + poisons)."""
        return sorted(self.kill_indices + self.poison_indices)


def build_chaos_plan(
    count: int = 24,
    *,
    kills: int = 1,
    poisons: int = 2,
    straggler_frac: float = 0.25,
    straggler_ms: float = 100.0,
    mix: str = DEFAULT_MIX,
    seed: int = 0,
    engine: str = "fast",
) -> ChaosPlan:
    """Generate a mixed workload and convert some of it into faults.

    The first kill lands at ``count // 3`` so a healthy prefix exercises
    the warm path and a long suffix proves post-kill recovery; poisons
    and stragglers are scattered deterministically from ``seed``.
    """
    faults = kills + poisons
    if count < faults + 2:
        raise ValueError(
            f"need at least {faults + 2} requests to plant "
            f"{kills} kills + {poisons} poisons"
        )
    clean = requests_from_scenarios(
        mixed_batch(count, mix=mix, seed0=seed), engine=engine
    )
    requests = list(clean)
    rng = random.Random(seed)
    # Kills first: the earliest at count//3, any further ones spread
    # behind it so each lands on an already-replaced pool.
    kill_indices = [
        count // 3 + i * max(1, (count - count // 3) // (kills + 1))
        for i in range(kills)
    ]
    taken = set(kill_indices)
    pool = [i for i in range(count) if i not in taken]
    poison_indices = sorted(rng.sample(pool, poisons)) if poisons else []
    taken.update(poison_indices)
    remaining = [i for i in range(count) if i not in taken]
    n_slow = int(len(remaining) * straggler_frac)
    straggler_indices = (
        sorted(rng.sample(remaining, n_slow)) if n_slow else []
    )
    for i in kill_indices:
        requests[i] = inject(requests[i], "kill")
    for i in poison_indices:
        requests[i] = inject(requests[i], "poison")
    for i in straggler_indices:
        requests[i] = inject(requests[i], f"slow:{straggler_ms:g}")
    return ChaosPlan(
        requests=requests,
        clean=clean,
        kill_indices=kill_indices,
        poison_indices=poison_indices,
        straggler_indices=straggler_indices,
    )


@dataclass
class ChaosReport:
    """Gate-by-gate verdict of one chaos run."""

    gates: Dict[str, bool]
    counts: Dict[str, int]
    p99_clean_ms: float
    p99_chaos_ms: float
    p99_bound_ms: float
    pool_replacements: int
    chaos_digest: str
    baseline_digest: str
    stream: Any = None

    @property
    def ok(self) -> bool:
        return all(self.gates.values())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "ok": self.ok,
            "gates": dict(self.gates),
            "counts": dict(self.counts),
            "p99_clean_ms": round(self.p99_clean_ms, 3),
            "p99_chaos_ms": round(self.p99_chaos_ms, 3),
            "p99_bound_ms": round(self.p99_bound_ms, 3),
            "pool_replacements": self.pool_replacements,
            "chaos_digest": self.chaos_digest,
            "baseline_digest": self.baseline_digest,
            "stream": self.stream.to_dict() if self.stream else None,
        }


def run_chaos(
    plan: Optional[ChaosPlan] = None,
    *,
    count: int = 24,
    workers: int = 2,
    backend: str = "process",
    engine: str = "fast",
    kills: int = 1,
    poisons: int = 2,
    straggler_frac: float = 0.25,
    straggler_ms: float = 100.0,
    rate: float = 0.0,
    mix: str = DEFAULT_MIX,
    seed: int = 0,
    queue_cap: Optional[int] = None,
    p99_factor: float = 4.0,
    p99_slack_ms: float = 500.0,
    compare_clean: bool = True,
    record: Optional[str] = None,
) -> ChaosReport:
    """Drive a fault-laden workload through a live gateway and gate it.

    Runs the clean twin of the workload first (the p99 baseline), then
    the chaos run, then a sequential re-execution of exactly the
    surviving requests (the digest baseline).  ``rate`` 0 replays
    saturated; ``record`` captures the chaos run's traffic for
    forensics/replay.  Kills require the process backend — in a thread
    backend the "worker" is the calling process itself.
    """
    from .stream import serve

    if plan is None:
        plan = build_chaos_plan(
            count,
            kills=kills,
            poisons=poisons,
            straggler_frac=straggler_frac,
            straggler_ms=straggler_ms,
            mix=mix,
            seed=seed,
            engine=engine,
        )
    if plan.kill_indices and backend != "process":
        raise ValueError(
            "kill faults need the process backend: in a thread backend "
            "the executing process is the gateway itself"
        )
    n = len(plan.requests)
    cap = queue_cap if queue_cap is not None else n
    process = "saturated" if rate <= 0 else "uniform"
    arrivals = arrival_times(process, max(rate, 1e-9), n, seed=seed)

    p99_clean_ms = 0.0
    if compare_clean:
        clean_report = serve(
            plan.clean,
            arrivals,
            workers=workers,
            engine=engine,
            backend=backend,
            queue_cap=cap,
            policy="block",
        )
        p99_clean_ms = clean_report.metrics["latency"]["p99_ms"]

    chaos_report = serve(
        plan.requests,
        arrivals,
        workers=workers,
        engine=engine,
        backend=backend,
        queue_cap=cap,
        policy="block",
        record=record,
    )

    summaries = chaos_report.summaries
    completed = chaos_report.completed
    replacements = chaos_report.metrics["pool_replacements"]
    last_kill = max(plan.kill_indices) if plan.kill_indices else -1
    post_kill_completed = [
        i
        for i, s in enumerate(summaries)
        if i > last_kill and s.status not in ("", STATUS_FAILED) and s.resolved
    ]

    # Sequential re-execution of exactly the surviving requests: the
    # digest must be byte-identical (fault survival never corrupts the
    # runs that did complete).
    chaos_digest = chaos_report.stream_digest()
    baseline_digest = ""
    digest_ok = True
    if completed:
        baseline = BatchService(workers=0, engine=engine).run_batch(
            [s.request for s in completed]
        )
        baseline_digest = baseline.batch_digest()
        digest_ok = baseline.ok and baseline_digest == chaos_digest

    p99_chaos_ms = chaos_report.metrics["latency"]["p99_ms"]
    p99_bound_ms = p99_factor * (p99_clean_ms + straggler_ms) + p99_slack_ms

    gates = {
        "recovered": (
            not plan.kill_indices
            or (replacements >= 1 and bool(post_kill_completed))
        ),
        "faults_contained": all(
            summaries[i].status == STATUS_FAILED for i in plan.fault_indices
        ),
        "digests_correct": digest_ok,
        "p99_bounded": (
            not compare_clean
            or not plan.straggler_indices
            or p99_chaos_ms <= p99_bound_ms
        ),
    }
    counts = {
        "offered": len(summaries),
        "completed": len(completed),
        "failed": len(chaos_report.failed),
        "kills": len(plan.kill_indices),
        "poisons": len(plan.poison_indices),
        "stragglers": len(plan.straggler_indices),
        "post_kill_completed": len(post_kill_completed),
    }
    return ChaosReport(
        gates=gates,
        counts=counts,
        p99_clean_ms=float(p99_clean_ms),
        p99_chaos_ms=float(p99_chaos_ms),
        p99_bound_ms=float(p99_bound_ms),
        pool_replacements=int(replacements),
        chaos_digest=chaos_digest,
        baseline_digest=baseline_digest,
        stream=chaos_report,
    )
