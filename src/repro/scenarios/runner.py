"""ScenarioRunner: execute any algorithm on any engine and cross-check.

The runner is the differential harness the scenario taxonomy feeds:

* every run is **verified** against the problem's oracle
  (:func:`~repro.routing.problem.verify_delivery`,
  :func:`~repro.sorting.problem.verify_sorted_batches`, or the multiplex
  workload's closed-form expectation);
* round counts are checked against the paper's **bounds**
  (:mod:`repro.analysis.bounds`) — an inequality for the constant-round
  algorithms, an exact prediction for the naive baseline;
* traffic is checked against the structural **message budget** (at most
  ``n^2`` packets per round, every packet within the edge capacity seen);
* a **digest** of the canonical outputs lets
  :meth:`ScenarioRunner.differential` assert byte-identical results across
  algorithms and engines.

Example::

    from repro.scenarios import Scenario, ScenarioRunner

    runner = ScenarioRunner(engines=("reference", "fast"))
    report = runner.differential(Scenario("routing", "skewed", n=25, seed=3))
    assert report.ok, report.failures
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..analysis.bounds import (
    ROUTING_OPTIMIZED_ROUNDS,
    ROUTING_ROUNDS,
    SORTING_ROUNDS,
)
from ..core.engine import EngineSpec, RunResult, available_engines
from ..core.errors import ReproError
from ..core.network import run_protocol
from ..core.topology import is_perfect_square
from ..routing import (
    naive_round_bound,
    route_lenzen,
    route_naive,
    route_optimized,
    route_valiant,
    verify_delivery,
)
from ..sorting import sample_sort, sort_lenzen, verify_sorted_batches
from .generators import Scenario


@dataclass(frozen=True)
class AlgorithmSpec:
    """How to run and judge one algorithm inside the harness."""

    kind: str
    name: str
    run: Callable[[Any, EngineSpec, int], RunResult]
    #: closed-form round budget; ``(bound, exact)`` — ``exact=True`` means
    #: the measured round count must *equal* the bound, else ``<=``.
    budget: Optional[Callable[[Any], Tuple[int, bool]]] = None
    square_only: bool = False


ALGORITHMS: Dict[Tuple[str, str], AlgorithmSpec] = {}


def register_algorithm(spec: AlgorithmSpec) -> None:
    ALGORITHMS[(spec.kind, spec.name)] = spec


def algorithms(kind: str) -> List[str]:
    return sorted(name for k, name in ALGORITHMS if k == kind)


def default_algorithm(kind: str) -> str:
    """The algorithm a scenario of ``kind`` runs when none is named.

    Single source of truth — the runner, the batch service, and the
    direct-execution oracles in tests/benches all resolve through here.
    """
    return kind if kind == "multiplex" else "lenzen"


register_algorithm(AlgorithmSpec(
    kind="routing",
    name="lenzen",
    run=lambda inst, engine, seed: route_lenzen(inst, engine=engine),
    budget=lambda inst: (ROUTING_ROUNDS, False),
))
register_algorithm(AlgorithmSpec(
    kind="routing",
    name="optimized",
    run=lambda inst, engine, seed: route_optimized(inst, engine=engine),
    budget=lambda inst: (ROUTING_OPTIMIZED_ROUNDS, False),
    square_only=True,
))
register_algorithm(AlgorithmSpec(
    kind="routing",
    name="naive",
    run=lambda inst, engine, seed: route_naive(inst, engine=engine),
    budget=lambda inst: (naive_round_bound(inst), True),
))
register_algorithm(AlgorithmSpec(
    kind="routing",
    name="randomized",
    run=lambda inst, engine, seed: route_valiant(inst, seed=seed, engine=engine),
))
register_algorithm(AlgorithmSpec(
    kind="sorting",
    name="lenzen",
    run=lambda inst, engine, seed: sort_lenzen(inst, engine=engine),
    budget=lambda inst: (SORTING_ROUNDS, False),
    square_only=True,
))
register_algorithm(AlgorithmSpec(
    kind="sorting",
    name="samplesort",
    run=lambda inst, engine, seed: sample_sort(inst, seed=seed, engine=engine),
    square_only=True,
))
register_algorithm(AlgorithmSpec(
    kind="multiplex",
    name="multiplex",
    run=lambda wl, engine, seed: run_protocol(
        wl.n, wl.make_program(), capacity=wl.capacity, engine=engine
    ),
    budget=lambda wl: (wl.expected_rounds, True),
))


@dataclass
class ScenarioOutcome:
    """One (scenario, algorithm, engine) execution, judged."""

    scenario: str
    kind: str
    algorithm: str
    engine: str
    ok: bool
    rounds: int = 0
    total_packets: int = 0
    total_words: int = 0
    max_edge_words: int = 0
    digest: str = ""
    budget: Optional[int] = None
    error: str = ""
    #: wall-clock seconds spent inside the algorithm run.
    wall_s: float = 0.0
    shared_cache_hits: int = 0
    shared_cache_misses: int = 0

    def row(self) -> List[Any]:
        return [
            self.scenario,
            self.algorithm,
            self.engine,
            self.rounds,
            self.budget if self.budget is not None else "-",
            self.total_packets,
            "ok" if self.ok else f"FAIL: {self.error[:60]}",
        ]


@dataclass
class DifferentialReport:
    """Cross-checked outcomes of one scenario over algorithms x engines."""

    scenario: str
    outcomes: List[ScenarioOutcome] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and all(o.ok for o in self.outcomes)


def _canonical_outputs(kind: str, outputs: Sequence[Any]) -> Any:
    if kind == "routing":
        # Field tuples sort like the messages, without Message.__lt__.
        fields = attrgetter("source", "dest", "seq", "payload")
        return tuple(tuple(sorted(map(fields, node))) for node in outputs)
    if kind == "sorting":
        return tuple(tuple(node) for node in outputs)
    return repr(outputs)


def output_digest(kind: str, outputs: Sequence[Any]) -> str:
    """Stable digest of the canonical per-node outputs."""
    blob = repr(_canonical_outputs(kind, outputs)).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


class ScenarioRunner:
    """Execute scenarios on any algorithm and engine; cross-check results.

    Args:
        engines: engine selectors every differential run compares
            (names registered with :func:`repro.core.engine.register_engine`
            or engine instances).
    """

    def __init__(self, engines: Sequence[EngineSpec] = ("reference", "fast")):
        if not engines:
            raise ValueError(
                f"need at least one engine; available: {available_engines()}"
            )
        self.engines = tuple(engines)

    # -- single runs --------------------------------------------------------

    def applicable_algorithms(self, scenario: Scenario) -> List[str]:
        """Algorithm names that can run this scenario."""
        out = []
        for name in algorithms(scenario.kind):
            spec = ALGORITHMS[(scenario.kind, name)]
            if spec.square_only and not is_perfect_square(scenario.n):
                continue
            out.append(name)
        return out

    def run(
        self,
        scenario: Scenario,
        algorithm: Optional[str] = None,
        engine: EngineSpec = "reference",
        workload: Any = None,
    ) -> ScenarioOutcome:
        """Run one (scenario, algorithm, engine) combination and judge it.

        ``workload`` lets a caller reuse one built instance across runs
        (essential for seeded differential comparisons).
        """
        if algorithm is None:
            algorithm = default_algorithm(scenario.kind)
        spec = ALGORITHMS.get((scenario.kind, algorithm))
        if spec is None:
            raise ValueError(
                f"no {scenario.kind} algorithm {algorithm!r}; known: "
                f"{algorithms(scenario.kind)}"
            )
        engine_name = engine if isinstance(engine, str) else getattr(
            engine, "name", repr(engine)
        )
        outcome = ScenarioOutcome(
            scenario=scenario.name,
            kind=scenario.kind,
            algorithm=algorithm,
            engine=engine_name,
            ok=False,
        )
        if workload is None:
            workload = scenario.build()
        t0 = time.perf_counter()
        try:
            result = spec.run(workload, engine, scenario.seed)
            outcome.wall_s = time.perf_counter() - t0
            outcome.shared_cache_hits = result.shared_cache_hits
            outcome.shared_cache_misses = result.shared_cache_misses
            outcome.rounds = result.rounds
            outcome.total_packets = result.stats.total_packets
            outcome.total_words = result.stats.total_words
            outcome.max_edge_words = max(
                (r.max_words_on_edge for r in result.stats.per_round),
                default=0,
            )
            self._verify(scenario.kind, workload, result)
            self._check_budgets(spec, workload, result, outcome)
            outcome.digest = output_digest(scenario.kind, result.outputs)
            outcome.ok = not outcome.error
        except ReproError as exc:
            outcome.wall_s = time.perf_counter() - t0
            outcome.error = f"{type(exc).__name__}: {exc}"
        return outcome

    @staticmethod
    def _verify(kind: str, workload: Any, result: RunResult) -> None:
        if kind == "routing":
            verify_delivery(workload, result.outputs)
        elif kind == "sorting":
            verify_sorted_batches(workload, result.outputs)
        elif kind == "multiplex":
            workload.verify(result.outputs)

    @staticmethod
    def _check_budgets(
        spec: AlgorithmSpec,
        workload: Any,
        result: RunResult,
        outcome: ScenarioOutcome,
    ) -> None:
        n = getattr(workload, "n", result.stats.n)
        if result.stats.total_packets > result.rounds * n * n:
            outcome.error = (
                f"message budget: {result.stats.total_packets} packets in "
                f"{result.rounds} rounds exceeds n^2 per round"
            )
            return
        if spec.budget is None:
            return
        bound, exact = spec.budget(workload)
        outcome.budget = bound
        if exact and result.rounds != bound:
            outcome.error = (
                f"round count {result.rounds} != predicted {bound}"
            )
        elif not exact and result.rounds > bound:
            outcome.error = (
                f"round count {result.rounds} exceeds bound {bound}"
            )

    # -- differential sweeps ------------------------------------------------

    def differential(
        self,
        scenario: Scenario,
        algorithms_to_run: Optional[Sequence[str]] = None,
        engines: Optional[Sequence[EngineSpec]] = None,
    ) -> DifferentialReport:
        """Run every algorithm on every engine; cross-check the results.

        Checks, beyond each run's own verification and budgets:

        * all combinations produce the identical canonical output digest
          (delivered multisets for routing, exact batches for sorting);
        * for each algorithm, every engine reports the same round count and
          traffic totals.
        """
        report = DifferentialReport(scenario=scenario.name)
        names = (
            list(algorithms_to_run)
            if algorithms_to_run is not None
            else self.applicable_algorithms(scenario)
        )
        engines = tuple(engines) if engines is not None else self.engines
        workload = scenario.build()
        by_algorithm: Dict[str, List[ScenarioOutcome]] = {}
        for name in names:
            for engine in engines:
                outcome = self.run(scenario, name, engine, workload=workload)
                report.outcomes.append(outcome)
                by_algorithm.setdefault(name, []).append(outcome)
                if not outcome.ok:
                    report.failures.append(
                        f"{scenario.name} {name}/{outcome.engine}: "
                        f"{outcome.error}"
                    )
        good = [o for o in report.outcomes if o.ok]
        digests = {o.digest for o in good}
        if len(digests) > 1:
            report.failures.append(
                f"{scenario.name}: outputs diverge across "
                f"{sorted((o.algorithm, o.engine) for o in good)}"
            )
        for name, outs in by_algorithm.items():
            outs = [o for o in outs if o.ok]
            if len({(o.rounds, o.total_packets, o.total_words) for o in outs}) > 1:
                report.failures.append(
                    f"{scenario.name} {name}: engines disagree on "
                    f"rounds/traffic"
                )
        return report

    def sweep(
        self,
        scenarios: Iterable[Scenario],
        algorithms_to_run: Optional[Sequence[str]] = None,
        engines: Optional[Sequence[EngineSpec]] = None,
    ) -> List[DifferentialReport]:
        """Differential runs over many scenarios."""
        return [
            self.differential(sc, algorithms_to_run, engines)
            for sc in scenarios
        ]
