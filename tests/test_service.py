"""The batch-execution service: the in-process and pooled paths agree with
each other and with direct engine execution, envelopes are picklable, the
CLI smoke-tests.

The heavyweight differential: a >= 256 instance mixed batch must produce
byte-identical output digests and per-run statistics in-process, on the
pooled path (a process-backed stream gateway), and through plain
``engine.execute`` runs.
"""

import json
import pickle
from dataclasses import replace

import pytest

from repro.core import RunRequest, RunSummary
from repro.scenarios import Scenario, mixed_batch, output_digest, parse_mix
from repro.scenarios.generators import DEFAULT_MIX
from repro.scenarios.runner import ALGORITHMS, default_algorithm
from repro.service import (
    BatchService,
    execute_request,
    requests_from_scenarios,
)
from repro.service.__main__ import main

BATCH = 256
SMALL_SIZES = dict(
    routing_sizes=(16,), sorting_sizes=(16,), multiplex_sizes=(16,)
)


def _requests(batch=BATCH, engine="fast"):
    scenarios = mixed_batch(batch, seed0=100, **SMALL_SIZES)
    return requests_from_scenarios(scenarios, engine=engine)


def _stat_rows(report):
    """The per-run record the backends must agree on, in request order."""
    return [
        (
            s.request.name,
            s.ok,
            s.engine,
            s.rounds,
            s.total_packets,
            s.total_words,
            s.max_edge_words,
            s.digest,
            s.shared_cache_hits,
            s.shared_cache_misses,
        )
        for s in report.summaries
    ]


def _direct_digests(requests):
    """Bypass the service entirely: resolve and run via the algorithm
    registry (plain ``engine.execute`` under the hood), digest outputs.
    """
    rows = []
    for req in requests:
        scenario = Scenario(req.kind, req.family, req.n, req.seed)
        spec = ALGORITHMS[
            (req.kind, req.algorithm or default_algorithm(req.kind))
        ]
        result = spec.run(scenario.build(), req.engine, req.seed)
        rows.append(
            (
                req.name,
                result.rounds,
                result.stats.total_packets,
                result.stats.total_words,
                output_digest(req.kind, result.outputs),
            )
        )
    return rows


def test_service_vs_direct_differential_256():
    requests = _requests(BATCH)
    sequential = BatchService(workers=0).run_batch(requests)
    pooled = BatchService(workers=2).run_batch(requests)

    assert sequential.ok, sequential.failures
    assert pooled.ok, pooled.failures
    assert len(sequential.summaries) == BATCH
    assert _stat_rows(sequential) == _stat_rows(pooled)
    assert sequential.batch_digest() == pooled.batch_digest()

    # Direct engine.execute runs, no service layer at all.
    direct = _direct_digests(requests)
    service_rows = [
        (s.request.name, s.rounds, s.total_packets, s.total_words, s.digest)
        for s in sequential.summaries
    ]
    assert service_rows == direct


def test_streaming_order_matches_request_order():
    requests = _requests(24)
    service = BatchService(workers=2)
    streamed = list(service.execute(requests))
    assert [req for req, _ in streamed] == requests
    assert all(s.request == req for req, s in streamed)


def test_pooled_batch_ignores_request_deadlines():
    """A batch is judged on completion: a request's ``deadline_ms`` is
    ignored on the pooled path as it is in-process, and every summary
    carries the request as submitted."""
    requests = [replace(r, deadline_ms=0.001) for r in _requests(6)]
    report = BatchService(workers=2).run_batch(requests)
    assert report.ok, report.failures
    assert [s.request for s in report.summaries] == requests
    baseline = BatchService(workers=0).run_batch(requests)
    assert report.batch_digest() == baseline.batch_digest()


def test_sequential_backend_is_deterministic_across_runs():
    requests = _requests(12)
    a = BatchService(workers=0).run_batch(requests)
    b = BatchService(workers=0).run_batch(requests)
    assert _stat_rows(a) == _stat_rows(b)
    assert a.batch_digest() == b.batch_digest()


def test_envelopes_are_picklable():
    req = RunRequest(
        kind="routing", family="balanced", n=16, seed=3, engine="fast",
        tag="t-1",
    )
    summary = execute_request(req)
    assert isinstance(summary, RunSummary) and summary.ok
    clone = pickle.loads(pickle.dumps(summary))
    assert clone == summary
    assert clone.request is not req and clone.request == req


def test_bad_requests_are_reported_not_raised():
    requests = [
        RunRequest(kind="routing", family="balanced", n=16, engine="fast"),
        RunRequest(kind="routing", family="no-such-family", n=16),
        RunRequest(
            kind="routing", family="balanced", n=16, algorithm="bogus"
        ),
        RunRequest(kind="routing", family="balanced", n=16, engine="bogus"),
    ]
    report = BatchService(workers=0).run_batch(requests)
    assert not report.ok
    oks = [s.ok for s in report.summaries]
    assert oks == [True, False, False, False]
    assert all(s.error for s in report.failures)
    assert len(report.failures) == 3


def test_service_engine_stamping():
    requests = [
        RunRequest(kind="routing", family="balanced", n=16),
        RunRequest(kind="routing", family="balanced", n=16, engine="reference"),
    ]
    report = BatchService(workers=0, engine="fast").run_batch(requests)
    assert [s.engine for s in report.summaries] == ["fast", "reference"]
    with pytest.raises(ValueError, match="unknown engine"):
        BatchService(engine="warp")


def test_pooled_batch_runs_nothing_in_the_calling_process():
    """Every request of a pooled batch runs in a pool worker: the
    parent's plan cache sees no lookup, so a ``chaos:`` fault can never
    fire in the parent."""
    requests = _requests(12)
    report = BatchService(workers=2).run_batch(requests)
    assert report.ok, report.failures
    assert report.plan_cache_stats[:2] == (0, 0)
    assert report.to_dict()["plan_cache"].keys() == {"hits", "misses", "size"}


# -- workload mix feed -------------------------------------------------------


def test_mixed_batch_is_deterministic_and_weighted():
    a = mixed_batch(32, seed0=7, **SMALL_SIZES)
    b = mixed_batch(32, seed0=7, **SMALL_SIZES)
    assert a == b
    assert len(a) == 32
    assert len({sc.seed for sc in a}) == 32  # distinct seeds
    weights = {
        (kind, family): w for kind, family, w in parse_mix(DEFAULT_MIX)
    }
    counts = {}
    for sc in a:
        counts[(sc.kind, sc.family)] = counts.get((sc.kind, sc.family), 0) + 1
    # Weighted round-robin: family counts track mix weights (+-1 cycle).
    total_weight = sum(weights.values())
    for coord, weight in weights.items():
        expected = 32 * weight / total_weight
        assert abs(counts.get(coord, 0) - expected) <= weight
    single = mixed_batch(5, mix="routing/balanced", **SMALL_SIZES)
    assert single == [
        Scenario("routing", "balanced", 16, seed=i) for i in range(5)
    ]


def test_parse_mix_and_mixed_batch_errors():
    assert parse_mix("routing/balanced") == [("routing", "balanced", 1)]
    assert parse_mix(" routing/skewed : 4 ,sorting/uniform") == [
        ("routing", "skewed", 4),
        ("sorting", "uniform", 1),
    ]
    for bad in (
        "", "balanced", "routing/x:1", "routing/balanced:0",
        "routing/balanced:-2", "routing/balanced:x", "routing/nope",
    ):
        with pytest.raises(ValueError):
            parse_mix(bad)
    with pytest.raises(ValueError, match="perfect squares"):
        mixed_batch(4, sorting_sizes=(15,))
    with pytest.raises(ValueError):
        mixed_batch(0)


# -- CLI ---------------------------------------------------------------------


def test_cli_json_sequential(capsys):
    code = main(
        ["batch", "--requests", "8", "--workers", "0", "--engine", "fast",
         "--json"]
    )
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert code == 0
    assert doc["ok"] is True
    assert doc["requests"] == 8
    assert doc["backend"] == "sequential"
    assert doc["batch_digest"]


def test_cli_selfcheck_pooled(capsys):
    code = main(
        [
            "batch", "--requests", "6", "--workers", "2", "--engine", "fast",
            "--selfcheck", "--json",
        ]
    )
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert code == 0
    assert doc["backend"] == "process-pool"
    assert doc["selfcheck"]["match"] is True
    assert doc["selfcheck"]["sequential_digest"] == doc["batch_digest"]


def test_cli_rejects_bad_mix(capsys):
    with pytest.raises(SystemExit):
        main(["batch", "--scenario-mix", "routing/never"])


@pytest.mark.parametrize(
    "argv, error",
    [
        (["batch", "--requests", "0"], "must be >= 1"),
        (["stream", "--engine", "bogus"], "invalid choice: 'bogus'"),
        (["chaos", "--scenario-mix", "routing/never"], "bad mix entry"),
        (["capture", "replay", "trace.jsonl", "--backend", "bogus"],
         "invalid choice: 'bogus'"),
        (["serve", "--engine", "bogus"], "invalid choice: 'bogus'"),
        (["client", "--chunk", "0"], "must be >= 1"),
        (["selfcheck", "--requests", "4", "--engine", "bogus"],
         "invalid choice: 'bogus'"),
        (["selfcheck", "--requests", "0"], "must be >= 1"),
        (["selfcheck", "--requests", "4", "--chunk", "0"], "must be >= 1"),
        (["selfcheck", "--queue-cap", "0"], "must be >= 1"),
        (["soak", "--duration", "1", "--rate", "2",
          "--scenario-mix", "routing/never"], "bad mix entry"),
        (["soak", "--rate", "0"], "need rate > 0"),
        (["selfcheck", "--workers", "0"], "--workers must be >= 1"),
        (["soak", "--workers", "0"], "--workers must be >= 1"),
        (["chaos", "--straggler-frac", "2"],
         "straggler_frac must be in [0, 1]"),
        (["chaos", "--straggler-frac", "-0.5"],
         "straggler_frac must be in [0, 1]"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_cli_bad_input_is_a_usage_error(argv, error, capsys):
    """Every verb answers a bad value with its own usage and exit code 2,
    before it starts a server, a pool or a workload."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    verb = argv[:2] if argv[0] == "capture" else argv[:1]
    assert f"usage: python -m repro.service {' '.join(verb)} " in err
    assert error in err
