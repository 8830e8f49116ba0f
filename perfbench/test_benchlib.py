"""Tests for the benchmark's own helpers.

Run from the root of a checkout::

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import benchlib as bl

BENCHMARK = json.loads((bl.ROOT / "BENCHMARK.json").read_text())


# -- statistics -----------------------------------------------------------------


@pytest.mark.parametrize(
    "samples, expected",
    [
        (0, None),
        (19, None),
        (20, 50.0),
        (39, 50.0),
        (40, 75.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (9999, 99.0),
        (10_000, 99.9),
    ],
)
def test_supported_percentile_leaves_ten_samples_beyond(samples, expected):
    assert bl.supported_percentile(samples) == expected


def test_percentile_interpolates_between_ranks():
    assert bl.percentile([4.0, 1.0, 3.0, 2.0], 50.0) == 2.5
    assert bl.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 90.0) == pytest.approx(4.6)
    assert bl.median([7.0]) == 7.0
    with pytest.raises(ValueError):
        bl.percentile([], 50.0)


def test_thirds_and_drift():
    rates = bl.thirds([0.5, 1.5, 2.5, 2.9, 3.0], 0.0, 3.0)
    assert rates == [1.0, 1.0, 3.0]
    assert bl.drift_frac(rates) == 2.0
    assert bl.drift_frac([5.0, 5.0, 5.0]) == 0.0


# -- names and BENCHMARK.json -----------------------------------------------------


@pytest.mark.parametrize(
    "name", sorted(set(bl.E2E_METRICS) | set(bl.LAYER_METRICS))
)
def test_every_emitted_metric_name_matches_the_pattern(name):
    assert bl.METRIC_NAME.match(name)


@pytest.mark.parametrize(
    "name", ["", ".lead", "-lead", "has space", "per/second", "x" * 65, "é"]
)
def test_metric_name_pattern_rejects(name):
    assert not bl.METRIC_NAME.match(name)


def test_benchmark_json_names_only_what_the_command_emits():
    names = [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) >= 2 and set(names) <= set(bl.WORKLOADS)
    for key, table in (("end_to_end", bl.E2E_METRICS),
                       ("per_layer", bl.LAYER_METRICS)):
        declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert declared == table, key


def test_benchmark_json_stays_within_its_limits():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert BENCHMARK["paths"] == ["perfbench"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    for w in BENCHMARK["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    for m in BENCHMARK["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in BENCHMARK["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert m["better"] in ("higher", "lower")
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in BENCHMARK["end_to_end"]
    )


# -- result line and span recorder --------------------------------------------------


def test_result_line_carries_exactly_the_table():
    values = {name: 1.5 for name in bl.E2E_METRICS}
    doc = json.loads(bl.result_line(True, 3, 0, values, trace=False))
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["metrics"]["setup_s"] == {"value": 1.5, "unit": "s"}
    with pytest.raises(ValueError, match="missing"):
        bl.result_line(True, 3, 0, {"setup_s": 1.0}, trace=False)
    with pytest.raises(ValueError, match="not finite"):
        bl.result_line(True, 3, 0, dict(values, setup_s=float("nan")), False)
    with pytest.raises(ValueError, match="at least one"):
        bl.result_line(True, 0, 0, values, trace=False)


def test_untraced_window_check_counts_from_its_start():
    rec = bl.SpanRecorder()
    bl.assert_untraced(rec)
    with rec.span("outer", 1) as outer:
        rec.add("inner", 1, outer.id, 0, 1_000_000)
    assert rec.durations_ms("inner") == [1.0]
    entered = rec.entered
    bl.assert_untraced(rec, entered)
    rec.add("late", 2, None, 0, 1)
    with pytest.raises(AssertionError, match="1 times"):
        bl.assert_untraced(rec, entered)


# -- output checks ----------------------------------------------------------------


@pytest.fixture(scope="module")
def judged():
    bl.require_source()
    from repro.core.engine import RunRequest

    requests = [
        RunRequest(kind="routing", family="balanced", n=16, seed=3,
                   engine="fast"),
        RunRequest(kind="sorting", family="uniform", n=16, seed=4,
                   engine="fast"),
    ]
    return bl.reference_pass(requests), bl.reference_pass(requests)


def test_check_accepts_a_faithful_run(judged):
    got, reference = judged
    report = bl.check_summaries(got, reference)
    assert report.correct and report.failed == 0
    assert report.digest == report.reference_digest


@pytest.mark.parametrize(
    "tamper, field",
    [
        ({"digest": "0" * 16}, "mismatched"),
        ({"status": "failed"}, "not_ok"),
        ({"ok": False}, "not_ok"),
        ({"rounds": 1000}, "over_bound"),
    ],
)
def test_check_rejects_a_tampered_summary(judged, tamper, field):
    got, reference = judged
    bad = [got[0], dataclasses.replace(got[1], **tamper)]
    report = bl.check_summaries(bad, reference)
    assert not report.correct
    assert report.failed == 1
    assert getattr(report, field) == [got[1].request.name]


def test_check_refuses_misaligned_references(judged):
    got, reference = judged
    with pytest.raises(ValueError):
        bl.check_summaries(got, reference[:1])
    with pytest.raises(ValueError):
        bl.check_summaries(got, reference[::-1])


# -- the command ------------------------------------------------------------------


def test_command_fails_cleanly_without_the_package(tmp_path):
    shutil.copytree(
        bl.ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    shutil.copy(bl.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload",
         bl.WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
