"""Tests for the repro.devtools static-analysis pass.

Every stable rule is exercised against its fixture pair under
``tests/fixtures/lint/``: the *bad* file is the minimized historical bug
the rule encodes (true positive) and the *good* file is the fixed form
(true negative).  The meta-test at the bottom is the PR gate itself:
``python -m repro.devtools.lint src/ benchmarks/`` must exit 0 on the
shipped tree.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools.lint import (
    JSON_SCHEMA_VERSION,
    PARSE_ERROR_ID,
    Finding,
    LintConfig,
    all_rules,
    lint_paths,
    lint_source,
)
from repro.devtools.rules import EXPERIMENTAL_RULE_IDS, STABLE_RULE_IDS

REPO = Path(__file__).resolve().parent.parent
FIXTURES = REPO / "tests" / "fixtures" / "lint"


def _rule_ids(path, **cfg):
    findings, scanned = lint_paths([str(path)], LintConfig(**cfg))
    assert scanned == 1, f"expected to scan exactly {path}"
    return [f.rule for f in findings]


def _run_cli(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.devtools.lint", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        env=env,
    )


# -- rule framework -----------------------------------------------------------


def test_registry_stable_rule_set():
    assert tuple(r.id for r in all_rules()) == STABLE_RULE_IDS


def test_registry_experimental_rules_opt_in():
    ids = tuple(r.id for r in all_rules(experimental=True))
    assert ids == tuple(sorted(STABLE_RULE_IDS + EXPERIMENTAL_RULE_IDS))
    assert not any(r.experimental for r in all_rules())


def test_select_filters_rules():
    config = LintConfig(select=frozenset({"RPR001", "RPR102"}))
    assert [r.id for r in config.active_rules()] == ["RPR001", "RPR102"]


def test_parse_error_is_reported_not_raised():
    findings = lint_source("def broken(:\n", "x.py")
    assert [f.rule for f in findings] == [PARSE_ERROR_ID]


def test_finding_render_is_grep_friendly():
    f = Finding("RPR001", "a/b.py", 3, 7, "msg")
    assert f.render() == "a/b.py:3:7: RPR001 msg"
    assert f.to_dict() == {
        "rule": "RPR001",
        "path": "a/b.py",
        "line": 3,
        "col": 7,
        "message": "msg",
    }


# -- fixture corpus: one TP + one TN per stable rule --------------------------

# (rule, bad fixture, good fixture, findings expected in the bad file)
FIXTURE_CASES = [
    ("RPR001", "rpr001_bad.py", "rpr001_good.py", 2),
    ("RPR002", "rpr002_bad.py", "rpr002_good.py", 1),
    ("RPR003", "service/rpr003_bad.py", "service/rpr003_good.py", 1),
    ("RPR004", "service/rpr004_bad.py", "service/rpr004_good.py", 1),
    ("RPR006", "rpr006_bad.py", "rpr006_good.py", 1),
    ("RPR007", "rpr007_bad.py", "rpr007_good.py", 2),
    ("RPR008", "bench_rpr008_bad.py", "bench_rpr008_good.py", 1),
]


@pytest.mark.parametrize(
    "rule,bad,good,expected",
    FIXTURE_CASES,
    ids=[c[0] for c in FIXTURE_CASES],
)
def test_rule_true_positive_and_negative(rule, bad, good, expected):
    got = _rule_ids(FIXTURES / bad)
    assert got == [rule] * expected, (
        f"{bad} must trip {rule} exactly {expected}x, got {got}"
    )
    assert _rule_ids(FIXTURES / good) == [], f"{good} must lint clean"


def test_whole_corpus_bad_files_trip_only_their_rule():
    for rule, bad, _good, expected in FIXTURE_CASES:
        findings, _ = lint_paths([str(FIXTURES / bad)], LintConfig())
        assert {f.rule for f in findings} == {rule}


# -- the four historical bugs, as minimized source ----------------------------


def test_catches_pr3_plan_cache_flip():
    source = (
        "def compute(self, key, fn):\n"
        "    cache = plan_cache()\n"
        "    cache.enabled = False\n"
        "    try:\n"
        "        return fn()\n"
        "    finally:\n"
        "        cache.enabled = True\n"
    )
    assert [f.rule for f in lint_source(source, "core/x.py")] == [
        "RPR001",
        "RPR001",
    ]


def test_catches_pr3_outbox_aliasing():
    source = (
        "def step(gens, pending, i, inbox):\n"
        "    raw = gens[i].send(inbox)\n"
        "    pending[i] = raw\n"
    )
    assert [f.rule for f in lint_source(source, "core/x.py")] == ["RPR002"]


def test_catches_pr6_put_after_close():
    source = (
        "async def submit(self, request):\n"
        "    ticket = make_ticket(request)\n"
        "    await self._queue.put(ticket)\n"
        "    return ticket.future\n"
    )
    assert [f.rule for f in lint_source(source, "repro/service/x.py")] == [
        "RPR004"
    ]


def test_pr6_fix_form_is_clean():
    source = (
        "async def submit(self, request):\n"
        "    ticket = make_ticket(request)\n"
        "    await self._queue.put(ticket)\n"
        "    if self._closed:\n"
        "        self._resolve_stragglers()\n"
        "    return ticket.future\n"
    )
    assert lint_source(source, "repro/service/x.py") == []


# -- suppressions -------------------------------------------------------------


def test_suppressed_fixture_lints_clean():
    assert _rule_ids(FIXTURES / "suppressed.py") == []


def test_file_wide_suppression():
    assert _rule_ids(FIXTURES / "suppressed_file.py") == []


def test_trailing_suppression_is_rule_specific():
    source = "cache.enabled = False  # repro: ignore[RPR006]\n"
    # The directive names a different rule, so RPR001 still fires.
    assert [f.rule for f in lint_source(source, "x.py")] == ["RPR001"]


def test_standalone_suppression_spans_comment_block():
    source = (
        "# repro: ignore[RPR001] -- reason line one\n"
        "# continues on a second comment line\n"
        "cache.enabled = False\n"
    )
    assert lint_source(source, "x.py") == []


def test_parse_error_is_not_suppressible():
    source = "# repro: ignore-file\ndef broken(:\n"
    assert [f.rule for f in lint_source(source, "x.py")] == [PARSE_ERROR_ID]


# -- experimental rules -------------------------------------------------------


def test_experimental_rules_off_by_default():
    assert _rule_ids(FIXTURES / "rpr101_bad.py") == []


def test_experimental_todo_rule():
    assert _rule_ids(FIXTURES / "rpr101_bad.py", experimental=True) == [
        "RPR101"
    ]


def test_experimental_broad_except_superset():
    got = _rule_ids(FIXTURES / "rpr006_bad.py", experimental=True)
    assert got == ["RPR006", "RPR102"]


# -- rule scoping -------------------------------------------------------------


def test_service_rules_do_not_fire_outside_service():
    bad = (FIXTURES / "service" / "rpr004_bad.py").read_text(encoding="utf-8")
    assert lint_source(bad, "repro/core/x.py") == []


def test_bench_rule_only_fires_in_bench_files():
    bad = (FIXTURES / "bench_rpr008_bad.py").read_text(encoding="utf-8")
    assert lint_source(bad, "repro/core/x.py") == []


# -- CLI ----------------------------------------------------------------------


def test_cli_shipped_tree_is_clean():
    """The PR gate: the linter exits 0 over src/ and benchmarks/."""
    proc = _run_cli("src", "benchmarks")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "0 findings" in proc.stdout


def test_cli_exits_nonzero_on_findings():
    proc = _run_cli(str(FIXTURES / "rpr006_bad.py"))
    assert proc.returncode == 1
    assert "RPR006" in proc.stdout


def test_cli_exit_zero_flag():
    proc = _run_cli("--exit-zero", str(FIXTURES / "rpr006_bad.py"))
    assert proc.returncode == 0
    assert "RPR006" in proc.stdout


def test_cli_select_narrows_the_run():
    proc = _run_cli("--select", "RPR001", str(FIXTURES / "rpr006_bad.py"))
    assert proc.returncode == 0
    assert "0 findings" in proc.stdout


def test_cli_json_report_schema():
    proc = _run_cli("--json", str(FIXTURES / "rpr001_bad.py"))
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert set(doc) == {"schema", "files_scanned", "rules", "findings"}
    assert doc["schema"] == JSON_SCHEMA_VERSION
    assert doc["files_scanned"] == 1
    assert set(doc["rules"]) >= set(STABLE_RULE_IDS)
    assert len(doc["findings"]) == 2
    for finding in doc["findings"]:
        assert set(finding) == {"rule", "path", "line", "col", "message"}
        assert finding["rule"] == "RPR001"


def test_cli_experimental_flag_reaches_experimental_rules():
    proc = _run_cli("--experimental", str(FIXTURES / "rpr101_bad.py"))
    assert proc.returncode == 1
    assert "RPR101" in proc.stdout


def test_cli_list_rules_names_every_rule():
    proc = _run_cli("--list-rules")
    assert proc.returncode == 0
    for rule_id in STABLE_RULE_IDS + EXPERIMENTAL_RULE_IDS:
        assert rule_id in proc.stdout
