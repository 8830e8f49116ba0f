"""Developer tooling: the project-aware static-analysis pass.

``repro.devtools.lint`` is an AST-level checker whose rules encode this
repository's *own* bug history — every invariant a past PR paid for at
runtime (the PR-3 ``PlanCache.enabled`` flip, the PR-3 FastEngine outbox
aliasing, the PR-6 put-after-close race, the PR-7 frozen-dataclass
decode discipline) is machine-checked here before the chaos harness ever
has to catch it live.  See DESIGN.md section 11 for the rule-by-rule rationale.

Run it::

    python -m repro.devtools.lint src/            # text, exit 1 on findings
    python -m repro.devtools.lint --json src/     # machine-readable report

Exports are lazy so ``python -m repro.devtools.lint`` never imports the
linter twice (runpy would otherwise execute a second module copy with its
own, empty rule registry).
"""

from typing import Any, List

_EXPORTS = (
    "Finding",
    "FileContext",
    "LintConfig",
    "Rule",
    "all_rules",
    "lint_paths",
    "lint_source",
    "register_rule",
)

__all__: List[str] = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    if name in _EXPORTS:
        from . import lint

        return getattr(lint, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
