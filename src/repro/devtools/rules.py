"""Project-specific lint rules: this repository's bug history, as code.

Every stable rule below encodes an invariant a shipped PR paid to learn
at runtime; the fixture corpus under ``tests/fixtures/lint/`` carries the
minimized historical bug (true positive) and the fixed form (true
negative) for each, so the linter is regression-tested against the
project's own history.  DESIGN.md section 11 maps each rule to the PR
whose bug motivated it.

Rule ids are stable and grep-able: ``RPR0xx`` for tier-1 rules, ``RPR1xx``
for experimental heuristics that only run under ``--experimental``
(nightly CI) because their signal/noise ratio is not yet gate-worthy.
"""

from __future__ import annotations

import ast
import io
import tokenize
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from .lint import FileContext, Finding, Rule, register_rule

__all__ = [
    "STABLE_RULE_IDS",
    "EXPERIMENTAL_RULE_IDS",
]

FunctionLike = (ast.FunctionDef, ast.AsyncFunctionDef)


def _doc_order(node: ast.AST) -> Iterator[ast.AST]:
    """Depth-first traversal in document order (``ast.walk`` is BFS)."""
    for child in ast.iter_child_nodes(node):
        yield child
        yield from _doc_order(child)


def _functions(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, FunctionLike):
            yield node


def _call_name(node: ast.AST) -> str:
    """Dotted name of a call target: ``a.b.c(...)`` -> ``"a.b.c"``."""
    parts: List[str] = []
    cur: Optional[ast.AST] = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
    elif isinstance(cur, ast.Call):
        parts.append(_call_name(cur.func) + "()")
    return ".".join(reversed(parts))


def _mentions_cache(node: ast.AST) -> bool:
    """Does an expression's receiver look like a plan cache?"""
    text = _call_name(node).lower()
    return "cache" in text or "plan" in text


# -- RPR001: PlanCache.enabled mutation --------------------------------------


@register_rule
class PlanCacheEnabledMutation(Rule):
    id = "RPR001"
    name = "plan-cache-enabled-mutation"
    description = (
        "PlanCache.enabled (and .disable()/.enable()) is process-global "
        "state; scoped determinism audits must use PlanCache.bypassed() "
        "instead of flipping the flag."
    )
    rationale = (
        "PR 3: SharedCache.verify_mode toggled the global PlanCache."
        "enabled flag, silently disabling (or re-enabling) the cache "
        "under every concurrently interleaved run."
    )
    exclude = ("*/core/context.py",)

    _MSG = (
        "mutating a plan cache's `enabled` flag is visible to every "
        "interleaved run; use plan_cache().bypassed() for a scoped bypass "
        "[PR-3 verify_mode bug]"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == "enabled"
                        and _mentions_cache(target.value)
                    ):
                        found = ctx.finding(self.id, node, self._MSG)
                        if found:
                            yield found
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in ("disable", "enable")
                    and _mentions_cache(func.value)
                ):
                    found = ctx.finding(self.id, node, self._MSG)
                    if found:
                        yield found


# -- RPR002: engine-protocol outbox aliasing ---------------------------------


def _is_yield_boundary_call(node: ast.AST) -> bool:
    """A call that hands back a dict yielded by a protocol generator."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr == "send":
        return True
    return isinstance(func, ast.Name) and func.id == "next"


@register_rule
class OutboxAliasing(Rule):
    id = "RPR002"
    name = "outbox-aliasing"
    description = (
        "A dict received from a protocol generator's yield (gen.send()/"
        "next(gen)) must be copied before being stored in a container or "
        "returned; the generator may mutate or reuse it after yielding."
    )
    rationale = (
        "PR 3: FastEngine._coerce_fast aliased the protocol's yielded "
        "outbox dict, letting post-yield mutation retroactively rewrite "
        "what was 'sent'."
    )

    _MSG = (
        "dict yielded across the engine protocol boundary is stored/"
        "returned without copying; snapshot it first (e.g. dict(outbox)) "
        "[PR-3 FastEngine outbox aliasing]"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for func in _functions(ctx.tree):
            yield from self._check_function(ctx, func)

    def _check_function(
        self, ctx: FileContext, func: ast.AST
    ) -> Iterator[Finding]:
        tracked: Set[str] = set()
        for node in _doc_order(func):
            if isinstance(node, FunctionLike) and node is not func:
                continue  # nested functions get their own pass
            if isinstance(node, ast.Assign):
                names = [
                    t.id for t in node.targets if isinstance(t, ast.Name)
                ]
                # Direct store of the yielded dict into a container.
                if _is_yield_boundary_call(node.value):
                    for target in node.targets:
                        if isinstance(target, (ast.Subscript, ast.Attribute)):
                            found = ctx.finding(self.id, node, self._MSG)
                            if found:
                                yield found
                    tracked.update(names)
                    continue
                # Storing a tracked name un-copied.
                for target in node.targets:
                    if isinstance(target, (ast.Subscript, ast.Attribute)):
                        value = node.value
                        if isinstance(value, ast.Name) and value.id in tracked:
                            found = ctx.finding(self.id, node, self._MSG)
                            if found:
                                yield found
                # Any other rebind launders the name (dict(x), coerce(x)...).
                tracked.difference_update(names)
            elif isinstance(node, ast.Return):
                value = node.value
                if isinstance(value, ast.Name) and value.id in tracked:
                    found = ctx.finding(self.id, node, self._MSG)
                    if found:
                        yield found
                elif value is not None and _is_yield_boundary_call(value):
                    found = ctx.finding(self.id, node, self._MSG)
                    if found:
                        yield found
            elif isinstance(node, ast.Call):
                func_expr = node.func
                if (
                    isinstance(func_expr, ast.Attribute)
                    and func_expr.attr in ("append", "add", "insert", "extend")
                ):
                    for arg in node.args:
                        if isinstance(arg, ast.Name) and arg.id in tracked:
                            found = ctx.finding(self.id, node, self._MSG)
                            if found:
                                yield found
                        elif _is_yield_boundary_call(arg):
                            found = ctx.finding(self.id, node, self._MSG)
                            if found:
                                yield found


# -- RPR003: blocking calls in async bodies ----------------------------------


_BLOCKING_CALLS = {
    "time.sleep": "time.sleep() blocks the event loop; await asyncio.sleep()",
    "open": "sync file I/O blocks the event loop; use an executor",
    "subprocess.run": "subprocess.run() blocks; use asyncio.create_subprocess_*",
    "subprocess.call": "subprocess.call() blocks; use asyncio.create_subprocess_*",
    "subprocess.check_call": (
        "subprocess.check_call() blocks; use asyncio.create_subprocess_*"
    ),
    "subprocess.check_output": (
        "subprocess.check_output() blocks; use asyncio.create_subprocess_*"
    ),
}


@register_rule
class AsyncBlockingCall(Rule):
    id = "RPR003"
    name = "async-blocking-call"
    description = (
        "No blocking calls (time.sleep, Future.result(), sync file I/O, "
        "subprocess) directly inside `async def` bodies in repro.service; "
        "executor-side code (chaos faults) is allowlisted."
    )
    rationale = (
        "The gateway's event loop drives every dispatcher; one blocking "
        "call stalls all in-flight requests at once (the class of bug the "
        "PR-4 deadline/backpressure machinery exists to bound)."
    )
    include = ("*/service/*.py",)
    exclude = ("*/service/chaos.py",)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for func in _functions(ctx.tree):
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            yield from self._check_async_body(ctx, func)

    def _check_async_body(
        self, ctx: FileContext, func: ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        for node in self._direct_nodes(func):
            if not isinstance(node, ast.Call):
                continue
            dotted = _call_name(node.func)
            blocked = _BLOCKING_CALLS.get(dotted)
            if blocked is not None:
                found = ctx.finding(
                    self.id,
                    node,
                    f"blocking call `{dotted}` inside `async def "
                    f"{func.name}`: {blocked}",
                )
                if found:
                    yield found
                continue
            func_expr = node.func
            if (
                isinstance(func_expr, ast.Attribute)
                and func_expr.attr == "result"
                and not node.args
                and not node.keywords
            ):
                found = ctx.finding(
                    self.id,
                    node,
                    f"`.result()` inside `async def {func.name}` blocks "
                    "the loop until the future resolves; await "
                    "asyncio.wrap_future(...) instead",
                )
                if found:
                    yield found

    @staticmethod
    def _direct_nodes(func: ast.AsyncFunctionDef) -> Iterator[ast.AST]:
        """Nodes of the async body, skipping nested defs and lambdas.

        Nested functions run elsewhere (done-callbacks, executor thunks),
        so a blocking call inside one is not a loop stall at this site.
        """

        def walk(node: ast.AST) -> Iterator[ast.AST]:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (*FunctionLike, ast.Lambda)):
                    continue
                yield child
                yield from walk(child)

        yield from walk(func)


# -- RPR004: queue.put without closed-state re-check -------------------------


def _test_mentions_closed(test: ast.AST) -> bool:
    for node in ast.walk(test):
        if isinstance(node, ast.Attribute) and "closed" in node.attr:
            return True
        if isinstance(node, ast.Name) and "closed" in node.id:
            return True
    return False


@register_rule
class PutWithoutCloseRecheck(Rule):
    id = "RPR004"
    name = "put-without-close-recheck"
    description = (
        "Every `await queue.put(...)` in the gateway must be followed by a "
        "closed-state re-check: under the block policy a submitter can "
        "resume from put() after close() already drained the queue."
    )
    rationale = (
        "PR 6: a submitter suspended in _queue.put could enqueue after "
        "drain() released, stranding its future forever."
    )
    include = ("*/service/*.py",)

    #: how many sibling statements after the put may precede the re-check.
    _WINDOW = 3

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for func in _functions(ctx.tree):
            if not isinstance(func, ast.AsyncFunctionDef):
                continue
            yield from self._scan_body(ctx, func.body)

    def _scan_body(
        self, ctx: FileContext, body: Sequence[ast.stmt]
    ) -> Iterator[Finding]:
        for i, stmt in enumerate(body):
            await_put = self._await_put(stmt)
            if await_put is not None:
                if not self._recheck_follows(body[i + 1 : i + 1 + self._WINDOW]):
                    found = ctx.finding(
                        self.id,
                        await_put,
                        "`await queue.put(...)` without a closed-state "
                        "re-check in the following statements; a submitter "
                        "suspended in put() can enqueue after close() "
                        "drained the queue [PR-6 stranded-future race]",
                    )
                    if found:
                        yield found
            # Recurse into nested statement bodies (loops, ifs, withs).
            for field in ("body", "orelse", "finalbody"):
                nested = getattr(stmt, field, None)
                if isinstance(nested, list):
                    yield from self._scan_body(ctx, nested)
            handlers = getattr(stmt, "handlers", None)
            if isinstance(handlers, list):
                for handler in handlers:
                    yield from self._scan_body(ctx, handler.body)

    @staticmethod
    def _await_put(stmt: ast.stmt) -> Optional[ast.AST]:
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Expr):
            value = stmt.value
        elif isinstance(stmt, ast.Assign):
            value = stmt.value
        if not isinstance(value, ast.Await):
            return None
        call = value.value
        if (
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr == "put"
        ):
            return value
        return None

    @staticmethod
    def _recheck_follows(following: Sequence[ast.stmt]) -> bool:
        for stmt in following:
            if isinstance(stmt, ast.If) and _test_mentions_closed(stmt.test):
                return True
            for node in ast.walk(stmt):
                if isinstance(node, ast.If) and _test_mentions_closed(
                    node.test
                ):
                    return True
        return False


# -- RPR005: shared-memory resource-tracker discipline -----------------------


def _is_shm_constructor(node: ast.Call) -> bool:
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr == "SharedMemory":
        return True
    return isinstance(func, ast.Name) and func.id == "SharedMemory"


def _patches_register(func: ast.AST) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and target.attr == "register"
                    and "tracker" in _call_name(target.value)
                ):
                    return True
    return False


@register_rule
class ShmTrackerDiscipline(Rule):
    id = "RPR005"
    name = "shm-tracker-discipline"
    description = (
        "multiprocessing.shared_memory attach/close/unlink must follow the "
        "PR-7 tracker discipline: never call resource_tracker.unregister, "
        "and suppress the attach-side register (bpo-39959) when attaching "
        "to a parent-owned segment."
    )
    rationale = (
        "PR 7: a worker-side unregister stripped the parent's own "
        "registration under fork; the parent's later unlink() then "
        "double-unregistered and the tracker logged a KeyError."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        # (a) any resource_tracker.unregister call is the historical bug.
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "unregister"
                    and "tracker" in _call_name(func.value)
                ):
                    found = ctx.finding(
                        self.id,
                        node,
                        "resource_tracker.unregister() strips the parent's "
                        "registration under fork (double-unregister on "
                        "unlink); suppress the attach-side register instead "
                        "[PR-7 bpo-39959 discipline]",
                    )
                    if found:
                        yield found
        # (b) attach-mode SharedMemory(name=...) outside a register-patch.
        for func in _functions(ctx.tree):
            patched = _patches_register(func)
            for node in _doc_order(func):
                if isinstance(node, FunctionLike) and node is not func:
                    continue
                if not (isinstance(node, ast.Call) and _is_shm_constructor(node)):
                    continue
                kwargs = {k.arg for k in node.keywords if k.arg}
                if "create" in kwargs or not kwargs & {"name"}:
                    continue  # creation side, or positional-only: not attach
                if not patched:
                    found = ctx.finding(
                        self.id,
                        node,
                        "attaching to a shared-memory segment without "
                        "suppressing resource_tracker.register: the tracker "
                        "would adopt (and later unlink) the parent's segment "
                        "[PR-7 bpo-39959 discipline]",
                    )
                    if found:
                        yield found


# -- RPR006: broad except that swallows the failure --------------------------


_BROAD_NAMES = {"Exception", "BaseException"}


def _is_broad_handler(handler: ast.ExceptHandler) -> bool:
    t = handler.type
    if t is None:
        return True
    if isinstance(t, ast.Name) and t.id in _BROAD_NAMES:
        return True
    if isinstance(t, ast.Tuple):
        return any(
            isinstance(el, ast.Name) and el.id in _BROAD_NAMES
            for el in t.elts
        )
    return False


def _handler_records_failure(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Name) and node.id == "STATUS_FAILED":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "STATUS_FAILED":
            return True
    return False


@register_rule
class BroadExceptSwallow(Rule):
    id = "RPR006"
    name = "broad-except-swallow"
    description = (
        "A bare/broad `except Exception` may not swallow executor failures "
        "silently: it must re-raise or record STATUS_FAILED (deliberate "
        "best-effort cleanup carries an explanatory suppression)."
    )
    rationale = (
        "PR 6: executor-failure summaries were mislabeled completed; a "
        "swallowed BrokenExecutor poisons digests and percentiles."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _is_broad_handler(node):
                continue
            if _handler_records_failure(node):
                continue
            found = ctx.finding(
                self.id,
                node,
                "broad except swallows the failure without re-raising or "
                "recording STATUS_FAILED; narrow the exception types, or "
                "suppress with a reason if this is deliberate best-effort "
                "cleanup [PR-6 mislabeled-failure bug]",
            )
            if found:
                yield found


# -- RPR007: frozen-dataclass __new__/__dict__ construction ------------------


@register_rule
class FrozenBypassConstruction(Rule):
    id = "RPR007"
    name = "frozen-bypass-construction"
    description = (
        "Frozen-dataclass fast construction (`Cls.__new__` + `__dict__` "
        "install) is sanctioned only in the envelope decode paths "
        "(core/wire.py, service/transport.py); everywhere else use the "
        "real constructor."
    )
    rationale = (
        "The __new__ bypass skips __init__ validation and field defaults; "
        "PR 7 confined it to decode hot loops where every field is "
        "explicitly installed and benchmarked."
    )
    exclude = (
        "*/core/wire.py",
        "*/service/transport.py",
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "__new__"
                and isinstance(node.ctx, ast.Load)
            ):
                found = ctx.finding(
                    self.id,
                    node,
                    "`__new__` fast construction outside the sanctioned "
                    "decode paths; build the object through its constructor "
                    "[PR-7 envelope-decode discipline]",
                )
                if found:
                    yield found
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and target.attr == "__dict__"
                    ):
                        found = ctx.finding(
                            self.id,
                            node,
                            "wholesale `__dict__` install outside the "
                            "sanctioned decode paths [PR-7 envelope-decode "
                            "discipline]",
                        )
                        if found:
                            yield found
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr == "__setattr__"
                    and len(node.args) >= 2
                    and isinstance(node.args[1], ast.Constant)
                    and node.args[1].value == "__dict__"
                ):
                    found = ctx.finding(
                        self.id,
                        node,
                        "object.__setattr__(..., '__dict__', ...) outside "
                        "the sanctioned decode paths [PR-7 envelope-decode "
                        "discipline]",
                    )
                    if found:
                        yield found


# -- RPR008: bench rows must carry an explicit gate flag ---------------------


def _dict_string_keys(node: ast.Dict) -> Set[str]:
    keys: Set[str] = set()
    for key in node.keys:
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.add(key.value)
    return keys


@register_rule
class BenchRowGateFlag(Rule):
    id = "RPR008"
    name = "bench-row-gate-flag"
    description = (
        "A benchmark result row recording a speedup/ratio must carry an "
        "explicit `gated` (or `bar`) field, so check_regression.py and "
        "reviewers can tell enforced measurements from context rows; "
        "waived gates carry `gate_skip_reason` at the payload level."
    )
    rationale = (
        "PR 7: waived speedup gates silently read as passes until rows "
        "grew explicit gated flags and skip reasons."
    )
    include = ("bench_*.py", "*/bench_*.py")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Dict):
                continue
            keys = _dict_string_keys(node)
            if not keys & {"speedup", "time_ratio", "bytes_ratio"}:
                continue
            if keys & {"gated", "bar"}:
                continue
            found = ctx.finding(
                self.id,
                node,
                "bench result row records a speedup/ratio without an "
                "explicit `gated` (or `bar`) field; mark whether this row "
                "is gate-enforced [PR-7 explicit-waiver discipline]",
            )
            if found:
                yield found


# -- experimental rules (nightly only) ---------------------------------------


@register_rule
class TodoComment(Rule):
    id = "RPR101"
    name = "todo-comment"
    description = (
        "TODO/FIXME/XXX comments in shipped source; nightly inventory of "
        "acknowledged debt (too noisy to gate tier-1 CI)."
    )
    rationale = "Debt inventory for the nightly report artifact."
    experimental = True

    _MARKERS = ("TODO", "FIXME", "XXX")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        try:
            tokens = tokenize.generate_tokens(
                io.StringIO(ctx.source).readline
            )
            for tok in tokens:
                if tok.type != tokenize.COMMENT:
                    continue
                upper = tok.string.upper()
                marker = next(
                    (m for m in self._MARKERS if m in upper), None
                )
                if marker is None:
                    continue
                if ctx.suppressed(self.id, tok.start[0]):
                    continue
                yield Finding(
                    self.id,
                    ctx.path,
                    tok.start[0],
                    tok.start[1],
                    f"{marker} comment: {tok.string.lstrip('# ')[:80]}",
                )
        except (tokenize.TokenError, IndentationError):
            return


@register_rule
class BroadExceptAnywhere(Rule):
    id = "RPR102"
    name = "broad-except-anywhere"
    description = (
        "Every bare/broad except, including re-raising and suppressed "
        "ones — the noisy superset of RPR006 for the nightly exception-"
        "handling audit."
    )
    rationale = "Nightly audit surface over RPR006's gate."
    experimental = True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and _is_broad_handler(node):
                found = ctx.finding(
                    self.id,
                    node,
                    "broad except handler (nightly audit; see RPR006 for "
                    "the gated subset)",
                )
                if found:
                    yield found


# Rule-count sanity: the registry is the single source of truth; tests
# assert the stable set matches DESIGN.md section 11.
STABLE_RULE_IDS: Tuple[str, ...] = (
    "RPR001",
    "RPR002",
    "RPR003",
    "RPR004",
    "RPR005",
    "RPR006",
    "RPR007",
    "RPR008",
)

EXPERIMENTAL_RULE_IDS: Tuple[str, ...] = ("RPR101", "RPR102")
