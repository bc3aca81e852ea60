"""REP600 — reliability discipline.

PR 8 added supervision (deadlines, bounded retry, circuit breakers) and
deterministic fault injection.  Those guarantees only hold if failure
handling stays honest: a handler that silently swallows everything hides
injected faults from the supervisor, a deadline computed from the wall
clock jumps with NTP adjustments, and a retry loop with no bound turns a
persistent fault into a hang — exactly the failure mode the chaos gate
checks for ("every session terminates").

Sub-rules:

* ``REP602`` — ``except Exception:``/``except BaseException:`` whose
  body is only ``pass``/``...`` — silently swallowing all failures
  starves retry/breaker accounting; record, re-raise, or narrow;
* ``REP603`` — ``time.time()`` used in deadline/timeout logic —
  wall-clock time is not monotonic; budgets and deadlines must use
  ``time.monotonic()`` (:class:`repro.reliability.policy.Deadline`);
* ``REP604`` — a ``while True`` retry loop whose ``except`` handler
  ``continue``s with no ``break``/``return``/``raise`` anywhere in the
  loop body — there is no exit once the fault is persistent; bound the
  loop with a :class:`~repro.reliability.policy.RetryPolicy` budget.

Heuristic by design, like the other families: REP603 only fires when a
``time.time()`` call shares a statement with a deadline-ish name, and
REP604 only proves unboundedness for the direct swallow-and-continue
shape.  Justified exceptions carry inline suppressions.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Set

from repro.devtools.config import LintConfig
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.registry import FileContext, rule

#: names whose presence marks a statement as deadline/timeout logic
_DEADLINE_NAMES = re.compile(
    r"deadline|timeout|time_limit|budget|expir|remaining|elapsed", re.IGNORECASE
)

_SWALLOW_TYPES = {"Exception", "BaseException"}


def _is_pass_only(body: List[ast.stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, ast.Pass):
            continue
        if (
            isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        ):
            continue
        return False
    return True


def _caught_name(handler: ast.ExceptHandler) -> Optional[str]:
    """The caught exception's name when it is a single plain name."""
    kind = handler.type
    if isinstance(kind, ast.Name):
        return kind.id
    if isinstance(kind, ast.Attribute):
        return kind.attr
    return None


def _is_wall_clock_call(node: ast.Call, time_aliases: Set[str]) -> bool:
    func = node.func
    if isinstance(func, ast.Attribute) and func.attr == "time":
        return isinstance(func.value, ast.Name) and func.value.id == "time"
    if isinstance(func, ast.Name):
        return func.id in time_aliases
    return False


def _expression_parts(stmt: ast.stmt) -> List[ast.expr]:
    """The expressions a simple statement evaluates (no child statements)."""
    if isinstance(stmt, ast.Assign):
        return list(stmt.targets) + [stmt.value]
    if isinstance(stmt, ast.AnnAssign):
        return [stmt.target] + ([stmt.value] if stmt.value else [])
    if isinstance(stmt, ast.AugAssign):
        return [stmt.target, stmt.value]
    if isinstance(stmt, ast.Return):
        return [stmt.value] if stmt.value else []
    if isinstance(stmt, ast.Expr):
        return [stmt.value]
    if isinstance(stmt, ast.Assert):
        return [stmt.test] + ([stmt.msg] if stmt.msg else [])
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    return []


def _mentions_deadline(expressions: List[ast.expr]) -> bool:
    for expression in expressions:
        for node in ast.walk(expression):
            if isinstance(node, ast.Name) and _DEADLINE_NAMES.search(node.id):
                return True
            if isinstance(node, ast.Attribute) and _DEADLINE_NAMES.search(node.attr):
                return True
    return False


def _handler_continues(handler: ast.ExceptHandler) -> bool:
    """Whether the handler body reaches ``continue`` of the enclosing loop."""
    for stmt in handler.body:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                # a continue nested in an inner loop targets that loop
                break
            if isinstance(node, ast.Continue):
                return True
    return False


def _loop_can_exit(loop: ast.While) -> bool:
    """Whether the loop has an exit reachable on the *failure* path.

    ``return job.run()`` inside ``try:`` only exits when the call
    succeeds — under a persistent fault the handler keeps continuing —
    so exits on the success path (inside a ``try`` body) don't count;
    exits in handlers, ``else``/``finally`` blocks, or plain loop code
    do.
    """
    success_path: Set[int] = set()
    for node in ast.walk(loop):
        if isinstance(node, ast.Try):
            for stmt in node.body:
                for child in ast.walk(stmt):
                    success_path.add(id(child))
    for stmt in loop.body:
        for node in ast.walk(stmt):
            if (
                isinstance(node, (ast.Break, ast.Return, ast.Raise))
                and id(node) not in success_path
            ):
                return True
    return False


@rule("REP600", "reliability: honest failure handling, monotonic deadlines, bounded retries")
def check_reliability(ctx: FileContext, config: LintConfig) -> Iterator[Diagnostic]:
    """Run the reliability family over one file."""
    diagnostics: List[Diagnostic] = []

    def emit(node: ast.AST, rule_id: str, message: str, symbol: str) -> None:
        diagnostics.append(
            Diagnostic(
                ctx.path,
                getattr(node, "lineno", 1),
                getattr(node, "col_offset", 0) + 1,
                rule_id,
                message,
                symbol=symbol,
            )
        )

    #: local aliases of the wall clock (``from time import time [as now]``)
    time_aliases: Set[str] = set()
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name == "time":
                    time_aliases.add(alias.asname or alias.name)

    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ExceptHandler):
            if _caught_name(node) in _SWALLOW_TYPES and _is_pass_only(node.body):
                emit(
                    node,
                    "REP602",
                    f"except {_caught_name(node)}: pass swallows every failure "
                    "silently; record it, re-raise, or catch the specific "
                    "exceptions",
                    f"except-{_caught_name(node)}-pass",
                )
        elif isinstance(node, ast.stmt):
            parts = _expression_parts(node)
            if parts and _mentions_deadline(parts):
                for part in parts:
                    for call in ast.walk(part):
                        if isinstance(call, ast.Call) and _is_wall_clock_call(
                            call, time_aliases
                        ):
                            emit(
                                call,
                                "REP603",
                                "time.time() in deadline/timeout logic is not "
                                "monotonic (NTP steps move it); use "
                                "time.monotonic()",
                                "time.time",
                            )
            if (
                isinstance(node, ast.While)
                and isinstance(node.test, ast.Constant)
                and bool(node.test.value)
                and not _loop_can_exit(node)
            ):
                for child in ast.walk(node):
                    if isinstance(child, ast.ExceptHandler) and _handler_continues(
                        child
                    ):
                        emit(
                            node,
                            "REP604",
                            "while True retry loop whose handler continues but "
                            "never breaks/returns/raises: a persistent fault "
                            "hangs forever; bound it with a RetryPolicy budget",
                            "while-true-retry",
                        )
                        break
    return iter(diagnostics)
