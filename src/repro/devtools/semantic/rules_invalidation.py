"""REP310 — invalidation wiring: declared hooks must be *driven*.

REP302 (syntactic) forces every version-snapshotting class to declare a
``__workspace_hook__``; the runtime test cross-checks the declaration
against :data:`repro.serving.invalidation.WORKSPACE_HOOKS`.  Neither
catches the third failure mode: a hook that is declared *and*
registered but whose class is never actually reached from the
workspace's refresh path — the cache exists, the paperwork
is in order, and nobody ever refreshes it.  That is precisely the
silent-staleness bug the hook system was built to prevent, so this rule
closes the loop over the call graph:

* the hook string must be a key of a ``WORKSPACE_HOOKS`` literal
  somewhere in the linted tree, and
* the declaring class must be reachable (method call or construction,
  transitively) from the configured invalidation roots
  (``GraphWorkspace.refresh`` by default).

The rule stands down when the linted tree contains no registry or none
of the roots — linting a fixture package or a partial tree must not
produce phantom wiring findings.
"""

from __future__ import annotations

from typing import Iterable

from repro.devtools.config import LintConfig
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.registry import semantic_rule
from repro.devtools.semantic.callgraph import find_roots, reachable
from repro.devtools.semantic.model import ProjectModel


@semantic_rule("REP310", "REP300", "workspace hook declared but not driven")
def check_hook_wiring(
    model: ProjectModel, config: LintConfig
) -> Iterable[Diagnostic]:
    if not model.has_registry:
        return
    roots = find_roots(model, config.invalidation_roots)
    if not roots:
        return
    _functions, reached_classes = reachable(model, roots)
    root_names = ", ".join(config.invalidation_roots)
    for path in sorted(model.modules):
        summary = model.modules[path]
        for class_name, hook, line, col in summary.hooks:
            if hook not in model.registry_keys:
                yield Diagnostic(
                    path,
                    line,
                    col,
                    "REP310",
                    f"{class_name} declares __workspace_hook__ = '{hook}', "
                    "which is not a key of WORKSPACE_HOOKS; register the "
                    "hook (serving/invalidation.py) or fix the name",
                    symbol=class_name,
                )
            elif class_name not in reached_classes:
                yield Diagnostic(
                    path,
                    line,
                    col,
                    "REP310",
                    f"{class_name} (hook '{hook}') is not reachable from "
                    f"{root_names}; a registered hook nobody drives is a "
                    "silent staleness bug — wire the class into a refresh "
                    "path or retire the hook",
                    symbol=class_name,
                )
