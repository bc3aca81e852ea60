"""Configuration for ``repro lint``: rule selection, allowlists, knobs.

Two layers:

* :func:`project_config` — the repository's own shipped configuration,
  with the (small, justified) allowlist entries for constructs the
  heuristic rules cannot verify statically.  ``repro lint`` uses it by
  default, so CI and a developer's shell agree on what clean means.
* an optional JSON overlay (``repro lint --config extra.json``) whose
  keys merge over the project defaults — the escape hatch for
  downstream forks and for the fixture tests, which build
  :class:`LintConfig` objects directly.

Allowlist entries are ``fnmatch`` patterns matched against
``<posix-relpath>::<symbol>``, where the symbol is rule-specific (the
offending call for REP1xx, the imported name for REP2xx, the memo
attribute for REP3xx, …).  Prefer inline suppression comments for
one-off sites — they carry their justification at the point of use;
reserve allowlist entries for whole-construct exemptions where a
per-line pragma would have to be repeated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import Path
from typing import Dict, Iterable, Mapping, Tuple

from repro.devtools.diagnostics import Diagnostic, family_of

#: every implemented rule family, in report order (REP700 is the
#: interprocedural concurrency family of the semantic pass)
ALL_FAMILIES: Tuple[str, ...] = (
    "REP100",
    "REP200",
    "REP300",
    "REP400",
    "REP500",
    "REP600",
    "REP700",
)


@dataclass
class LintConfig:
    """Immutable-in-spirit bag of knobs consumed by the rule functions."""

    #: enabled rule families (ids from :data:`ALL_FAMILIES`)
    select: Tuple[str, ...] = ALL_FAMILIES
    #: family/rule id -> fnmatch patterns against ``path::symbol``
    allow: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: regex fragment naming memo-like attributes (REP300)
    memo_name_pattern: str = r"cache|memo|plans|answers|entries"
    #: identifier substrings that prove a version/fingerprint-aware key
    key_markers: Tuple[str, ...] = (
        "version",
        "fingerprint",
        "digest",
        "signature",
        "plan_id",
        "crc",
        "sha",
    )
    #: attribute names that are registry locks (REP400/REP702): must
    #: never be held across a build call, even transitively
    guard_lock_names: Tuple[str, ...] = ("_lock", "_DEFAULT_LOCK")
    #: callables whose invocation counts as "a build" under REP400
    build_calls: Tuple[str, ...] = (
        "LanguageIndex",
        "SessionClassifier",
        "restricted",
        "refreshed",
        "classify_all_scratch",
    )
    #: emit REP002 for suppressions that matched nothing
    report_unused_suppressions: bool = True
    # -- semantic-pass knobs -------------------------------------------
    #: regex fragment naming lock-like identifiers (lock-graph labels)
    lock_name_pattern: str = r"lock"
    #: regex fragment naming fingerprint-like bindings (REP110 sinks)
    fingerprint_name_pattern: str = r"fingerprint|digest|signature"
    #: regex fragment naming result-store receivers (REP110 sinks)
    result_store_pattern: str = r"store"
    #: call-graph hop budget for REP110 taint propagation
    taint_max_hops: int = 3
    #: ``Class.method`` roots REP310 reachability starts from
    invalidation_roots: Tuple[str, ...] = ("GraphWorkspace.refresh",)
    #: diagnostics under these path prefixes are downgraded to warnings
    #: (the ``--include-tests`` warn-only mode)
    warn_path_prefixes: Tuple[str, ...] = ("tests/",)

    def enabled(self, family: str) -> bool:
        """Whether rule ``family`` runs at all."""
        return family in self.select

    def extraction_knobs(self):
        """The semantic-extraction knobs (part of the cache key)."""
        from repro.devtools.semantic.model import ExtractionKnobs

        return ExtractionKnobs(
            memo_name_pattern=self.memo_name_pattern,
            lock_name_pattern=self.lock_name_pattern,
            fingerprint_name_pattern=self.fingerprint_name_pattern,
            result_store_pattern=self.result_store_pattern,
        )

    def is_allowed(self, diagnostic: Diagnostic) -> bool:
        """Whether ``diagnostic`` is covered by an allowlist entry."""
        token = f"{diagnostic.path}::{diagnostic.symbol}"
        for key in (diagnostic.rule_id, family_of(diagnostic.rule_id)):
            for pattern in self.allow.get(key, ()):
                if fnmatch(token, pattern):
                    return True
        return False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def merged(self, overlay: Mapping[str, object]) -> "LintConfig":
        """A copy with ``overlay`` (parsed JSON) merged over this config.

        ``allow`` lists extend per key; scalar knobs replace.
        """
        allow = {key: tuple(values) for key, values in self.allow.items()}
        for key, values in dict(overlay.get("allow", {})).items():  # type: ignore[arg-type]
            allow[key] = allow.get(key, ()) + tuple(values)
        return LintConfig(
            select=tuple(overlay.get("select", self.select)),  # type: ignore[arg-type]
            allow=allow,
            memo_name_pattern=str(
                overlay.get("memo_name_pattern", self.memo_name_pattern)
            ),
            key_markers=tuple(overlay.get("key_markers", self.key_markers)),  # type: ignore[arg-type]
            guard_lock_names=tuple(
                overlay.get("guard_lock_names", self.guard_lock_names)  # type: ignore[arg-type]
            ),
            build_calls=tuple(overlay.get("build_calls", self.build_calls)),  # type: ignore[arg-type]
            report_unused_suppressions=bool(
                overlay.get(
                    "report_unused_suppressions", self.report_unused_suppressions
                )
            ),
            lock_name_pattern=str(
                overlay.get("lock_name_pattern", self.lock_name_pattern)
            ),
            fingerprint_name_pattern=str(
                overlay.get(
                    "fingerprint_name_pattern", self.fingerprint_name_pattern
                )
            ),
            result_store_pattern=str(
                overlay.get("result_store_pattern", self.result_store_pattern)
            ),
            taint_max_hops=int(
                overlay.get("taint_max_hops", self.taint_max_hops)  # type: ignore[arg-type]
            ),
            invalidation_roots=tuple(
                overlay.get("invalidation_roots", self.invalidation_roots)  # type: ignore[arg-type]
            ),
            warn_path_prefixes=tuple(
                overlay.get("warn_path_prefixes", self.warn_path_prefixes)  # type: ignore[arg-type]
            ),
        )

    @classmethod
    def from_file(cls, path: "Path | str", base: "LintConfig | None" = None) -> "LintConfig":
        """Project defaults overlaid with the JSON document at ``path``."""
        overlay = json.loads(Path(path).read_text())
        return (base if base is not None else project_config()).merged(overlay)


def project_config() -> LintConfig:
    """This repository's shipped lint configuration.

    Every allowlist entry is a whole-construct exemption with its
    soundness argument right here; one-off sites use inline suppression
    pragmas instead (see the README's Invariants section).
    """
    return LintConfig(
        allow={
            # The workspace memo and the engine's expression-plan LRU are
            # the two memos whose keys the checker cannot see through:
            #   * GraphWorkspace._memo keys are built by SessionManager
            #     and always embed workspace.graph_fingerprint(graph)
            #     (pinned by tests/serving/test_manager.py);
            #   * QueryEngine._expression_plans maps expression string ->
            #     compiled plan, and plans are pure functions of the
            #     expression — no graph state, hence nothing to version.
            "REP300": (
                "src/repro/serving/workspace.py::_memo",
                "src/repro/query/engine.py::_expression_plans",
            ),
        }
    )


def iter_allow_patterns(config: LintConfig) -> Iterable[Tuple[str, str]]:
    """Flatten the allowlist as ``(rule-or-family, pattern)`` pairs."""
    for key in sorted(config.allow):
        for pattern in config.allow[key]:
            yield key, pattern
