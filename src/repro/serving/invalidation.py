"""Workspace invalidation hooks: the registry REP302 checks against.

Every structure that snapshots a graph version (``self.version =
graph.version`` and friends) is a version-keyed cache, and the
delta-journal architecture requires each one to be reachable by exactly
one invalidation/refresh path — otherwise a mutation could leave it
serving stale state with nobody responsible for noticing.  Such classes
declare which path owns them via a ``__workspace_hook__`` class
attribute naming an entry of :data:`WORKSPACE_HOOKS`; the ``repro
lint`` rule ``REP302`` enforces the declaration statically, and
``tests/serving/test_invalidation_hooks.py`` cross-validates at runtime
that every declared hook is registered here.

The registry is deliberately import-light: hook names are plain
strings, so declaring one never creates an import cycle (the graph
layer must not import the serving layer).
"""

from __future__ import annotations

from typing import Dict

__all__ = ["WORKSPACE_HOOKS", "hook_names"]

#: hook name -> who drives the refresh/drop of structures declaring it
WORKSPACE_HOOKS: Dict[str, str] = {
    # GraphLabelIndex: owned by the graph itself; LabeledGraph.label_index()
    # performs the delta refresh (untouched-label CSR reuse) or rebuild on
    # every stale access, so no external driver is needed.
    "graph.label_index": (
        "LabeledGraph.label_index() — delta-refreshes via "
        "GraphLabelIndex._refreshed, rebuilding only touched labels"
    ),
    # _GraphCache: the engine's per-graph answer cache; QueryEngine.refresh()
    # upgrades it (alphabet-disjoint answers retained), QueryEngine
    # access paths upgrade lazily, GraphWorkspace.refresh() drives it
    # per graph.
    "engine.answers": (
        "QueryEngine.refresh() / _graph_cache() — retains answers whose "
        "plan alphabet is disjoint from every touched label"
    ),
    # LanguageIndex: GraphWorkspace.language_index() and
    # GraphWorkspace.refresh() call LanguageIndex.refreshed() to rescore
    # only delta-reachable nodes, dropping to a scratch rebuild when the
    # journal cannot bridge.
    "workspace.language_index": (
        "GraphWorkspace.refresh() / language_index() — rescores only "
        "nodes within max_length-1 backward hops of a delta seed"
    ),
    # NeighborhoodIndex: refresh() drops only layer structures whose
    # explored region intersects the touched nodes; driven by its own
    # _state() accessor and by GraphWorkspace.refresh().
    "workspace.neighborhoods": (
        "NeighborhoodIndex.refresh() — drops only BFS layer stacks whose "
        "distance map contains a touched node"
    ),
}


def hook_names() -> frozenset:
    """The set of registered hook names (for validation)."""
    return frozenset(WORKSPACE_HOOKS)
