"""Tests for the shared GraphWorkspace (build-once caches, fingerprints, memo)."""

import threading

import pytest

from repro.graph.labeled_graph import LabeledGraph
from repro.interactive.oracle import SimulatedUser
from repro.interactive.session import InteractiveSession
from repro.query.engine import QueryEngine
from repro.serving import GraphWorkspace, default_workspace, reset_default_workspace


class TestLanguageIndexRegistry:
    def test_second_request_is_a_hit(self, tiny_graph):
        workspace = GraphWorkspace()
        first = workspace.language_index(tiny_graph, 3)
        second = workspace.language_index(tiny_graph, 3)
        assert first is second
        stats = workspace.stats()
        assert stats["language_index_builds"] == 1
        assert stats["language_index_hits"] == 1

    def test_smaller_bound_derived_by_restriction(self, tiny_graph):
        workspace = GraphWorkspace()
        workspace.language_index(tiny_graph, 4)
        workspace.language_index(tiny_graph, 2)
        stats = workspace.stats()
        assert stats["language_index_builds"] == 1
        assert stats["language_index_restrictions"] == 1

    def test_concurrent_cold_builds_coalesce(self, figure1_graph):
        workspace = GraphWorkspace()
        barrier = threading.Barrier(8)
        indexes = []

        def worker():
            barrier.wait()
            indexes.append(workspace.language_index(figure1_graph, 4))

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len({id(index) for index in indexes}) == 1
        assert workspace.stats()["language_index_builds"] == 1

    def test_two_sessions_share_one_index_build(self, figure1_graph, figure1_query):
        workspace = GraphWorkspace()
        for _ in range(2):
            user = SimulatedUser(figure1_graph, figure1_query, workspace=workspace)
            InteractiveSession(
                figure1_graph, user, max_interactions=25, workspace=workspace
            ).run()
        stats = workspace.stats()
        # one true build (at the session bound); every further consumer —
        # the second session included — hits the registry or restricts
        assert stats["language_index_builds"] == 1
        assert stats["language_index_hits"] > 0


class TestFingerprints:
    def test_insertion_order_independent(self):
        edges = [("a", "x", "b"), ("b", "y", "c"), ("a", "y", "c")]
        one = LabeledGraph.from_edges(edges)
        two = LabeledGraph.from_edges(list(reversed(edges)))
        workspace = GraphWorkspace()
        assert workspace.graph_fingerprint(one) == workspace.graph_fingerprint(two)

    def test_changes_on_mutation(self, tiny_graph):
        workspace = GraphWorkspace()
        before = workspace.graph_fingerprint(tiny_graph)
        tiny_graph.add_edge("c", "z", "a")
        assert workspace.graph_fingerprint(tiny_graph) != before


class TestClassifierRegistry:
    """A session's classifier builds through the workspace's index registry."""

    def test_classifier_builds_route_through_workspace(self, tiny_graph):
        workspace = GraphWorkspace()
        user = SimulatedUser(tiny_graph, "x", workspace=workspace)
        session = InteractiveSession(tiny_graph, user, max_path_length=3, workspace=workspace)
        assert workspace.stats()["language_index_builds"] == 1
        # the session's classifier reads the workspace's index, not a private one
        assert session.classifier.index is workspace.language_index(tiny_graph, 3)
        assert workspace.stats()["language_index_builds"] == 1


class TestMemo:
    def test_lru_bound(self):
        workspace = GraphWorkspace(max_memo_entries=2)
        workspace.memo_put("a", 1)
        workspace.memo_put("b", 2)
        workspace.memo_put("c", 3)
        assert workspace.memo_get("a") is None
        assert workspace.memo_get("c") == 3
        assert workspace.stats()["memo_entries"] == 2


class TestDefaultWorkspace:
    def test_default_workspace_is_a_stable_singleton(self, tiny_graph):
        reset_default_workspace()
        try:
            workspace = default_workspace()
            assert default_workspace() is workspace
            assert workspace.engine.evaluate(tiny_graph, "x . y") == frozenset({"a"})
        finally:
            reset_default_workspace()

    def test_isolated_workspaces_have_isolated_engines(self):
        assert GraphWorkspace().engine is not GraphWorkspace().engine
        engine = QueryEngine()
        assert GraphWorkspace(engine=engine).engine is engine

    def test_private_workspace_leaves_the_default_untouched(self, figure1_graph, figure1_query):
        # scenario metrics and E2 pruning counts must draw on the workspace
        # they are handed, never on the process default
        from repro.automata.canonical import CanonicalFormCache
        from repro.experiments.harness import e2_unit_rows
        from repro.interactive.scenarios import run_all_scenarios

        workspace = GraphWorkspace(canonical=CanonicalFormCache())
        before = default_workspace().stats()
        run_all_scenarios(figure1_graph, figure1_query, seed=3, workspace=workspace)
        e2_unit_rows(
            figure1_graph, figure1_query, dataset="figure-1", max_interactions=5, workspace=workspace
        )
        assert default_workspace().stats() == before
        assert workspace.stats()["engine"]["answer_misses"] > 0
