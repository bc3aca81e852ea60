"""Property tests: delta-refreshed structures are bit-identical to scratch
rebuilds over random graphs x random add/remove tick sequences, and
refresh stays precise when two graphs mutate interleaved."""

import random

import pytest

from repro.graph.generators import random_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.neighborhood import NeighborhoodIndex
from repro.learning.language_index import LanguageIndex
from repro.query.engine import QueryEngine
from repro.serving.workspace import GraphWorkspace

ALPHABET = ("x", "y", "z")
QUERIES = ("x", "x.y", "(x|y)*.z", "y*", "z.z")
BOUND = 3


def random_tick(rng: random.Random, graph: LabeledGraph, *, churn: int = 4):
    """One random sliding-window tick: retire some edges, admit some new."""
    current = sorted(graph.edges())
    nodes = sorted(graph.nodes(), key=str)
    retire = rng.sample(current, min(churn, len(current)))
    admit = [
        (rng.choice(nodes), rng.choice(ALPHABET), rng.choice(nodes))
        for _ in range(churn)
    ]
    graph.apply_delta(add_edges=admit, remove_edges=retire)


def assert_language_index_matches_scratch(index: LanguageIndex, graph: LabeledGraph):
    scratch = LanguageIndex(graph, index.max_length)
    assert index.version == graph.version
    assert set(index.nodes) == set(scratch.nodes)
    for node in scratch.nodes:
        assert index.decode(index.language(node)) == scratch.decode(
            scratch.language(node)
        ), f"language of {node!r} diverged from scratch rebuild"
    # internal consistency: spellers must mirror the languages exactly
    for position, node in enumerate(index.nodes):
        language = index.language(node)
        for word_id in range(1, len(index.arena)):
            spells = bool(index.spellers(word_id) & (1 << position))
            has = bool(language & (1 << word_id))
            assert spells == has, (
                f"spellers/language disagree for node {node!r}, "
                f"word {index.arena.word_of(word_id)!r}"
            )


class TestLanguageIndexProperty:
    @pytest.mark.parametrize("seed", [7, 23, 91])
    def test_refresh_equals_scratch_over_random_ticks(self, seed):
        rng = random.Random(seed)
        graph = random_graph(18, 40, ALPHABET, seed=seed)
        workspace = GraphWorkspace()
        workspace.language_index(graph, BOUND)
        for _ in range(6):
            random_tick(rng, graph)
            workspace.refresh(graph)
            index = workspace.language_index(graph, BOUND)
            assert_language_index_matches_scratch(index, graph)
        # at least some ticks must have taken the delta path, or this
        # test silently degrades into rebuild-vs-rebuild
        assert workspace.stats()["language_index_refreshes"] > 0

    @pytest.mark.parametrize("seed", [5, 40])
    def test_node_churn_falls_back_and_stays_correct(self, seed):
        rng = random.Random(seed)
        graph = random_graph(12, 26, ALPHABET, seed=seed)
        workspace = GraphWorkspace()
        workspace.language_index(graph, BOUND)
        for tick in range(4):
            if tick % 2:
                graph.apply_delta(add_nodes=[f"fresh{tick}"])
            else:
                random_tick(rng, graph, churn=3)
            workspace.refresh(graph)
            index = workspace.language_index(graph, BOUND)
            assert_language_index_matches_scratch(index, graph)

    def test_access_path_refreshes_without_explicit_refresh(self):
        graph = random_graph(14, 30, ALPHABET, seed=3)
        workspace = GraphWorkspace()
        workspace.language_index(graph, BOUND)
        rng = random.Random(3)
        random_tick(rng, graph)
        index = workspace.language_index(graph, BOUND)  # lazy upgrade
        assert workspace.stats()["language_index_refreshes"] == 1
        assert_language_index_matches_scratch(index, graph)


class TestEngineAnswersProperty:
    @pytest.mark.parametrize("seed", [11, 57])
    def test_retained_answers_equal_fresh_evaluation(self, seed):
        rng = random.Random(seed)
        graph = random_graph(16, 36, ALPHABET, seed=seed)
        engine = QueryEngine()
        engine.evaluate_many(graph, QUERIES)
        for _ in range(5):
            random_tick(rng, graph, churn=2)
            engine.refresh(graph)
            answers = engine.evaluate_many(graph, QUERIES)
            cold = QueryEngine()
            expected = cold.evaluate_many(graph, QUERIES)
            assert answers == expected
        stats = engine.stats()
        assert stats["delta_refreshes"] > 0

    def test_label_disjoint_answer_survives_identity(self):
        graph = LabeledGraph.from_edges(
            [("a", "x", "b"), ("b", "y", "c"), ("c", "z", "a")]
        )
        engine = QueryEngine()
        answer_before = engine.evaluate(graph, "y")
        graph.add_edge("b", "x", "c")  # touches only label x
        engine.refresh(graph)
        hits_before = engine.stats()["answer_hits"]
        answer_after = engine.evaluate(graph, "y")
        assert engine.stats()["answer_hits"] == hits_before + 1
        assert answer_after is answer_before  # the very same frozenset

    def test_empty_word_plans_drop_on_node_change(self):
        graph = LabeledGraph.from_edges([("a", "x", "b")])
        engine = QueryEngine()
        assert engine.evaluate(graph, "x*") == {"a", "b"}
        graph.add_node("c")  # no labels touched, but the node set grew
        engine.refresh(graph)
        assert engine.evaluate(graph, "x*") == {"a", "b", "c"}


class TestNeighborhoodProperty:
    @pytest.mark.parametrize("seed", [13, 77])
    def test_kept_states_equal_scratch_bfs(self, seed):
        rng = random.Random(seed)
        graph = random_graph(20, 30, ALPHABET, seed=seed)
        index = NeighborhoodIndex(graph)
        centers = sorted(graph.nodes(), key=str)[:6]
        for _ in range(5):
            for center in centers:
                index.neighborhood(center, 2)
            random_tick(rng, graph, churn=2)
            index.refresh(graph)
            scratch = NeighborhoodIndex(graph)
            for center in centers:
                kept = index.neighborhood(center, 2)
                fresh = scratch.neighborhood(center, 2)
                assert kept.nodes == fresh.nodes, f"ball of {center!r} diverged"
                assert kept.distances == fresh.distances
                assert kept.frontier == fresh.frontier

    def test_disjoint_state_survives_refresh(self):
        graph = LabeledGraph.from_edges([("a", "x", "b"), ("c", "y", "d")])
        index = NeighborhoodIndex(graph)
        index.neighborhood("a", 1)
        index.neighborhood("c", 1)
        state_a = index._states[("a", False)]
        graph.add_edge("c", "z", "d")
        kept, dropped = index.refresh(graph)
        assert (kept, dropped) == (1, 1)
        assert index._states[("a", False)] is state_a


class TestInterleavedPrecision:
    """refresh() must scope to the mutated graph only."""

    def _warm(self, workspace, graph):
        workspace.language_index(graph, BOUND)
        workspace.neighborhoods(graph).neighborhood(next(iter(graph.nodes())), 1)
        workspace.engine.evaluate(graph, "x")
        workspace.graph_fingerprint(graph)

    def test_refresh_scopes_to_the_mutated_graph(self):
        workspace = GraphWorkspace()
        left = random_graph(10, 20, ALPHABET, seed=1, name="left")
        right = random_graph(10, 20, ALPHABET, seed=2, name="right")
        self._warm(workspace, left)
        self._warm(workspace, right)
        right_index = workspace.language_index(right, BOUND)
        left.apply_delta(add_edges=[("n0", "z", "n1")])
        counters = workspace.refresh(left)
        assert counters["language_indexes_refreshed"] + counters[
            "language_indexes_dropped"
        ] == 1
        # the other graph's entry is untouched, same object
        assert workspace.language_index(right, BOUND) is right_index

    def test_interleaved_mutations_both_graphs_stay_correct(self):
        workspace = GraphWorkspace()
        rng = random.Random(99)
        graphs = [
            random_graph(12, 24, ALPHABET, seed=31, name="g0"),
            random_graph(12, 24, ALPHABET, seed=32, name="g1"),
        ]
        for graph in graphs:
            workspace.language_index(graph, BOUND)
        for tick in range(6):
            target = graphs[tick % 2]
            random_tick(rng, target, churn=2)
            workspace.refresh(target)
            for graph in graphs:
                index = workspace.language_index(graph, BOUND)
                assert_language_index_matches_scratch(index, graph)
