"""Tests for the bounded path-language index and the incremental classifier.

The heart of this file is the property-style session replay: random
graphs × random example sequences, asserting after *every* step that the
incremental :class:`SessionClassifier` matches the from-scratch
:func:`classify_all_scratch` oracle exactly, and that indexes rebuilt on
``graph.version`` bumps never serve stale languages.
"""

import random

import pytest

from repro.exceptions import InconsistentExamplesError, NodeNotFoundError
from repro.graph.generators import random_graph
from repro.graph.paths import words_from
from repro.learning.examples import ExampleSet
from repro.learning.informativeness import (
    SessionClassifier,
    classify_all,
    classify_all_scratch,
    informative_nodes,
)
from repro.learning.language_index import (
    CompatibilityOracle,
    LanguageIndex,
    PrefixIdArena,
    iter_bits,
    popcount,
)
from repro.learning.learner import PathQueryLearner
from repro.query.engine import QueryEngine
from repro.serving.workspace import GraphWorkspace, default_workspace


def language_index_for(graph, max_length):
    """Workspace-backed index accessor (the module-level shim now warns)."""
    return default_workspace().language_index(graph, max_length)


# ----------------------------------------------------------------------
# arena
# ----------------------------------------------------------------------
class TestPrefixIdArena:
    def test_root_is_empty_word(self):
        arena = PrefixIdArena()
        assert arena.word_of(0) == ()
        assert arena.lookup(()) == 0
        assert arena.length_of(0) == 0

    def test_extend_interns_once(self):
        arena = PrefixIdArena()
        first = arena.extend(0, "a")
        again = arena.extend(0, "a")
        assert first == again
        assert arena.word_of(first) == ("a",)

    def test_round_trip_and_lengths(self):
        arena = PrefixIdArena()
        ab = arena.extend(arena.extend(0, "a"), "b")
        assert arena.word_of(ab) == ("a", "b")
        assert arena.length_of(ab) == 2
        assert arena.lookup(("a", "b")) == ab
        assert arena.lookup(("b",)) is None

    def test_children_reflect_extensions(self):
        arena = PrefixIdArena()
        a = arena.extend(0, "a")
        b = arena.extend(0, "b")
        assert dict(arena.children(0)) == {"a": a, "b": b}


# ----------------------------------------------------------------------
# language index
# ----------------------------------------------------------------------
class TestLanguageIndex:
    def test_languages_match_words_from(self, figure1_graph):
        index = language_index_for(figure1_graph, 3)
        for node in figure1_graph.nodes():
            decoded = index.decode(index.language(node))
            assert decoded == words_from(figure1_graph, node, 3)

    def test_cover_matches_union(self, figure1_graph):
        index = language_index_for(figure1_graph, 2)
        bits = index.cover(["N5", "N4"])
        expected = words_from(figure1_graph, "N5", 2) | words_from(figure1_graph, "N4", 2)
        assert index.decode(bits) == expected

    def test_unknown_node_raises(self, figure1_graph):
        index = language_index_for(figure1_graph, 2)
        with pytest.raises(NodeNotFoundError):
            index.language("ghost")
        with pytest.raises(NodeNotFoundError):
            index.cover(["N5", "ghost"])

    def test_shortest_length_and_popcount(self, figure1_graph):
        index = language_index_for(figure1_graph, 3)
        bits = index.language("N2")
        words = index.decode(bits)
        assert popcount(bits) == len(words)
        assert index.shortest_length(bits) == min(len(word) for word in words)
        assert index.shortest_length(0) is None

    def test_spellers_transpose_languages(self, figure1_graph):
        index = language_index_for(figure1_graph, 2)
        for node in figure1_graph.nodes():
            position = index.node_positions[node]
            for word_id in iter_bits(index.language(node)):
                assert (index.spellers(word_id) >> position) & 1

    def test_shared_and_rebuilt_on_version_bump(self, figure1_graph):
        first = language_index_for(figure1_graph, 3)
        assert language_index_for(figure1_graph, 3) is first
        figure1_graph.add_edge("N2", "ferry", "N6")
        second = language_index_for(figure1_graph, 3)
        assert second is not first
        assert second.version == figure1_graph.version
        assert ("ferry",) in second.decode(second.language("N2"))

    def test_distinct_bounds_are_distinct_indexes(self, figure1_graph):
        assert language_index_for(figure1_graph, 2) is not language_index_for(figure1_graph, 3)

    def test_restricted_view_equals_fresh_index(self, figure1_graph):
        parent = language_index_for(figure1_graph, 4)
        view = parent.restricted(2)
        fresh = LanguageIndex(figure1_graph, 2)
        assert view.arena is parent.arena
        for node in figure1_graph.nodes():
            assert view.decode(view.language(node)) == fresh.decode(fresh.language(node))
            uncovered = view.language(node)
            assert view.shortest_length(uncovered) == fresh.shortest_length(
                fresh.language(node)
            )
            assert view.pick_word(uncovered) == fresh.pick_word(fresh.language(node))

    def test_restricted_rejects_larger_bound(self, figure1_graph):
        with pytest.raises(ValueError):
            language_index_for(figure1_graph, 2).restricted(3)

    def test_smaller_bound_served_from_larger_cached_index(self, figure1_graph):
        larger = language_index_for(figure1_graph, 4)
        smaller = language_index_for(figure1_graph, 3)
        assert smaller.arena is larger.arena  # restricted view, not a rebuild
        assert smaller.max_length == 3
        for node in figure1_graph.nodes():
            assert smaller.decode(smaller.language(node)) == words_from(
                figure1_graph, node, 3
            )

    def test_iter_bits(self):
        assert list(iter_bits(0b101001)) == [0, 3, 5]
        assert list(iter_bits(0)) == []


# ----------------------------------------------------------------------
# incremental == from-scratch (the tentpole invariant)
# ----------------------------------------------------------------------
def _random_step(rng, graph, examples, max_length):
    """Apply one random labelling action; returns False when saturated."""
    unlabeled = sorted(
        (node for node in graph.nodes() if node not in examples.labeled_nodes), key=str
    )
    if not unlabeled:
        return False
    node = rng.choice(unlabeled)
    if rng.random() < 0.5:
        examples.add_negative(node)
    else:
        words = sorted(words_from(graph, node, max_length), key=lambda w: (len(w), w))
        validated = words[0] if words and rng.random() < 0.6 else None
        examples.add_positive(node, validated_word=validated)
    return True


class TestSessionClassifierMatchesScratch:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_graphs_random_sequences(self, seed):
        rng = random.Random(seed)
        graph = random_graph(
            rng.randint(8, 30), rng.randint(20, 90), ("a", "b", "c"), seed=seed
        )
        max_length = rng.choice((2, 3, 4))
        examples = ExampleSet()
        classifier = SessionClassifier(graph, examples, max_length=max_length)
        assert classifier.statuses() == classify_all_scratch(
            graph, examples, max_length=max_length
        )
        for _ in range(14):
            if not _random_step(rng, graph, examples, max_length):
                break
            incremental = classifier.statuses()
            scratch = classify_all_scratch(graph, examples, max_length=max_length)
            assert incremental == scratch

    def test_informative_ranking_matches_scratch_order(self, figure1_graph):
        examples = ExampleSet()
        examples.add_negative("N5")
        ranked = informative_nodes(figure1_graph, examples, max_length=3)
        statuses = classify_all_scratch(figure1_graph, examples, max_length=3)
        expected = [status for status in statuses.values() if status.informative]
        expected.sort(key=lambda status: (status.score, str(status.node)))
        expected.sort(key=lambda status: status.score, reverse=True)
        assert ranked == [status.node for status in expected]

    def test_graph_mutation_invalidates_classifier(self, figure1_graph):
        examples = ExampleSet()
        examples.add_negative("N5")
        classifier = SessionClassifier(figure1_graph, examples, max_length=3)
        classifier.statuses()
        figure1_graph.add_edge("N4", "tram", "N2")
        assert classifier.statuses() == classify_all_scratch(
            figure1_graph, examples, max_length=3
        )
        assert classifier.index.version == figure1_graph.version

    def test_replaced_validated_word_triggers_rebuild(self, figure1_graph):
        examples = ExampleSet()
        examples.add_positive("N2", validated_word=("bus",))
        classifier = SessionClassifier(figure1_graph, examples, max_length=3)
        classifier.statuses()
        examples.set_validated_word("N2", ("bus", "bus", "cinema"))
        assert classifier.statuses() == classify_all_scratch(
            figure1_graph, examples, max_length=3
        )

    def test_dropped_session_classifier_is_collected(self, figure1_graph, figure1_query):
        # the session owns its classifier; nothing in the workspace may pin
        # it (statuses + graph + language index) once the session is gone
        import gc
        import weakref

        from repro.interactive.oracle import SimulatedUser
        from repro.interactive.session import InteractiveSession

        session = InteractiveSession(figure1_graph, SimulatedUser(figure1_graph, figure1_query))
        session.step()
        ref = weakref.ref(session.classifier)
        del session
        gc.collect()
        assert ref() is None

    def test_classify_all_unknown_candidate_raises(self, figure1_graph):
        with pytest.raises(NodeNotFoundError):
            classify_all(figure1_graph, ExampleSet(), max_length=2, candidates=["ghost"])

    def test_labeled_node_outside_graph_matches_scratch(self, figure1_graph):
        # a labelled node absent from the graph (e.g. examples recorded
        # against a larger graph) classifies nothing; both delta branches
        # of refresh must tolerate it like classify_all_scratch does
        examples = ExampleSet()
        classifier = SessionClassifier(figure1_graph, examples, max_length=3)
        classifier.statuses()
        examples.add_positive("ghost")  # label-only delta, no cover growth
        assert classifier.statuses() == classify_all_scratch(
            figure1_graph, examples, max_length=3
        )
        examples.add_negative("N5")  # cover-delta branch with ghost still labelled
        assert classifier.statuses() == classify_all_scratch(
            figure1_graph, examples, max_length=3
        )


# ----------------------------------------------------------------------
# score satellite: no magic sentinel
# ----------------------------------------------------------------------
class TestOptionalAwareScore:
    def test_no_uncovered_sorts_below_any_uncovered(self, figure1_graph):
        examples = ExampleSet()
        examples.add_negative("N6")
        statuses = classify_all(figure1_graph, examples, max_length=2)
        exhausted = [s for s in statuses.values() if s.shortest_uncovered_length is None]
        alive = [s for s in statuses.values() if s.shortest_uncovered_length is not None]
        assert exhausted and alive
        assert max(s.score for s in exhausted) < min(s.score for s in alive)

    def test_score_is_self_describing(self, figure1_graph):
        examples = ExampleSet()
        statuses = classify_all(figure1_graph, examples, max_length=3)
        for status in statuses.values():
            count, has_uncovered, negated = status.score
            assert count == status.uncovered_word_count
            assert has_uncovered == (status.shortest_uncovered_length is not None)
            if has_uncovered:
                assert negated == -status.shortest_uncovered_length
            else:
                assert negated == 0


# ----------------------------------------------------------------------
# merge-aware compatibility
# ----------------------------------------------------------------------
class TestCompatibilityOracle:
    def test_no_negatives_everything_compatible(self, figure1_graph):
        from repro.automata.prefix_tree import build_pta

        oracle = CompatibilityOracle(figure1_graph, [], max_length=3)
        assert oracle.compatible(build_pta([("tram",)]))

    def test_empty_word_acceptance_is_incompatible(self, figure1_graph):
        from repro.automata.dfa import DFA

        dfa = DFA(0)
        dfa.set_accepting(0)
        oracle = CompatibilityOracle(figure1_graph, ["N5"], max_length=3)
        assert not oracle.compatible(dfa)

    def test_matches_engine_predicate_on_random_candidates(self):
        # quotients of random PTAs vs the engine's per-negative check
        engine = QueryEngine()
        for seed in range(8):
            rng = random.Random(seed)
            graph = random_graph(20, 60, ("a", "b", "c"), seed=seed + 50)
            nodes = sorted(graph.nodes(), key=str)
            negatives = rng.sample(nodes, 4)
            oracle = CompatibilityOracle(graph, negatives, max_length=3)
            from repro.automata.prefix_tree import build_pta
            from repro.automata.state_merging import _Partition, _merge_and_fold, _quotient

            words = [
                tuple(rng.choice("abc") for _ in range(rng.randint(1, 4)))
                for _ in range(rng.randint(2, 5))
            ]
            pta = build_pta(words)
            candidates = [pta]
            states = sorted(pta.states)
            for _ in range(6):
                partition = _Partition(pta.states)
                folded = _merge_and_fold(
                    pta, partition, rng.choice(states), rng.choice(states)
                )
                if folded is not None:
                    candidates.append(_quotient(pta, folded))
            for candidate in candidates:
                expected = not any(
                    engine.selects(graph, candidate, node) for node in negatives
                )
                assert oracle.compatible(candidate) == expected

    def test_learner_modes_learn_identical_queries(self):
        # the learner's indexed compatibility learns exactly what RPNI
        # learns under the reference per-negative engine.selects predicate
        from repro.automata.state_merging import generalize_pta
        from repro.query.rpq import PathQuery

        learned_any = False
        for seed in range(6):
            rng = random.Random(seed)
            graph = random_graph(25, 75, ("a", "b", "c", "d"), seed=seed + 200)
            examples = ExampleSet()
            nodes = sorted(graph.nodes(), key=str)
            rng.shuffle(nodes)
            for node in nodes[:8]:
                if rng.random() < 0.5:
                    examples.add_negative(node)
                else:
                    examples.add_positive(node)
            learner = PathQueryLearner(
                graph, max_path_length=4, workspace=GraphWorkspace(engine=QueryEngine())
            )
            try:
                learned = learner.learn(examples)
            except InconsistentExamplesError:
                continue
            if not learned.sample_words:
                continue
            engine = QueryEngine()
            negatives = sorted(examples.negative_nodes, key=str)

            def selects_no_negative(candidate, graph=graph, negatives=negatives):
                return not any(engine.selects(graph, candidate, node) for node in negatives)

            reference = PathQuery.from_dfa(generalize_pta(learned.sample_words, selects_no_negative))
            assert str(learned.query) == str(reference)
            assert learned.dfa.states == reference.dfa.states
            learned_any = True
        assert learned_any


class TestIndexIsASnapshot:
    def test_index_results_invalidated_on_version_bump(self):
        graph = random_graph(12, 30, ("a", "b"), seed=3)
        index = language_index_for(graph, 3)
        node = sorted(graph.nodes(), key=str)[0]
        before = index.decode(index.language(node))
        assert before == words_from(graph, node, 3)
        target = sorted(graph.nodes(), key=str)[-1]
        graph.add_edge(node, "z", target)
        rebuilt = language_index_for(graph, 3)
        assert rebuilt is not index
        assert rebuilt.decode(rebuilt.language(node)) == words_from(graph, node, 3)
        assert isinstance(rebuilt, LanguageIndex)
