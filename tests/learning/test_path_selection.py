"""Unit tests for path selection (step (i)) and the Figure 3(c) prefix tree."""

import random

import pytest

from repro.exceptions import InconsistentExamplesError, NoConsistentPathError, NodeNotFoundError
from repro.graph.generators import random_graph
from repro.learning.examples import ExampleSet
from repro.learning.language_index import LanguageIndex
from repro.learning.learner import PathQueryLearner
from repro.learning.path_selection import (
    candidate_prefix_tree,
    consistent_words_for,
    covered_words,
    select_path,
    validate_word,
)
from repro.serving.workspace import GraphWorkspace


class TestCoveredWords:
    def test_covered_words_of_n5(self, figure1_graph):
        covered = covered_words(LanguageIndex(figure1_graph, 2), ["N5"])
        assert ("tram",) in covered
        assert ("restaurant",) in covered
        assert ("tram", "tram") in covered
        assert ("cinema",) not in covered

    def test_union_over_negatives(self, figure1_graph):
        covered = covered_words(LanguageIndex(figure1_graph, 1), ["N5", "N4"])
        assert ("cinema",) in covered
        assert ("tram",) in covered

    def test_unknown_negative_raises(self, figure1_graph):
        # a negative node absent from the graph used to be skipped
        # silently, shrinking the cover without any signal; the contract
        # now matches words_from and fails loudly
        with pytest.raises(NodeNotFoundError) as excinfo:
            covered_words(LanguageIndex(figure1_graph, 2), ["ghost"])
        assert excinfo.value.node == "ghost"

    def test_known_negatives_unaffected_by_contract(self, figure1_graph):
        covered = covered_words(LanguageIndex(figure1_graph, 2), ["N5", "N4"])
        assert ("cinema",) in covered and ("tram",) in covered

    def test_no_negatives(self, figure1_graph):
        assert covered_words(LanguageIndex(figure1_graph, 3), []) == set()


class TestConsistentWordsFor:
    def test_shortest_first(self, figure1_graph):
        words = consistent_words_for(LanguageIndex(figure1_graph, 3), "N2", ["N5"])
        lengths = [len(word) for word in words]
        assert lengths == sorted(lengths)
        assert words[0] == ("bus",)

    def test_negative_coverage_filters(self, figure1_graph):
        # with N1 negative, every word N2 can spell through N1 that N1 also
        # spells is banned; bus itself stays because N1 cannot spell 'bus'?
        # N1 spells ('bus',) via N1->N4?  yes — so ('bus',) is covered.
        words = consistent_words_for(LanguageIndex(figure1_graph, 3), "N2", ["N1"])
        assert ("bus",) not in words
        assert ("bus", "bus", "cinema") in words

    def test_limit(self, figure1_graph):
        words = consistent_words_for(LanguageIndex(figure1_graph, 3), "N2", ["N5"], limit=2)
        assert len(words) == 2

    def test_limit_one_matches_full_head(self, figure1_graph):
        # limit=1 takes the bitset fast path; it must agree with the
        # sorted full enumeration
        for node in ("N2", "N4", "N6"):
            full = consistent_words_for(LanguageIndex(figure1_graph, 3), node, ["N5"])
            head = consistent_words_for(LanguageIndex(figure1_graph, 3), node, ["N5"], limit=1)
            assert head == full[:1]
        assert consistent_words_for(LanguageIndex(figure1_graph, 3), "C1", [], limit=1) == [()]
        assert consistent_words_for(LanguageIndex(figure1_graph, 3), "C1", ["C2"], limit=1) == []

    def test_limit_zero_is_empty(self, figure1_graph):
        assert consistent_words_for(LanguageIndex(figure1_graph, 3), "N2", ["N5"], limit=0) == []
        assert consistent_words_for(LanguageIndex(figure1_graph, 3), "C1", [], limit=0) == []

    def test_sink_node_with_no_negatives_gets_empty_word(self, figure1_graph):
        assert consistent_words_for(LanguageIndex(figure1_graph, 3), "C1", []) == [()]

    def test_sink_node_with_negatives_has_nothing(self, figure1_graph):
        assert consistent_words_for(LanguageIndex(figure1_graph, 3), "C1", ["C2"]) == []


class TestSelectPath:
    def test_default_is_shortest(self, figure1_graph):
        assert select_path(LanguageIndex(figure1_graph, 3), "N2", ["N5"]) == ("bus",)

    def test_preferred_length_is_honoured(self, figure1_graph):
        word = select_path(LanguageIndex(figure1_graph, 3), "N2", ["N5"], preferred_length=3)
        assert len(word) == 3
        assert word == ("bus", "bus", "cinema")

    def test_preferred_length_unavailable_falls_back(self, figure1_graph):
        word = select_path(LanguageIndex(figure1_graph, 2), "N4", ["N5"], preferred_length=2)
        assert word == ("cinema",)

    def test_no_consistent_path_raises(self, figure1_graph):
        with pytest.raises(NoConsistentPathError):
            select_path(LanguageIndex(figure1_graph, 2), "N4", ["N6"])

    def test_error_mentions_node_and_bound(self, figure1_graph):
        with pytest.raises(NoConsistentPathError) as excinfo:
            select_path(LanguageIndex(figure1_graph, 5), "C1", ["C2"])
        assert excinfo.value.node == "C1"
        assert excinfo.value.max_length == 5


class TestSelectPathEmptyWordContract:
    """``()`` only when there is no negative; otherwise an error, with or without a cover."""

    def test_sink_without_negatives_gets_the_empty_word(self, figure1_graph):
        index = LanguageIndex(figure1_graph, 3)
        assert select_path(index, "C1", []) == ()
        assert select_path(index, "C1", [], cover_bits=0) == ()

    def test_sink_with_only_sink_negatives_raises(self, figure1_graph):
        # the cover of a sink is empty: cover_bits == 0, yet a negative exists,
        # so the empty word (which selects the negative too) is not offered
        index = LanguageIndex(figure1_graph, 3)
        assert index.cover(["C2"]) == 0
        with pytest.raises(NoConsistentPathError):
            select_path(index, "C1", ["C2"])
        with pytest.raises(NoConsistentPathError):
            select_path(index, "C1", ["C2"], cover_bits=0)

    @pytest.mark.parametrize("seed", range(8))
    def test_select_sample_words_equals_per_node_select_path(self, seed):
        # the learner filters the negatives and derives the cover once;
        # per-node select_path filters (ghost negatives included) on its own
        rng = random.Random(seed)
        graph = random_graph(18, 40, ("a", "b", "c"), seed=seed)
        nodes = sorted(graph.nodes(), key=str)
        rng.shuffle(nodes)
        examples = ExampleSet()
        for node in nodes[:4]:
            examples.add_positive(node)
        for node in nodes[4 : 4 + rng.randrange(3)] + ["ghost-1", "ghost-2"]:
            examples.add_negative(node)
        learner = PathQueryLearner(graph, max_path_length=3, workspace=GraphWorkspace())
        index = LanguageIndex(graph, 3)
        negatives = list(examples.negative_nodes)
        expected = {}
        try:
            for node in sorted(examples.positive_nodes, key=str):
                expected[node] = select_path(index, node, negatives)
        except NoConsistentPathError:
            with pytest.raises(InconsistentExamplesError):
                learner.select_sample_words(examples)
            return
        assert learner.select_sample_words(examples) == expected


class TestCandidatePrefixTree:
    def test_figure3c_tree(self, figure1_graph):
        tree = candidate_prefix_tree(
            figure1_graph, LanguageIndex(figure1_graph, 3), "N2", ["N5"], preferred_length=3
        )
        assert tree.origin == "N2"
        assert tree.contains(("bus", "bus", "cinema"))
        assert tree.contains(("bus", "tram", "cinema"))
        assert tree.highlighted_word() == ("bus", "bus", "cinema")

    def test_covered_words_are_excluded(self, figure1_graph):
        tree = candidate_prefix_tree(figure1_graph, LanguageIndex(figure1_graph, 3), "N2", ["N5"])
        # N5 can spell tram.tram and tram.restaurant, so N2's bus.tram.tram /
        # bus.tram.restaurant stay (they are N2-words, not covered as whole
        # words by N5 — only identical words are covered)
        assert tree.contains(("bus",))

    def test_highlight_defaults_to_shortest_without_preference(self, figure1_graph):
        tree = candidate_prefix_tree(figure1_graph, LanguageIndex(figure1_graph, 3), "N2", ["N5"])
        assert tree.highlighted_word() == ("bus",)

    def test_endpoints_recorded(self, figure1_graph):
        tree = candidate_prefix_tree(figure1_graph, LanguageIndex(figure1_graph, 2), "N2", ["N5"])
        bus_child = tree.root.children["bus"]
        assert set(bus_child.endpoints) == {"N1", "N3"}

    def test_empty_tree_for_covered_node(self, figure1_graph):
        tree = candidate_prefix_tree(figure1_graph, LanguageIndex(figure1_graph, 3), "C1", ["C2"])
        assert tree.words() == []
        assert tree.highlighted_word() is None


class TestValidateWord:
    def test_valid_word(self, figure1_graph):
        assert validate_word(
            figure1_graph, LanguageIndex(figure1_graph, 3), "N2", ("bus", "bus", "cinema"), ["N5"]
        )

    def test_word_not_spellable(self, figure1_graph):
        assert not validate_word(
            figure1_graph, LanguageIndex(figure1_graph, 3), "N2", ("tram",), ["N5"]
        )

    def test_word_too_long(self, figure1_graph):
        assert not validate_word(
            figure1_graph, LanguageIndex(figure1_graph, 2), "N2", ("bus", "bus", "cinema"), ["N5"]
        )

    def test_word_covered_by_negative(self, figure1_graph):
        assert not validate_word(
            figure1_graph, LanguageIndex(figure1_graph, 3), "N2", ("bus",), ["N1"]
        )

    def test_unknown_negatives_are_ignored(self, figure1_graph):
        # validate_word re-checks caller input, so unlike covered_words it
        # tolerates speculative negative sets (same contract as
        # consistent_words_for)
        assert validate_word(
            figure1_graph, LanguageIndex(figure1_graph, 3), "N2", ("bus", "bus", "cinema"), ["ghost"]
        )
        assert not validate_word(
            figure1_graph, LanguageIndex(figure1_graph, 3), "N2", ("bus",), ["N1", "ghost"]
        )
