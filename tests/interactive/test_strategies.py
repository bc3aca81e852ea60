"""Unit tests for node-proposal strategies."""

import pytest

from repro.exceptions import NoCandidateNodeError
from repro.interactive.strategies import (
    STRATEGY_REGISTRY,
    BreadthStrategy,
    DegreeStrategy,
    MostInformativePathsStrategy,
    RandomInformativeStrategy,
    RandomStrategy,
    make_strategy,
)
from repro.learning.examples import ExampleSet
from repro.learning.informativeness import SessionClassifier, classify_all


def classifier_for(graph, examples, *, max_length=4) -> SessionClassifier:
    """The session classifier a strategy proposes from."""
    return SessionClassifier(graph, examples, max_length=max_length)


def paper_examples() -> ExampleSet:
    examples = ExampleSet()
    examples.add_positive("N2")
    examples.add_negative("N5")
    return examples


class TestRegistry:
    def test_registry_names(self):
        assert set(STRATEGY_REGISTRY) == {
            "random",
            "random-informative",
            "breadth",
            "degree",
            "most-informative",
        }

    def test_make_strategy(self):
        strategy = make_strategy("most-informative")
        assert isinstance(strategy, MostInformativePathsStrategy)
        assert strategy.signature() == ("most-informative",)

    def test_make_strategy_unknown_name(self):
        with pytest.raises(ValueError):
            make_strategy("clairvoyant")

    def test_seeded_strategies_accept_seed(self):
        assert isinstance(make_strategy("random", seed=1), RandomStrategy)
        assert isinstance(make_strategy("random-informative", seed=1), RandomInformativeStrategy)


class TestProposals:
    def test_random_never_proposes_labeled_nodes(self, figure1_graph):
        strategy = RandomStrategy(seed=3)
        examples = paper_examples()
        classifier = classifier_for(figure1_graph, examples)
        for _ in range(10):
            assert strategy.propose(classifier) not in examples.labeled_nodes

    def test_random_raises_when_everything_labeled(self, figure1_graph):
        strategy = RandomStrategy(seed=3)
        examples = ExampleSet()
        answer = {"N1", "N2", "N4", "N6"}
        for node in figure1_graph.nodes():
            examples.add_positive(node) if node in answer else examples.add_negative(node)
        with pytest.raises(NoCandidateNodeError):
            strategy.propose(classifier_for(figure1_graph, examples))

    def test_random_is_seeded(self, figure1_graph):
        classifier = classifier_for(figure1_graph, paper_examples())
        first = [RandomStrategy(seed=7).propose(classifier) for _ in range(5)]
        second = [RandomStrategy(seed=7).propose(classifier) for _ in range(5)]
        assert first == second

    def test_informative_strategies_only_propose_informative_nodes(self, figure1_graph):
        examples = paper_examples()
        statuses = classify_all(figure1_graph, examples, max_length=4)
        for name in ("random-informative", "breadth", "degree", "most-informative"):
            strategy = make_strategy(name, seed=1)
            proposal = strategy.propose(classifier_for(figure1_graph, examples))
            assert statuses[proposal].informative, name

    def test_informative_strategies_raise_when_nothing_informative(self, figure1_graph):
        examples = ExampleSet()
        # label every neighbourhood; the only unlabelled nodes left are the
        # facility sinks, which are pruned as uninformative
        answer = {"N1", "N2", "N4", "N6"}
        for node in (f"N{i}" for i in range(1, 7)):
            examples.add_positive(node) if node in answer else examples.add_negative(node)
        for name in ("random-informative", "breadth", "degree", "most-informative"):
            with pytest.raises(NoCandidateNodeError):
                make_strategy(name).propose(classifier_for(figure1_graph, examples))

    def test_most_informative_prefers_nodes_with_many_short_paths(self, figure1_graph):
        strategy = MostInformativePathsStrategy()
        examples = ExampleSet()
        proposal = strategy.propose(classifier_for(figure1_graph, examples, max_length=3))
        statuses = classify_all(figure1_graph, examples, max_length=3)
        best_score = max(status.score for status in statuses.values() if status.informative)
        assert statuses[proposal].score == best_score

    def test_breadth_prefers_nodes_near_labeled_region(self, figure1_graph):
        strategy = BreadthStrategy()
        examples = ExampleSet()
        examples.add_positive("N2")
        proposal = strategy.propose(classifier_for(figure1_graph, examples, max_length=3))
        # N1 and N3 are the direct neighbours of N2; N3 may be pruned
        # depending on coverage, but the proposal must be within distance 2
        from repro.graph.neighborhood import extract_neighborhood

        nearby = extract_neighborhood(figure1_graph, "N2", 2).nodes
        assert proposal in nearby

    def test_breadth_with_no_labels_falls_back_to_sorted_order(self, figure1_graph):
        strategy = BreadthStrategy()
        proposal = strategy.propose(classifier_for(figure1_graph, ExampleSet(), max_length=3))
        assert proposal in figure1_graph.nodes()

    def test_degree_strategy_picks_max_out_degree(self, figure1_graph):
        strategy = DegreeStrategy()
        examples = ExampleSet()
        proposal = strategy.propose(classifier_for(figure1_graph, examples, max_length=3))
        statuses = classify_all(figure1_graph, examples, max_length=3)
        informative = [node for node, status in statuses.items() if status.informative]
        max_degree = max(figure1_graph.out_degree(node) for node in informative)
        assert figure1_graph.out_degree(proposal) == max_degree
