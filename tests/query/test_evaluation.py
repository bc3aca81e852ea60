"""Unit tests for RPQ evaluation on graphs (the core semantics).

Every call goes through the default workspace's engine — the same path
sessions and the CLI use since the module-level ``evaluate()`` shim was
retired.
"""

import pytest

from repro.exceptions import NodeNotFoundError
from repro.query.evaluation import witness_path
from repro.query.rpq import PathQuery
from repro.serving.workspace import default_workspace


def engine():
    """The shared workspace engine (the supported path)."""
    return default_workspace().engine


def evaluate(graph, query):
    """Evaluate through the shared workspace engine."""
    return engine().evaluate(graph, query)


class TestEvaluateOnFigure1:
    def test_goal_query_answer(self, figure1_graph):
        assert evaluate(figure1_graph, "(tram + bus)* . cinema") == {"N1", "N2", "N4", "N6"}

    def test_single_label_queries(self, figure1_graph):
        assert evaluate(figure1_graph, "cinema") == {"N4", "N6"}
        assert evaluate(figure1_graph, "restaurant") == {"N5", "N6"}
        assert evaluate(figure1_graph, "bus") == {"N1", "N2", "N6"}

    def test_concatenation_query(self, figure1_graph):
        assert evaluate(figure1_graph, "bus . cinema") == {"N1"}
        assert evaluate(figure1_graph, "bus . bus . cinema") == {"N2"}

    def test_star_query_includes_epsilon_semantics(self, figure1_graph):
        # (bus)* accepts the empty word, so every node is selected
        assert evaluate(figure1_graph, "bus*") == set(figure1_graph.nodes())

    def test_empty_query_selects_nothing(self, figure1_graph):
        assert evaluate(figure1_graph, "empty") == frozenset()

    def test_query_with_label_absent_from_graph(self, figure1_graph):
        assert evaluate(figure1_graph, "metro") == frozenset()

    def test_accepts_query_objects_and_dfas(self, figure1_graph):
        query = PathQuery("cinema")
        assert evaluate(figure1_graph, query) == {"N4", "N6"}
        assert evaluate(figure1_graph, query.dfa) == {"N4", "N6"}


class TestEvaluateGeneral:
    def test_cycle_star(self, cycle4):
        assert evaluate(cycle4, "next*") == set(cycle4.nodes())
        assert evaluate(cycle4, "next . next . next . next . next") == set(cycle4.nodes())

    def test_chain_bounded_query(self, chain5):
        assert evaluate(chain5, "next . next . next") == {"c0", "c1", "c2"}

    def test_optional(self, chain5):
        assert evaluate(chain5, "next?") == set(chain5.nodes())

    def test_plus(self, chain5):
        assert evaluate(chain5, "next+") == {f"c{i}" for i in range(5)}

    def test_evaluate_many(self, figure1_graph):
        answers = engine().evaluate_many(figure1_graph, ["cinema", "restaurant"])
        assert answers == [{"N4", "N6"}, {"N5", "N6"}]

    def test_evaluation_matches_per_node_selects(self, small_transit_graph):
        query = "(tram + bus)* . cinema"
        answer = evaluate(small_transit_graph, query)
        for node in small_transit_graph.nodes():
            assert engine().selects(small_transit_graph, query, node) == (node in answer)


class TestSelects:
    def test_epsilon_accepting_query_selects_every_node(self, figure1_graph):
        assert engine().selects(figure1_graph, "bus*", "C1")

    def test_unknown_node_raises(self, figure1_graph):
        with pytest.raises(NodeNotFoundError):
            engine().selects(figure1_graph, "bus", "ghost")


class TestWitnessPath:
    def test_witness_matches_query(self, figure1_graph):
        query = PathQuery("(tram + bus)* . cinema")
        witness = witness_path(figure1_graph, query, "N2")
        assert witness is not None
        assert witness.start == "N2"
        assert query.accepts_word(witness.word)

    def test_witness_is_shortest(self, figure1_graph):
        witness = witness_path(figure1_graph, "(tram + bus)* . cinema", "N4")
        assert witness.word == ("cinema",)

    def test_no_witness_for_unselected_node(self, figure1_graph):
        assert witness_path(figure1_graph, "(tram + bus)* . cinema", "N5") is None

    def test_empty_word_witness(self, figure1_graph):
        witness = witness_path(figure1_graph, "bus*", "C1")
        assert witness is not None and witness.word == ()

    def test_max_length_bound(self, figure1_graph):
        assert witness_path(figure1_graph, "bus . bus . cinema", "N2", max_length=2) is None
        assert witness_path(figure1_graph, "bus . bus . cinema", "N2", max_length=3) is not None

    def test_unknown_node_raises(self, figure1_graph):
        with pytest.raises(NodeNotFoundError):
            witness_path(figure1_graph, "bus", "ghost")

    def test_mixed_label_types_do_not_crash(self):
        # regression: the tie-break sort key used to compare raw labels,
        # which raises TypeError on graphs mixing int and str labels
        from repro.graph.labeled_graph import LabeledGraph
        from repro.automata.dfa import DFA

        graph = LabeledGraph.from_edges([("s", 1, "m"), ("s", "a", "m"), ("m", "a", "t")])
        dfa = DFA(0)
        dfa.add_state(1)
        dfa.add_state(2)
        dfa.set_accepting(2)
        dfa.add_transition(0, 1, 1)
        dfa.add_transition(0, "a", 1)
        dfa.add_transition(1, "a", 2)
        witness = witness_path(graph, dfa, "s")
        assert witness is not None
        assert len(witness.word) == 2


class TestMetricsAndSignatures:
    def test_answer_signature_sorted(self, figure1_graph):
        signature = engine().answer_signature(figure1_graph, "cinema")
        assert signature == ("N4", "N6")

    def test_selection_metrics_perfect(self, figure1_graph):
        metrics = engine().selection_metrics(
            figure1_graph, "(bus + tram)* . cinema", "(tram + bus)* . cinema"
        )
        assert metrics["precision"] == 1.0
        assert metrics["recall"] == 1.0
        assert metrics["f1"] == 1.0

    def test_selection_metrics_partial(self, figure1_graph):
        metrics = engine().selection_metrics(figure1_graph, "cinema", "(tram + bus)* . cinema")
        assert metrics["precision"] == 1.0
        assert metrics["recall"] == pytest.approx(0.5)
        assert 0 < metrics["f1"] < 1

    def test_selection_metrics_empty_learned(self, figure1_graph):
        metrics = engine().selection_metrics(figure1_graph, "empty", "cinema")
        assert metrics["precision"] == 0.0
        assert metrics["recall"] == 0.0
        assert metrics["f1"] == 0.0

    def test_selection_metrics_both_empty(self, figure1_graph):
        metrics = engine().selection_metrics(figure1_graph, "empty", "metro")
        assert metrics["precision"] == 1.0
        assert metrics["recall"] == 1.0
