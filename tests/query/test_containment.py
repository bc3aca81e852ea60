"""Unit tests for query containment / comparison."""

from repro.query.containment import (
    containment_counterexample,
    distinguishing_node,
    instance_difference,
    instance_equivalent,
    language_counterexample,
    language_equivalent,
    language_included,
)
from repro.query.engine import QueryEngine
from repro.query.rpq import PathQuery


class TestLanguageLevel:
    def test_language_equivalent(self):
        assert language_equivalent("a + b", "b + a")
        assert not language_equivalent("a*", "a+")

    def test_language_included(self):
        assert language_included("bus . cinema", "(tram + bus)* . cinema")
        assert not language_included("(tram + bus)* . cinema", "bus . cinema")

    def test_language_counterexample(self):
        witness = language_counterexample("a*", "a+")
        assert witness == ()
        assert language_counterexample("a + b", "b + a") is None

    def test_containment_counterexample(self):
        witness = containment_counterexample("(tram + bus)* . cinema", "bus* . cinema")
        assert witness is not None
        assert "tram" in witness
        assert containment_counterexample("bus* . cinema", "(tram + bus)* . cinema") is None

    def test_accepts_query_objects(self):
        assert language_equivalent(PathQuery("a?"), "a + eps")


class TestInstanceLevel:
    def test_instance_equivalent_despite_language_difference(self, figure1_graph):
        # bus*.cinema and (tram+bus)*.cinema differ as languages but select
        # the same nodes on the Figure 1 instance
        assert not language_equivalent("bus* . cinema", "(tram + bus)* . cinema")
        assert instance_equivalent(
            QueryEngine(), figure1_graph, "bus* . cinema", "(tram + bus)* . cinema"
        )

    def test_instance_difference(self, figure1_graph):
        only_first, only_second = instance_difference(
            QueryEngine(), figure1_graph, "cinema", "restaurant"
        )
        assert only_first == {"N4"}
        assert only_second == {"N5"}

    def test_instance_difference_empty_when_equal(self, figure1_graph):
        only_first, only_second = instance_difference(QueryEngine(), figure1_graph, "bus", "bus")
        assert only_first == frozenset() and only_second == frozenset()

    def test_distinguishing_node(self, figure1_graph):
        node = distinguishing_node(
            QueryEngine(), figure1_graph, "cinema", "(tram + bus)* . cinema"
        )
        assert node in {"N1", "N2"}
        assert distinguishing_node(QueryEngine(), figure1_graph, "bus", "bus") is None
