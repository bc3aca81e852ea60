"""Unit tests for the consistency checker."""

import pytest

from repro.learning.consistency import check_consistency, examples_admit_query
from repro.learning.examples import ExampleSet
from repro.learning.language_index import LanguageIndex
from repro.query.engine import QueryEngine
from repro.query.rpq import PathQuery


def paper_examples() -> ExampleSet:
    examples = ExampleSet()
    examples.add_positive("N2")
    examples.add_positive("N6")
    examples.add_negative("N5")
    return examples


@pytest.fixture
def engine():
    return QueryEngine()


class TestCheckConsistency:
    def test_goal_query_is_consistent_with_paper_examples(self, figure1_graph, engine):
        report = check_consistency(figure1_graph, "(tram + bus)* . cinema", paper_examples(), engine=engine)
        assert report.consistent
        assert report.missed_positives == frozenset()
        assert report.covered_negatives == frozenset()
        assert "consistent" in report.explain()

    def test_bus_query_also_consistent_without_validation(self, figure1_graph, engine):
        """Section 3: `bus` is consistent with {+N2, +N6, -N5} but is not the goal."""
        assert check_consistency(figure1_graph, "bus", paper_examples(), engine=engine).consistent

    def test_missed_positive_detected(self, figure1_graph, engine):
        report = check_consistency(figure1_graph, "cinema", paper_examples(), engine=engine)
        assert not report.consistent
        assert "N2" in report.missed_positives
        assert "misses" in report.explain()

    def test_covered_negative_detected(self, figure1_graph, engine):
        examples = paper_examples()
        report = check_consistency(figure1_graph, "restaurant", examples, engine=engine)
        assert not report.consistent
        assert "N5" in report.covered_negatives
        assert "selects negative" in report.explain()

    def test_validated_word_must_be_accepted(self, figure1_graph, engine):
        examples = ExampleSet()
        examples.add_positive("N2", validated_word=("bus", "tram", "cinema"))
        examples.add_negative("N5")
        # bus* . cinema selects N2 but rejects the validated tram word
        report = check_consistency(figure1_graph, "bus* . cinema", examples, engine=engine)
        assert not report.consistent
        assert ("bus", "tram", "cinema") in report.rejected_words
        # the goal query accepts it
        assert check_consistency(figure1_graph, "(tram + bus)* . cinema", examples, engine=engine).consistent

    def test_accepts_query_and_dfa_inputs(self, figure1_graph, engine):
        query = PathQuery("(tram + bus)* . cinema")
        assert check_consistency(figure1_graph, query, paper_examples(), engine=engine).consistent
        assert check_consistency(figure1_graph, query.dfa, paper_examples(), engine=engine).consistent

    def test_empty_example_set_always_consistent(self, figure1_graph, engine):
        assert check_consistency(figure1_graph, "anything-at-all*", ExampleSet(), engine=engine).consistent


class TestExamplesAdmitQuery:
    def test_admissible(self, figure1_graph):
        assert examples_admit_query(LanguageIndex(figure1_graph, 4), paper_examples())

    def test_positive_with_all_paths_covered_is_inadmissible(self, figure1_graph):
        examples = ExampleSet()
        # C1 has no outgoing edge at all: only the empty word, which every
        # node shares — so once any negative exists, C1 cannot be positive.
        examples.add_positive("C1")
        examples.add_negative("C2")
        assert not examples_admit_query(LanguageIndex(figure1_graph, 4), examples)

    def test_positive_sink_alone_is_admissible(self, figure1_graph):
        # with no negatives, even a sink node admits the query eps (select-all)
        examples = ExampleSet()
        examples.add_positive("C1")
        assert examples_admit_query(LanguageIndex(figure1_graph, 4), examples)

    def test_identical_path_languages_conflict(self, figure1_graph):
        # N4 and N6 both have a 'cinema' word, but N6 also has bus/tram words;
        # labelling N4 positive and N6 negative leaves no uncovered word for N4
        examples = ExampleSet()
        examples.add_positive("N4")
        examples.add_negative("N6")
        assert not examples_admit_query(LanguageIndex(figure1_graph, 3), examples)
