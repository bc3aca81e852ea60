"""Unit tests for the simulated user (oracle)."""

import pytest

from repro.exceptions import OracleError
from repro.interactive.oracle import NoisyUser, SimulatedUser
from repro.learning.language_index import LanguageIndex
from repro.learning.path_selection import candidate_prefix_tree
from repro.query.rpq import PathQuery
from repro.serving.workspace import default_workspace


class TestLabels:
    def test_labels_follow_goal_query(self, figure1_graph):
        user = SimulatedUser(figure1_graph, "(tram + bus)* . cinema")
        assert user.label("N2")
        assert user.label("N4")
        assert not user.label("N5")
        assert not user.label("C1")
        assert user.labels_answered == 4

    def test_goal_answer_property(self, figure1_graph):
        user = SimulatedUser(figure1_graph, "(tram + bus)* . cinema")
        assert user.goal_answer == {"N1", "N2", "N4", "N6"}

    def test_unknown_node_raises(self, figure1_graph):
        user = SimulatedUser(figure1_graph, "cinema")
        with pytest.raises(OracleError):
            user.label("ghost")

    def test_goal_accepts_query_object(self, figure1_graph):
        user = SimulatedUser(figure1_graph, PathQuery("cinema"))
        assert user.label("N4") and not user.label("N1")


class TestZoom:
    def test_positive_node_zooms_until_witness_visible(self, figure1_graph):
        user = SimulatedUser(figure1_graph, "(tram + bus)* . cinema")
        radius2 = default_workspace().neighborhoods(figure1_graph).neighborhood("N2", 2)
        assert user.wants_zoom("N2", radius2)  # cinema not yet visible
        radius3 = default_workspace().neighborhoods(figure1_graph).neighborhood("N2", 3)
        assert not user.wants_zoom("N2", radius3)
        assert user.zooms_requested == 1

    def test_positive_node_with_visible_witness_does_not_zoom(self, figure1_graph):
        user = SimulatedUser(figure1_graph, "cinema")
        radius2 = default_workspace().neighborhoods(figure1_graph).neighborhood("N4", 2)
        assert not user.wants_zoom("N4", radius2)

    def test_negative_node_zooms_up_to_patience(self, figure1_graph):
        user = SimulatedUser(figure1_graph, "(tram + bus)* . cinema", zoom_patience=2)
        radius1 = default_workspace().neighborhoods(figure1_graph).neighborhood("N5", 1)
        radius2 = default_workspace().neighborhoods(figure1_graph).neighborhood("N5", 2)
        assert user.wants_zoom("N5", radius1)
        assert not user.wants_zoom("N5", radius2)


class TestPathValidation:
    def test_accepts_highlighted_word_when_goal_accepts_it(self, figure1_graph):
        user = SimulatedUser(figure1_graph, "(tram + bus)* . cinema")
        tree = candidate_prefix_tree(
            figure1_graph, LanguageIndex(figure1_graph, 3), "N2", ["N5"], preferred_length=3
        )
        assert tree.highlighted_word() == ("bus", "bus", "cinema")
        assert user.validate_path("N2", tree) == ("bus", "bus", "cinema")
        assert user.paths_corrected == 0

    def test_corrects_highlighted_word_when_goal_rejects_it(self, figure1_graph):
        # goal requires ending with cinema after *exactly* bus.tram
        user = SimulatedUser(figure1_graph, "bus . tram . cinema")
        tree = candidate_prefix_tree(
            figure1_graph, LanguageIndex(figure1_graph, 3), "N2", ["N5"], preferred_length=3
        )
        choice = user.validate_path("N2", tree)
        assert choice == ("bus", "tram", "cinema")
        assert user.paths_corrected == 1

    def test_returns_none_when_no_tree_word_is_accepted(self, figure1_graph):
        user = SimulatedUser(figure1_graph, "restaurant")
        tree = candidate_prefix_tree(figure1_graph, LanguageIndex(figure1_graph, 1), "N4", ["N5"])
        assert user.validate_path("N4", tree) is None

    def test_satisfied_with(self, figure1_graph):
        user = SimulatedUser(figure1_graph, "(tram + bus)* . cinema")
        assert user.satisfied_with(PathQuery("bus* . cinema"))
        assert not user.satisfied_with(PathQuery("cinema"))

    def test_statistics_keys(self, figure1_graph):
        user = SimulatedUser(figure1_graph, "cinema")
        user.label("N4")
        stats = user.statistics()
        assert stats["labels"] == 1
        assert set(stats) == {"labels", "zooms", "validations", "corrections"}


class TestNoisyUser:
    def test_zero_noise_is_faithful(self, figure1_graph):
        truthful = SimulatedUser(figure1_graph, "cinema")
        noisy = NoisyUser(figure1_graph, "cinema", noise=0.0, seed=1)
        for node in figure1_graph.nodes():
            assert truthful.label(node) == noisy.label(node)
        assert noisy.flipped_labels == 0

    def test_full_noise_always_flips(self, figure1_graph):
        truthful = SimulatedUser(figure1_graph, "cinema")
        noisy = NoisyUser(figure1_graph, "cinema", noise=1.0, seed=1)
        for node in figure1_graph.nodes():
            assert truthful.label(node) != noisy.label(node)
        assert noisy.flipped_labels == figure1_graph.node_count

    def test_noise_is_seeded(self, figure1_graph):
        nodes = sorted(figure1_graph.nodes(), key=str)
        first = [NoisyUser(figure1_graph, "cinema", noise=0.5, seed=11).label(node) for node in nodes]
        second = [NoisyUser(figure1_graph, "cinema", noise=0.5, seed=11).label(node) for node in nodes]
        assert first == second

    def test_invalid_noise_rejected(self, figure1_graph):
        with pytest.raises(ValueError):
            NoisyUser(figure1_graph, "cinema", noise=1.5)
