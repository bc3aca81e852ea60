"""Unit tests for the text / DOT renderers."""

from repro.interactive.visualization import (
    render_graph_dot,
    render_neighborhood_dot,
    render_neighborhood_text,
    render_prefix_tree_dot,
    render_prefix_tree_text,
    render_query_answer_text,
    render_zoom_dot,
    render_zoom_text,
)
from repro.learning.language_index import LanguageIndex
from repro.learning.path_selection import candidate_prefix_tree
from repro.serving.workspace import default_workspace


class TestTextRenderers:
    def test_neighborhood_text_contains_center_and_frontier(self, figure1_graph):
        neighborhood = default_workspace().neighborhoods(figure1_graph).neighborhood("N2", 2)
        text = render_neighborhood_text(neighborhood)
        assert "neighborhood of N2" in text
        assert "N2 *" in text
        assert "..." in text  # frontier marker, like the figures
        assert "-[bus]->" in text

    def test_neighborhood_text_with_labels(self, figure1_graph):
        neighborhood = default_workspace().neighborhoods(figure1_graph).neighborhood("N2", 1)
        text = render_neighborhood_text(neighborhood, labels={"N1": "+"})
        assert "node N1 +" in text

    def test_zoom_text_marks_new_elements(self, figure1_graph):
        index = default_workspace().neighborhoods(figure1_graph)
        delta = index.zoom(index.neighborhood("N2", 2))
        text = render_zoom_text(delta)
        assert "[new]" in text
        assert "C1" in text

    def test_prefix_tree_text_highlights_candidate(self, figure1_graph):
        tree = candidate_prefix_tree(
            figure1_graph, LanguageIndex(figure1_graph, 3), "N2", ["N5"], preferred_length=3
        )
        text = render_prefix_tree_text(tree)
        assert text.startswith("paths of N2")
        assert ">>" in text
        assert "cinema" in text

    def test_query_answer_text(self, figure1_graph):
        text = render_query_answer_text(figure1_graph, {"N4", "N6"})
        assert text.startswith("2 node(s):")
        assert "N4" in text and "N6" in text


class TestDotRenderers:
    def test_graph_dot_structure(self, figure1_graph):
        dot = render_graph_dot(figure1_graph)
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        assert '"N4" -> "C1" [label="cinema"]' in dot

    def test_neighborhood_dot_frontier_label(self, figure1_graph):
        neighborhood = default_workspace().neighborhoods(figure1_graph).neighborhood("N2", 2)
        dot = render_neighborhood_dot(neighborhood)
        assert "..." in dot

    def test_zoom_dot_highlights_new_elements_in_blue(self, figure1_graph):
        index = default_workspace().neighborhoods(figure1_graph)
        delta = index.zoom(index.neighborhood("N2", 2))
        dot = render_zoom_dot(delta)
        assert "color=blue" in dot

    def test_prefix_tree_dot_bold_highlight(self, figure1_graph):
        tree = candidate_prefix_tree(
            figure1_graph, LanguageIndex(figure1_graph, 3), "N2", ["N5"], preferred_length=3
        )
        dot = render_prefix_tree_dot(tree)
        assert "style=bold" in dot
        assert "doublecircle" in dot

    def test_dot_escaping(self):
        from repro.graph.labeled_graph import LabeledGraph

        graph = LabeledGraph()
        graph.add_edge('node"with"quotes', "label", "other")
        dot = render_graph_dot(graph)
        assert '\\"' in dot
