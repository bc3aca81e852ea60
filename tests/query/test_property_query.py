"""Property-based tests for RPQ evaluation (hypothesis)."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.graph.generators import random_graph
from repro.graph.paths import words_from
from repro.query.evaluation import witness_path
from repro.serving.workspace import default_workspace
from repro.query.rpq import PathQuery


def evaluate(graph, query):
    """Workspace-engine evaluation (the module-level evaluate() shim now warns)."""
    return default_workspace().engine.evaluate(graph, query)

LABELS = ("a", "b", "c")

_atoms = st.sampled_from(["a", "b", "c"])


def _expressions():
    return st.recursive(
        _atoms,
        lambda children: st.one_of(
            st.tuples(children, children).map(lambda pair: f"({pair[0]} + {pair[1]})"),
            st.tuples(children, children).map(lambda pair: f"({pair[0]} . {pair[1]})"),
            children.map(lambda inner: f"({inner})*"),
        ),
        max_leaves=3,
    )


graphs = st.integers(min_value=2, max_value=12).flatmap(
    lambda size: st.integers(min_value=0, max_value=1000).map(
        lambda seed: random_graph(size, size * 2, LABELS, seed=seed)
    )
)


@given(graphs, _expressions())
@settings(max_examples=60, deadline=None)
def test_witness_exists_iff_selected(graph, expression):
    """A node is selected iff a witness path exists, and the witness's word
    is accepted by the query and spellable from the node."""
    query = PathQuery(expression)
    answer = evaluate(graph, query)
    for node in graph.nodes():
        witness = witness_path(graph, query, node)
        if node in answer:
            assert witness is not None
            assert query.accepts_word(witness.word)
            assert witness.start == node
        else:
            assert witness is None


@given(graphs, _expressions())
@settings(max_examples=60, deadline=None)
def test_global_evaluation_agrees_with_per_node_check(graph, expression):
    answer = evaluate(graph, expression)
    for node in graph.nodes():
        assert default_workspace().engine.selects(graph, expression, node) == (node in answer)


@given(graphs, _expressions())
@settings(max_examples=40, deadline=None)
def test_bounded_word_membership_implies_selection(graph, expression):
    """If some bounded word of a node is accepted, the node must be selected."""
    query = PathQuery(expression)
    answer = evaluate(graph, query)
    for node in list(graph.nodes())[:6]:
        bounded_words = words_from(graph, node, 4, include_empty=True)
        if any(query.accepts_word(word) for word in bounded_words):
            assert node in answer


@given(graphs, _expressions(), _expressions())
@settings(max_examples=40, deadline=None)
def test_union_query_answer_is_union_of_answers(graph, first, second):
    union_answer = evaluate(graph, f"({first}) + ({second})")
    assert union_answer == evaluate(graph, first) | evaluate(graph, second)


@given(graphs)
@settings(max_examples=30, deadline=None)
def test_star_query_selects_every_node(graph):
    assert evaluate(graph, "(a + b + c)*") == set(graph.nodes())
