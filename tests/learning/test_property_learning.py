"""Property-based tests for the learning engine (hypothesis).

The central invariant (the paper's consistency guarantee): whatever
positive / negative node examples a truthful user derives from a hidden
goal query, the learned query selects every positive node and no negative
node — on any graph.
"""

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from repro.exceptions import InconsistentExamplesError
from repro.graph.generators import random_graph
from repro.learning.examples import ExampleSet
from repro.learning.informativeness import pruned_nodes
from repro.learning.language_index import LanguageIndex
from repro.learning.learner import PathQueryLearner
from repro.learning.path_selection import consistent_words_for, covered_words
from repro.serving.workspace import default_workspace


def evaluate(graph, query):
    """Workspace-engine evaluation (the module-level evaluate() shim now warns)."""
    return default_workspace().engine.evaluate(graph, query)

LABELS = ("a", "b", "c")

graphs = st.integers(min_value=3, max_value=12).flatmap(
    lambda size: st.integers(min_value=0, max_value=500).map(
        lambda seed: random_graph(size, size * 2, LABELS, seed=seed)
    )
)

_atoms = st.sampled_from(["a", "b", "c"])
goal_expressions = st.recursive(
    _atoms,
    lambda children: st.one_of(
        st.tuples(children, children).map(lambda pair: f"({pair[0]} + {pair[1]})"),
        st.tuples(children, children).map(lambda pair: f"({pair[0]} . {pair[1]})"),
        children.map(lambda inner: f"({inner})*"),
    ),
    max_leaves=3,
)


def _truthful_examples(graph, goal, positive_count, negative_count):
    """Label the first few selected / unselected nodes, as a truthful user would."""
    answer = evaluate(graph, goal)
    positives = sorted(answer, key=str)[:positive_count]
    negatives = sorted(set(graph.nodes()) - answer, key=str)[:negative_count]
    examples = ExampleSet()
    for node in positives:
        examples.add_positive(node)
    for node in negatives:
        examples.add_negative(node)
    return examples, positives, negatives


@given(graphs, goal_expressions, st.integers(1, 3), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_learned_query_is_consistent_with_truthful_examples(
    graph, goal, positive_count, negative_count
):
    examples, positives, negatives = _truthful_examples(graph, goal, positive_count, negative_count)
    assume(positives)
    learner = PathQueryLearner(graph, max_path_length=4)
    try:
        outcome = learner.learn(examples)
    except InconsistentExamplesError:
        # possible when the only witnesses are longer than the length bound
        return
    answer = evaluate(graph, outcome.query)
    for node in positives:
        assert node in answer
    for node in negatives:
        assert node not in answer


@given(graphs, goal_expressions)
@settings(max_examples=40, deadline=None)
def test_covered_words_monotone_in_negative_set(graph, goal):
    answer = evaluate(graph, goal)
    negatives = sorted(set(graph.nodes()) - answer, key=str)
    assume(len(negatives) >= 2)
    small = covered_words(LanguageIndex(graph, 3), negatives[:1])
    large = covered_words(LanguageIndex(graph, 3), negatives[:2])
    assert small <= large


@given(graphs)
@settings(max_examples=40, deadline=None)
def test_consistent_words_shrink_as_negatives_grow(graph):
    nodes = sorted(graph.nodes(), key=str)
    assume(len(nodes) >= 3)
    target, first_negative, second_negative = nodes[0], nodes[1], nodes[2]
    fewer = consistent_words_for(LanguageIndex(graph, 3), target, [first_negative])
    more = consistent_words_for(LanguageIndex(graph, 3), target, [first_negative, second_negative])
    assert set(more) <= set(fewer)


@given(graphs)
@settings(max_examples=40, deadline=None)
def test_pruned_set_monotone_in_negatives(graph):
    nodes = sorted(graph.nodes(), key=str)
    assume(len(nodes) >= 3)
    first = ExampleSet()
    first.add_negative(nodes[0])
    second = ExampleSet()
    second.add_negative(nodes[0])
    second.add_negative(nodes[1])
    pruned_first = pruned_nodes(graph, LanguageIndex(graph, 3), first)
    pruned_second = pruned_nodes(graph, LanguageIndex(graph, 3), second)
    # adding a negative can only prune more nodes (minus the newly labelled one)
    assert pruned_first - {nodes[1]} <= pruned_second


@given(graphs, goal_expressions)
@settings(max_examples=30, deadline=None)
def test_validated_words_are_honoured_exactly(graph, goal):
    """When the user validates a word, the learned query must accept it."""
    from repro.query.rpq import PathQuery

    goal_query = PathQuery(goal)
    answer = evaluate(graph, goal_query)
    assume(answer)
    node = sorted(answer, key=str)[0]
    negatives = sorted(set(graph.nodes()) - answer, key=str)[:2]
    words = consistent_words_for(LanguageIndex(graph, 4), node, negatives)
    accepted = [word for word in words if goal_query.accepts_word(word)]
    assume(accepted)
    examples = ExampleSet()
    examples.add_positive(node, validated_word=accepted[0])
    for negative in negatives:
        examples.add_negative(negative)
    outcome = PathQueryLearner(graph, max_path_length=4).learn(examples)
    assert outcome.query.accepts_word(accepted[0])
    assert node in evaluate(graph, outcome.query)
