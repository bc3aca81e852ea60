"""End-to-end integration tests across the whole pipeline.

These exercise the full stack — dataset → interactive session with a
simulated user → learner → learned query → evaluation — on each dataset
family, plus cross-module invariants that individual unit tests cannot
see (e.g. that the session's hypothesis is always consistent with the
labels the oracle actually gave).
"""

import pytest

from repro.graph.datasets import biological_network, motivating_example, transit_city
from repro.interactive.oracle import SimulatedUser
from repro.interactive.session import InteractiveSession
from repro.interactive.strategies import make_strategy
from repro.learning.learner import learn_query
from repro.query.evaluation import selection_metrics
from repro.serving.workspace import default_workspace
from repro.query.rpq import PathQuery
from repro.workloads.queries import generate_workload


def evaluate(graph, query):
    """Workspace-engine evaluation (the module-level evaluate() shim now warns)."""
    return default_workspace().engine.evaluate(graph, query)


class TestFigure1EndToEnd:
    def test_full_pipeline_reproduces_paper_flow(self):
        graph = motivating_example()
        goal = PathQuery("(tram + bus)* . cinema")
        user = SimulatedUser(graph, goal)
        session = InteractiveSession(graph, user)
        result = session.run()

        # the learned query returns exactly the user's intended answer
        assert evaluate(graph, result.learned_query) == user.goal_answer
        # far fewer questions than nodes
        assert result.interactions < graph.node_count
        # the oracle was never asked about a facility sink (pruned)
        asked = {record.node for record in result.records}
        assert not (asked & {"C1", "C2", "R1", "R2"})

    def test_one_shot_learning_equals_session_outcome_on_same_examples(self):
        graph = motivating_example()
        goal = PathQuery("(tram + bus)* . cinema")
        user = SimulatedUser(graph, goal)
        session = InteractiveSession(graph, user)
        result = session.run()
        positives = {
            node: session.examples.validated_word(node)
            for node in session.examples.user_positive_nodes
        }
        negatives = sorted(session.examples.user_negative_nodes, key=str)
        replayed = learn_query(graph, positive=positives, negative=negatives)
        assert evaluate(graph, replayed) == evaluate(graph, result.learned_query)


class TestTransitEndToEnd:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_session_on_transit_city(self, seed):
        graph = transit_city(25, tram_lines=2, bus_lines=3, line_length=6, seed=seed)
        goal = PathQuery("(tram + bus)* . cinema")
        answer = evaluate(graph, goal)
        if not answer or len(answer) == graph.node_count:
            pytest.skip("goal query trivial on this seed")
        user = SimulatedUser(graph, goal)
        session = InteractiveSession(graph, user, max_interactions=30, max_path_length=5)
        result = session.run()
        metrics = selection_metrics(graph, result.learned_query, goal)
        assert metrics["precision"] >= 0.5
        assert metrics["recall"] > 0
        # every user-provided label is honoured by the learned query
        learned_answer = evaluate(graph, result.learned_query)
        for node in session.examples.user_positive_nodes:
            assert node in learned_answer
        for node in session.examples.user_negative_nodes:
            assert node not in learned_answer


class TestBiologicalEndToEnd:
    def test_session_on_biological_network(self):
        graph = biological_network(50, 25, seed=7)
        goal = PathQuery("encodes . (interacts + binds)* . regulates")
        answer = evaluate(graph, goal)
        if not answer:
            goal = PathQuery("encodes")
            answer = evaluate(graph, goal)
        user = SimulatedUser(graph, goal)
        session = InteractiveSession(graph, user, max_interactions=25, max_path_length=4)
        result = session.run()
        assert result.learned_query is not None
        learned_answer = evaluate(graph, result.learned_query)
        for node in session.examples.user_positive_nodes:
            assert node in learned_answer
        for node in session.examples.user_negative_nodes:
            assert node not in learned_answer


class TestWorkloadEndToEnd:
    def test_every_strategy_completes_on_a_workload_case(self):
        graph = transit_city(18, tram_lines=2, bus_lines=2, line_length=5, seed=21)
        workload = generate_workload(graph, families=("single", "star-prefix"), per_family=1, seed=5)
        assert workload
        goal = workload[-1].query
        for name in ("random", "breadth", "degree", "most-informative"):
            user = SimulatedUser(graph, goal)
            session = InteractiveSession(
                graph,
                user,
                strategy=make_strategy(name, seed=2),
                max_interactions=25,
                max_path_length=4,
            )
            result = session.run()
            assert result.learned_query is not None, name
