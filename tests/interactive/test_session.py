"""Unit and integration tests for the interactive session (Figure 2 loop)."""

import pytest

from repro.exceptions import SessionFinishedError
from repro.interactive.halt import UserSatisfied
from repro.interactive.oracle import NoisyUser, SimulatedUser
from repro.interactive.session import InteractiveSession
from repro.interactive.strategies import RandomStrategy
from repro.serving.workspace import default_workspace


def evaluate(graph, query):
    """Workspace-engine evaluation (the module-level evaluate() shim now warns)."""
    return default_workspace().engine.evaluate(graph, query)

GOAL = "(tram + bus)* . cinema"


class TestFullRun:
    def test_session_learns_instance_equivalent_query(self, figure1_graph):
        user = SimulatedUser(figure1_graph, GOAL)
        session = InteractiveSession(figure1_graph, user)
        result = session.run()
        assert result.learned_query is not None
        assert evaluate(figure1_graph, result.learned_query) == user.goal_answer
        assert result.halted_by == "no-informative-node"

    def test_all_labels_agree_with_oracle(self, figure1_graph):
        user = SimulatedUser(figure1_graph, GOAL)
        session = InteractiveSession(figure1_graph, user)
        result = session.run()
        for node, sign in result.interaction_trace():
            assert (sign == "+") == (node in user.goal_answer)

    def test_nodes_never_proposed_twice(self, figure1_graph):
        user = SimulatedUser(figure1_graph, GOAL)
        result = InteractiveSession(figure1_graph, user).run()
        proposed = [record.node for record in result.records]
        assert len(proposed) == len(set(proposed))

    def test_session_needs_few_interactions_on_figure1(self, figure1_graph):
        user = SimulatedUser(figure1_graph, GOAL)
        result = InteractiveSession(figure1_graph, user).run()
        # 10 nodes but far fewer questions thanks to pruning/propagation
        assert result.interactions <= 6

    def test_user_satisfied_halt(self, figure1_graph):
        user = SimulatedUser(figure1_graph, GOAL)
        session = InteractiveSession(
            figure1_graph, user, halt_condition=UserSatisfied(user.goal_answer)
        )
        result = session.run()
        assert result.halted_by in ("user-satisfied", "no-informative-node")
        assert evaluate(figure1_graph, result.learned_query) == user.goal_answer

    def test_max_interactions_budget(self, figure1_graph):
        user = SimulatedUser(figure1_graph, GOAL)
        session = InteractiveSession(figure1_graph, user, max_interactions=1)
        result = session.run()
        assert result.interactions == 1

    def test_run_twice_raises(self, figure1_graph):
        user = SimulatedUser(figure1_graph, GOAL)
        session = InteractiveSession(figure1_graph, user)
        session.run()
        with pytest.raises(SessionFinishedError):
            session.run()
        with pytest.raises(SessionFinishedError):
            session.step()

    def test_random_strategy_session_also_converges(self, figure1_graph):
        user = SimulatedUser(figure1_graph, GOAL)
        session = InteractiveSession(figure1_graph, user, strategy=RandomStrategy(seed=5))
        result = session.run()
        assert evaluate(figure1_graph, result.learned_query) == user.goal_answer

    def test_without_path_validation_still_consistent(self, figure1_graph):
        user = SimulatedUser(figure1_graph, GOAL)
        session = InteractiveSession(figure1_graph, user, path_validation=False)
        result = session.run()
        answer = evaluate(figure1_graph, result.learned_query)
        for node, sign in result.interaction_trace():
            if sign == "+":
                assert node in answer
            else:
                assert node not in answer

    def test_session_on_transit_graph(self, small_transit_graph):
        answer = evaluate(small_transit_graph, GOAL)
        if not answer:
            pytest.skip("seeded transit graph has no cinema reachable")
        user = SimulatedUser(small_transit_graph, GOAL)
        session = InteractiveSession(small_transit_graph, user, max_interactions=30)
        result = session.run()
        assert result.learned_query is not None
        learned_answer = evaluate(small_transit_graph, result.learned_query)
        # every explicit label must be honoured
        for node, sign in result.interaction_trace():
            assert (node in learned_answer) == (sign == "+")


class TestStepDetails:
    def test_step_records_zoom_and_validation(self, figure1_graph):
        user = SimulatedUser(figure1_graph, GOAL)
        session = InteractiveSession(figure1_graph, user)
        records = []
        while not session.should_halt():
            records.append(session.step())
        positive_records = [record for record in records if record.positive]
        assert any(record.validated_word for record in positive_records)
        assert all(record.final_radius >= session.initial_radius for record in records)
        assert all(record.duration_seconds >= 0 for record in records)

    def test_propagation_counts_recorded(self, figure1_graph):
        user = SimulatedUser(figure1_graph, GOAL)
        session = InteractiveSession(figure1_graph, user)
        first = session.step()
        # labelling the first node prunes the facility sinks at least
        assert first.propagated_negative >= 1 or first.propagated_positive >= 0

    def test_hypothesis_progression_stays_consistent(self, figure1_graph):
        user = SimulatedUser(figure1_graph, GOAL)
        session = InteractiveSession(figure1_graph, user)
        while not session.should_halt():
            record = session.step()
            assert record.hypothesis_consistent
            answer = evaluate(figure1_graph, record.hypothesis)
            for node in session.examples.user_positive_nodes:
                assert node in answer
            for node in session.examples.user_negative_nodes:
                assert node not in answer

    def test_interaction_index_increments(self, figure1_graph):
        user = SimulatedUser(figure1_graph, GOAL)
        session = InteractiveSession(figure1_graph, user)
        indices = []
        while not session.should_halt():
            indices.append(session.step().index)
        assert indices == list(range(1, len(indices) + 1))


class TestNoisyAndEdgeCases:
    def test_noisy_user_session_does_not_crash(self, figure1_graph):
        user = NoisyUser(figure1_graph, GOAL, noise=0.4, seed=3)
        session = InteractiveSession(figure1_graph, user, max_interactions=8)
        result = session.run()
        assert result.interactions <= 8
        # the result object reports whether inconsistency was hit
        assert isinstance(result.inconsistent, bool)

    def test_goal_selecting_nothing(self, figure1_graph):
        user = SimulatedUser(figure1_graph, "metro")
        session = InteractiveSession(figure1_graph, user)
        result = session.run()
        assert result.learned_query is not None
        assert evaluate(figure1_graph, result.learned_query) == frozenset()

    def test_total_time_and_zoom_aggregates(self, figure1_graph):
        user = SimulatedUser(figure1_graph, GOAL)
        result = InteractiveSession(figure1_graph, user).run()
        assert result.total_time >= 0
        assert result.total_zooms == sum(record.zooms for record in result.records)


class TestWorkspaceInjection:
    def test_explicit_workspace_is_the_injection_point(self, figure1_graph):
        from repro.serving import GraphWorkspace

        workspace = GraphWorkspace()
        user = SimulatedUser(figure1_graph, GOAL, workspace=workspace)
        session = InteractiveSession(figure1_graph, user, workspace=workspace)
        assert session.workspace is workspace
        assert session.engine is workspace.engine
        assert session.neighborhoods is workspace.neighborhoods(figure1_graph)
        assert session.learner.workspace is workspace

    def test_advance_finish_equals_run(self, figure1_graph):
        from repro.serving import GraphWorkspace

        direct = InteractiveSession(
            figure1_graph,
            SimulatedUser(figure1_graph, GOAL),
            max_interactions=25,
            workspace=GraphWorkspace(),
        ).run()
        stepped_session = InteractiveSession(
            figure1_graph,
            SimulatedUser(figure1_graph, GOAL),
            max_interactions=25,
            workspace=GraphWorkspace(),
        )
        while stepped_session.advance():
            pass
        stepped = stepped_session.finish()
        assert stepped.interaction_trace() == direct.interaction_trace()
        assert str(stepped.learned_query) == str(direct.learned_query)
        assert stepped.halted_by == direct.halted_by

    def test_advance_after_finish_raises(self, figure1_graph):
        session = InteractiveSession(
            figure1_graph, SimulatedUser(figure1_graph, GOAL), max_interactions=3
        )
        session.run()
        with pytest.raises(SessionFinishedError):
            session.advance()
