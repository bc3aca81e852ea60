"""Unit tests for halt conditions."""

import pytest

from repro.interactive.halt import (
    AllOf,
    AnyOf,
    GoalQueryReached,
    HaltContext,
    MaxInteractions,
    NoInformativeNodeLeft,
    UserSatisfied,
    default_halt_condition,
)
from repro.learning.examples import ExampleSet
from repro.query.engine import QueryEngine
from repro.query.rpq import PathQuery


def context(graph, hypothesis=None, interactions=0, informative_remaining=5) -> HaltContext:
    return HaltContext(
        graph=graph,
        examples=ExampleSet(),
        hypothesis=hypothesis,
        interactions=interactions,
        informative_remaining=informative_remaining,
        engine=QueryEngine(),
    )


class TestSimpleConditions:
    def test_no_informative_node_left(self, figure1_graph):
        condition = NoInformativeNodeLeft()
        assert not condition(context(figure1_graph, informative_remaining=3))
        assert condition(context(figure1_graph, informative_remaining=0))

    def test_max_interactions(self, figure1_graph):
        condition = MaxInteractions(5)
        assert not condition(context(figure1_graph, interactions=4))
        assert condition(context(figure1_graph, interactions=5))
        assert condition(context(figure1_graph, interactions=9))

    def test_max_interactions_requires_positive_limit(self):
        with pytest.raises(ValueError):
            MaxInteractions(0)

    def test_user_satisfied(self, figure1_graph):
        condition = UserSatisfied({"N4", "N6"})
        assert not condition(context(figure1_graph, hypothesis=None))
        assert not condition(context(figure1_graph, hypothesis=PathQuery("bus")))
        assert condition(context(figure1_graph, hypothesis=PathQuery("cinema")))

    def test_goal_query_reached(self, figure1_graph):
        goal = PathQuery("(tram + bus)* . cinema")
        condition = GoalQueryReached(goal)
        assert not condition(context(figure1_graph, hypothesis=PathQuery("cinema")))
        assert condition(context(figure1_graph, hypothesis=PathQuery("(bus + tram)* . cinema")))
        assert not condition(context(figure1_graph, hypothesis=None))


class TestCombinators:
    def test_any_of(self, figure1_graph):
        condition = AnyOf([MaxInteractions(3), NoInformativeNodeLeft()])
        assert condition(context(figure1_graph, interactions=3, informative_remaining=9))
        assert condition(context(figure1_graph, interactions=0, informative_remaining=0))
        assert not condition(context(figure1_graph, interactions=1, informative_remaining=2))

    def test_all_of(self, figure1_graph):
        condition = AllOf([MaxInteractions(3), NoInformativeNodeLeft()])
        assert not condition(context(figure1_graph, interactions=3, informative_remaining=9))
        assert condition(context(figure1_graph, interactions=3, informative_remaining=0))

    def test_default_halt_condition_without_budget(self, figure1_graph):
        condition = default_halt_condition()
        assert isinstance(condition, NoInformativeNodeLeft)

    def test_default_halt_condition_with_budget(self, figure1_graph):
        condition = default_halt_condition(max_interactions=2)
        assert condition(context(figure1_graph, interactions=2))
        assert condition(context(figure1_graph, informative_remaining=0))
        assert not condition(context(figure1_graph, interactions=1, informative_remaining=4))
