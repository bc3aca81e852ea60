"""Halt conditions for the interactive loop.

"The interactions continue until a halt condition is satisfied.  A natural
condition is to stop when there is exactly one consistent query with the
current set of examples.  However, we also allow weaker conditions e.g.,
the user may stop the process earlier if she is satisfied by some
candidate query proposed at some intermediary stage."

Conditions are small callable objects combined with :class:`AnyOf` /
:class:`AllOf`.  Each receives the current :class:`SessionState` snapshot
(graph, examples, latest hypothesis) and returns a boolean.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.graph.labeled_graph import LabeledGraph
from repro.learning.examples import ExampleSet
from repro.query.engine import QueryEngine
from repro.query.rpq import PathQuery


@dataclass
class HaltContext:
    """Snapshot handed to halt conditions after each interaction."""

    graph: LabeledGraph
    examples: ExampleSet
    hypothesis: Optional[PathQuery]
    interactions: int
    informative_remaining: int
    #: engine answering query-evaluation questions (cached per session)
    engine: QueryEngine


class HaltCondition(ABC):
    """Base class for halt conditions."""

    name: str = "abstract"

    @abstractmethod
    def satisfied(self, context: HaltContext) -> bool:
        """True when the session should stop."""

    def signature(self) -> Optional[tuple]:
        """Hashable description of the halting behaviour (or ``None``).

        Used by cross-session deduplication: sessions only share a
        result when their halt conditions provably stop at the same
        interaction.  The base default ``None`` marks unknown subclasses
        as not dedup-eligible.
        """
        return None

    def __call__(self, context: HaltContext) -> bool:
        return self.satisfied(context)


class NoInformativeNodeLeft(HaltCondition):
    """Stop when every node is labelled or pruned — the strongest condition.

    At that point the hypothesis is the unique query consistent with the
    examples up to the exploration bound: no further interaction can
    change it.
    """

    name = "no-informative-node"

    def signature(self) -> Optional[tuple]:
        return (self.name,)

    def satisfied(self, context: HaltContext) -> bool:
        return context.informative_remaining == 0


class UserSatisfied(HaltCondition):
    """Stop when the hypothesis' answer equals a target answer set.

    Models the weaker condition "the user is satisfied by the output of a
    candidate query on the instance".  In experiments the target answer is
    the goal query's answer; a real front-end would ask the user.
    """

    name = "user-satisfied"

    def __init__(self, target_answer):
        self.target_answer = frozenset(target_answer)

    def signature(self) -> Optional[tuple]:
        return (self.name, tuple(sorted(self.target_answer, key=str)))

    def satisfied(self, context: HaltContext) -> bool:
        if context.hypothesis is None:
            return False
        return frozenset(context.engine.evaluate(context.graph, context.hypothesis)) == self.target_answer


class GoalQueryReached(HaltCondition):
    """Stop when the hypothesis is language-equivalent to a known goal query.

    Only available in simulation (the real user does not have a formal
    goal query to compare against); used to measure exact recovery in E4.
    """

    name = "goal-reached"

    def __init__(self, goal: PathQuery):
        self.goal = goal

    def signature(self) -> Optional[tuple]:
        # the rendered expression pins the goal language (conservatively:
        # two spellings of one language get distinct signatures, which
        # only costs a dedup opportunity, never correctness)
        return (self.name, str(self.goal))

    def satisfied(self, context: HaltContext) -> bool:
        if context.hypothesis is None:
            return False
        return context.hypothesis.same_language(self.goal)


class MaxInteractions(HaltCondition):
    """Stop after a fixed budget of user interactions (safety valve)."""

    name = "max-interactions"

    def __init__(self, limit: int):
        if limit <= 0:
            raise ValueError("interaction limit must be positive")
        self.limit = limit

    def signature(self) -> Optional[tuple]:
        return (self.name, self.limit)

    def satisfied(self, context: HaltContext) -> bool:
        return context.interactions >= self.limit


class AnyOf(HaltCondition):
    """Disjunction of halt conditions."""

    name = "any-of"

    def __init__(self, conditions: Sequence[HaltCondition]):
        self.conditions = list(conditions)

    def signature(self) -> Optional[tuple]:
        return _combined_signature(self.name, self.conditions)

    def satisfied(self, context: HaltContext) -> bool:
        return any(condition.satisfied(context) for condition in self.conditions)


class AllOf(HaltCondition):
    """Conjunction of halt conditions."""

    name = "all-of"

    def __init__(self, conditions: Sequence[HaltCondition]):
        self.conditions = list(conditions)

    def signature(self) -> Optional[tuple]:
        return _combined_signature(self.name, self.conditions)

    def satisfied(self, context: HaltContext) -> bool:
        return all(condition.satisfied(context) for condition in self.conditions)


def _combined_signature(
    name: str, conditions: Sequence[HaltCondition]
) -> Optional[tuple]:
    """Signature of a combinator: defined iff every child's is."""
    parts = []
    for condition in conditions:
        part = condition.signature()
        if part is None:
            return None
        parts.append(part)
    return (name, tuple(parts))


def default_halt_condition(max_interactions: Optional[int] = None) -> HaltCondition:
    """The library default: stop when nothing informative remains
    (optionally capped by an interaction budget)."""
    base = NoInformativeNodeLeft()
    if max_interactions is None:
        return base
    return AnyOf([base, MaxInteractions(max_interactions)])
