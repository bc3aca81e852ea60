"""The interactive loop of Figure 2.

One :class:`InteractiveSession` wires together everything the paper
describes:

1. start from an empty example set;
2. until the halt condition is satisfied:
   a. choose a node ν with the strategy Υ;
   b. build its neighbourhood (distance ≤ 2 initially) and let the user
      zoom out as long as she wants;
   c. ask the user to label ν positive or negative;
   d. when positive (and path validation is enabled) show the prefix tree
      of ν's uncovered paths — bounded by the size of the last
      neighbourhood — with a highlighted candidate, and let her validate
      or correct it;
   e. propagate labels and prune uninformative nodes;
   f. learn a query consistent with all labels;
3. return the latest learned query.

The session is driven by a *user* object implementing the oracle protocol
(:class:`~repro.interactive.oracle.SimulatedUser` or a real front-end
adapter), so the same loop serves both experiments and the console demo.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.exceptions import (
    InconsistentExamplesError,
    NoCandidateNodeError,
    SessionFinishedError,
)
from repro.graph.labeled_graph import LabeledGraph, Node
from repro.graph.neighborhood import Neighborhood
from repro.interactive.halt import HaltCondition, HaltContext, default_halt_condition
from repro.interactive.oracle import SimulatedUser
from repro.interactive.strategies import MostInformativePathsStrategy, Strategy
from repro.learning.examples import ExampleSet, Word
from repro.learning.informativeness import SessionClassifier
from repro.learning.learner import DEFAULT_MAX_PATH_LENGTH, PathQueryLearner
from repro.learning.path_selection import candidate_prefix_tree
from repro.learning.propagation import propagate_to_fixpoint
from repro.query.rpq import PathQuery

#: Initial neighbourhood radius shown to the user (Figure 3(a)).
DEFAULT_INITIAL_RADIUS = 2
#: Hard cap on zooming, to keep neighbourhoods small even on large graphs.
DEFAULT_MAX_RADIUS = 6


@dataclass
class InteractionRecord:
    """Everything that happened during one interaction (one proposed node)."""

    index: int
    node: Node
    positive: bool
    zooms: int
    final_radius: int
    validated_word: Optional[Word]
    propagated_positive: int
    propagated_negative: int
    hypothesis: Optional[PathQuery]
    hypothesis_consistent: bool
    informative_remaining: int
    duration_seconds: float


@dataclass
class SessionResult:
    """Outcome of a full interactive session."""

    learned_query: Optional[PathQuery]
    records: List[InteractionRecord] = field(default_factory=list)
    halted_by: str = "exhausted"
    inconsistent: bool = False
    #: True when this result was adopted from an identical session's run
    #: (cross-session deduplication) instead of executing the loop itself
    deduped: bool = False
    #: True when the supervisor quarantined the session (its oracle kept
    #: failing); the result then carries the partial trace up to the last
    #: completed interaction and is never shared through the dedup memo
    quarantined: bool = False

    @property
    def interactions(self) -> int:
        """Number of node-labelling interactions performed."""
        return len(self.records)

    @property
    def total_zooms(self) -> int:
        """Total zoom-out requests across all interactions."""
        return sum(record.zooms for record in self.records)

    @property
    def total_time(self) -> float:
        """Total wall-clock time spent computing between interactions."""
        return sum(record.duration_seconds for record in self.records)

    def interaction_trace(self) -> List[Tuple[Node, str]]:
        """Compact ``(node, '+'/'-')`` trace for transcripts and tests."""
        return [(record.node, "+" if record.positive else "-") for record in self.records]


class InteractiveSession:
    """Drives the Figure 2 loop on one graph with one (simulated) user.

    Shared, read-mostly components — the query engine, language indexes,
    the neighbourhood index — are drawn from a
    :class:`~repro.serving.workspace.GraphWorkspace`.
    Pass ``workspace=`` to make sharing explicit (a
    :class:`~repro.serving.manager.SessionManager` admits every session
    over its own workspace); without one the session uses the process
    default workspace, so single-session scripts share caches exactly as
    before.

    Per-session state is only the :class:`ExampleSet`, its
    :class:`~repro.learning.informativeness.SessionClassifier`, the
    current hypothesis and the interaction records.  ``max_path_length``
    is the one path bound of the classifier, label propagation and the
    learner.  To isolate a session's engine, pass
    ``workspace=GraphWorkspace(engine=QueryEngine())``: the workspace
    isolates the language and neighbourhood indexes with it.
    """

    def __init__(
        self,
        graph: LabeledGraph,
        user: SimulatedUser,
        *,
        strategy: Optional[Strategy] = None,
        halt_condition: Optional[HaltCondition] = None,
        path_validation: bool = True,
        max_path_length: int = DEFAULT_MAX_PATH_LENGTH,
        initial_radius: int = DEFAULT_INITIAL_RADIUS,
        max_radius: int = DEFAULT_MAX_RADIUS,
        max_interactions: Optional[int] = None,
        workspace=None,
    ):
        from repro.serving.workspace import default_workspace

        self.graph = graph
        self.user = user
        if workspace is None:
            workspace = default_workspace()
        #: the GraphWorkspace every shared component is drawn from
        self.workspace = workspace
        #: query engine shared by the learner, halt conditions and metrics
        #: of this session — one answer cache for the whole loop
        self.engine = workspace.engine
        #: incremental neighbourhood/zoom index shared by the session's
        #: zoom ladder, the eccentricity cap and the figure harness —
        #: one BFS per (version, center, directed) for the whole loop
        self.neighborhoods = workspace.neighborhoods(graph)
        self.strategy = strategy or MostInformativePathsStrategy()
        self.halt_condition = halt_condition or default_halt_condition(max_interactions)
        self.path_validation = path_validation
        self.max_path_length = max_path_length
        self.initial_radius = initial_radius
        self.max_radius = max_radius
        self.examples = ExampleSet()
        #: incremental informativeness classifier read by the proposal
        #: strategy, propagation and the halt check — one per-node status
        #: table over the workspace's language index for the whole loop,
        #: updated per interaction delta
        self.classifier = SessionClassifier(
            graph,
            self.examples,
            max_length=max_path_length,
            index_provider=workspace.language_index,
        )
        self.learner = PathQueryLearner(
            graph, max_path_length=max_path_length, workspace=workspace
        )
        self.hypothesis: Optional[PathQuery] = None
        self.records: List[InteractionRecord] = []
        self._finished = False
        self._halted_by = "exhausted"
        self._inconsistent = False

    # ------------------------------------------------------------------
    # loop control
    # ------------------------------------------------------------------
    def _informative_remaining(self) -> int:
        return self.classifier.informative_count()

    def _halt_context(self) -> HaltContext:
        return HaltContext(
            graph=self.graph,
            examples=self.examples,
            hypothesis=self.hypothesis,
            interactions=len(self.records),
            informative_remaining=self._informative_remaining(),
            engine=self.engine,
        )

    def should_halt(self) -> bool:
        """Evaluate the halt condition on the current state."""
        context = self._halt_context()
        if context.informative_remaining == 0:
            self._halted_by = "no-informative-node"
            return True
        if self.halt_condition.satisfied(context):
            self._halted_by = self.halt_condition.name
            return True
        return False

    def run(self) -> SessionResult:
        """Run interactions until the halt condition is satisfied."""
        if self._finished:
            raise SessionFinishedError("this session has already been run")
        while self.advance():
            pass
        return self.finish()

    def advance(self) -> bool:
        """Perform one interaction; ``False`` when the session has halted.

        This is the unit the async :class:`~repro.serving.manager
        .SessionManager` drives — one ``advance()`` per scheduler slot,
        with an await point in between.  Halting by candidate exhaustion
        (the strategy has nothing left to propose) is absorbed here, like
        in :meth:`run`.
        """
        if self._finished:
            raise SessionFinishedError("this session has already been run")
        if self.should_halt():
            return False
        try:
            self.step()
        except NoCandidateNodeError:
            self._halted_by = "no-candidate"
            return False
        return True

    def finish(self) -> SessionResult:
        """Seal the session and return its :class:`SessionResult`.

        Idempotent once the loop is over; :meth:`run` is exactly
        ``while self.advance(): pass`` followed by ``finish()``.
        """
        self._finished = True
        return SessionResult(
            learned_query=self.hypothesis,
            records=self.records,
            halted_by=self._halted_by,
            inconsistent=self._inconsistent,
        )

    def abort(self, reason: str = "aborted") -> SessionResult:
        """Seal the session early with a partial-result trace.

        Graceful degradation for supervised serving: when the
        :class:`~repro.serving.manager.SessionManager` quarantines a
        session whose oracle keeps failing, the session still returns
        every interaction completed so far plus the latest hypothesis,
        flagged ``quarantined`` so downstream consumers (and the dedup
        memo) can tell it apart from a clean run.  Safe to call even on
        an already-finished session (the reason then updates the trace).
        """
        self._finished = True
        self._halted_by = reason
        return SessionResult(
            learned_query=self.hypothesis,
            records=self.records,
            halted_by=reason,
            inconsistent=self._inconsistent,
            quarantined=True,
        )

    # ------------------------------------------------------------------
    # one interaction
    # ------------------------------------------------------------------
    def step(self) -> InteractionRecord:
        """Perform one interaction (steps 3–6 of Figure 2)."""
        if self._finished:
            raise SessionFinishedError("this session has already been run")
        started = time.perf_counter()

        node = self.strategy.propose(self.classifier)
        neighborhood, zooms = self._present_neighborhood(node)
        positive = self.user.label(node)

        validated_word: Optional[Word] = None
        if positive:
            if self.path_validation:
                validated_word = self._validate_path(node, neighborhood)
            self.examples.add_positive(node, validated_word=validated_word)
        else:
            self.examples.add_negative(node)

        propagation_rounds = propagate_to_fixpoint(self.classifier)
        propagated_positive = sum(len(round_.implied_positive) for round_ in propagation_rounds)
        propagated_negative = sum(len(round_.implied_negative) for round_ in propagation_rounds)

        hypothesis_consistent = True
        try:
            outcome = self.learner.learn(self.examples)
            self.hypothesis = outcome.query
            hypothesis_consistent = outcome.consistent
        except InconsistentExamplesError:
            # keep the previous hypothesis; flag the session (can only
            # happen with noisy users or static labelling)
            hypothesis_consistent = False
            self._inconsistent = True

        record = InteractionRecord(
            index=len(self.records) + 1,
            node=node,
            positive=positive,
            zooms=zooms,
            final_radius=neighborhood.radius,
            validated_word=validated_word,
            propagated_positive=propagated_positive,
            propagated_negative=propagated_negative,
            hypothesis=self.hypothesis,
            hypothesis_consistent=hypothesis_consistent,
            informative_remaining=self._informative_remaining(),
            duration_seconds=time.perf_counter() - started,
        )
        self.records.append(record)
        return record

    # ------------------------------------------------------------------
    # sub-steps
    # ------------------------------------------------------------------
    def _present_neighborhood(self, node: Node) -> Tuple[Neighborhood, int]:
        """Show neighbourhoods of increasing radius while the user asks to zoom.

        The whole ladder (eccentricity cap + every zoom level) runs on
        the session's shared :class:`NeighborhoodIndex`, so it costs one
        BFS per proposed node instead of one per zoom level.
        """
        index = self.neighborhoods
        radius_cap = min(
            self.max_radius, max(self.initial_radius, index.eccentricity_bound(node))
        )
        radius = min(self.initial_radius, radius_cap)
        neighborhood = index.neighborhood(node, radius)
        zooms = 0
        while radius < radius_cap and self.user.wants_zoom(node, neighborhood):
            radius += 1
            neighborhood = index.neighborhood(node, radius)
            zooms += 1
        return neighborhood, zooms

    def _validate_path(self, node: Node, neighborhood: Neighborhood) -> Optional[Word]:
        """Build the Figure 3(c) prefix tree and let the user validate a path.

        The word-length bound is the size (radius) of the last neighbourhood
        the user saw; when no word of the tree satisfies the user, the
        bound is raised to the learner's maximum once before giving up.
        """
        for bound in (neighborhood.radius, self.max_path_length):
            tree = candidate_prefix_tree(
                self.graph,
                node,
                self.examples.negative_nodes,
                max_length=bound,
                preferred_length=neighborhood.radius,
                index=self.workspace.language_index(self.graph, bound),
            )
            choice = self.user.validate_path(node, tree)
            if choice is not None:
                return choice
            if bound >= self.max_path_length:
                break
        return None
