"""The three benchmark workloads: seeded inputs, one measured round, checks.

Each workload has an ``*_inputs(seed, sizes)`` function, which generates
the graphs and goal queries before any timing starts, and a
``*_round(inputs, probe)`` function, which sets the sessions up, drives
them to their halt and checks the outputs, returning a :class:`Round`.  A round always replays the same
inputs on fresh graph copies, fresh workspaces and fresh canonical-form
caches, so repeated rounds in one run are identical work and their
traces must be identical.

Goals are generated on a throw-away copy of each graph and checked on
the process default workspace, which no round ever uses, so generating
them warms nothing the round measures.  shared-tenants takes
:func:`generate_workload`'s goals; cold-solo and churn-live, which run
few sessions, take one goal per query family in :data:`SHAPES` over a
seeded permutation of the alphabet, so that the seed changes the graph
and the labels but not the mix of goal shapes a run averages over.

Output checks run with the probe switched off and outside every timed
region.  A failed check counts against ``error_rate``; the learned
answer set differing from the goal's is a quality figure
(``goal_match_rate``, ``answer_f1``), not a failure.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Sequence, Tuple

from repro import GraphWorkspace, InteractiveSession, SessionManager, SimulatedUser, default_workspace
from repro.automata.canonical import CanonicalFormCache
from repro.graph.generators import random_graph, scale_free_graph
from repro.learning.consistency import check_consistency
from repro.learning.language_index import LanguageIndex
from repro.query.engine import QueryEngine
from repro.workloads.churn import ChurnStream
from repro.workloads.queries import generate_workload

from tracing import Probe, cache_counters, set_session

ALPHABET = ("a", "b", "c", "d")

#: one goal shape per query family of :mod:`repro.workloads.queries`,
#: over distinct labels ``{0}``, ``{1}``, ``{2}``
SHAPES: Dict[str, str] = {
    "single": "{0}",
    "concat": "{0} . {1}",
    "disjunction": "{0} + {1}",
    "star-prefix": "({0} + {1})* . {2}",
    "star-chain": "{0}* . {1}",
    "optional": "{0}? . {1}",
    "plus": "{0}+ . {1}",
}


#: cold-solo: edges per node, seeded label permutations of the families
COLD_EDGES_PER_NODE = 3
COLD_PERMUTATIONS = 2
COLD_MAX_PATH_LENGTH = 3
#: shared-tenants: admissions of each goal (the second is a dedup twin)
TENANT_COPIES = 2
TENANT_MAX_PATH_LENGTH = 4
#: churn-live: edges retired and admitted per tick, goal families cycled
CHURN = 4
CHURN_FAMILIES = ("single", "concat", "disjunction", "optional")
CHURN_MAX_PATH_LENGTH = 3


@dataclass(frozen=True)
class ColdSoloSizes:
    nodes: int = 1200
    families: Tuple[str, ...] = tuple(SHAPES)


@dataclass(frozen=True)
class SharedTenantsSizes:
    graph_nodes: Tuple[int, ...] = (180, 240, 300)
    per_family: int = 3


@dataclass(frozen=True)
class ChurnLiveSizes:
    nodes: int = 1600
    window: int = 4000
    ticks: int = 120


@dataclass
class Round:
    """What one round measured, plus its checks."""

    #: ``(start, end)`` of each set-up and of each stretch of driving
    setups: List[Tuple[float, float]] = field(default_factory=list)
    drives: List[Tuple[float, float]] = field(default_factory=list)
    sessions: int = 0
    interactions: List[int] = field(default_factory=list)
    matches: List[bool] = field(default_factory=list)
    f1: List[float] = field(default_factory=list)
    #: ``(session label, ((node, '+'/'-'), ...), learned query)`` in run order
    traces: List[Tuple[str, Tuple[Tuple[str, str], ...], str]] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: sessions that ended flagged inconsistent with no bounded query left
    abstained: int = 0
    problems: List[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def error(self, what: str) -> None:
        """Record a failed operation (the traceback goes to stderr)."""
        self.attempted += 1
        self.failed += 1
        self.problems.append(what)
        traceback.print_exc(file=sys.stderr)

    def add_counters(self, counters: Dict[str, int]) -> None:
        for key, value in counters.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def record(self, label: str, graph, goal: str, result) -> None:
        """Quality of a halted session, judged by a fresh engine."""
        learned, wanted = _answer(graph, result.learned_query), _answer(graph, goal)
        self.sessions += 1
        self.interactions.append(result.interactions)
        self.matches.append(learned == wanted)
        both = len(learned & wanted)
        self.f1.append(2 * both / (len(learned) + len(wanted)) if learned or wanted else 1.0)
        trace = tuple((str(node), sign) for node, sign in result.interaction_trace())
        self.traces.append((label, trace, str(result.learned_query)))

    def digest(self) -> str:
        payload = json.dumps(self.traces, sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


def _answer(graph, query) -> frozenset:
    """Answer set from a fresh engine: the checks never trust a cache."""
    if query is None:
        return frozenset()
    return frozenset(QueryEngine().evaluate(graph, query))


def _shaped_goals(graph, families: Sequence[str], permutations: int, seed: int) -> List[str]:
    """Goals of :data:`SHAPES` over seeded label permutations.

    A goal selecting no node, or every node, of ``graph`` is skipped, as
    :func:`generate_workload` does.
    """
    rng = random.Random(seed)
    probe_graph = graph.copy()
    engine = default_workspace().engine
    goals = []
    for _ in range(permutations):
        labels = rng.sample(ALPHABET, len(ALPHABET))
        for family in families:
            goal = SHAPES[family].format(*labels)
            if 0 < len(engine.evaluate(probe_graph, goal)) < probe_graph.node_count:
                goals.append(goal)
    return goals


def _admits_bounded_query(graph, examples, bound: int) -> bool:
    """Some query over words of length <= ``bound`` fits the labels.

    True when every positive node spells a word of at most ``bound``
    symbols that no negative node spells (read off a fresh
    :class:`LanguageIndex`).  When it is False the learner, whose words
    are bounded so, has no consistent query to give and must abstain.
    """
    negatives = [node for node in examples.negative_nodes if node in graph]
    if not negatives:
        return True
    index = LanguageIndex(graph, bound)
    banned = set().union(*(index.decode(index.language(node)) for node in negatives))
    return all(index.decode(index.language(node)) - banned for node in examples.positive_nodes)


def _check_session(round_: Round, label: str, graph, goal: str, session, result) -> None:
    """Frozen-graph checks of the final hypothesis against the session's labels.

    Two checks, judged by :func:`check_consistency` on a fresh engine.
    First, the hypothesis is consistent with the labels, or the session
    abstained: it flags itself inconsistent (``result.inconsistent``) and
    no query over words of at most ``max_path_length`` symbols fits the
    labels (:func:`_admits_bounded_query`), as happens when the goal
    selects a node only by a longer path.  Second, the session's last
    interaction record (``hypothesis_consistent``) says the same as the
    fresh check.
    """
    reported_consistent = not result.records or result.records[-1].hypothesis_consistent
    if result.learned_query is not None:
        report = check_consistency(graph, result.learned_query, session.examples, engine=QueryEngine())
        abstained = (
            not report.consistent
            and result.inconsistent
            and not _admits_bounded_query(graph, session.examples, session.max_path_length)
        )
        round_.check(report.consistent or abstained, f"{label}: final hypothesis {report.explain()}")
        round_.abstained += abstained
        round_.check(
            report.consistent == reported_consistent,
            f"{label}: reported consistent={reported_consistent}, but {report.explain()}",
        )
    round_.record(label, graph, goal, result)


# ----------------------------------------------------------------------
# cold-solo: one user, one big graph, a cold workspace per goal
# ----------------------------------------------------------------------
def cold_solo_inputs(seed: int, sizes: ColdSoloSizes = ColdSoloSizes()) -> Dict[str, Any]:
    nodes = sizes.nodes
    graph = random_graph(
        nodes, nodes * COLD_EDGES_PER_NODE, ALPHABET, seed=seed, name=f"random-{nodes}"
    )
    goals = _shaped_goals(graph, sizes.families, COLD_PERMUTATIONS, seed)
    return {"graphs": [graph], "goals": goals}


def cold_solo_round(inputs: Dict[str, Any], probe: Probe) -> Round:
    round_ = Round()
    graph = inputs["graphs"][0].copy()
    kept = []  # sessions stay alive until the round ends (probe keys on id())
    for position, goal in enumerate(inputs["goals"]):
        label = f"goal{position}"
        set_session(label)
        try:
            probe.meter.refresh()
            started = perf_counter()
            workspace = GraphWorkspace(canonical=CanonicalFormCache())
            user = SimulatedUser(graph, goal, workspace=workspace)
            session = InteractiveSession(
                graph, user, max_path_length=COLD_MAX_PATH_LENGTH, workspace=workspace
            )
            round_.setups.append((started, perf_counter()))
            started = perf_counter()
            while session.advance():
                pass
            result = session.finish()
            round_.drives.append((started, perf_counter()))
        except Exception:
            round_.error(f"{label}: session raised")
            continue
        kept.append(session)
        round_.add_counters(cache_counters(workspace))
        probe.recording, recording = False, probe.recording
        _check_session(round_, label, graph, goal, session, result)
        probe.recording = recording
    set_session(None)
    return round_


# ----------------------------------------------------------------------
# shared-tenants: one workspace and manager, three graphs, twin sessions
# ----------------------------------------------------------------------
def shared_tenants_inputs(
    seed: int, sizes: SharedTenantsSizes = SharedTenantsSizes()
) -> Dict[str, Any]:
    graphs, goals = [], []
    for position, nodes in enumerate(sizes.graph_nodes):
        graph_seed = seed * 31 + position
        graph = scale_free_graph(nodes, ALPHABET, seed=graph_seed, name=f"scale-free-{nodes}")
        graphs.append(graph)
        workload = generate_workload(graph.copy(), per_family=sizes.per_family, seed=graph_seed)
        goals.append([goal.expression for goal in workload])
    return {"graphs": graphs, "goals": goals}


def _admit_tenants(inputs: Dict[str, Any], graphs) -> Tuple[SessionManager, Dict[str, tuple]]:
    workspace = GraphWorkspace(canonical=CanonicalFormCache())
    manager = SessionManager(workspace)
    admitted: Dict[str, tuple] = {}
    for copy in range(TENANT_COPIES):
        for tenant, (graph, goals) in enumerate(zip(graphs, inputs["goals"])):
            for position, goal in enumerate(goals):
                session_id = f"t{tenant}.g{position:02d}.c{copy}"
                user = SimulatedUser(graph, goal, workspace=workspace)
                manager.admit(
                    graph, user, session_id=session_id, max_path_length=TENANT_MAX_PATH_LENGTH
                )
                admitted[session_id] = (graph, goal)
    return manager, admitted


def shared_tenants_setup(inputs: Dict[str, Any]) -> Tuple[float, float]:
    """One discarded set-up (extra samples for ``setup_s``)."""
    graphs = [graph.copy() for graph in inputs["graphs"]]
    started = perf_counter()
    _admit_tenants(inputs, graphs)
    return started, perf_counter()


def shared_tenants_round(inputs: Dict[str, Any], probe: Probe) -> Round:
    round_ = Round()
    graphs = [graph.copy() for graph in inputs["graphs"]]
    probe.meter.refresh()
    started = perf_counter()
    manager, admitted = _admit_tenants(inputs, graphs)
    round_.setups.append((started, perf_counter()))
    started = perf_counter()
    try:
        asyncio.run(manager.drive_all())
    except Exception:
        round_.error("drive_all raised")
        return round_
    round_.drives.append((started, perf_counter()))
    round_.add_counters(cache_counters(manager.workspace, manager))
    probe.recording, recording = False, probe.recording
    follower = None
    for session_id, (graph, goal) in admitted.items():
        result = manager.result(session_id)
        if result is None:
            round_.check(False, f"{session_id}: no result")
            continue
        if result.deduped:
            round_.record(session_id, graph, goal, result)
            follower = follower or (session_id, graph, goal, result)
        else:
            _check_session(round_, session_id, graph, goal, manager.session(session_id), result)
    if follower is not None:
        _check_alone(round_, *follower)
    probe.recording = recording
    return round_


def _check_alone(round_: Round, session_id: str, graph, goal: str, adopted) -> None:
    """A dedup follower's adopted result equals its session run on its own."""
    manager = SessionManager(GraphWorkspace(canonical=CanonicalFormCache()), dedup=False)
    user = SimulatedUser(graph, goal, workspace=manager.workspace)
    manager.admit(graph, user, session_id=session_id, max_path_length=TENANT_MAX_PATH_LENGTH)
    try:
        asyncio.run(manager.drive_all())
    except Exception:
        round_.error(f"{session_id}: run alone raised")
        return
    alone = manager.result(session_id)
    round_.check(
        (alone.interaction_trace(), str(alone.learned_query))
        == (adopted.interaction_trace(), str(adopted.learned_query)),
        f"{session_id}: adopted result differs from the session run alone",
    )


# ----------------------------------------------------------------------
# churn-live: a sliding-window edge stream under one live session
# ----------------------------------------------------------------------
def churn_live_inputs(seed: int, sizes: ChurnLiveSizes = ChurnLiveSizes()) -> Dict[str, Any]:
    stream = ChurnStream(
        node_count=sizes.nodes,
        alphabet=ALPHABET,
        window=sizes.window,
        churn=CHURN,
        tick_count=sizes.ticks,
        seed=seed,
    )
    goals = _shaped_goals(stream.initial_graph(), CHURN_FAMILIES, 1, seed)
    return {"stream": stream, "goals": goals}


def _churn_admit(inputs, graph, workspace, position: int):
    goals: Sequence[str] = inputs["goals"]
    goal = goals[position % len(goals)]
    user = SimulatedUser(graph, goal, workspace=workspace)
    session = InteractiveSession(
        graph, user, max_path_length=CHURN_MAX_PATH_LENGTH, workspace=workspace
    )
    return goal, session


def churn_live_setup(inputs: Dict[str, Any]) -> Tuple[float, float]:
    """One discarded set-up (extra samples for ``setup_s``)."""
    graph = inputs["stream"].initial_graph()
    started = perf_counter()
    _churn_admit(inputs, graph, GraphWorkspace(canonical=CanonicalFormCache()), 0)
    return started, perf_counter()


def churn_live_round(inputs: Dict[str, Any], probe: Probe) -> Round:
    round_ = Round()
    stream: ChurnStream = inputs["stream"]
    graph = stream.initial_graph()
    probe.meter.refresh()
    started = perf_counter()
    workspace = GraphWorkspace(canonical=CanonicalFormCache())
    position = 0
    goal, session = _churn_admit(inputs, graph, workspace, position)
    round_.setups.append((started, perf_counter()))
    kept = [session]
    learned = []
    started = perf_counter()
    try:
        for tick in stream.ticks():
            set_session(f"session{position}")
            tick.apply(graph)
            workspace.refresh(graph)
            for _ in inputs["goals"]:  # a fresh session may halt at once
                if session.advance():
                    break
                result = session.finish()
                round_.drives.append((started, perf_counter()))
                probe.recording, recording = False, probe.recording
                round_.record(f"session{position}", graph, goal, result)
                learned.append(result.learned_query)
                probe.recording = recording
                started = perf_counter()
                position += 1
                set_session(f"session{position}")
                goal, session = _churn_admit(inputs, graph, workspace, position)
                kept.append(session)
    except Exception:
        round_.error(f"session{position}: tick raised")
        set_session(None)
        return round_
    round_.drives.append((started, perf_counter()))
    set_session(None)
    round_.add_counters(cache_counters(workspace))
    probe.recording, recording = False, probe.recording
    _check_scratch_rebuild(round_, graph, workspace, probe, learned, inputs["goals"])
    probe.recording = recording
    return round_


def _check_scratch_rebuild(round_: Round, graph, workspace, probe: Probe, learned, goals) -> None:
    """The refreshed end state equals a from-scratch rebuild on the final graph."""
    bounds = sorted(bound for graph_id, bound in probe.bounds_seen if graph_id == id(graph))
    for bound in bounds:
        refreshed = workspace.language_index(graph, bound)
        fresh = LanguageIndex(graph, bound)
        same = all(
            refreshed.decode(refreshed.language(node)) == fresh.decode(fresh.language(node))
            for node in graph.nodes()
        )
        round_.check(same, f"language index rows differ at bound {bound}")
    for query in [*goals, *(query for query in learned if query is not None)]:
        round_.check(
            frozenset(workspace.engine.evaluate(graph, query)) == _answer(graph, query),
            f"cached answer of {query} differs from a fresh engine",
        )


#: name -> (inputs, round, extra set-up or None, size class)
WORKLOADS: Dict[str, tuple] = {
    "cold-solo": (cold_solo_inputs, cold_solo_round, None, ColdSoloSizes),
    "shared-tenants": (shared_tenants_inputs, shared_tenants_round, shared_tenants_setup, SharedTenantsSizes),
    "churn-live": (churn_live_inputs, churn_live_round, churn_live_setup, ChurnLiveSizes),
}


def input_fingerprint(inputs: Dict[str, Any]) -> str:
    """Digest of a workload's generated inputs (graphs and goals)."""
    digest = hashlib.sha256()
    graphs = inputs.get("graphs") or [inputs["stream"].initial_graph()]
    for graph in graphs:
        digest.update(repr(sorted(graph.edges())).encode())
    digest.update(repr(inputs["goals"]).encode())
    if "stream" in inputs:
        digest.update(repr([(tick.admit, tick.retire) for tick in inputs["stream"].ticks()]).encode())
    return digest.hexdigest()[:16]
