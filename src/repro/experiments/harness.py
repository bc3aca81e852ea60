"""Experiment harness: the evaluation-style experiments E1–E5 of DESIGN.md.

The harness is layered so serial and parallel execution share one code
path:

* ``*_unit_rows`` / ``*_unit_row`` functions compute the rows of one
  self-contained *experiment unit* — one (dataset, goal, strategy) cell
  of E1, one (dataset, goal) case of E2, one graph size of E3, … — from
  nothing but plain parameters.  They are what
  :class:`repro.experiments.runner.ExperimentRunner` executes in worker
  processes.
* ``run_e*`` functions iterate units serially and return
  :class:`~repro.experiments.metrics.ResultTable` objects (plus, where
  useful, an aggregated companion table).  The benchmark scripts under
  ``benchmarks/`` call these functions and print the tables;
  EXPERIMENTS.md records representative outputs and compares their shape
  with the paper's claims.
* :func:`run_everything` is a thin wrapper over the runner (workers=1 by
  default) and accepts ``workers``/``store`` to fan out over processes
  and stream rows into a JSONL result store.

``SUMMARY_SPECS`` centralises the group-by aggregation of each
experiment so the runner's merged tables summarise identically to the
serial harness.
"""

from __future__ import annotations

import time
import zlib
from statistics import mean
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.experiments.metrics import ResultTable, Row, fraction_true, latency_summary
from repro.graph.generators import random_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.interactive.oracle import SimulatedUser
from repro.interactive.scenarios import (
    run_all_scenarios,
    run_interactive_with_validation,
    run_interactive_without_validation,
    run_static_labeling,
)
from repro.interactive.session import InteractiveSession
from repro.interactive.strategies import make_strategy
from repro.automata.state_merging import rpni
from repro.query.rpq import PathQuery
from repro.serving.workspace import GraphWorkspace, default_workspace
from repro.workloads.generator import WorkloadCase, quick_suite

QueryLike = Union[str, PathQuery]

#: Strategies compared in E1 (ordered from least to most informed).
E1_STRATEGIES: Sequence[str] = ("random", "random-informative", "breadth", "degree", "most-informative")

#: Group-by keys and reducers per experiment, shared with the runner so
#: merged parallel results aggregate exactly like the serial harness.
SUMMARY_SPECS: Dict[str, Tuple[Sequence[str], Dict[str, Callable[[List[float]], float]]]] = {
    "e1": (("strategy",), {"interactions": mean, "reached": fraction_true, "f1": mean}),
    "e2": (("interaction",), {"saved_fraction": mean, "informative_remaining": mean, "propagated": mean}),
    "e4": (("variant",), {"exact_goal": fraction_true, "f1": mean, "interactions": mean}),
    "scenarios": (("scenario",), {"interactions": mean, "instance_f1": mean, "exact_goal": fraction_true}),
}

#: Detail-table titles per experiment, shared with the runner.
TABLE_TITLES: Dict[str, str] = {
    "e1": "E1 — interactions to reach the goal answer",
    "e2": "E2 — pruning / propagation of uninformative nodes per interaction",
    "e3": "E3 — per-interaction latency vs graph size",
    "e4": "E4 — path validation vs no validation",
    "e5": "E5 — learner cost vs sample size",
    "scenarios": "Demonstration scenarios — Section 3 comparison",
    "churn": "Churn — warm-tick refresh under sliding-window edge streams",
}

#: Per-experiment unit budgets, shared between the ``run_e*`` defaults
#: and the runner's plan expansion so the two paths cannot silently
#: drift apart.
E1_DEFAULTS: Dict[str, int] = {"max_interactions": 60, "max_path_length": 4}
E2_DEFAULTS: Dict[str, int] = {"max_interactions": 25, "max_path_length": 4}
E3_DEFAULTS: Dict[str, int] = {"edge_factor": 3, "alphabet_size": 4, "max_path_length": 3, "interactions": 5}
E4_DEFAULTS: Dict[str, int] = {"max_interactions": 40, "max_path_length": 4}
E5_DEFAULTS: Dict[str, int] = {"word_length": 5, "alphabet_size": 3}
SCENARIO_DEFAULTS: Dict[str, int] = {"max_interactions": 40, "max_path_length": 4}
CHURN_DEFAULTS: Dict[str, int] = {
    "window": 60,
    "churn": 4,
    "tick_count": 12,
    "alphabet_size": 4,
    "max_path_length": 3,
}


def _coerce_query(goal: QueryLike) -> PathQuery:
    return goal if isinstance(goal, PathQuery) else PathQuery(goal)


def derive_unit_seed(base_seed: int, *parts: object) -> int:
    """A deterministic, process-independent seed for one experiment unit.

    Mixes ``base_seed`` with a CRC32 of the unit descriptor so every unit
    gets an independent stream regardless of execution order or process.
    """
    descriptor = ":".join(str(part) for part in parts)
    return (base_seed * 1_000_003 + zlib.crc32(descriptor.encode("utf-8"))) % (2**31)


# ----------------------------------------------------------------------
# E1 — interactions to convergence, per strategy (and vs static labelling)
# ----------------------------------------------------------------------
def e1_unit_rows(
    graph: LabeledGraph,
    goal: QueryLike,
    *,
    dataset: str,
    family: str,
    strategy: str,
    max_interactions: int = E1_DEFAULTS["max_interactions"],
    max_path_length: int = E1_DEFAULTS["max_path_length"],
    seed: int = 17,
    workspace: Optional[GraphWorkspace] = None,
) -> List[Row]:
    """One E1 cell: one (dataset, goal) case under one strategy.

    ``strategy`` may be ``"static"`` for the static-labelling baseline or
    any name from the strategy registry.  Every unit draws its shared
    components (query engine, language indexes) from ``workspace`` — the
    process-wide default when omitted, so serial runs on the same graph
    keep hitting warm caches.
    """
    goal_query = _coerce_query(goal)
    workspace = workspace if workspace is not None else default_workspace()
    if strategy == "static":
        report = run_static_labeling(
            graph, goal_query, seed=seed, max_path_length=max_path_length,
            label_budget=max_interactions, workspace=workspace,
        )
    else:
        report = run_interactive_with_validation(
            graph,
            goal_query,
            strategy=make_strategy(strategy, seed=seed),
            max_interactions=max_interactions,
            max_path_length=max_path_length,
            workspace=workspace,
        )
    row: Row = {
        "dataset": dataset,
        "family": family,
        "goal": str(goal_query),
        "strategy": strategy,
        "interactions": report.interactions,
        "reached": report.metrics.get("f1", 0.0) == 1.0,
        "f1": round(report.metrics.get("f1", 0.0), 3),
    }
    # per-interaction system latency percentiles — the paper's
    # "time-efficient between interactions" requirement, tracked per cell
    # so a regression in the incremental loop shows up in CI artifacts
    row.update(latency_summary(report.interaction_latencies))
    return [row]


def run_e1_interactions_by_strategy(
    cases: Optional[List[WorkloadCase]] = None,
    *,
    strategies: Sequence[str] = E1_STRATEGIES,
    max_interactions: int = E1_DEFAULTS["max_interactions"],
    max_path_length: int = E1_DEFAULTS["max_path_length"],
    seed: int = 17,
) -> Dict[str, ResultTable]:
    """E1: number of user interactions needed to reach the goal answer.

    For every (dataset, goal) case we run the interactive loop once per
    strategy, plus the static-labelling baseline, and count the labelling
    interactions until the hypothesis returns the user's intended answer
    set (or the budget runs out).  ``seed`` is a *base* seed: every
    (case, strategy) cell derives its own independent seed from it, the
    same derivation the parallel runner uses, so serial and runner
    results agree row-for-row.
    """
    cases = cases if cases is not None else quick_suite(seed)
    table = ResultTable(TABLE_TITLES["e1"])
    for case in cases:
        for strategy_name in ("static", *strategies):
            table.extend(
                e1_unit_rows(
                    case.graph,
                    case.goal.query,
                    dataset=case.dataset,
                    family=case.goal.family,
                    strategy=strategy_name,
                    max_interactions=max_interactions,
                    max_path_length=max_path_length,
                    seed=derive_unit_seed(seed, "e1", case.dataset, case.goal.expression, strategy_name),
                )
            )
    keys, reducers = SUMMARY_SPECS["e1"]
    return {"detail": table, "summary": table.group_by(keys, reducers)}


# ----------------------------------------------------------------------
# E2 — pruning effectiveness after each interaction
# ----------------------------------------------------------------------
def e2_unit_rows(
    graph: LabeledGraph,
    goal: QueryLike,
    *,
    dataset: str,
    max_interactions: int = E2_DEFAULTS["max_interactions"],
    max_path_length: int = E2_DEFAULTS["max_path_length"],
    workspace: Optional[GraphWorkspace] = None,
) -> List[Row]:
    """One E2 case: per-interaction pruning/propagation rows for one goal."""
    goal_query = _coerce_query(goal)
    workspace = workspace if workspace is not None else default_workspace()
    user = SimulatedUser(graph, goal_query, workspace=workspace)
    session = InteractiveSession(
        graph,
        user,
        max_path_length=max_path_length,
        max_interactions=max_interactions,
        workspace=workspace,
    )
    node_count = graph.node_count
    rows: List[Row] = []
    while not session.should_halt():
        record = session.step()
        user_labeled = len(session.examples.user_positive_nodes) + len(
            session.examples.user_negative_nodes
        )
        still_pruned = sum(status.pruned for status in session.classifier.statuses().values())
        propagated = len(session.examples.labeled_nodes) - user_labeled
        settled = propagated + still_pruned
        remaining_pool = max(node_count - user_labeled, 1)
        rows.append(
            {
                "dataset": dataset,
                "goal": str(goal_query),
                "interaction": record.index,
                "user_labeled": user_labeled,
                "propagated": propagated,
                "saved_fraction": round(settled / remaining_pool, 3),
                "informative_remaining": record.informative_remaining,
            }
        )
    return rows


def run_e2_pruning(
    cases: Optional[List[WorkloadCase]] = None,
    *,
    max_interactions: int = E2_DEFAULTS["max_interactions"],
    max_path_length: int = E2_DEFAULTS["max_path_length"],
    seed: int = 19,
) -> Dict[str, ResultTable]:
    """E2: fraction of nodes the user never has to label, per interaction.

    After each interaction the session propagates implied labels and prunes
    uninformative nodes; the *saved fraction* reported here is the share of
    the not-yet-user-labelled nodes whose label is already settled (either
    propagated automatically or pruned as uninformative), i.e. questions the
    user will never be asked.
    """
    cases = cases if cases is not None else quick_suite(seed)
    table = ResultTable(TABLE_TITLES["e2"])
    for case in cases:
        table.extend(
            e2_unit_rows(
                case.graph,
                case.goal.query,
                dataset=case.dataset,
                max_interactions=max_interactions,
                max_path_length=max_path_length,
            )
        )
    keys, reducers = SUMMARY_SPECS["e2"]
    return {"detail": table, "summary": table.group_by(keys, reducers)}


# ----------------------------------------------------------------------
# E3 — per-interaction latency as the graph grows
# ----------------------------------------------------------------------
def e3_unit_row(
    node_count: int,
    *,
    edge_factor: int = E3_DEFAULTS["edge_factor"],
    alphabet_size: int = E3_DEFAULTS["alphabet_size"],
    max_path_length: int = E3_DEFAULTS["max_path_length"],
    interactions: int = E3_DEFAULTS["interactions"],
    seed: int = 23,
    workspace: Optional[GraphWorkspace] = None,
) -> Row:
    """One E3 cell: latency of a few interactions on one random graph size."""
    alphabet = [chr(ord("a") + index) for index in range(alphabet_size)]
    graph = random_graph(
        node_count, node_count * edge_factor, alphabet, seed=seed, name=f"random-{node_count}"
    )
    workspace = workspace if workspace is not None else default_workspace()
    goal = PathQuery(f"({alphabet[0]} + {alphabet[1]})* . {alphabet[2]}")
    if not workspace.engine.evaluate(graph, goal):
        goal = PathQuery(alphabet[0])
    user = SimulatedUser(graph, goal, workspace=workspace)
    session = InteractiveSession(
        graph,
        user,
        max_path_length=max_path_length,
        max_interactions=interactions,
        workspace=workspace,
    )
    durations: List[float] = []
    performed = 0
    while performed < interactions and not session.should_halt():
        record = session.step()
        durations.append(record.duration_seconds)
        performed += 1
    row: Row = {
        "nodes": node_count,
        "edges": graph.edge_count,
        "interactions": performed,
        "mean_seconds": round(mean(durations), 4) if durations else 0.0,
    }
    row.update(latency_summary(durations))
    return row


def run_e3_scalability(
    *,
    node_counts: Sequence[int] = (100, 200, 400, 800),
    edge_factor: int = E3_DEFAULTS["edge_factor"],
    alphabet_size: int = E3_DEFAULTS["alphabet_size"],
    max_path_length: int = E3_DEFAULTS["max_path_length"],
    interactions: int = E3_DEFAULTS["interactions"],
    seed: int = 23,
) -> ResultTable:
    """E3: strategy + learning time per interaction on growing random graphs.

    ``seed`` is a base seed; each graph size derives its own seed with
    the same derivation the parallel runner uses.
    """
    table = ResultTable(TABLE_TITLES["e3"])
    for node_count in node_counts:
        table.add(
            **e3_unit_row(
                node_count,
                edge_factor=edge_factor,
                alphabet_size=alphabet_size,
                max_path_length=max_path_length,
                interactions=interactions,
                seed=derive_unit_seed(seed, "e3", node_count),
            )
        )
    return table


# ----------------------------------------------------------------------
# E4 — effect of path validation on learned-query quality
# ----------------------------------------------------------------------
def e4_unit_rows(
    graph: LabeledGraph,
    goal: QueryLike,
    *,
    dataset: str,
    family: str,
    variant: str,
    max_interactions: int = E4_DEFAULTS["max_interactions"],
    max_path_length: int = E4_DEFAULTS["max_path_length"],
    workspace: Optional[GraphWorkspace] = None,
) -> List[Row]:
    """One E4 cell: one (dataset, goal) case with or without path validation."""
    goal_query = _coerce_query(goal)
    workspace = workspace if workspace is not None else default_workspace()
    if variant == "validation":
        report = run_interactive_with_validation(
            graph, goal_query, max_interactions=max_interactions,
            max_path_length=max_path_length, workspace=workspace,
        )
    elif variant == "no-validation":
        report = run_interactive_without_validation(
            graph, goal_query, max_interactions=max_interactions,
            max_path_length=max_path_length, workspace=workspace,
        )
    else:
        raise ValueError(f"unknown E4 variant {variant!r}")
    return [
        {
            "dataset": dataset,
            "family": family,
            "goal": str(goal_query),
            "variant": variant,
            "interactions": report.interactions,
            "exact_goal": report.exact_goal,
            "f1": round(report.metrics.get("f1", 0.0), 3),
            "learned": str(report.learned_query),
        }
    ]


def run_e4_path_validation(
    cases: Optional[List[WorkloadCase]] = None,
    *,
    max_interactions: int = E4_DEFAULTS["max_interactions"],
    max_path_length: int = E4_DEFAULTS["max_path_length"],
    seed: int = 29,
) -> Dict[str, ResultTable]:
    """E4: with vs without path validation (exact recovery and instance F1)."""
    cases = cases if cases is not None else quick_suite(seed)
    table = ResultTable(TABLE_TITLES["e4"])
    for case in cases:
        for variant in ("no-validation", "validation"):
            table.extend(
                e4_unit_rows(
                    case.graph,
                    case.goal.query,
                    dataset=case.dataset,
                    family=case.goal.family,
                    variant=variant,
                    max_interactions=max_interactions,
                    max_path_length=max_path_length,
                )
            )
    keys, reducers = SUMMARY_SPECS["e4"]
    return {"detail": table, "summary": table.group_by(keys, reducers)}


# ----------------------------------------------------------------------
# E5 — learner core cost (PTA + state merging)
# ----------------------------------------------------------------------
def pta_state_count(positives: Sequence[Tuple[str, ...]]) -> int:
    """Number of states of the prefix tree acceptor over ``positives``.

    One state per *distinct* prefix (the empty prefix is the root), which
    accounts for prefix sharing — summing word lengths would count shared
    prefixes once per word and overstate the PTA size.
    """
    prefixes = {word[:length] for word in positives for length in range(len(word) + 1)}
    # an empty sample still has the root state
    return max(1, len(prefixes))


def e5_unit_row(
    size: int,
    *,
    word_length: int = E5_DEFAULTS["word_length"],
    alphabet_size: int = E5_DEFAULTS["alphabet_size"],
    seed: int = 31,
) -> Row:
    """One E5 cell: RPNI cost on one sample size."""
    import random as _random

    alphabet = [chr(ord("a") + index) for index in range(alphabet_size)]
    rng = _random.Random(seed)
    positives = [
        tuple(rng.choice(alphabet) for _ in range(rng.randint(1, word_length)))
        for _ in range(size)
    ]
    negatives = []
    while len(negatives) < size:
        word = tuple(rng.choice(alphabet) for _ in range(rng.randint(1, word_length)))
        if word not in positives:
            negatives.append(word)
    started = time.perf_counter()
    learned = rpni(positives, negatives)
    elapsed = time.perf_counter() - started
    return {
        "positive_words": size,
        "negative_words": len(negatives),
        "pta_states": pta_state_count(positives),
        "learned_states": learned.state_count(),
        "seconds": round(elapsed, 4),
        "all_positives_accepted": all(learned.accepts(word) for word in positives),
        "all_negatives_rejected": not any(learned.accepts(word) for word in negatives),
    }


def run_e5_learner_cost(
    *,
    sample_sizes: Sequence[int] = (5, 10, 20, 40),
    word_length: int = E5_DEFAULTS["word_length"],
    alphabet_size: int = E5_DEFAULTS["alphabet_size"],
    seed: int = 31,
) -> ResultTable:
    """E5: RPNI generalisation time / output size vs number of sample words.

    Each sample size draws its words from an independently seeded stream
    (derived from ``seed`` and the size) so the rows are reproducible
    per-unit, matching what the parallel runner computes.
    """
    table = ResultTable(TABLE_TITLES["e5"])
    for size in sample_sizes:
        table.add(
            **e5_unit_row(
                size,
                word_length=word_length,
                alphabet_size=alphabet_size,
                seed=derive_unit_seed(seed, "e5", size),
            )
        )
    return table


# ----------------------------------------------------------------------
# Churn — warm-tick refresh latency under sliding-window streams
# ----------------------------------------------------------------------
def churn_unit_row(
    node_count: int,
    *,
    window: int = CHURN_DEFAULTS["window"],
    churn: int = CHURN_DEFAULTS["churn"],
    tick_count: int = CHURN_DEFAULTS["tick_count"],
    alphabet_size: int = CHURN_DEFAULTS["alphabet_size"],
    max_path_length: int = CHURN_DEFAULTS["max_path_length"],
    seed: int = 47,
    workspace: Optional[GraphWorkspace] = None,
) -> Row:
    """One churn cell: warm-tick refresh on one sliding-window stream.

    Every tick applies one atomic edge delta, refreshes the workspace
    through the delta journal and re-touches each cache layer (language
    index, answer cache, neighbourhood ball).  The timing columns vary
    run-to-run as usual; the counter columns are deterministic — the
    stream is seeded, so how many entries each layer retains per tick is
    part of the unit's identity.
    """
    from repro.workloads.churn import ChurnStream

    alphabet = [chr(ord("a") + index) for index in range(alphabet_size)]
    stream = ChurnStream(
        node_count,
        alphabet,
        window=window,
        churn=churn,
        tick_count=tick_count,
        seed=seed,
        name=f"churn-{node_count}",
    )
    graph = stream.initial_graph()
    # a fresh workspace: churn mutates the graph, so sharing the default
    # workspace would poison other experiments' caches
    workspace = workspace if workspace is not None else GraphWorkspace()
    queries = (
        alphabet[0],
        f"({alphabet[0]} + {alphabet[1]})* . {alphabet[2]}",
        f"{alphabet[1]} . {alphabet[2]}",
    )
    center = stream.nodes[0]
    workspace.language_index(graph, max_path_length)
    for query in queries:
        workspace.engine.evaluate(graph, query)
    workspace.neighborhoods(graph).neighborhood(center, 2)
    durations: List[float] = []
    totals: Dict[str, int] = {}
    for tick in stream.ticks():
        started = time.perf_counter()
        tick.apply(graph)
        counters = workspace.refresh(graph)
        workspace.language_index(graph, max_path_length)
        for query in queries:
            workspace.engine.evaluate(graph, query)
        workspace.neighborhoods(graph).neighborhood(center, 2)
        durations.append(time.perf_counter() - started)
        for key, value in counters.items():
            totals[key] = totals.get(key, 0) + value
    row: Row = {
        "nodes": node_count,
        "window": window,
        "churn": churn,
        "ticks": tick_count,
        "language_refreshed": totals.get("language_indexes_refreshed", 0),
        "language_dropped": totals.get("language_indexes_dropped", 0),
        "answers_retained": totals.get("answers_retained", 0),
        "answers_dropped": totals.get("answers_dropped", 0),
        "neighborhood_kept": totals.get("neighborhood_states_kept", 0),
        "mean_seconds": round(mean(durations), 4) if durations else 0.0,
    }
    row.update(latency_summary(durations))
    return row


def run_churn(
    *,
    node_counts: Sequence[int] = (60, 120),
    window: int = CHURN_DEFAULTS["window"],
    churn: int = CHURN_DEFAULTS["churn"],
    tick_count: int = CHURN_DEFAULTS["tick_count"],
    alphabet_size: int = CHURN_DEFAULTS["alphabet_size"],
    max_path_length: int = CHURN_DEFAULTS["max_path_length"],
    seed: int = 47,
) -> ResultTable:
    """Churn family: per-tick refresh cost across graph sizes.

    ``seed`` is a base seed; each size derives its own unit seed with the
    same derivation the parallel runner uses.
    """
    table = ResultTable(TABLE_TITLES["churn"])
    for node_count in node_counts:
        table.add(
            **churn_unit_row(
                node_count,
                window=window,
                churn=churn,
                tick_count=tick_count,
                alphabet_size=alphabet_size,
                max_path_length=max_path_length,
                seed=derive_unit_seed(seed, "churn", node_count),
            )
        )
    return table


# ----------------------------------------------------------------------
# The three demonstration scenarios side by side (Section 3)
# ----------------------------------------------------------------------
def scenario_unit_rows(
    graph: LabeledGraph,
    goal: QueryLike,
    *,
    dataset: str,
    max_interactions: int = SCENARIO_DEFAULTS["max_interactions"],
    max_path_length: int = SCENARIO_DEFAULTS["max_path_length"],
    seed: int = 37,
    workspace: Optional[GraphWorkspace] = None,
) -> List[Row]:
    """One scenario-comparison case: all three Section 3 scenarios on one goal."""
    goal_query = _coerce_query(goal)
    workspace = workspace if workspace is not None else default_workspace()
    reports = run_all_scenarios(
        graph,
        goal_query,
        max_path_length=max_path_length,
        seed=seed,
        max_interactions=max_interactions,
        workspace=workspace,
    )
    rows: List[Row] = []
    for report in reports.values():
        row: Row = {"dataset": dataset, "goal": str(goal_query)}
        row.update(report.summary_row())
        rows.append(row)
    return rows


def run_scenario_comparison(
    cases: Optional[List[WorkloadCase]] = None,
    *,
    max_interactions: int = SCENARIO_DEFAULTS["max_interactions"],
    max_path_length: int = SCENARIO_DEFAULTS["max_path_length"],
    seed: int = 37,
) -> Dict[str, ResultTable]:
    """Section 3 comparison: static vs interactive vs interactive+validation.

    ``seed`` is a base seed; each case derives its own seed with the same
    derivation the parallel runner uses.
    """
    cases = cases if cases is not None else quick_suite(seed)
    table = ResultTable(TABLE_TITLES["scenarios"])
    for case in cases:
        table.extend(
            scenario_unit_rows(
                case.graph,
                case.goal.query,
                dataset=case.dataset,
                max_interactions=max_interactions,
                max_path_length=max_path_length,
                seed=derive_unit_seed(seed, "scenarios", case.dataset, case.goal.expression),
            )
        )
    keys, reducers = SUMMARY_SPECS["scenarios"]
    return {"detail": table, "summary": table.group_by(keys, reducers)}


def run_everything(
    *,
    quick: bool = True,
    seed: int = 41,
    workers: int = 1,
    store=None,
) -> Dict[str, ResultTable]:
    """Run every experiment and return all tables by name.

    Thin wrapper over :class:`repro.experiments.runner.ExperimentRunner`:
    the suite is expanded into deterministic units, executed serially
    (``workers=1``, the default) or over a process pool, and the rows are
    merged back into the usual tables.  Pass a
    :class:`~repro.experiments.runner.ResultStore` as ``store`` to stream
    rows into a resumable JSONL result store.  This is what
    ``examples/full_evaluation.py`` and the EXPERIMENTS.md generation use.
    """
    from repro.experiments.runner import ExperimentRunner

    runner = ExperimentRunner(
        suite="quick" if quick else "standard",
        seed=seed,
        workers=workers,
        store=store,
    )
    return runner.run().tables
