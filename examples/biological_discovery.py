#!/usr/bin/env python3
"""Biological scenario — specifying path queries on an interaction network.

The companion paper evaluates learning on biological datasets.  This
example builds a synthetic protein / gene / tissue interaction network and
shows a biologist (simulated) specifying two queries without writing any
regular expression:

* "genes whose product eventually regulates another gene" —
  ``encodes . (interacts + binds)* . regulates``;
* "entities expressed in some tissue after at most two interactions" —
  ``(interacts + binds)? . (interacts + binds)? . expresses``.

For each query we report the number of questions GPS asked, how many node
labels were propagated automatically, and the fidelity of the learned
query on the instance.

Run with::

    python examples/biological_discovery.py
"""

from repro.graph.datasets import biological_network
from repro.graph.statistics import compute_statistics
from repro.interactive.oracle import SimulatedUser
from repro.interactive.session import InteractiveSession
from repro.serving.workspace import default_workspace
from repro.query.rpq import PathQuery

QUERIES = [
    (
        "genes whose product eventually regulates another gene",
        "encodes . (interacts + binds)* . regulates",
    ),
    (
        "entities expressed in a tissue within two interaction hops",
        "(interacts + binds)? . (interacts + binds)? . expresses",
    ),
]


def main() -> None:
    graph = biological_network(140, 70, interaction_density=2.5, seed=99)
    print("synthetic interaction network:", compute_statistics(graph).as_dict())
    print()

    engine = default_workspace().engine
    for description, expression in QUERIES:
        goal = PathQuery(expression)
        answer = engine.evaluate(graph, goal)
        print(f"query: {description}")
        print(f"  expression  : {expression}")
        print(f"  answer size : {len(answer)} / {graph.node_count}")
        if not answer:
            print("  (empty on this seed, skipping)")
            print()
            continue

        user = SimulatedUser(graph, goal)
        session = InteractiveSession(graph, user, max_interactions=40, max_path_length=4)
        result = session.run()
        propagated = sum(
            record.propagated_positive + record.propagated_negative for record in result.records
        )
        metrics = engine.selection_metrics(graph, result.learned_query, goal)
        print(f"  questions asked      : {result.interactions}")
        print(f"  labels propagated    : {propagated} (answered automatically)")
        print(f"  learned query        : {result.learned_query}")
        print(f"  instance precision   : {metrics['precision']:.2f}")
        print(f"  instance recall      : {metrics['recall']:.2f}")
        print()


if __name__ == "__main__":
    main()
