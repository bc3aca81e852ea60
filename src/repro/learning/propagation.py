"""Label propagation ("propagate label for ν" in Figure 2).

After the user labels a node (and possibly validates a path), the system
propagates the consequences of that label to the rest of the graph:

* every unlabelled node that can spell a *validated* positive word is
  necessarily selected by any query consistent with the validated paths →
  it receives an implied **positive** label;
* every unlabelled node all of whose (bounded) words are covered by
  negative nodes can never be selected consistently → it receives an
  implied **negative** label.

Propagated labels are recorded in the example set with ``propagated=True``
so they never count as user interactions, and the pruning statistics of
experiment E2 report them separately.

Each pass reads the statuses of the session's incremental
:class:`~repro.learning.informativeness.SessionClassifier`, which holds
the graph, the example set and the path bound: the first fixpoint round
after a user answer pays only that answer's delta, and every later round
only the delta of the labels the previous round added.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

from repro.graph.labeled_graph import Node
from repro.learning.informativeness import SessionClassifier


@dataclass(frozen=True)
class PropagationResult:
    """Labels added by one propagation pass."""

    implied_positive: FrozenSet[Node]
    implied_negative: FrozenSet[Node]

    @property
    def total(self) -> int:
        """Number of labels propagated in this pass."""
        return len(self.implied_positive) + len(self.implied_negative)


def propagate_labels(classifier: SessionClassifier) -> PropagationResult:
    """Run one propagation pass, mutating the classifier's examples in place.

    Returns the sets of nodes that received implied labels.  The pass is
    idempotent: running it twice in a row adds nothing the second time.
    """
    examples = classifier.examples
    implied_positive = set()
    implied_negative = set()
    for node, status in classifier.statuses().items():
        if status.labeled:
            continue
        if status.implied_positive:
            examples.add_positive(node, propagated=True)
            implied_positive.add(node)
        elif status.implied_negative:
            examples.add_negative(node, propagated=True)
            implied_negative.add(node)
    return PropagationResult(frozenset(implied_positive), frozenset(implied_negative))


def propagate_to_fixpoint(
    classifier: SessionClassifier, *, max_rounds: int = 10
) -> Tuple[PropagationResult, ...]:
    """Repeat propagation until nothing changes (or ``max_rounds`` is hit).

    Adding implied negatives can cover new words, which can imply further
    negatives; in practice the fixpoint is reached in one or two rounds.
    """
    rounds = []
    for _ in range(max_rounds):
        result = propagate_labels(classifier)
        rounds.append(result)
        if result.total == 0:
            break
    return tuple(rounds)
