"""Regular path queries: semantics, evaluation, and comparison."""

from repro.query.rpq import PathQuery
from repro.query.engine import QueryEngine, QueryPlan
from repro.query.evaluation import witness_path
from repro.query.containment import (
    containment_counterexample,
    distinguishing_node,
    instance_difference,
    instance_equivalent,
    language_counterexample,
    language_equivalent,
    language_included,
)

__all__ = [
    "PathQuery",
    "QueryEngine",
    "QueryPlan",
    "witness_path",
    "containment_counterexample",
    "distinguishing_node",
    "instance_difference",
    "instance_equivalent",
    "language_counterexample",
    "language_equivalent",
    "language_included",
]
