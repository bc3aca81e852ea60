"""Per-layer table from a traced benchmark run's span dump.

Usage::

    python3 perfbench/analyze_traces.py --input perfbench/out/cold-solo-seed1.jsonl

A dump (written by ``perfbench/run.py --trace 1``) is JSON lines: a
``meta`` line with the workload, seed, deterministic counts of the
traced round, then one line per span
``[id, parent, name, session, start, end, active]``.

A layer's self time is its spans' active time minus the time their child
spans cover.  For synchronous spans ``active`` is ``end - start``; for
the ``manager.drive`` coroutine it is only the time the coroutine ran,
so waiting behind other sessions is not charged to the manager.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

#: every wrapped layer, in call-tree order (mirrors tracing.LAYERS)
LAYERS: Tuple[str, ...] = (
    "session.advance",
    "strategies.propose",
    "informativeness.refresh",
    "neighborhood.eccentricity_bound",
    "neighborhood.neighborhood",
    "propagation.propagate_to_fixpoint",
    "learner.select_sample_words",
    "state_merging.generalize_pta",
    "language_index.compatible",
    "rpq.from_dfa",
    "consistency.check_consistency",
    "engine.evaluate",
    "engine.selects",
    "workspace.language_index",
    "workspace.refresh",
    "labeled_graph.apply_delta",
    "manager.drive",
    "oracle.label",
    "oracle.wants_zoom",
    "oracle.validate_path",
)

#: derived per-layer figures beyond ``<layer>.calls`` / ``<layer>.self_s``:
#: name -> unit
DERIVED: Dict[str, str] = {
    "language_index.compatible.accept_ratio": "ratio",
    "workspace.language_index.builds": "count",
    "workspace.language_index.hit_ratio": "ratio",
    "engine.answer_hit_ratio": "ratio",
    "manager.dedup_ratio": "ratio",
    "workspace.refresh.language_refreshed": "count",
    "workspace.refresh.language_dropped": "count",
    "workspace.refresh.fallback_ratio": "ratio",
    "workspace.refresh.answers_retained_ratio": "ratio",
}

Span = Sequence  # [id, parent, name, session, start, end, active]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Total self time per span name."""
    spans = list(spans)
    covered: Dict[int, float] = defaultdict(float)
    for _, parent, _, _, start, end, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    totals: Dict[str, float] = defaultdict(float)
    for span_id, _, name, _, _, _, active in spans:
        totals[name] += active - covered.get(span_id, 0.0)
    return totals


def layer_metrics(spans: Iterable[Span], counts: Dict[str, int]) -> Dict[str, Tuple[float, str]]:
    """``name -> (value, unit)`` for every layer and derived figure.

    ``counts`` holds the traced round's call counts, the outcome counts
    kept by the wrappers and the cache counters read from ``stats()``.
    """
    selfs = self_times(spans)
    metrics: Dict[str, Tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (counts.get(layer, 0), "count")
        metrics[f"{layer}.self_s"] = (selfs.get(layer, 0.0), "s")
    refreshed = counts.get("workspace.refresh.language_refreshed", 0)
    dropped = counts.get("workspace.refresh.language_dropped", 0)
    retained = counts.get("workspace.refresh.answers_retained", 0)
    values = {
        "language_index.compatible.accept_ratio": _ratio(
            counts.get("language_index.compatible.accepted", 0),
            counts.get("language_index.compatible", 0),
        ),
        "workspace.language_index.builds": counts.get("language_index.builds", 0),
        "workspace.language_index.hit_ratio": _ratio(
            counts.get("language_index.hits", 0), counts.get("workspace.language_index", 0)
        ),
        "engine.answer_hit_ratio": _ratio(
            counts.get("engine.answer_hits", 0),
            counts.get("engine.answer_hits", 0) + counts.get("engine.answer_misses", 0),
        ),
        "manager.dedup_ratio": _ratio(
            counts.get("manager.deduped", 0), counts.get("manager.completed", 0)
        ),
        "workspace.refresh.language_refreshed": refreshed,
        "workspace.refresh.language_dropped": dropped,
        "workspace.refresh.fallback_ratio": _ratio(dropped, refreshed + dropped),
        "workspace.refresh.answers_retained_ratio": _ratio(
            retained, retained + counts.get("workspace.refresh.answers_dropped", 0)
        ),
    }
    for name, value in values.items():
        metrics[name] = (value, DERIVED[name])
    return metrics


def format_table(metrics: Dict[str, Tuple[float, str]]) -> str:
    """The per-layer calls / self_s table, then the derived ratios."""
    lines = [f"{'layer':<36} {'calls':>9} {'self_s':>10}"]
    for layer in LAYERS:
        calls = metrics[f"{layer}.calls"][0]
        self_s = metrics[f"{layer}.self_s"][0]
        lines.append(f"{layer:<36} {calls:>9} {self_s:>10.4f}")
    for name in DERIVED:
        if name in metrics:
            value, unit = metrics[name]
            lines.append(f"{name:<46} {value:>10.4f} {unit}")
    return "\n".join(lines)


def read_dump(path: str) -> Tuple[dict, List[list]]:
    with open(path, encoding="utf-8") as handle:
        meta = json.loads(handle.readline())
        spans = [json.loads(line) for line in handle if line.strip()]
    return meta, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--input", required=True, help="span dump written by run.py --trace 1")
    args = parser.parse_args(argv)
    meta, spans = read_dump(args.input)
    metrics = layer_metrics(spans, meta["counts"])
    print(f"{meta['workload']} seed={meta['seed']}: {len(spans)} spans")
    print(format_table(metrics))
    for name, value in sorted(meta.get("trace", {}).items()):
        print(f"trace.{name:<41} {value:>10.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
