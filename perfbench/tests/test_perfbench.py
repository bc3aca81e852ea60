"""Toy-scale checks of the benchmark itself.

Run from the repository root::

    python -m pytest perfbench/tests -q -W error::DeprecationWarning
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
for entry in (str(ROOT / "src"), str(BENCH)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import analyze_traces  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Probe  # noqa: E402

from repro.graph.labeled_graph import LabeledGraph  # noqa: E402
from repro.learning.examples import ExampleSet  # noqa: E402
from repro.serving.workspace import GraphWorkspace  # noqa: E402

# the benchmark must never reach a deprecated keyword (engine=) of the program
pytestmark = pytest.mark.filterwarnings("error::DeprecationWarning")

TOY = {
    "cold-solo": workloads.ColdSoloSizes(nodes=200, families=("star-prefix", "concat")),
    "shared-tenants": workloads.SharedTenantsSizes(graph_nodes=(60, 80), per_family=1),
    "churn-live": workloads.ChurnLiveSizes(nodes=150, window=360, ticks=40),
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(section: str):
    return {metric["name"] for metric in SPEC[section]}


@pytest.mark.parametrize("workload", sorted(TOY))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    lines, result = run.run(workload, 3, 0.1, False, TOY[workload])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == _names("end_to_end")
    units = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert metric["value"] > 0, name
    report = "\n".join(lines)
    for name in ("error_rate", "goal_match_rate", *run.REPORTED, *units):
        assert f" {name} " in report


@pytest.mark.parametrize("workload", sorted(TOY))
def test_traced_run_prints_every_per_layer_metric(workload, tmp_path):
    lines, result = run.run(workload, 3, 0.1, True, TOY[workload], dump_dir=tmp_path)
    assert result["correct"]
    assert set(result["metrics"]) == _names("per_layer")
    # the dump alone reproduces the per-layer table
    meta, spans = analyze_traces.read_dump(str(tmp_path / f"{workload}-seed3.jsonl"))
    from_dump = analyze_traces.layer_metrics(spans, meta["counts"])
    for name, (value, _) in from_dump.items():
        assert result["metrics"][name]["value"] == pytest.approx(value)
    assert result["metrics"]["session.advance.calls"]["value"] > 0


@pytest.mark.parametrize("workload", sorted(TOY))
def test_seed_changes_inputs(workload):
    make_inputs = workloads.WORKLOADS[workload][0]
    first = workloads.input_fingerprint(make_inputs(1, TOY[workload]))
    assert first == workloads.input_fingerprint(make_inputs(1, TOY[workload]))
    assert first != workloads.input_fingerprint(make_inputs(2, TOY[workload]))


_DIGEST_SCRIPT = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import run, workloads
bench = run.Run({workload!r}, 5, 0.1, False, workloads.{sizes!r})
bench.execute()
print(json.dumps([bench.first_digest, bench.first_counts], sort_keys=True))
"""


@pytest.mark.parametrize("workload", sorted(TOY))
def test_same_seed_gives_same_digest_and_counts_across_processes(workload):
    script = _DIGEST_SCRIPT.format(
        src=str(ROOT / "src"), bench=str(BENCH), workload=workload, sizes=TOY[workload]
    )
    outputs = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        outputs.add(done.stdout.strip().splitlines()[-1])
    assert len(outputs) == 1


def test_output_checks_fail_on_a_wrong_result():
    inputs = workloads.shared_tenants_inputs(3, TOY["shared-tenants"])
    manager, admitted = workloads._admit_tenants(inputs, inputs["graphs"])
    asyncio.run(manager.drive_all())
    leader = next(
        session_id
        for session_id in admitted
        if not manager.result(session_id).deduped and manager.session(session_id).examples.negative_nodes
    )
    follower = next(session_id for session_id in admitted if manager.result(session_id).deduped)
    graph, goal = admitted[leader]
    round_ = workloads.Round()
    session, result = manager.session(leader), manager.result(leader)
    workloads._check_session(round_, leader, graph, goal, session, result)
    assert round_.failed == 0
    # a hypothesis selecting every node also selects the labelled negatives
    everything = replace(result, learned_query="(a + b + c + d)*")
    workloads._check_session(round_, leader, graph, goal, session, everything)
    assert round_.failed >= 1
    # flagging it inconsistent is no excuse while a bounded query still fits
    failed = round_.failed
    flagged = replace(everything, inconsistent=True)
    workloads._check_session(round_, leader, graph, goal, session, flagged)
    assert round_.failed > failed and round_.abstained == 0
    round_ = workloads.Round()
    graph, goal = admitted[follower]
    adopted = manager.result(follower)
    workloads._check_alone(round_, follower, graph, goal, adopted)
    assert round_.failed == 0
    workloads._check_alone(round_, follower, graph, goal, replace(adopted, records=adopted.records[:-1]))
    assert round_.failed == 1


def test_abstention_needs_labels_that_no_bounded_query_fits():
    graph = LabeledGraph()
    graph.add_edge("p", "a", "x")
    graph.add_edge("x", "b", "y")
    graph.add_edge("n", "a", "z")
    examples = ExampleSet()
    examples.add_positive("p")
    examples.add_negative("n")
    # p and n both spell only "a" within one symbol; p alone spells "a.b"
    assert not workloads._admits_bounded_query(graph, examples, 1)
    assert workloads._admits_bounded_query(graph, examples, 2)


def test_probe_puts_every_original_back():
    original = GraphWorkspace.__dict__["language_index"]
    with Probe():
        assert GraphWorkspace.__dict__["language_index"] is not original
    assert GraphWorkspace.__dict__["language_index"] is original


def test_run_without_the_program_fails_cleanly(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    command = [*SPEC["command"], "--workload", "cold-solo", "--seed", "1", "--seconds", "1", "--trace", "0"]
    command[0] = sys.executable
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout
