"""GPS interaction benchmark: one seeded workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-solo --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload churn-live --seed 1 --seconds 45 --trace 1

The program is imported from ``src/`` next to this directory.  Inputs
are generated from ``--seed`` before timing starts.  The run then
repeats identical rounds (see :mod:`workloads`) while the next round is
projected to end within ``--seconds``: at least :data:`MIN_ROUNDS`
untraced rounds, and more until :data:`MIN_LATER_STEPS` interactions
after each session's first were timed.

Every time is rescaled to the reference machine by the probe's
:class:`~tracing.SpeedMeter`, and each operation is reported at its
median repeat across rounds.

``--trace 0`` prints every end-to-end metric; ``--trace 1`` alternates
untraced and traced rounds, prints every per-layer metric and the
tracing overhead, and writes the traced round's spans to
``perfbench/out/<workload>-seed<seed>.jsonl`` (read it with
``analyze_traces.py``).  The last line of standard output is always one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: a run times at least this many interactions after each session's first,
#: so the p90 has at least ten samples beyond it
MIN_LATER_STEPS = 100
#: set-ups per run at least (``setup_s`` is their median)
MIN_SETUPS = 5
#: untraced rounds per run at least, so every operation's median repeat
#: is a middle one
MIN_ROUNDS = 3

#: end-to-end metrics of the result object (``BENCHMARK.json`` bounds
#: them): name -> unit
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "first_step_s": "s",
    "step_p90_s": "s",
    "tick_p50_s": "s",
    "tick_p90_s": "s",
    "sessions_per_s": "1/s",
    "interactions_per_session": "count",
    "answer_f1": "ratio",
    "ok_rate": "ratio",
    "peak_rss_mb": "MB",
}
#: end-to-end metric the report prints but the result object leaves out:
#: it moved with the seed's graph and goals by more than the largest bound
#: allowed (see README.md)
REPORTED: Dict[str, str] = {
    "step_p50_s": "s",
}


def _import_program():
    """Put ``src/`` first on the path; refuse to run without the program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: program source not found at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def percentile(values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


@dataclass
class Timed:
    """One round's times, rescaled to the reference machine."""

    #: ``(seconds, first)`` per interaction, in run order
    steps: List[Tuple[float, bool]]
    ticks: List[float]
    drive_s: float
    counts: Optional[dict] = None
    spans: Optional[list] = None


def _ticks(steps, meter) -> List[float]:
    """Intervals between the starts of one session's consecutive interactions."""
    last: Dict[int, float] = {}
    intervals = []
    for key, started, _, _ in sorted(steps, key=lambda step: step[1]):
        if key in last:
            intervals.append(meter.scaled(last[key], started))
        last[key] = started
    return intervals


def _typical(series: Iterable[Sequence[float]]) -> List[float]:
    """Element-wise median over repeats of identical work.

    Rounds replay the same operations in the same order (the digest and
    count checks enforce it), so the k-th sample of every round times the
    same operation.  The rescaling leaves each sample off by the error of
    its speed estimate, up or down; the median repeat discards the
    outliers either way, where the fastest repeat would keep the one whose
    speed was most underestimated.
    """
    return [statistics.median(samples) for samples in zip(*series)]


def _typical_steps(rounds: Sequence[Timed]) -> Tuple[List[float], List[bool]]:
    """Median repeat of each interaction, and whether it was a session's first."""
    flags = [first for _, first in rounds[0].steps]
    return _typical([seconds for seconds, _ in timed.steps] for timed in rounds), flags


class Run:
    """One invocation: inputs, rounds, metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, sizes=None):
        from tracing import Probe
        from workloads import WORKLOADS

        make_inputs, self._round, self._extra_setup, size_class = WORKLOADS[workload]
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.inputs = make_inputs(seed, sizes if sizes is not None else size_class())
        self.probe = Probe()
        self.setups: List[float] = []
        self.round_seconds: List[float] = []
        self.untraced: List[Timed] = []
        self.traced: List[Timed] = []
        self.first_round = None
        self.first_counts: Optional[dict] = None
        self.first_digest: Optional[str] = None
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    # ------------------------------------------------------------------
    def execute(self) -> None:
        probe = self.probe
        with probe:
            probe.recording = True
            if self._extra_setup is not None:
                for _ in range(MIN_SETUPS - 1):
                    probe.meter.refresh()
                    self.setups.append(probe.meter.scaled(*self._extra_setup(self.inputs)))
            started = perf_counter()
            while True:
                traced = self.trace and len(self.untraced) > len(self.traced)
                round_started = perf_counter()
                self._one_round(traced)
                elapsed = perf_counter() - started
                last = perf_counter() - round_started
                self.round_seconds.append(last)
                if self.trace and not self.traced:
                    continue
                later = sum(1 for timed in self.untraced for _, first in timed.steps if not first)
                enough = (
                    later >= MIN_LATER_STEPS
                    and len(self.setups) >= MIN_SETUPS
                    and len(self.untraced) >= MIN_ROUNDS
                )
                if elapsed + last > self.seconds and (enough or elapsed > 2 * self.seconds):
                    break
            probe.recording = False

    def _one_round(self, traced: bool) -> None:
        probe = self.probe
        probe.reset()
        probe.tracing = traced
        round_ = self._round(self.inputs, probe)
        probe.tracing = False
        meter = probe.meter
        self.setups.extend(meter.scaled(*window) for window in round_.setups)
        self.attempted += round_.attempted
        self.failed += round_.failed
        self.problems.extend(round_.problems)
        counts = dict(probe.counts)
        counts.update(round_.counters)
        digest = round_.digest()
        if self.first_digest is None:
            self.first_digest, self.first_counts, self.first_round = digest, counts, round_
        else:
            # every round replays the same inputs: traces and counts repeat
            self.attempted += 2
            for same, what in ((digest == self.first_digest, "trace digest"), (counts == self.first_counts, "counts")):
                if not same:
                    self.failed += 1
                    self.problems.append(f"round {len(self.untraced) + len(self.traced)}: {what} changed")
        timed = Timed(
            [(meter.scaled(start, start + seconds), first) for _, start, seconds, first in probe.steps],
            _ticks(probe.steps, meter),
            sum(meter.scaled(*window) for window in round_.drives),
        )
        if traced:
            timed.counts, timed.spans = counts, probe.take_spans()
            self.traced.append(timed)
        else:
            self.untraced.append(timed)

    # ------------------------------------------------------------------
    def end_to_end(self) -> Dict[str, float]:
        """Metrics of the untraced rounds, each operation at its median repeat."""
        durations, flags = _typical_steps(self.untraced)
        firsts = [seconds for seconds, first in zip(durations, flags) if first]
        later = [seconds for seconds, first in zip(durations, flags) if not first]
        ticks = _typical(timed.ticks for timed in self.untraced)
        first = self.first_round
        return {
            "setup_s": statistics.median(self.setups),
            # a mean: first steps are bimodal (see README.md), and a median
            # jumps between the modes as the seed's share of each nears one half
            "first_step_s": statistics.fmean(firsts),
            "step_p50_s": statistics.median(later),
            "step_p90_s": percentile(later, 0.9),
            "tick_p50_s": statistics.median(ticks),
            "tick_p90_s": percentile(ticks, 0.9),
            "sessions_per_s": first.sessions / statistics.median(timed.drive_s for timed in self.untraced),
            "interactions_per_session": statistics.fmean(first.interactions),
            "answer_f1": statistics.fmean(first.f1),
            "ok_rate": 1.0 - self.failed / self.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def per_layer(self) -> Tuple[Dict[str, Tuple[float, str]], dict]:
        from analyze_traces import layer_metrics

        counts, spans = self.traced[0].counts, self.traced[0].spans
        metrics = layer_metrics(spans, counts)
        traced, flags = _typical_steps(self.traced)
        untraced, _ = _typical_steps(self.untraced)
        traced_p50 = statistics.median(seconds for seconds, first in zip(traced, flags) if not first)
        untraced_p50 = statistics.median(seconds for seconds, first in zip(untraced, flags) if not first)
        trace = {
            "step_p50_s": traced_p50,
            "untraced_step_p50_s": untraced_p50,
            "overhead_s": traced_p50 - untraced_p50,
        }
        for name, value in trace.items():
            metrics[f"trace.{name}"] = (value, "s")
        return metrics, {"counts": counts, "spans": spans, "trace": trace}

    def write_dump(self, detail: dict, out: Path) -> Path:
        out.mkdir(exist_ok=True)
        path = out / f"{self.workload}-seed{self.seed}.jsonl"
        meta = {
            "workload": self.workload,
            "seed": self.seed,
            "counts": detail["counts"],
            "trace": detail["trace"],
        }
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(meta, sort_keys=True) + "\n")
            for span in detail["spans"]:
                handle.write(json.dumps(span) + "\n")
        return path


def run(workload: str, seed: int, seconds: float, trace: bool, sizes=None, dump_dir: Optional[Path] = None):
    """Execute one benchmark run; returns ``(report lines, result object)``.

    ``sizes`` overrides the workload's default size class (the tests run
    toy sizes); a traced run writes its span dump into ``dump_dir``.
    """
    bench = Run(workload, seed, seconds, trace, sizes)
    bench.execute()
    from workloads import input_fingerprint

    factors = [factor for _, factor, _ in bench.probe.meter.marks]
    lines = [
        f"perfbench {workload} seed={seed} seconds={seconds} trace={int(trace)}",
        f"inputs {input_fingerprint(bench.inputs)}  goals {len(bench.inputs['goals'])}",
        f"rounds untraced={len(bench.untraced)} traced={len(bench.traced)}  setups={len(bench.setups)}"
        "  round seconds " + " ".join(f"{seconds:.1f}" for seconds in bench.round_seconds)
        + "  speed {:.2f}..{:.2f}".format(min(factors), max(factors)),
        f"digest {bench.first_digest}  sessions {bench.first_round.sessions}",
        "counts " + json.dumps(bench.first_counts, sort_keys=True),
    ]
    e2e = bench.end_to_end()
    for name, unit in {**END_TO_END, **REPORTED}.items():
        lines.append(f"  {name:<26} {e2e[name]:>14.6f} {unit}")
    # also left out of the result object: error_rate reads 0 on a healthy
    # run (ok_rate is gated instead), and goal_match_rate is a share of a
    # handful of pass/fail sessions (answer_f1 is gated instead)
    first = bench.first_round
    error_rate = bench.failed / bench.attempted
    lines.append(f"  {'error_rate':<26} {error_rate:>14.6f} ratio ({bench.failed} of {bench.attempted})")
    lines.append(
        f"  {'goal_match_rate':<26} {statistics.fmean(first.matches):>14.6f} ratio "
        f"({sum(first.matches)} of {first.sessions})"
    )
    # sessions that passed the consistency check by abstaining: flagged
    # inconsistent, with no query within the path-length bound left
    lines.append(f"  {'abstained':<26} {first.abstained:>14d} sessions")
    for problem in bench.problems[:20]:
        lines.append(f"  FAILED {problem}")
    if trace:
        from analyze_traces import format_table

        metrics, detail = bench.per_layer()
        if dump_dir is not None:
            lines.append(f"spans {len(detail['spans'])} -> {bench.write_dump(detail, dump_dir)}")
        lines.append(format_table(metrics))
        for name in ("trace.step_p50_s", "trace.untraced_step_p50_s", "trace.overhead_s"):
            lines.append(f"{name:<46} {metrics[name][0]:>10.6f} s")
    else:
        metrics = {name: (e2e[name], unit) for name, unit in END_TO_END.items()}
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return lines, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="GPS interaction benchmark (one workload per run)")
    parser.add_argument("--workload", required=True, choices=("cold-solo", "shared-tenants", "churn-live"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    lines, result = run(args.workload, args.seed, args.seconds, bool(args.trace), dump_dir=HERE / "out")
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
