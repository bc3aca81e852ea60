"""Benchmark-side instrumentation: call counts, spans and cache counters.

Nothing here changes the program.  :class:`Probe` wraps a fixed list of
public layer entry points (:data:`_TARGETS`) while it is installed and
puts the originals back when it is removed, so every per-layer number is
measured from outside the layer, at its boundary.

A probe has three states:

* off (``recording`` false) — wrappers call straight through; input
  generation, repeated set-ups and output checks run like this;
* counting — wrappers count calls, keep the few outcomes the ratios
  need, and time each interaction (``InteractiveSession.advance``),
  refreshing the :class:`SpeedMeter` just before; this is the untraced
  run, whose counts repeat exactly for a seed;
* tracing — additionally every wrapped call records a span
  ``(id, parent, name, session, start, end, active)``.  Spans stay in
  memory until :meth:`Probe.take_spans`; the run writes them out when it
  ends.

Parents follow a :class:`contextvars.ContextVar`, so spans of concurrent
sessions on one event loop (each ``SessionManager.drive`` is its own
task, with its own context) never adopt each other as parents.  For the
one coroutine layer, ``manager.drive``, ``active`` counts only the time
the coroutine was actually running, not the time it sat suspended while
other sessions ran; for every other span ``active == end - start``.
"""

from __future__ import annotations

import bisect
import contextvars
import functools
import statistics
import sys
import types
from collections import Counter
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.automata import state_merging
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.neighborhood import NeighborhoodIndex
from repro.interactive.oracle import SimulatedUser
from repro.interactive.session import InteractiveSession
from repro.interactive.strategies import MostInformativePathsStrategy
from repro.learning import consistency, propagation
from repro.learning.informativeness import SessionClassifier
from repro.learning.language_index import CompatibilityOracle
from repro.learning.learner import PathQueryLearner
from repro.query.engine import QueryEngine
from repro.query.rpq import PathQuery
from repro.serving.manager import SessionManager
from repro.serving.workspace import GraphWorkspace

from analyze_traces import LAYERS

#: layer name -> (owner, attribute).  An owner is a class (the method is
#: wrapped on the class) or a module (the function is wrapped in every
#: ``repro`` module that imported it by name).  The names and their order
#: come from :data:`analyze_traces.LAYERS`, which reads dumps without the
#: program.
_TARGETS: Dict[str, Tuple[Any, str]] = {
    "session.advance": (InteractiveSession, "advance"),
    "strategies.propose": (MostInformativePathsStrategy, "propose"),
    "informativeness.refresh": (SessionClassifier, "refresh"),
    "neighborhood.eccentricity_bound": (NeighborhoodIndex, "eccentricity_bound"),
    "neighborhood.neighborhood": (NeighborhoodIndex, "neighborhood"),
    "propagation.propagate_to_fixpoint": (propagation, "propagate_to_fixpoint"),
    "learner.select_sample_words": (PathQueryLearner, "select_sample_words"),
    "state_merging.generalize_pta": (state_merging, "generalize_pta"),
    "language_index.compatible": (CompatibilityOracle, "compatible"),
    "rpq.from_dfa": (PathQuery, "from_dfa"),
    "consistency.check_consistency": (consistency, "check_consistency"),
    "engine.evaluate": (QueryEngine, "evaluate"),
    "engine.selects": (QueryEngine, "selects"),
    "workspace.language_index": (GraphWorkspace, "language_index"),
    "workspace.refresh": (GraphWorkspace, "refresh"),
    "labeled_graph.apply_delta": (LabeledGraph, "apply_delta"),
    "manager.drive": (SessionManager, "drive"),
    "oracle.label": (SimulatedUser, "label"),
    "oracle.wants_zoom": (SimulatedUser, "wants_zoom"),
    "oracle.validate_path": (SimulatedUser, "validate_path"),
}
if tuple(_TARGETS) != LAYERS:
    raise RuntimeError("tracing targets and analyze_traces.LAYERS disagree")

_PARENT: contextvars.ContextVar = contextvars.ContextVar("perfbench_parent", default=None)
_SESSION: contextvars.ContextVar = contextvars.ContextVar("perfbench_session", default=None)

Span = Tuple[int, Optional[int], str, Optional[str], float, float, float]


def set_session(session_id: Optional[str]) -> None:
    """Tag the spans recorded from here on (in this context) with a session id."""
    _SESSION.set(session_id)


def _observe_compatible(counts: Counter, result, args) -> None:
    if result:
        counts["language_index.compatible.accepted"] += 1


def _observe_refresh(counts: Counter, result, args) -> None:
    counts["workspace.refresh.language_refreshed"] += result["language_indexes_refreshed"]
    counts["workspace.refresh.language_dropped"] += result["language_indexes_dropped"]
    counts["workspace.refresh.answers_retained"] += result["answers_retained"]
    counts["workspace.refresh.answers_dropped"] += result["answers_dropped"]


#: outcome hooks: the few layer results a per-layer ratio needs
_OBSERVERS: Dict[str, Callable[[Counter, Any, tuple], None]] = {
    "language_index.compatible": _observe_compatible,
    "workspace.refresh": _observe_refresh,
}


#: seconds the calibration loop takes on the reference machine (a 2 GHz
#: 2-core VM at its usual speed); rescaled times are times on that machine
CALIBRATION_S = 0.007
#: the meter re-measures when its last measurement is older than this
CALIBRATION_INTERVAL_S = 0.3
#: measurements the rescaling factor is the median of
CALIBRATION_WINDOW = 5
#: span name of the meter's measurements in a traced round (not a layer)
CALIBRATION_SPAN = "perfbench.calibration"


def _calibration_loop() -> int:
    """Fixed pure-Python dict and set work; it runs no program code."""
    counts: Dict[int, int] = {}
    pairs = set()
    for position in range(12000):
        key = (position * 7919) % 4099
        counts[key] = counts.get(key, 0) + 1
        pairs.add((key, position & 7))
    return len(pairs)


class SpeedMeter:
    """Rescales measured intervals to the reference machine's speed.

    The machine's speed swings by up to 1.7x within seconds (other tenants
    share its cores) and slows a fixed pure-Python loop and the program
    alike.  The meter times that loop at most every
    :data:`CALIBRATION_INTERVAL_S`; an interval is rescaled piecewise by
    ``CALIBRATION_S`` over the loop time measured just before each piece,
    and the meter's own loops are left out.
    """

    def __init__(self):
        #: ``(end, factor, seconds spent)`` per measurement, in time order
        self.marks: List[Tuple[float, float, float]] = []
        self._raw: List[float] = []

    def due(self) -> bool:
        """True when the last measurement is no longer recent."""
        return not self.marks or perf_counter() - self.marks[-1][0] >= CALIBRATION_INTERVAL_S

    def refresh(self) -> None:
        """Measure unless the last measurement is recent."""
        if self.due():
            self.measure()

    def measure(self) -> None:
        started = perf_counter()
        samples = []
        for _ in range(3):
            begun = perf_counter()
            _calibration_loop()
            samples.append(perf_counter() - begun)
        ended = perf_counter()
        self._raw.append(CALIBRATION_S / statistics.median(samples))
        # a single loop jitters far more than the machine's phases change:
        # the factor is the median of the last few measurements
        factor = statistics.median(self._raw[-CALIBRATION_WINDOW:])
        self.marks.append((ended, factor, ended - started))

    def scaled(self, start: float, end: float) -> float:
        """Seconds from ``start`` to ``end`` on the reference machine."""
        times = [mark[0] for mark in self.marks]
        position = bisect.bisect_right(times, start)
        factor = self.marks[max(position - 1, 0)][1] if self.marks else 1.0
        total, cursor = 0.0, start
        for mark_end, mark_factor, spent in self.marks[position:]:
            if mark_end > end:
                break
            total += max(0.0, mark_end - spent - cursor) * factor
            cursor, factor = mark_end, mark_factor
        return total + max(0.0, end - cursor) * factor


class Probe:
    """Installable wrappers around :data:`_TARGETS`; see the module docstring."""

    def __init__(self):
        self.recording = False
        self.tracing = False
        self.counts: Counter = Counter()
        #: ``(graph id, bound)`` of every language index requested
        self.bounds_seen: set = set()
        #: interaction samples ``(session key, start, seconds, first)``
        self.steps: List[Tuple[int, float, float, bool]] = []
        self._steps_done: Counter = Counter()
        self._spans: List[Span] = []
        self._next_id = 0
        self.meter = SpeedMeter()
        self._undo: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # install / remove
    # ------------------------------------------------------------------
    def install(self) -> "Probe":
        for name, (owner, attribute) in _TARGETS.items():
            if isinstance(owner, types.ModuleType):
                original = getattr(owner, attribute)
                wrapped = self._wrap(name, original)
                for module in list(sys.modules.values()):
                    if getattr(module, "__name__", "").startswith("repro") and (
                        vars(module).get(attribute) is original
                    ):
                        self._undo.append((module, attribute, original))
                        setattr(module, attribute, wrapped)
                continue
            original = owner.__dict__[attribute]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(name, original.__func__))
            else:
                wrapped = self._wrap(name, original)
            self._undo.append((owner, attribute, original))
            setattr(owner, attribute, wrapped)
        return self

    def remove(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Probe":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    # ------------------------------------------------------------------
    # recorded data
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget counts, interaction samples and spans (not the wrappers)."""
        self.counts = Counter()
        self.bounds_seen = set()
        self.steps = []
        self._steps_done = Counter()
        self._spans = []

    def take_spans(self) -> List[Span]:
        spans, self._spans = self._spans, []
        return spans

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _wrap(self, name: str, func: Callable) -> Callable:
        if name == "manager.drive":
            return self._wrap_coroutine(name, func)
        observe = _OBSERVERS.get(name)
        probe = self
        is_advance = name == "session.advance"
        is_language = name == "workspace.language_index"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not probe.recording:
                return func(*args, **kwargs)
            probe.counts[name] += 1
            if is_language:
                probe.bounds_seen.add((id(args[1]), args[2]))
            if is_advance and probe.meter.due():
                if probe.tracing:
                    # its own span, so no layer's self time absorbs it
                    probe._call_in_span(CALIBRATION_SPAN, probe.meter.measure, (), {}, perf_counter())
                else:
                    probe.meter.measure()
            started = perf_counter()
            if probe.tracing:
                result = probe._call_in_span(name, func, args, kwargs, started)
            else:
                result = func(*args, **kwargs)
            if is_advance and result:
                key = id(args[0])
                probe.steps.append(
                    (key, started, perf_counter() - started, not probe._steps_done[key])
                )
                probe._steps_done[key] += 1
            if observe is not None:
                observe(probe.counts, result, args)
            return result

        return wrapper

    def _call_in_span(self, name, func, args, kwargs, started):
        span_id = self._next_id
        self._next_id += 1
        parent = _PARENT.get()
        token = _PARENT.set(span_id)
        try:
            return func(*args, **kwargs)
        finally:
            ended = perf_counter()
            _PARENT.reset(token)
            self._spans.append(
                (span_id, parent, name, _SESSION.get(), started, ended, ended - started)
            )

    def _wrap_coroutine(self, name: str, func: Callable) -> Callable:
        probe = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            coroutine = func(*args, **kwargs)
            if not probe.recording:
                return coroutine
            probe.counts[name] += 1
            if not probe.tracing:
                return coroutine
            return _ActiveSpan(probe, name, str(args[1]), coroutine)

        return wrapper


class _ActiveSpan:
    """Awaitable running a coroutine as one span, timing only its resumptions.

    Each resumption of the wrapped coroutine runs with the span as the
    current parent and the session id set, inside the awaiting task's own
    context, so concurrent sessions keep separate parent chains.
    """

    def __init__(self, probe: Probe, name: str, session_id: str, coroutine):
        self._probe = probe
        self._name = name
        self._session_id = session_id
        self._coroutine = coroutine

    def __await__(self):
        probe = self._probe
        span_id = probe._next_id
        probe._next_id += 1
        parent = _PARENT.get()
        started = perf_counter()
        active = 0.0
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            resumed = perf_counter()
            parent_token = _PARENT.set(span_id)
            session_token = _SESSION.set(self._session_id)
            try:
                if error is not None:
                    yielded = self._coroutine.throw(error)
                else:
                    yielded = self._coroutine.send(value)
            except StopIteration as stop:
                result = stop.value
                break
            finally:
                _SESSION.reset(session_token)
                _PARENT.reset(parent_token)
                active += perf_counter() - resumed
            try:
                value, error = (yield yielded), None
            except BaseException as raised:  # delivered into the coroutine next turn
                value, error = None, raised
        ended = perf_counter()
        probe._spans.append(
            (span_id, parent, self._name, self._session_id, started, ended, active)
        )
        return result


def cache_counters(workspace: GraphWorkspace, manager: Optional[SessionManager] = None) -> Dict[str, int]:
    """The benchmark's one reader of the program's ``stats()`` readouts.

    Every cache counter the benchmark reports passes through here, so a
    reshaped ``stats()`` API changes this function and nothing else.
    """
    stats = workspace.stats()
    engine = stats["engine"]
    counters = {
        "language_index.builds": stats["language_index_builds"],
        "language_index.restrictions": stats["language_index_restrictions"],
        "language_index.refreshes": stats["language_index_refreshes"],
        "language_index.hits": stats["language_index_hits"],
        "engine.answer_hits": engine["answer_hits"],
        "engine.answer_misses": engine["answer_misses"],
    }
    if manager is not None:
        manager_stats = manager.stats()
        counters["manager.completed"] = manager_stats["completed"]
        counters["manager.deduped"] = manager_stats["deduped"]
    return counters
