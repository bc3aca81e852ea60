"""Fixture tests for the repro-lint rule families.

Each family gets at least one seeded violation the rule must catch and
one idiomatic negative it must stay silent on.  Fixtures are linted
from strings via :func:`lint_source`, so the corpus lives next to the
assertions instead of in checked-in bad files.
"""

import textwrap

from repro.devtools import LintConfig, lint_source, project_config


def lint(source, path="src/repro/example.py", config=None):
    diagnostics = lint_source(textwrap.dedent(source), path=path, config=config)
    return [(d.rule_id, d.line) for d in diagnostics], diagnostics


def rules_of(source, path="src/repro/example.py", config=None):
    pairs, _ = lint(source, path=path, config=config)
    return [rule_id for rule_id, _ in pairs]


class TestREP100Determinism:
    def test_module_level_random_call_flagged(self):
        assert "REP101" in rules_of(
            """
            import random

            def pick(items):
                return random.choice(items)
            """
        )

    def test_from_import_random_call_flagged(self):
        assert "REP101" in rules_of(
            """
            from random import shuffle

            def mix(items):
                shuffle(items)
            """
        )

    def test_unseeded_random_instance_flagged(self):
        assert "REP102" in rules_of(
            """
            import random

            def fresh_seed():
                return random.Random().randrange(1 << 32)
            """
        )

    def test_seeded_random_instance_is_clean(self):
        assert rules_of(
            """
            import random

            def rng(seed):
                return random.Random(seed)
            """
        ) == []

    def test_builtin_hash_outside_dunder_flagged(self):
        assert "REP103" in rules_of(
            """
            def fingerprint(word):
                return hash(word)
            """
        )

    def test_builtin_hash_inside_dunder_is_clean(self):
        assert rules_of(
            """
            class Key:
                def __hash__(self):
                    return hash((self.a, self.b))
            """
        ) == []

    def test_set_iteration_flagged(self):
        rules = rules_of(
            """
            def emit(graph):
                nodes = {n for n in graph}
                for node in nodes:
                    print(node)
            """
        )
        assert "REP104" in rules

    def test_list_over_set_flagged(self):
        assert "REP104" in rules_of(
            """
            def order(items):
                return list(set(items))
            """
        )

    def test_sorted_set_is_clean(self):
        assert rules_of(
            """
            def order(items):
                seen = set(items)
                return sorted(seen)
            """
        ) == []

    def test_order_free_reducer_over_set_is_clean(self):
        assert rules_of(
            """
            def any_even(items):
                seen = set(items)
                return any(item % 2 == 0 for item in seen)
            """
        ) == []


class TestREP200Workspace:
    def test_default_workspace_in_loop_flagged(self):
        pairs, _ = lint(
            """
            from repro.serving.workspace import default_workspace

            def answers(graphs, query):
                results = []
                for graph in graphs:
                    results.append(default_workspace().engine.evaluate(graph, query))
                return results
            """
        )
        assert ("REP201", 7) in pairs

    def test_constructor_in_while_flagged(self):
        assert "REP201" in rules_of(
            """
            from repro.serving import GraphWorkspace

            def churn(jobs):
                while jobs:
                    job = jobs.pop()
                    GraphWorkspace().engine.evaluate(job.graph, job.query)
            """
        )

    def test_comprehension_element_flagged(self):
        assert "REP201" in rules_of(
            """
            from repro.serving.workspace import default_workspace

            def answers(graphs, query):
                return [default_workspace().engine.evaluate(g, query) for g in graphs]
            """
        )

    def test_hoisted_workspace_is_clean(self):
        assert rules_of(
            """
            from repro.serving.workspace import default_workspace

            def answers(graphs, query):
                workspace = default_workspace()
                return [workspace.engine.evaluate(g, query) for g in graphs]
            """
        ) == []

    def test_first_comprehension_iterable_is_clean(self):
        # the first generator's iterable evaluates exactly once
        assert rules_of(
            """
            from repro.serving.workspace import default_workspace

            def engines():
                return [e for e in [default_workspace().engine]]
            """
        ) == []

    def test_single_resolution_is_clean(self):
        assert rules_of(
            """
            from repro.serving.workspace import default_workspace

            def answer(graph, query):
                return default_workspace().engine.evaluate(graph, query)
            """
        ) == []


class TestREP300CacheKeys:
    def test_versionless_memo_flagged(self):
        pairs, diagnostics = lint(
            """
            class Engine:
                def __init__(self):
                    self._answer_cache = {}

                def evaluate(self, graph, query):
                    key = str(query)
                    if key not in self._answer_cache:
                        self._answer_cache[key] = self._run(graph, query)
                    return self._answer_cache[key]
            """
        )
        assert [rule for rule, _ in pairs] == ["REP301"]
        assert diagnostics[0].symbol == "_answer_cache"

    def test_version_witnessed_key_is_clean(self):
        assert rules_of(
            """
            class Engine:
                def __init__(self):
                    self._answer_cache = {}

                def evaluate(self, graph, query):
                    key = (graph.version, str(query))
                    if key not in self._answer_cache:
                        self._answer_cache[key] = self._run(graph, query)
                    return self._answer_cache[key]
            """
        ) == []

    def test_class_revision_marker_is_clean(self):
        # the _GraphCache idiom: revision stored beside the dict,
        # registered with a workspace invalidation hook
        assert rules_of(
            """
            class GraphCache:
                __workspace_hook__ = "engine.answers"

                def __init__(self, version):
                    self.version = version
                    self.answers = {}

                def get(self, key):
                    return self.answers.get(key)
            """
        ) == []

    def test_version_snapshot_without_hook_flagged(self):
        pairs, diagnostics = lint(
            """
            class Index:
                def __init__(self, graph):
                    self.version = graph.version
                    self.table = self._build(graph)
            """
        )
        assert [rule for rule, _ in pairs] == ["REP302"]
        assert diagnostics[0].symbol == "version"

    def test_version_snapshot_with_hook_is_clean(self):
        assert rules_of(
            """
            class Index:
                __workspace_hook__ = "workspace.language_index"

                def __init__(self, graph):
                    self.version = graph.version
                    self.table = self._build(graph)
            """
        ) == []

    def test_version_constant_initialiser_not_flagged(self):
        # a counter the class owns (self._version = 0) is not a snapshot
        assert rules_of(
            """
            class Graph:
                def __init__(self):
                    self._version = 0

                def mutate(self):
                    self._version += 1
            """
        ) == []

    def test_version_snapshot_suppressible(self):
        assert rules_of(
            """
            class Fragment:
                def __init__(self, source_version):
                    # repro-lint: disable=REP302 -- value snapshot, checked on access
                    self._source_version = source_version
            """
        ) == []

    def test_traced_local_value_counts_as_evidence(self):
        # the value expression mentions the marker only via a local
        assert rules_of(
            """
            class Engine:
                def __init__(self):
                    self._caches = {}

                def cache_for(self, graph):
                    entry = GraphCache(graph.version)
                    self._caches[graph] = entry
                    return entry
            """
        ) == []

    def test_allowlist_exempts_named_memo(self):
        source = """
        class Registry:
            def __init__(self):
                self._memo = {}

            def put(self, key, value):
                self._memo[key] = value
        """
        assert "REP301" in rules_of(source, path="src/repro/serving/thing.py")
        config = project_config().merged(
            {"allow": {"REP301": ["src/repro/serving/thing.py::_memo"]}}
        )
        assert rules_of(source, path="src/repro/serving/thing.py", config=config) == []


class TestREP400Locks:
    def test_build_call_under_lock_flagged(self):
        assert "REP401" in rules_of(
            """
            class Workspace:
                def language_index(self, graph, bound):
                    with self._lock:
                        index = LanguageIndex(graph, bound)
                    return index
            """
        )

    def test_build_call_outside_lock_is_clean(self):
        assert rules_of(
            """
            class Workspace:
                def language_index(self, graph, bound):
                    with self._lock:
                        key = (id(graph), bound)
                    index = LanguageIndex(graph, bound)
                    with self._lock:
                        self._indexes[key] = (graph.version, index)
                    return index
            """
        ) == []

    def test_bare_acquire_flagged(self):
        assert "REP402" in rules_of(
            """
            class Workspace:
                def touch(self):
                    self._lock.acquire()
                    try:
                        self._hits += 1
                    finally:
                        self._lock.release()
            """
        )


class TestREP500ApiHygiene:
    def test_exported_function_without_docstring_flagged(self):
        assert "REP501" in rules_of(
            """
            __all__ = ["entry"]

            def entry(graph: object) -> int:
                return 0
            """
        )

    def test_exported_function_without_annotations_flagged(self):
        assert "REP502" in rules_of(
            """
            __all__ = ["entry"]

            def entry(graph):
                '''Documented but untyped.'''
                return 0
            """
        )

    def test_unexported_function_is_exempt(self):
        assert rules_of(
            """
            __all__ = ["entry"]

            def entry(graph: object) -> int:
                '''Documented and typed.'''
                return _helper(graph)

            def _helper(graph):
                return 0
            """
        ) == []

    def test_exported_class_without_docstring_flagged(self):
        assert "REP501" in rules_of(
            """
            __all__ = ["Thing"]

            class Thing:
                pass
            """
        )


class TestREP600Reliability:
    def test_except_exception_pass_flagged(self):
        assert "REP602" in rules_of(
            """
            def best_effort(job):
                try:
                    job.run()
                except Exception:
                    pass
            """
        )

    def test_except_base_exception_ellipsis_flagged(self):
        assert "REP602" in rules_of(
            """
            def best_effort(job):
                try:
                    job.run()
                except BaseException:
                    ...
            """
        )

    def test_handled_exception_is_clean(self):
        assert rules_of(
            """
            def fetch(job, log):
                try:
                    return job.run()
                except Exception as error:
                    log.append(error)
                    raise
            """
        ) == []

    def test_wall_clock_deadline_flagged(self):
        assert "REP603" in rules_of(
            """
            import time

            def wait(budget):
                deadline = time.time() + budget
                return deadline
            """
        )

    def test_wall_clock_timeout_comparison_flagged(self):
        assert "REP603" in rules_of(
            """
            import time

            def expired(timeout_at):
                return time.time() > timeout_at
            """
        )

    def test_monotonic_deadline_is_clean(self):
        assert rules_of(
            """
            import time

            def wait(budget):
                deadline = time.monotonic() + budget
                return deadline
            """
        ) == []

    def test_wall_clock_timestamping_is_clean(self):
        # time.time() is fine when it is not deadline logic
        assert rules_of(
            """
            import time

            def stamp(row):
                row['created_at'] = time.time()
                return row
            """
        ) == []

    def test_unbounded_retry_loop_flagged(self):
        assert "REP604" in rules_of(
            """
            def stubborn(job):
                while True:
                    try:
                        return job.run()
                    except OSError:
                        continue
            """
        )

    def test_bounded_retry_loop_is_clean(self):
        assert rules_of(
            """
            def bounded(job, attempts):
                while True:
                    attempts -= 1
                    try:
                        return job.run()
                    except OSError:
                        if attempts <= 0:
                            raise
                        continue
            """
        ) == []

    def test_counter_bounded_while_is_clean(self):
        assert rules_of(
            """
            def bounded(job, policy):
                attempt = 0
                while attempt < policy.max_attempts:
                    attempt += 1
                    try:
                        return job.run()
                    except OSError:
                        continue
                return None
            """
        ) == []


class TestSelect:
    def test_select_narrows_to_one_family(self):
        source = """
        import random

        def pick(items):
            return random.choice(items)

        def fingerprint(word):
            return hash(word)
        """
        config = LintConfig(select=("REP100",))
        rules = rules_of(source, config=config)
        assert "REP101" in rules and "REP103" in rules
        config = LintConfig(select=("REP400",))
        assert rules_of(source, config=config) == []
