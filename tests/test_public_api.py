"""Tests for the top-level public API surface."""

import repro
from repro import (
    ExampleSet,
    GraphWorkspace,
    InteractiveSession,
    LabeledGraph,
    PathQuery,
    PathQueryLearner,
    SessionManager,
    SimulatedUser,
    learn_query,
)

#: The supported surface, pinned: additions and removals must be deliberate.
EXPECTED_EXPORTS = {
    "LabeledGraph",
    "PathQuery",
    "QueryEngine",
    "PathQueryLearner",
    "learn_query",
    "ExampleSet",
    "InteractiveSession",
    "SessionResult",
    "SimulatedUser",
    "NoisyUser",
    "GraphWorkspace",
    "SessionManager",
    "SessionHandle",
    "default_workspace",
    "FaultPlan",
    "FaultInjector",
    "RetryPolicy",
    "SupervisionPolicy",
    "__version__",
}


class TestTopLevelExports:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_all_is_exactly_the_supported_surface(self):
        assert set(repro.__all__) == EXPECTED_EXPORTS

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_serving_core_exported(self):
        workspace = GraphWorkspace()
        manager = SessionManager(workspace)
        assert manager.workspace is workspace

    def test_reliability_primitives_exported(self):
        plan = repro.FaultPlan(7, default_rate=0.5)
        injector = repro.FaultInjector(plan)
        assert [injector.fires("site") for _ in range(8)] == list(plan.schedule("site", 8))
        assert repro.RetryPolicy().max_attempts >= 1
        assert repro.SupervisionPolicy().breaker() is not repro.SupervisionPolicy().breaker()

    def test_quickstart_snippet_from_docstring(self):
        """The snippet in the package docstring must actually work."""
        from repro.graph.datasets import motivating_example

        graph = motivating_example()
        user = SimulatedUser(graph, "(tram + bus)* . cinema")
        session = InteractiveSession(graph, user)
        result = session.run()
        assert result.learned_query is not None
        engine = repro.default_workspace().engine
        assert engine.evaluate(graph, result.learned_query) == {"N1", "N2", "N4", "N6"}

    def test_minimal_manual_usage(self):
        graph = LabeledGraph("mine")
        graph.add_edge("home", "bus", "work")
        graph.add_edge("work", "cafe", "espresso")
        query = PathQuery("bus . cafe")
        assert repro.default_workspace().engine.evaluate(graph, query) == {"home"}

    def test_learn_query_facade(self):
        from repro.graph.datasets import motivating_example

        graph = motivating_example()
        query = learn_query(
            graph,
            positive={"N2": ("bus", "tram", "cinema"), "N6": ("cinema",)},
            negative=["N5"],
        )
        assert query.same_language("(tram + bus)* . cinema")

    def test_learner_and_examples_classes_exported(self):
        from repro.graph.datasets import motivating_example

        graph = motivating_example()
        examples = ExampleSet()
        examples.add_positive("N4")
        outcome = PathQueryLearner(graph).learn(examples)
        assert outcome.consistent


class TestOneEngineSeam:
    def test_components_take_no_engine_override(self):
        # the workspace is the only way a component reaches an engine
        import inspect

        from repro.interactive.oracle import NoisyUser
        from repro.interactive.strategies import STRATEGY_REGISTRY, make_strategy

        components = [InteractiveSession, SimulatedUser, NoisyUser, PathQueryLearner, make_strategy]
        for component in components + list(STRATEGY_REGISTRY.values()):
            parameters = inspect.signature(component).parameters
            for removed in ("engine", "compatibility", "neighborhood_index"):
                assert removed not in parameters, f"{component.__name__}({removed}=)"

    def test_one_classifier_per_session(self):
        # the session's SessionClassifier carries G, S and the path bound:
        # strategies take no bound of their own, and informativeness and
        # propagation helpers take no classifier override
        import inspect

        from repro.interactive.strategies import STRATEGY_REGISTRY, Strategy, make_strategy
        from repro.learning import informativeness, propagation

        for component in [make_strategy, *STRATEGY_REGISTRY.values()]:
            parameters = inspect.signature(component).parameters
            assert "max_path_length" not in parameters, component.__name__
        assert list(inspect.signature(Strategy.propose).parameters) == ["self", "classifier"]
        helpers = (
            informativeness.classify_all,
            informativeness.informative_nodes,
            informativeness.pruned_nodes,
            informativeness.pruning_fraction,
        )
        for helper in helpers:
            assert "classifier" not in inspect.signature(helper).parameters, helper.__name__
        for function in (propagation.propagate_labels, propagation.propagate_to_fixpoint):
            parameters = list(inspect.signature(function).parameters)
            assert parameters[0] == "classifier", function.__name__
            assert "max_length" not in parameters, function.__name__

    # below the entry points every layer is handed the structure it uses
    #: modules that resolve ``default_workspace()`` for a caller who passed
    #: no workspace; everything below them takes an engine or index argument
    ENTRY_POINTS = {
        "cli.py",
        "experiments/figures.py",
        "experiments/harness.py",
        "interactive/oracle.py",
        "interactive/session.py",
        "learning/learner.py",
        "serving/manager.py",
        "workloads/queries.py",
    }

    @staticmethod
    def _modules():
        import ast
        from pathlib import Path

        root = Path(repro.__file__).resolve().parent
        for path in sorted(root.rglob("*.py")):
            yield path.relative_to(root).as_posix(), ast.parse(path.read_text(encoding="utf-8"))

    def test_low_layers_do_not_import_serving(self):
        import ast

        offenders = []
        for name, tree in self._modules():
            low_layer = name.split("/")[0] in ("graph", "query", "learning")
            if not low_layer or name == "learning/learner.py":
                continue
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    targets = [node.module or ""]
                elif isinstance(node, ast.Import):
                    targets = [alias.name for alias in node.names]
                else:
                    continue
                if any(target.split(".")[:2] == ["repro", "serving"] for target in targets):
                    offenders.append(f"{name}:{node.lineno}")
        assert offenders == []

    def test_default_workspace_is_resolved_only_at_entry_points(self):
        import ast

        callers = set()
        for name, tree in self._modules():
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                function = node.func
                called = getattr(function, "id", None) or getattr(function, "attr", None)
                if called == "default_workspace":
                    callers.add(name)
        assert callers <= self.ENTRY_POINTS, sorted(callers - self.ENTRY_POINTS)

    def test_path_selection_bound_comes_from_the_index(self):
        import inspect

        from repro.learning import path_selection
        from repro.learning.language_index import CompatibilityOracle

        functions = (
            path_selection.covered_words,
            path_selection.consistent_words_for,
            path_selection.select_path,
            path_selection.candidate_prefix_tree,
            path_selection.validate_word,
            CompatibilityOracle,
        )
        for function in functions:
            parameters = inspect.signature(function).parameters
            assert "max_length" not in parameters, function.__name__
            assert "index" in parameters, function.__name__

    def test_engine_and_index_provider_are_required(self):
        import inspect

        from repro.learning.consistency import check_consistency
        from repro.learning.informativeness import SessionClassifier

        required = ((SessionClassifier, "index_provider"), (check_consistency, "engine"))
        for function, name in required:
            parameter = inspect.signature(function).parameters[name]
            assert parameter.default is inspect.Parameter.empty, f"{function.__name__}({name}=)"


class TestSubpackageImports:
    def test_subpackage_all_lists_resolve(self):
        import repro.automata as automata
        import repro.graph as graph
        import repro.interactive as interactive
        import repro.learning as learning
        import repro.query as query
        import repro.regex as regex
        import repro.serving as serving
        import repro.workloads as workloads
        import repro.experiments as experiments

        modules = (graph, regex, automata, query, learning, interactive, workloads, experiments, serving)
        for module in modules:
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"
