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
