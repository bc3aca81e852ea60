"""Ablation benches for the design choices called out in DESIGN.md.

* generalisation on/off (RPNI merges vs raw PTA disjunction),
* pruning/propagation on/off (what the strategy pool looks like without it),
* label noise (how a noisy user degrades the learned query),
* path-length bound sensitivity for the informativeness computation.

These are not figures of the paper; they document which parts of the
system the headline results depend on.
"""

from repro.graph.datasets import motivating_example, transit_city
from repro.interactive.oracle import NoisyUser, SimulatedUser
from repro.interactive.session import InteractiveSession
from repro.learning.examples import ExampleSet
from repro.learning.informativeness import informative_nodes
from repro.learning.learner import PathQueryLearner, learn_query
from repro.serving.workspace import default_workspace

from conftest import write_artifact

GOAL = "(tram + bus)* . cinema"


def test_ablation_generalization_on_off(benchmark, results_dir):
    """RPNI generalisation vs raw PTA: answer quality on the instance."""
    graph = motivating_example()
    positive = {"N2": ("bus", "tram", "cinema"), "N6": ("cinema",)}
    negative = ["N5"]

    def run_both():
        generalized = learn_query(graph, positive=positive, negative=negative, generalize=True)
        raw = learn_query(graph, positive=positive, negative=negative, generalize=False)
        return generalized, raw

    generalized, raw = benchmark(run_both)
    engine = default_workspace().engine
    generalized_metrics = engine.selection_metrics(graph, generalized, GOAL)
    raw_metrics = engine.selection_metrics(graph, raw, GOAL)
    write_artifact(
        results_dir,
        "ablation_generalization.txt",
        f"generalized: {generalized}  f1={generalized_metrics['f1']:.3f}\n"
        f"raw PTA    : {raw}  f1={raw_metrics['f1']:.3f}",
    )
    # generalisation can only help recall on this example
    assert generalized_metrics["recall"] >= raw_metrics["recall"]


def test_ablation_pruning_pool_size(benchmark, results_dir):
    """How many candidates the strategy has to consider with vs without pruning."""
    graph = transit_city(60, tram_lines=4, bus_lines=6, line_length=10, seed=8)
    examples = ExampleSet()
    answer = default_workspace().engine.evaluate(graph, GOAL)
    negatives = sorted(set(graph.nodes()) - answer, key=str)[:5]
    for node in negatives:
        examples.add_negative(node)

    index = default_workspace().language_index(graph, 4)
    ranked = benchmark(informative_nodes, graph, index, examples)
    unlabeled = [node for node in graph.nodes() if node not in examples.labeled_nodes]
    write_artifact(
        results_dir,
        "ablation_pruning.txt",
        f"unlabeled nodes      : {len(unlabeled)}\n"
        f"informative candidates: {len(ranked)}\n"
        f"pruned automatically  : {len(unlabeled) - len(ranked)}",
    )
    assert len(ranked) <= len(unlabeled)


def test_ablation_label_noise(benchmark, results_dir):
    """Noisy Yes/No answers: the session must survive and report inconsistency."""
    graph = motivating_example()

    def run_noisy():
        user = NoisyUser(graph, GOAL, noise=0.3, seed=5)
        session = InteractiveSession(graph, user, max_interactions=8)
        return session.run()

    result = benchmark(run_noisy)
    clean = InteractiveSession(motivating_example(), SimulatedUser(motivating_example(), GOAL)).run()
    engine = default_workspace().engine
    clean_f1 = engine.selection_metrics(motivating_example(), clean.learned_query, GOAL)["f1"]
    noisy_f1 = (
        engine.selection_metrics(graph, result.learned_query, GOAL)["f1"]
        if result.learned_query is not None
        else 0.0
    )
    write_artifact(
        results_dir,
        "ablation_noise.txt",
        f"clean user f1 : {clean_f1:.3f}\nnoisy user f1 : {noisy_f1:.3f}\n"
        f"inconsistency flagged: {result.inconsistent}",
    )
    assert clean_f1 == 1.0


def test_ablation_path_length_bound(benchmark, results_dir):
    """Sensitivity of the learner to the candidate path-length bound."""
    graph = motivating_example()
    examples = ExampleSet()
    examples.add_positive("N2")
    examples.add_positive("N6")
    examples.add_negative("N5")

    def learn_with_bounds():
        outcomes = {}
        for bound in (1, 2, 3, 4, 6):
            learner = PathQueryLearner(graph, max_path_length=bound)
            try:
                outcomes[bound] = learner.learn(examples).query
            except Exception:  # noqa: BLE001 - bound too small is a legal outcome here
                outcomes[bound] = None
        return outcomes

    outcomes = benchmark(learn_with_bounds)
    lines = [f"bound={bound}: {query}" for bound, query in outcomes.items()]
    write_artifact(results_dir, "ablation_path_bound.txt", "\n".join(lines))
    # with a generous bound the learner always succeeds
    assert outcomes[6] is not None
