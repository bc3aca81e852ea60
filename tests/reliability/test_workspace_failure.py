"""Failure safety of GraphWorkspace builds (the PR's latent-bug regression).

The contract: when a registry build raises, the per-key build lock is
released, nothing — not even an empty placeholder entry — is cached,
and the next caller retries the build cleanly.  A raising index build
used to leave its build-lock entry behind.
"""

import threading

import pytest

from repro.exceptions import InjectedFault
from repro.graph.datasets import motivating_example
from repro.serving import GraphWorkspace


class ScriptedInjector:
    """Fails the first ``times`` checks at ``site``; clean afterwards."""

    def __init__(self, site, times=1):
        self.site = site
        self.remaining = times
        self.fired = 0

    def check(self, site):
        if site == self.site and self.remaining > 0:
            self.remaining -= 1
            index = self.fired
            self.fired += 1
            raise InjectedFault(site, index)

    def fires(self, site):
        return False


@pytest.fixture
def graph():
    return motivating_example()


class TestLanguageIndexFailureSafety:
    def test_failed_build_caches_nothing_and_retries_cleanly(self, graph):
        injector = ScriptedInjector("workspace.language_index")
        workspace = GraphWorkspace(injector=injector)
        with pytest.raises(InjectedFault):
            workspace.language_index(graph, 3)
        stats = workspace.stats()
        assert stats["failed_builds"] == 1
        assert stats["language_index_builds"] == 0
        # the per-key build lock must not leak from the failed attempt
        assert not workspace._build_locks
        index = workspace.language_index(graph, 3)  # retry succeeds
        assert workspace.stats()["language_index_builds"] == 1
        assert workspace.language_index(graph, 3) is index

    def test_concurrent_retry_after_failure_does_not_deadlock(self, graph):
        injector = ScriptedInjector("workspace.language_index")
        workspace = GraphWorkspace(injector=injector)
        barrier = threading.Barrier(4)
        outcomes = []

        def worker():
            barrier.wait()
            try:
                outcomes.append(workspace.language_index(graph, 3))
            except InjectedFault:
                outcomes.append(None)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads), "builders deadlocked"
        built = [index for index in outcomes if index is not None]
        assert len(built) >= 3  # exactly one scripted failure
        assert len({id(index) for index in built}) == 1  # everyone shares one build
        assert workspace.stats()["language_index_builds"] == 1


class TestNeighborhoodFailureSafety:
    def test_failed_build_caches_nothing_and_retries_cleanly(self, graph):
        injector = ScriptedInjector("workspace.neighborhoods")
        workspace = GraphWorkspace(injector=injector)
        with pytest.raises(InjectedFault):
            workspace.neighborhoods(graph)
        stats = workspace.stats()
        assert stats["failed_builds"] == 1
        assert stats["neighborhood_index_builds"] == 0
        assert not workspace._build_locks
        index = workspace.neighborhoods(graph)
        assert workspace.neighborhoods(graph) is index
        assert workspace.stats()["neighborhood_index_builds"] == 1


class TestInjectorOffByDefault:
    def test_no_injector_no_fault_checks(self, graph):
        workspace = GraphWorkspace()
        assert workspace.injector is None
        workspace.language_index(graph, 3)
        workspace.neighborhoods(graph)
        assert workspace.stats()["failed_builds"] == 0
