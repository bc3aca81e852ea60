"""Tests for the deterministic fault-injection harness.

The load-bearing property is that a fault schedule is a pure function of
``(plan seed, site name)`` — independent of thread interleaving, of
other sites, and of process boundaries — because bit-identical chaos
replay (the ``repro chaos`` gate) rests on it.
"""

import os
import pickle
import subprocess
import sys
import zlib
from pathlib import Path

import pytest

import repro
from repro.exceptions import InjectedFault
from repro.reliability import FaultInjector, FaultPlan, null_injector


class TestFaultPlan:
    def test_sub_seed_matches_the_runner_fold(self):
        plan = FaultPlan(11)
        site = "oracle.label"
        expected = (11 * 1_000_003 + zlib.crc32(site.encode("utf-8"))) % 2**31
        assert plan.sub_seed(site) == expected

    def test_schedule_is_deterministic(self):
        plan = FaultPlan(7, default_rate=0.3)
        assert plan.schedule("a.site", 50) == plan.schedule("a.site", 50)
        assert FaultPlan(7, default_rate=0.3).schedule("a.site", 50) == plan.schedule(
            "a.site", 50
        )

    def test_sites_have_independent_streams(self):
        plan = FaultPlan(7, default_rate=0.5)
        assert plan.schedule("site.one", 64) != plan.schedule("site.two", 64)

    def test_rate_resolution_exact_beats_prefix_beats_default(self):
        plan = FaultPlan(
            1,
            default_rate=0.1,
            rates={"oracle.label": 0.9, "oracle.*": 0.5, "runner.unit*": 0.0},
        )
        assert plan.rate_for("oracle.label") == 0.9
        assert plan.rate_for("oracle.validate_path") == 0.5
        assert plan.rate_for("runner.unit:abc#a1") == 0.0
        assert plan.rate_for("workspace.neighborhoods") == 0.1

    def test_longest_prefix_wins(self):
        plan = FaultPlan(1, rates={"a.*": 0.2, "a.b.*": 0.8})
        assert plan.rate_for("a.b.c") == 0.8
        assert plan.rate_for("a.z") == 0.2

    def test_invalid_rates_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(1, default_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(1, rates={"site": -0.1})

    def test_dict_round_trip(self):
        plan = FaultPlan(9, default_rate=0.05, rates={"oracle.*": 0.2})
        clone = FaultPlan.from_dict(plan.as_dict())
        assert clone.schedule("oracle.label", 32) == plan.schedule("oracle.label", 32)
        assert clone.as_dict() == plan.as_dict()

    def test_schedule_identical_across_processes(self):
        plan = FaultPlan(20150323, default_rate=0.05)
        script = (
            "from repro.reliability import FaultPlan\n"
            "plan = FaultPlan(20150323, default_rate=0.05)\n"
            "print(''.join('x' if fired else '.' "
            "for fired in plan.schedule('oracle.label', 200)))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(repro.__file__).resolve().parents[1])]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        output = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
            env=env,
        ).stdout.strip()
        expected = "".join(
            "x" if fired else "." for fired in plan.schedule("oracle.label", 200)
        )
        assert output == expected


class TestFaultInjector:
    def test_fires_matches_the_pure_schedule(self):
        plan = FaultPlan(3, default_rate=0.4)
        injector = FaultInjector(plan)
        observed = [injector.fires("a.site") for _ in range(64)]
        assert observed == plan.schedule("a.site", 64)

    def test_check_raises_with_site_and_index(self):
        plan = FaultPlan(3, default_rate=1.0)
        injector = FaultInjector(plan)
        with pytest.raises(InjectedFault) as exc_info:
            injector.check("a.site")
        assert exc_info.value.site == "a.site"
        assert exc_info.value.index == 0

    def test_zero_rate_site_never_fires(self):
        injector = FaultInjector(FaultPlan(3))
        for _ in range(100):
            injector.check("any.site")  # must not raise

    def test_interleaving_does_not_perturb_per_site_schedules(self):
        plan = FaultPlan(5, default_rate=0.5)
        solo = FaultInjector(plan)
        solo_schedule = [solo.fires("one") for _ in range(32)]
        mixed = FaultInjector(plan)
        observed = []
        for index in range(32):
            mixed.fires("two")  # interleaved traffic on another site
            observed.append(mixed.fires("one"))
            mixed.fires("three")
        assert observed == solo_schedule

    def test_stats_count_draws_and_fires(self):
        injector = FaultInjector(FaultPlan(3, default_rate=1.0))
        for _ in range(4):
            with pytest.raises(InjectedFault):
                injector.check("a.site")
        injector.fires("b.site")
        stats = injector.stats()
        assert stats["a.site"] == {"draws": 4, "fired": 4}
        assert stats["b.site"]["draws"] == 1

    def test_injected_fault_pickles_across_process_boundaries(self):
        fault = InjectedFault("runner.unit:abc#a2", 5)
        clone = pickle.loads(pickle.dumps(fault))
        assert isinstance(clone, InjectedFault)
        assert clone.site == "runner.unit:abc#a2"
        assert clone.index == 5

    def test_null_injector_is_none(self):
        assert null_injector() is None
