"""Tests for the phase-attribution profiling layer (repro.profile)."""

import pytest

from repro.core import BCCInstance, from_letters as fs
from repro.datasets.synthetic import generate_synthetic
from repro.parallel.clock import Clock
from repro.profile import (
    PhaseProfiler,
    activate,
    add_count,
    current_profiler,
    phase,
)


class FakeClock(Clock):
    """Deterministic monotonic clock: each read advances by `step`."""

    def __init__(self, step: float = 1.0) -> None:
        self.time = 0.0
        self.step = step

    def now(self) -> float:
        value = self.time
        self.time += self.step
        return value


def _instance() -> BCCInstance:
    queries = [fs("ab"), fs("bc")]
    utilities = {fs("ab"): 3.0, fs("bc"): 2.0}
    costs = {fs("a"): 1.0, fs("b"): 1.0, fs("c"): 1.0, fs("ab"): 1.5, fs("bc"): 1.5}
    return BCCInstance(queries, utilities, costs, budget=4.0)


class TestPhaseProfiler:
    def test_injected_clock_gives_deterministic_seconds(self):
        prof = PhaseProfiler(clock=FakeClock(step=1.0))
        with prof.phase("alpha"):
            pass
        with prof.phase("alpha"):
            pass
        snap = prof.snapshot()
        assert snap["phases"]["alpha"] == {"seconds": 2.0, "calls": 2}

    def test_phases_nest_with_inclusive_times(self):
        clock = FakeClock(step=1.0)
        prof = PhaseProfiler(clock=clock)
        with prof.phase("outer"):
            with prof.phase("inner"):
                pass
        snap = prof.snapshot()
        assert snap["phases"]["inner"]["calls"] == 1
        assert snap["phases"]["outer"]["seconds"] >= snap["phases"]["inner"]["seconds"]

    def test_counters_accumulate(self):
        prof = PhaseProfiler(clock=FakeClock())
        prof.add_count("probes")
        prof.add_count("probes", 4)
        assert prof.snapshot()["counts"] == {"probes": 5}

    def test_phase_records_even_on_exception(self):
        prof = PhaseProfiler(clock=FakeClock())
        with pytest.raises(RuntimeError):
            with prof.phase("boom"):
                raise RuntimeError
        assert prof.snapshot()["phases"]["boom"]["calls"] == 1


class TestActivation:
    def test_no_active_profiler_by_default(self):
        assert current_profiler() is None

    def test_module_hooks_are_noops_when_inactive(self):
        add_count("ignored")
        with phase("ignored"):
            pass
        assert current_profiler() is None

    def test_activate_scopes_and_unwinds(self):
        prof = PhaseProfiler(clock=FakeClock())
        with activate(prof) as active:
            assert active is prof
            assert current_profiler() is prof
            add_count("hits")
            with phase("span"):
                pass
        assert current_profiler() is None
        snap = prof.snapshot()
        assert snap["counts"] == {"hits": 1}
        assert snap["phases"]["span"]["calls"] == 1

    def test_inner_profiler_shadows_outer(self):
        outer, inner = PhaseProfiler(FakeClock()), PhaseProfiler(FakeClock())
        with activate(outer):
            with activate(inner):
                add_count("x")
        assert inner.counts == {"x": 1}
        assert outer.counts == {}


class TestSolveBccIntegration:
    def test_profile_meta_absent_when_disabled(self):
        from repro.algorithms.bcc import solve_bcc

        solution = solve_bcc(_instance())
        assert "profile" not in solution.meta

    def test_explicit_profiler_sees_phases_and_counters(self):
        from repro.algorithms.bcc import solve_bcc

        prof = PhaseProfiler()
        with activate(prof):
            solution = solve_bcc(_instance())
        assert "prune" in prof.seconds and prof.calls["prune"] == 1
        assert "tracker_probes" in prof.counts
        assert "transpose_rebuilds" in prof.counts
        # The profiler is the one copy: the answer carries none of it.
        assert "profile" not in solution.meta
        assert "engine" not in solution.meta

    def test_profiled_solution_identical_to_unprofiled(self):
        from repro.algorithms.bcc import solve_bcc

        # On the synthetic workload the final swap polish changes the
        # selection, so a stage the profiled path skipped would show.
        for instance in (_instance(), generate_synthetic(80, 40, budget=150.0, seed=0)):
            plain = solve_bcc(instance)
            with activate(PhaseProfiler()):
                profiled = solve_bcc(instance)
            assert profiled.classifiers == plain.classifiers
            assert profiled.utility == plain.utility
            assert profiled.cost == plain.cost
            assert profiled.meta == plain.meta


class TestProjectionCounterGate:
    def test_bisection_rarely_falls_back_to_the_numpy_sum(self):
        """Counter gate on the Lovász arm's capped-simplex projection.

        Most bisection steps are decided by the sorted-prefix-sum estimate;
        only steps inside its error band run the O(n) numpy sum.  A fixed
        seeded solve reads about 1 exact sum per 75 steps, so a bound
        breaking into the band on every step fails this by a wide margin.
        """
        from repro.algorithms.bcc import solve_bcc
        from repro.datasets.synthetic import generate_synthetic
        from repro.mc3 import full_cover_cost

        instance = generate_synthetic(60, 40, seed=0)
        instance = instance.with_budget(0.3 * full_cover_cost(instance))
        with activate(PhaseProfiler()) as prof:
            solve_bcc(instance)
        counts = prof.counts
        assert counts["projection_steps"] > 0
        assert counts["projection_exact"] <= 0.15 * counts["projection_steps"]
