"""Dynamic BCC: deltas, mutation safety, re-plan dirtiness, warm==cold."""

from __future__ import annotations

import math
import os
import random
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BCCInstance, CoverageTracker, from_letters as fs
from repro.core.bitset import compile_workload, use_engine
from repro.core.errors import (
    DifferentialError,
    InvalidDeltaError,
    StaleWorkloadError,
)
from repro.datasets.fragmented import generate_fragmented
from repro.decompose.partition import partition_workload
from repro.incremental import engine as engine_module
from repro.incremental import (
    IncrementalConfig,
    IncrementalSolver,
    WorkloadDelta,
    random_delta,
    solve_bcc_sharded,
)
from repro.incremental.engine import TINY_SHARD_QUERIES, effective_jobs
from repro.parallel.fingerprint import (
    instance_fingerprint,
    shard_fingerprints,
    workload_fingerprint,
)
from repro.parallel.pool import SolveTask
from repro.verify.certificate import verify_solution
from repro.verify.incremental import check_delta_stream, random_delta_stream
from tests.strategies import bcc_instances, solvable_instances

# The full registry — the mutation-safety and warm==cold differentials
# below run under every backend.
from repro.core.bitset import ENGINES


def tiny_instance(budget: float = 100.0) -> BCCInstance:
    queries = [fs("ab"), fs("bc"), fs("de"), fs("fg")]
    utilities = {fs("ab"): 4.0, fs("bc"): 3.0, fs("de"): 2.0, fs("fg"): 5.0}
    costs = {fs("a"): 1.0, fs("b"): 2.0, fs("c"): 1.0, fs("d"): 3.0,
             fs("e"): 1.0, fs("f"): 2.0, fs("g"): 2.0}
    return BCCInstance(queries, utilities, costs, budget=budget)


class TestWorkloadDelta:
    def test_of_normalizes_loose_inputs(self):
        delta = WorkloadDelta.of(
            add={fs("xy"): 3.0},
            remove=[("a", "b")],
            utilities=[(fs("bc"), None)],
            costs={fs("a"): 7.0},
        )
        assert delta.add == ((fs("xy"), 3.0),)
        assert delta.remove == (fs("ab"),)
        assert delta.utilities == ((fs("bc"), None),)
        assert delta.costs == ((fs("a"), 7.0),)
        assert delta.num_edits == 4 and not delta.is_empty
        assert WorkloadDelta.of().is_empty

    def test_validate_rejects_bad_deltas(self):
        instance = tiny_instance()
        cases = [
            WorkloadDelta.of(remove=[fs("zz")]),
            WorkloadDelta.of(add=[fs("ab")]),
            WorkloadDelta.of(utilities={fs("zz"): 2.0}),
            WorkloadDelta.of(utilities={fs("ab"): -1.0}),
            WorkloadDelta.of(costs={fs("a"): -5.0}),
            WorkloadDelta.of(add={fs("xy"): math.inf}),
        ]
        for delta in cases:
            with pytest.raises(InvalidDeltaError):
                delta.validate(instance)
        with pytest.raises(InvalidDeltaError):
            WorkloadDelta.of(remove=[fs("ab"), fs("ab")])

    def test_validate_is_atomic(self):
        instance = tiny_instance()
        before = instance_fingerprint(instance)
        bad = WorkloadDelta.of(remove=[fs("ab")], utilities={fs("ab"): 9.0})
        with pytest.raises(InvalidDeltaError):
            instance.apply_delta(bad)
        assert instance_fingerprint(instance) == before
        assert instance.version == 0

    def test_remove_then_add_back_is_legal(self):
        instance = tiny_instance()
        delta = WorkloadDelta.of(remove=[fs("ab")], add={fs("ab"): 9.0})
        instance.apply_delta(delta)
        assert instance.utility(fs("ab")) == 9.0

    @given(instance=bcc_instances(max_queries=5), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_inverse_restores_fingerprint(self, instance, seed):
        rng = random.Random(seed)
        delta = random_delta(instance, rng, fraction=0.5)
        before = instance_fingerprint(instance)
        inverse = delta.inverse(instance)
        instance.apply_delta(delta)
        instance.apply_delta(inverse)
        assert instance_fingerprint(instance) == before


class TestMutationSafety:
    """Satellite regressions: no stale cache may survive a mutation."""

    def test_compiled_view_recompiles_after_mutation(self):
        instance = tiny_instance()
        with use_engine("bits"):
            old = compile_workload(instance)
            instance.add_query(fs("hi"), 2.0)
            fresh = compile_workload(instance)
            assert fresh is not old
            assert fresh.version == instance.version
            with pytest.raises(StaleWorkloadError):
                old.assert_current()
            assert fs("hi") in fresh.query_pos  # no stale compiled mask

    def test_containing_cache_refreshes_after_mutation(self):
        instance = tiny_instance()
        assert len(instance.queries_containing(fs("b"))) == 2
        instance.add_query(fs("bz"), 1.0)
        assert fs("bz") in instance.queries_containing(fs("b"))
        instance.remove_query(fs("ab"))
        assert fs("ab") not in instance.queries_containing(fs("b"))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_tracker_raises_on_stale_reads(self, engine):
        with use_engine(engine):
            instance = tiny_instance()
            tracker = CoverageTracker(instance)
            tracker.add(fs("a"))
            instance.set_cost(fs("a"), 9.0)
            for call in (
                lambda: tracker.add(fs("b")),
                lambda: tracker.remove(fs("a")),
                lambda: tracker.probe_gain([fs("b")]),
                lambda: tracker.checkpoint(),
                lambda: tracker.uncovered_contained_utility(fs("b")),
            ):
                with pytest.raises(StaleWorkloadError):
                    call()

    def test_fresh_tracker_sees_mutated_workload(self):
        for engine in ENGINES:
            with use_engine(engine):
                instance = tiny_instance()
                instance.add_query(fs("hq"), 7.0)
                tracker = CoverageTracker(instance)
                tracker.add_all([fs("h"), fs("q")])
                assert tracker.is_query_covered(fs("hq"))


class TestTrackerRoundTrips:
    """Satellite 2: remove/add round-trips restore floats bit-for-bit."""

    def _state(self, tracker):
        return (
            tracker.utility,
            tracker.spent,
            tracker.covered,
            tracker.selected,
        )

    @pytest.mark.parametrize("engine", ENGINES)
    @given(instance=solvable_instances(max_queries=6), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_add_then_remove_is_identity(self, engine, instance, seed):
        rng = random.Random(seed)
        pool = sorted(instance.relevant_classifiers(), key=sorted)
        base = rng.sample(pool, min(len(pool), rng.randint(1, 5)))
        extra = rng.choice(pool)
        with use_engine(engine):
            tracker = CoverageTracker(instance)
            tracker.add_all(base)
            before = self._state(tracker)
            missing_before = {q: tracker.missing_properties(q) for q in instance.queries}
            tracker.add(extra)
            tracker.remove(extra)
            if extra in base:
                tracker.add(extra)  # re-adding a base member restores it
            assert self._state(tracker) == before
            assert {
                q: tracker.missing_properties(q) for q in instance.queries
            } == missing_before

    @pytest.mark.parametrize("engine", ENGINES)
    @given(instance=solvable_instances(max_queries=6), seed=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_remove_then_readd_is_identity(self, engine, instance, seed):
        rng = random.Random(seed)
        pool = sorted(instance.relevant_classifiers(), key=sorted)
        base = rng.sample(pool, min(len(pool), rng.randint(2, 6)))
        victim = rng.choice(base)
        with use_engine(engine):
            tracker = CoverageTracker(instance)
            tracker.add_all(base)
            # A remove leaves totals equal to a history that never added
            # the victim; re-adding appends it back.
            tracker.remove(victim)
            reference = CoverageTracker(instance)
            reference.add_all([c for c in base if c != victim])
            assert self._state(tracker) == self._state(reference)
            tracker.add(victim)
            reference.add(victim)
            assert self._state(tracker) == self._state(reference)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_infinite_cost_round_trip(self, engine):
        instance = tiny_instance()
        instance.set_cost(fs("q"), math.inf)
        instance.add_query(fs("q"), 1.0)
        with use_engine(engine):
            tracker = CoverageTracker(instance)
            tracker.add_all([fs("a"), fs("b")])
            before = (tracker.utility, tracker.spent)
            tracker.add(fs("q"))
            assert math.isinf(tracker.spent)
            tracker.remove(fs("q"))
            assert (tracker.utility, tracker.spent) == before


class TestEffectiveJobs:
    """Satellite 3: the cold fan-out regression on small shard batches."""

    def _tasks(self, num_queries: int, count: int = 4):
        queries = [frozenset({f"p{i}{j}"}) for i in range(count) for j in range(num_queries)]
        instance = BCCInstance(queries[:num_queries], {}, {}, budget=10.0)
        return [
            SolveTask(key=f"t{i}", solver="abcc", instance=instance)
            for i in range(count)
        ]

    def test_tiny_batches_run_serially(self):
        tasks = self._tasks(num_queries=TINY_SHARD_QUERIES - 1)
        assert effective_jobs(8, tasks) == 1

    def test_jobs_clamped_by_cpus_and_tasks(self):
        tasks = self._tasks(num_queries=TINY_SHARD_QUERIES + 1)
        assert effective_jobs(64, tasks) <= min(os.cpu_count() or 1, len(tasks))
        assert effective_jobs(1, tasks) == 1

    def test_sharded_meta_records_effective_jobs(self, monkeypatch):
        instance = generate_fragmented(
            n_components=3, queries_per_component=4, budget=50.0, seed=1
        )
        run_tasks = engine_module.run_tasks
        jobs = []

        def spy(tasks, config):
            jobs.append(config.jobs)
            return run_tasks(tasks, config)

        monkeypatch.setattr(engine_module, "run_tasks", spy)
        solve_bcc_sharded(instance, IncrementalConfig(jobs=8))
        assert jobs == [1]  # tiny shards → serial


class TestIncrementalEngine:
    CFG = IncrementalConfig()

    def _assert_equals_cold(self, solver, warm):
        cold = IncrementalSolver(solver.instance.clone(), self.CFG).solve()
        assert warm.classifiers == cold.classifiers
        assert (warm.utility, warm.cost) == (cold.utility, cold.cost)

    def test_config_has_no_cache_handle(self):
        # A solved shard point lives only in the profile store, so shard
        # tasks never reach a result cache.
        assert [field.name for field in fields(IncrementalConfig)] == ["jobs", "clock"]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_warm_equals_cold_nonbinding(self, engine):
        with use_engine(engine):
            instance = generate_fragmented(
                n_components=3, queries_per_component=6, budget=1e6, seed=4
            )
            solver = IncrementalSolver(instance.clone(), self.CFG)
            solver.solve()
            rng = random.Random(9)
            for _ in range(2):
                delta = random_delta(solver.instance, rng, fraction=0.1)
                warm = solver.resolve_delta(delta)
                cold = IncrementalSolver(solver.instance.clone(), self.CFG).solve()
                assert warm.classifiers == cold.classifiers
                assert warm.utility == cold.utility
                assert warm.cost == cold.cost
                assert warm.meta["incremental"]["path"] == "non-binding"
                verify_solution(solver.instance, warm, budget=solver.instance.budget)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_warm_equals_cold_binding(self, engine):
        with use_engine(engine):
            instance = generate_fragmented(
                n_components=3, queries_per_component=5, budget=60.0, seed=6
            )
            solver = IncrementalSolver(instance.clone(), self.CFG)
            solver.solve()
            delta = random_delta(solver.instance, random.Random(2), fraction=0.15)
            warm = solver.resolve_delta(delta)
            cold = IncrementalSolver(solver.instance.clone(), self.CFG).solve()
            assert warm.classifiers == cold.classifiers
            assert (warm.utility, warm.cost) == (cold.utility, cold.cost)
            assert warm.meta["incremental"]["path"] != "non-binding"

    def test_untouched_shards_reuse_profiles(self):
        instance = generate_fragmented(
            n_components=4, queries_per_component=6, budget=1e6, seed=8
        )
        solver = IncrementalSolver(instance.clone(), self.CFG)
        solver.solve()
        # Touch exactly one query's utility: only its shard may re-solve.
        victim = solver.instance.queries[0]
        warm = solver.resolve_delta(
            WorkloadDelta.of(utilities={victim: solver.instance.utility(victim) + 1.0})
        )
        info = warm.meta["incremental"]
        assert info["dirty_shards"] == 1
        assert info["reused_profiles"] == info["shards"] - 1
        assert info["solved_tasks"] == 1

    def test_bridge_add_merges_and_remove_splits(self):
        solver = IncrementalSolver(tiny_instance(), self.CFG)
        assert solver.solve().meta["incremental"]["shards"] == 3  # {ab,bc}, {de}, {fg}
        bridge = fs("cd")
        warm = solver.resolve_delta(WorkloadDelta.of(add={bridge: 1.0}))
        assert warm.meta["incremental"]["shards"] == 2  # c--d bridges two shards
        self._assert_equals_cold(solver, warm)
        # The split restores the three original shards, all already solved:
        # none is dirty, nothing runs.
        warm = solver.resolve_delta(WorkloadDelta.of(remove=[bridge]))
        info = warm.meta["incremental"]
        assert info["shards"] == 3
        assert (info["dirty_shards"], info["reused_profiles"]) == (0, 3)
        assert info["solved_tasks"] == 0
        self._assert_equals_cold(solver, warm)

    def test_binding_delta_counts_every_shard_a_task_ran_for(self, monkeypatch):
        # A re-plan under a non-binding budget stores one point per shard.
        # A delta that makes the budget binding needs every shard's grid,
        # so tasks run even for shards whose fingerprint hit the store:
        # those shards are dirty, and none is reused.
        solver = IncrementalSolver(tiny_instance(budget=100.0), self.CFG)
        solver.solve()
        run_tasks = engine_module.run_tasks
        ran = []

        def spy(tasks, config):
            ran.extend(tasks)
            return run_tasks(tasks, config)

        monkeypatch.setattr(engine_module, "run_tasks", spy)
        warm = solver.resolve_delta(
            WorkloadDelta.of(add={fs("hi"): 1.0}, costs={fs("h"): 200.0})
        )
        info = warm.meta["incremental"]
        assert info["path"] != "non-binding"
        shards = partition_workload(solver.instance).shards
        fingerprints = shard_fingerprints(solver.instance, shards)
        assert {task.key.split("/")[0] for task in ran} == {fp[:16] for fp in fingerprints}
        assert info["shards"] == 4
        assert (info["dirty_shards"], info["reused_profiles"]) == (4, 0)
        assert info["solved_tasks"] == len(ran)
        self._assert_equals_cold(solver, warm)

    def test_cost_reprice_merges_and_splits(self):
        queries = [fs("ab"), fs("bc")]
        costs = {fs("a"): 1.0, fs("b"): math.inf, fs("c"): 1.0,
                 fs("ab"): math.inf, fs("bc"): math.inf, fs("abc"): math.inf}
        instance = BCCInstance(queries, {}, costs, budget=10.0,
                               default_cost=math.inf)
        solver = IncrementalSolver(instance, self.CFG)
        assert solver.solve().meta["incremental"]["shards"] == 2  # 'b' is unusable
        warm = solver.resolve_delta(WorkloadDelta.of(costs={fs("b"): 1.0}))
        assert warm.meta["incremental"]["shards"] == 1
        self._assert_equals_cold(solver, warm)
        warm = solver.resolve_delta(WorkloadDelta.of(costs={fs("b"): math.inf}))
        info = warm.meta["incremental"]
        assert info["shards"] == 2
        assert (info["dirty_shards"], info["reused_profiles"]) == (0, 2)
        self._assert_equals_cold(solver, warm)

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two CPUs")
    def test_replan_fans_out_to_two_workers(self, monkeypatch):
        # Shards of 16 queries are not tiny, so their re-plan batches leave
        # the process; the answers must not depend on the worker count.
        run_tasks = engine_module.run_tasks
        jobs = []

        def spy(tasks, config):
            jobs.append(config.jobs)
            return run_tasks(tasks, config)

        monkeypatch.setattr(engine_module, "run_tasks", spy)
        instance = generate_fragmented(
            n_components=3, queries_per_component=16, budget=1e6, seed=4
        )
        answers = {}
        for workers in (1, 2):
            config = IncrementalConfig(jobs=workers)
            solver = IncrementalSolver(instance.clone(), config)
            solver.solve()
            rng = random.Random(2)
            jobs.clear()
            answers[workers] = [
                solver.resolve_delta(random_delta(solver.instance, rng, fraction=0.1))
                for _ in range(2)
            ]
        assert 2 in jobs
        for one, two in zip(answers[1], answers[2]):
            assert one.classifiers == two.classifiers
            assert (one.utility, one.cost) == (two.utility, two.cost)

    def test_profile_store_never_exceeds_its_cap(self, monkeypatch):
        # A cap below the partition width: the floor of two profiles per
        # live shard takes over, and the LRU must evict to stay there.
        monkeypatch.setattr(engine_module, "MAX_STORED_PROFILES", 1)
        solver = IncrementalSolver(tiny_instance(budget=1e6), self.CFG)
        solver.solve()
        stored = set(solver._profiles)
        for step in range(8):
            victim = solver.instance.queries[step % len(solver.instance.queries)]
            warm = solver.resolve_delta(
                WorkloadDelta.of(utilities={victim: solver.instance.utility(victim) + 1.0})
            )
            shards = warm.meta["incremental"]["shards"]
            assert solver._max_profiles == 2 * shards
            assert len(solver._profiles) <= solver._max_profiles
            stored.update(solver._profiles)
            cold = IncrementalSolver(solver.instance.clone(), self.CFG).solve()
            assert warm.classifiers == cold.classifiers
            assert (warm.utility, warm.cost) == (cold.utility, cold.cost)
        assert len(stored) > solver._max_profiles  # eviction really ran

    def test_check_delta_stream_harness(self):
        instance = generate_fragmented(
            n_components=3, queries_per_component=5, budget=1e6, seed=10
        )
        deltas = random_delta_stream(instance, steps=2, rng=random.Random(5), fraction=0.1)
        report = check_delta_stream(instance.clone(), deltas, config=self.CFG)
        assert report["steps"] == 2
        assert len(report["telemetry"]) == 2

    def test_harness_catches_divergence(self):
        instance = generate_fragmented(
            n_components=3, queries_per_component=5, budget=1e6, seed=10
        )
        solver = IncrementalSolver(instance, self.CFG)
        warm = solver.solve()
        # A tampered warm solution must trip the differential check.
        from repro.verify.incremental import _check_step

        tampered = warm.__class__(
            classifiers=frozenset(list(warm.classifiers)[:-1]),
            covered=warm.covered,
            utility=warm.utility,
            cost=warm.cost,
            meta={},
        )
        with pytest.raises((DifferentialError, Exception)):
            _check_step(solver, tampered, self.CFG, None, step=0)

    def test_harness_catches_dirty_count_overlap(self):
        solver = IncrementalSolver(tiny_instance(budget=1e6), self.CFG)
        warm = solver.solve()
        info = dict(warm.meta["incremental"])
        info["reused_profiles"] = 1  # a shard counted both dirty and reused
        overlapping = replace(warm, meta={**warm.meta, "incremental": info})
        from repro.verify.incremental import _check_step

        with pytest.raises(DifferentialError, match="dirty"):
            _check_step(solver, overlapping, self.CFG, None, step=0)

    def test_patch_round_trip_guard(self):
        # The tracker patch check runs on every re-plan; a healthy run
        # never raises DecompositionError.
        instance = tiny_instance(budget=1e6)
        solver = IncrementalSolver(instance, self.CFG)
        solution = solver.solve()
        assert solution.utility == instance.total_utility()

    def test_shard_fingerprints_are_budget_free(self):
        instance = tiny_instance(budget=50.0)
        assert workload_fingerprint(instance) == workload_fingerprint(
            instance.with_budget(999.0)
        )
        assert instance_fingerprint(instance) != instance_fingerprint(
            instance.with_budget(999.0)
        )
