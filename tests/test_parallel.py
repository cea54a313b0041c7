"""Tests for the parallel execution layer (``repro.parallel``).

The layer's contract has three legs, and each gets its own section here:

1. **Bit-identical results** — every figure helper and the corpus batch
   produce the same answers at ``jobs=1`` and ``jobs=4`` (same utilities,
   costs, classifier sets, and certificates attached after the batch),
   because tasks are pure functions of their derived seeds and results
   reduce in task order.
2. **Stable fingerprints** — the cache key is invariant under query
   order, dict insertion order and float formatting, and distinct
   instances never collide on the seeded corpus.
3. **Deterministic caching** — a warm run replays the cold run byte for
   byte (stored wall seconds included), every hit is re-verified and a
   corrupt one counts as a miss and is solved cold, eviction is LRU, and
   ``REPRO_CACHE_DIR`` moves the default cache.

The heavyweight figure sweeps and the 3× stress run are marked ``slow``
and excluded from the default pytest invocation; the CI ``slow`` leg
runs them with ``-m slow``.
"""

from __future__ import annotations

import hashlib
import json
import math
import pickle
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import BCCInstance, ECCInstance, GMC3Instance, evaluate
from repro.experiments.figures import ALL_FIGURES
from repro.experiments.runner import FigureResult
from repro.experiments.scales import MICRO
from repro.incremental.delta import random_delta
from repro.parallel import (
    ParallelConfig,
    ResultCache,
    SolveTask,
    TaskBatch,
    corpus_figure,
    corpus_tasks,
    default_cache,
    derive_rng,
    instance_fingerprint,
    resolve_jobs,
    run_tasks,
    seed_for,
    spawn_keys,
    task_fingerprint,
)
from repro.parallel.cache import CACHE_VERSION
from repro.parallel.fingerprint import workload_fingerprint, workload_tokens
from repro.verify.certificate import attach_certificate, verify_solution
from tests.strategies import bcc_instances, reencoded_bcc_pairs

JOBS = 4


# ---------------------------------------------------------------------------
# Splittable seeding
# ---------------------------------------------------------------------------


class TestSeeding:
    def test_pinned_values(self):
        # Frozen forever: changing these silently re-seeds every cached
        # and recorded randomized result in the repo.
        assert seed_for("fig3a", 120.0, "RAND", 3) == 17009802019263918618
        assert seed_for("corpus", "figure-1", "rand-bcc") == 13298288819621019598
        assert seed_for() == 6030909613583296255

    def test_deterministic_and_distinct(self):
        keys = [
            ("fig3a", 100.0, "RAND", 0),
            ("fig3a", 100.0, "RAND", 1),
            ("fig3a", 200.0, "RAND", 0),
            ("fig3b", 100.0, "RAND", 0),
            ("fig3a", 100.0, "IG1", 0),
        ]
        seeds = [seed_for(*key) for key in keys]
        assert seeds == [seed_for(*key) for key in keys]
        assert len(set(seeds)) == len(keys)

    def test_type_tags_distinguish(self):
        assert seed_for(2) != seed_for(2.0)
        assert seed_for(True) != seed_for(1)
        assert seed_for(None) != seed_for("None")
        assert seed_for("ab") != seed_for("a", "b")

    def test_frozenset_order_invariant(self):
        assert seed_for(frozenset("abc")) == seed_for(frozenset("cba"))
        assert seed_for(frozenset({1, 2, 3})) == seed_for(frozenset({3, 1, 2}))

    def test_derive_rng_independent_streams(self):
        a = derive_rng("task", 0).random()
        b = derive_rng("task", 1).random()
        assert a == derive_rng("task", 0).random()
        assert a != b

    def test_spawn_keys(self):
        children = spawn_keys(("fig", 1), 3)
        assert children == (("fig", 1, 0), ("fig", 1, 1), ("fig", 1, 2))
        assert len({seed_for(*child) for child in children}) == 3


# ---------------------------------------------------------------------------
# Instance fingerprints
# ---------------------------------------------------------------------------


class TestFingerprint:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(pair=reencoded_bcc_pairs())
    def test_invariant_under_reencoding(self, pair):
        instance, twin = pair
        assert instance_fingerprint(instance) == instance_fingerprint(twin)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        instance=bcc_instances(allow_inf_cost=False),
        delta=st.floats(0.5, 100.0, allow_nan=False),
    )
    def test_budget_change_changes_fingerprint(self, instance, delta):
        shifted = BCCInstance(
            list(instance.queries),
            {q: instance.utility(q) for q in instance.queries},
            dict(instance._costs),
            budget=instance.budget + delta,
            default_utility=instance.default_utility,
            default_cost=instance.default_cost,
        )
        assert instance_fingerprint(instance) != instance_fingerprint(shifted)

    def test_float_formatting_normalized(self):
        q = frozenset({"a", "b"})
        base = dict(queries=[q], default_utility=1.0, default_cost=1.0)
        left = BCCInstance(utilities={q: 3}, costs={frozenset({"a"}): 2}, budget=5, **base)
        right = BCCInstance(
            utilities={q: 3.0}, costs={frozenset({"a"}): 2.0}, budget=5.0, **base
        )
        assert instance_fingerprint(left) == instance_fingerprint(right)

    def test_no_collisions_on_seeded_corpus(self):
        from repro.verify.corpus import corpus_cases

        cases = list(corpus_cases(seeds=range(3)))
        fingerprints = {instance_fingerprint(case.instance) for case in cases}
        assert len(fingerprints) == len(cases)

    def test_task_fingerprint_dimensions(self):
        instance = BCCInstance([frozenset({"a"})], budget=1.0)
        base = task_fingerprint(instance, "abcc", None)
        assert base == task_fingerprint(instance, "abcc", None)
        assert base != task_fingerprint(instance, "ig1-bcc", None)
        assert base != task_fingerprint(instance, "abcc", 0)
        assert task_fingerprint(instance, "abcc", 0) != task_fingerprint(instance, "abcc", 1)

    def test_pinned_hex(self):
        # Frozen forever: the memoized encoding must hash exactly as the
        # cold one did, or every on-disk cache key and arm seed moves.
        instance = BCCInstance(
            [frozenset("ab"), frozenset("c")],
            {frozenset("c"): 3.0},
            {frozenset("a"): 2.5},
            budget=2,
        )
        expected = "211b1a8a474b53d40b0c512c83360a0e2933683974fac2f8b6e164231b6490fe"
        assert instance_fingerprint(instance) == expected
        assert instance_fingerprint(instance.with_budget(2.0)) == expected


def _sha(tokens):
    return hashlib.sha256("\x1f".join(tokens).encode("utf-8")).hexdigest()


class TestFingerprintMemo:
    """The workload's payload memo must never serve another content's hash.

    ``with_budget`` twins share one memo box and every mutator swaps a
    fresh box into the mutated workload only.  After every step of an
    arbitrary interleaving of mutations across an instance, its twins and
    its clones, each memoized fingerprint must equal a cold SHA-256 over
    ``workload_tokens``.
    """

    def _assert_cold(self, workload):
        tokens = workload_tokens(workload)
        instance_tokens = list(tokens)
        if isinstance(workload, BCCInstance):
            instance_tokens.append(f"B={float(workload.budget)!r}")
        elif isinstance(workload, GMC3Instance):
            instance_tokens.append(f"T={float(workload.target)!r}")
        cold = _sha(instance_tokens)
        assert workload_fingerprint(workload) == _sha(tokens)
        assert instance_fingerprint(workload) == cold
        assert task_fingerprint(workload, "abcc", 7) == _sha([cold, "solver=abcc", "seed=7"])

    @staticmethod
    def _twin(workload, budget):
        if isinstance(workload, BCCInstance):
            return workload.with_budget(budget)
        return workload.as_bcc(budget)

    @staticmethod
    def _mutate(workload, rng):
        queries = sorted(workload.queries, key=sorted)
        op = rng.randrange(5)
        if op == 0:
            fresh = frozenset({f"n{rng.randrange(1000)}", rng.choice("abcdefgh")})
            if not workload.has_query(fresh):
                workload.add_query(fresh, rng.choice([None, 4.5]))
        elif op == 1 and len(queries) > 1:
            workload.remove_query(rng.choice(queries))
        elif op == 2:
            workload.set_utility(rng.choice(queries), rng.choice([None, 0.5, 7.0]))
        elif op == 3:
            classifier = rng.choice(sorted(workload.relevant_classifiers(), key=sorted))
            workload.set_cost(classifier, rng.choice([None, 0.0, 3.0, math.inf]))
        else:
            workload.apply_delta(random_delta(workload, rng, fraction=0.3))

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        instance=bcc_instances(max_queries=5),
        kind=st.sampled_from([BCCInstance, GMC3Instance, ECCInstance]),
        seed=st.integers(0, 2**16),
    )
    def test_memoized_equals_cold_under_interleaved_mutation(self, instance, kind, seed):
        rng = random.Random(seed)
        extra = {BCCInstance: {"budget": instance.budget}, GMC3Instance: {"target": 2.0}}
        root = kind(
            list(instance.queries),
            dict(instance._utilities),
            dict(instance._costs),
            **extra.get(kind, {}),
        )
        family = [root]
        for _ in range(12):
            member = rng.choice(family)
            step = rng.randrange(4)
            if step == 0:
                family.append(self._twin(member, rng.choice([0.0, 5.0, 40.0])))
            elif step == 1:
                family.append(member.clone())
            else:
                self._mutate(member, rng)
            for workload in family:
                self._assert_cold(workload)

    def test_twins_share_the_memo_and_mutation_splits_it(self):
        instance = BCCInstance([frozenset("ab"), frozenset("c")], budget=3.0)
        twin = instance.with_budget(9.0)
        assert twin._payload_memo is instance._payload_memo
        before = workload_fingerprint(instance)
        twin.set_cost(frozenset("a"), 2.0)
        assert twin._payload_memo is not instance._payload_memo
        assert workload_fingerprint(instance) == before
        assert workload_fingerprint(twin) != before
        assert instance.clone()._payload_memo is not instance._payload_memo

    @pytest.mark.parametrize("kind", [GMC3Instance, ECCInstance])
    def test_as_bcc_does_not_inherit_the_memo(self, kind):
        workload = kind([frozenset("ab"), frozenset("c")])
        assert workload_fingerprint(workload)
        view = workload.as_bcc(4.0)
        assert view._payload_memo is not workload._payload_memo
        assert workload_tokens(view)[1] == "BCCInstance"
        self._assert_cold(view)
        self._assert_cold(workload)

    def test_fingerprinted_instances_pickle_to_equal_fingerprints(self):
        instance = BCCInstance(
            [frozenset("ab"), frozenset("bc")], {frozenset("bc"): 2.0}, budget=3.0
        )
        twin = instance.with_budget(6.0)
        expected = [task_fingerprint(instance, "abcc", 1), task_fingerprint(twin, "abcc", 1)]
        assert instance._payload_memo.payload is not None
        copies = pickle.loads(pickle.dumps([instance, twin]))
        assert [task_fingerprint(copy, "abcc", 1) for copy in copies] == expected
        for copy in copies:
            self._assert_cold(copy)


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------


def _tiny_instance() -> BCCInstance:
    q1, q2 = frozenset({"a", "b"}), frozenset({"b", "c"})
    return BCCInstance(
        [q1, q2],
        {q1: 5.0, q2: 3.0},
        {frozenset({"b"}): 1.0, frozenset({"a", "b"}): 2.0},
        budget=3.0,
    )


class TestResultCache:
    def test_hit_round_trips_and_recertifies(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        instance = _tiny_instance()
        task = SolveTask(key="t", solver="abcc", instance=instance)
        cold = run_tasks([task], ParallelConfig(jobs=1, cache=cache))[0]
        assert not cold.cached and cache.stats.misses == 1

        warm = run_tasks([task], ParallelConfig(jobs=1, cache=cache))[0]
        assert warm.cached
        assert warm.seconds == cold.seconds  # stored wall seconds replay
        assert warm.solution.utility == cold.solution.utility
        assert warm.solution.cost == cold.solution.cost
        assert warm.solution.classifiers == cold.solution.classifiers
        assert "certificate" not in warm.solution.meta  # checked, not attached

        # Every hit is re-verified against its task: a corrupt entry is a
        # miss, solved cold and overwritten.
        [entry] = tmp_path.glob("*.json")
        payload = json.loads(entry.read_text())
        payload["solution"]["utility"] += 5.0
        entry.write_text(json.dumps(payload))
        mended = run_tasks([task], ParallelConfig(jobs=1, cache=cache))[0]
        assert not mended.cached
        assert mended.solution.utility == cold.solution.utility
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.stores) == (1, 2, 2)
        again = run_tasks([task], ParallelConfig(jobs=1, cache=cache))[0]
        assert again.cached and again.solution.utility == cold.solution.utility

    def test_hits_checked_against_budget_and_target(self, tmp_path):
        # Entries that re-score consistently but answer another question:
        # over the task's budget, or short of its target.
        cache = ResultCache(directory=tmp_path)
        instance = _tiny_instance()
        over = evaluate(instance, [frozenset("ab"), frozenset("b"), frozenset("c")])
        assert over.cost > instance.budget
        goal = GMC3Instance(
            instance.queries,
            {q: instance.utility(q) for q in instance.queries},
            {c: instance.cost(c) for c in (frozenset("b"), frozenset("ab"))},
            target=8.0,
        )
        tasks = [
            SolveTask(key="bcc", solver="ig1-bcc", instance=instance),
            SolveTask(key="gmc3", solver="ig1-gmc3", instance=goal),
        ]
        cache.put(task_fingerprint(instance, "ig1-bcc", None), over, 0.1)
        cache.put(task_fingerprint(goal, "ig1-gmc3", None), evaluate(goal, []), 0.1)
        results = run_tasks(tasks, ParallelConfig(jobs=1, cache=cache))
        assert [result.cached for result in results] == [False, False]
        assert results[0].solution.cost <= instance.budget
        assert results[1].solution.utility >= goal.target
        warm = run_tasks(tasks, ParallelConfig(jobs=1, cache=cache))
        assert [result.cached for result in warm] == [True, True]

    def test_certificates_never_stored(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        instance = _tiny_instance()
        solution = run_tasks([SolveTask("t", "abcc", instance)], None)[0].solution
        attach_certificate(instance, solution, budget=instance.budget)
        assert "certificate" in solution.meta
        cache.put("f" * 8, solution, 0.1)
        [entry] = tmp_path.glob("*.json")
        assert "certificate" not in json.loads(entry.read_text())["solution"]["meta"]

    def test_lru_eviction_drops_oldest(self, tmp_path):
        import os

        cache = ResultCache(directory=tmp_path, max_entries=2)
        solution = run_tasks([SolveTask("t", "abcc", _tiny_instance())], None)[0].solution
        cache.put("a" * 8, solution, 0.1)
        cache.put("b" * 8, solution, 0.1)
        os.utime(tmp_path / ("a" * 8 + ".json"), (1.0, 1.0))  # age entry "a"
        cache.put("c" * 8, solution, 0.1)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        assert cache.get("a" * 8) is None
        assert cache.get("b" * 8) is not None
        assert cache.get("c" * 8) is not None

    def test_version_mismatch_is_a_miss(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        solution = run_tasks([SolveTask("t", "abcc", _tiny_instance())], None)[0].solution
        cache.put("deadbeef", solution, 0.5)
        path = tmp_path / "deadbeef.json"
        payload = json.loads(path.read_text())
        payload["version"] = CACHE_VERSION + 1
        path.write_text(json.dumps(payload))
        assert cache.get("deadbeef") is None
        assert cache.stats.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        (tmp_path / "deadbeef.json").write_text("{not json")
        assert cache.get("deadbeef") is None
        assert cache.stats.misses == 1

    @pytest.mark.parametrize("text", ["[]", '"x"', "3", "null"])
    def test_non_object_payload_is_a_miss(self, tmp_path, text):
        cache = ResultCache(directory=tmp_path)
        (tmp_path / "deadbeef.json").write_text(text)
        assert cache.get("deadbeef") is None
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)

    def test_two_handles_share_one_bound(self, tmp_path):
        """Each put rescans, so entries another handle stored count too."""
        import os

        first = ResultCache(directory=tmp_path, max_entries=3)
        second = ResultCache(directory=tmp_path, max_entries=3)
        solution = run_tasks([SolveTask("t", "abcc", _tiny_instance())], None)[0].solution
        written = 0

        def put(cache, key):
            nonlocal written
            cache.put(key, solution, 0.1)
            assert len(list(tmp_path.glob("*.json"))) <= 3
            # Writes get small, ordered mtimes; reads bump to the present.
            written += 1
            os.utime(tmp_path / f"{key}.json", (written, written))

        put(first, "k1")
        put(second, "k2")
        put(first, "k3")
        assert second.get("k1") is not None  # k2 is now the least recent
        put(first, "k4")
        assert sorted(p.stem for p in tmp_path.glob("*.json")) == ["k1", "k3", "k4"]
        assert first.get("k3") is not None  # k4 is now the least recent
        put(second, "k5")
        assert sorted(p.stem for p in tmp_path.glob("*.json")) == ["k1", "k3", "k5"]
        assert first.stats.evictions + second.stats.evictions == 2
        assert len(first) == len(second) == 3

    def test_default_cache_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "custom"))
        assert default_cache().directory == tmp_path / "custom"
        assert default_cache(str(tmp_path / "flag")).directory == tmp_path / "flag"


# ---------------------------------------------------------------------------
# Pool mechanics
# ---------------------------------------------------------------------------


class TestPool:
    def test_resolve_jobs(self, monkeypatch):
        import os

        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs(None) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        assert resolve_jobs(10_000) == 64  # clamped to MAX_JOBS
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5
        monkeypatch.setenv("REPRO_JOBS", "nope")
        with pytest.raises(ValueError):
            resolve_jobs(None)
        with pytest.raises(ValueError):
            resolve_jobs(-1)

    def test_duplicate_task_keys_rejected(self):
        task = SolveTask(key="same", solver="abcc", instance=_tiny_instance())
        with pytest.raises(ValueError, match="duplicate task key"):
            run_tasks([task, task], None)

    def test_batch_results_keyed_access(self):
        batch = TaskBatch()
        batch.add("one", "abcc", _tiny_instance())
        results = batch.run(None)
        assert len(results) == 1
        assert results.solution("one").utility == results["one"].solution.utility
        assert results.seconds("one") >= 0.0


# ---------------------------------------------------------------------------
# Serial vs. parallel equality
# ---------------------------------------------------------------------------


def _comparable(result: FigureResult, include_values: bool = True) -> str:
    """Canonical rows minus wall-clock; optionally minus the value column.

    Timing-valued figures (3e, 4d) chart wall seconds, which legitimately
    differ between runs — for those we still compare every solution,
    extra and x/algorithm cell, just not the measured value.
    """
    if include_values:
        return result.canonical(include_seconds=False)
    stripped = FigureResult(
        figure=result.figure,
        title=result.title,
        x_label=result.x_label,
        value_label=result.value_label,
        notes=list(result.notes),
    )
    for row in result.rows:
        stripped.add(row.x, row.algorithm, 0.0, 0.0, **row.extra)
    return stripped.canonical(include_seconds=False)


#: Figures whose *value column* is a wall-clock measurement.
_TIMING_FIGURES = frozenset({"fig3e", "fig4d", "figdrift"})

#: Cheap-at-MICRO figures run in tier-1; the rest ride the slow CI leg.
_FAST_FIGURES = frozenset({"fig3a", "fig3d", "fig4a", "fig4e"})

_FIGURE_PARAMS = [
    pytest.param(name, marks=[] if name in _FAST_FIGURES else [pytest.mark.slow])
    for name in sorted(ALL_FIGURES)
]


class TestSerialParallelEquality:
    @pytest.mark.parametrize("name", _FIGURE_PARAMS)
    def test_figure_identical_across_jobs(self, name):
        figure = ALL_FIGURES[name]
        serial = figure(scale=MICRO, seed=0, parallel=ParallelConfig(jobs=1))
        fanned = figure(scale=MICRO, seed=0, parallel=ParallelConfig(jobs=JOBS))
        include_values = name not in _TIMING_FIGURES
        assert _comparable(serial, include_values) == _comparable(fanned, include_values)

    def test_corpus_tasks_identical_with_certificates(self):
        tasks = corpus_tasks(seeds=range(1))
        serial = run_tasks(tasks, ParallelConfig(jobs=1))
        fanned = run_tasks(tasks, ParallelConfig(jobs=JOBS))
        assert len(serial) == len(fanned) == len(tasks)
        for task, left, right in zip(tasks, serial, fanned):
            assert left.key == right.key == task.key
            assert left.solution.utility == right.solution.utility
            assert left.solution.cost == right.solution.cost
            assert left.solution.classifiers == right.solution.classifiers
            assert left.solution.covered == right.solution.covered
            # Both certify from first principles against the instance.
            for result in (left, right):
                attach_certificate(
                    task.instance, result.solution, budget=task.instance.budget
                )
            lcert = left.solution.meta["certificate"]
            rcert = right.solution.meta["certificate"]
            assert lcert.to_json() == rcert.to_json()
            verify_solution(task.instance, left.solution, certificate=lcert)


# ---------------------------------------------------------------------------
# Stress: repeated warm sweeps are byte-identical
# ---------------------------------------------------------------------------


class TestStress:
    @pytest.mark.slow
    def test_corpus_sweep_three_runs_byte_identical(self, tmp_path):
        """The seed-stability referee: 3 runs, same seed, same bytes.

        The first run executes cold (jobs=2) and populates the cache; the
        stored wall seconds then replay on every warm run, so all three
        ``FigureResult`` rows — seconds included — hash identically.
        """
        cache = ResultCache(directory=tmp_path)
        config = ParallelConfig(jobs=2, cache=cache)
        digests = [
            corpus_figure(parallel=config, seeds=range(2)).digest(include_seconds=True)
            for _ in range(3)
        ]
        assert digests[0] == digests[1] == digests[2]
        assert cache.stats.hits > 0  # runs 2 and 3 came from the cache

    def test_corpus_uncached_runs_agree_beyond_timing(self):
        serial = corpus_figure(parallel=ParallelConfig(jobs=1), seeds=range(1))
        fanned = corpus_figure(parallel=ParallelConfig(jobs=2), seeds=range(1))
        assert serial.canonical(include_seconds=False) == fanned.canonical(
            include_seconds=False
        )
