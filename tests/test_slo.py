"""Test wall for the anytime latency-SLO meta-solver (``repro.slo``).

Everything timing-dependent runs on a :class:`VirtualClock`, so every
scheduling decision asserted here is deterministic: same observations +
same deadline → same arm schedule, bit for bit, on every platform and
under every coverage engine.  The wall covers the clock protocol, the
fingerprint features, the cost-model fit (hypothesis-fuzzed: monotone in
size, never negative, deterministic, exact 2x metamorphic scaling), the
versioned stats store's degradation ladder, the pool's clock plumbing,
the meta-solver's deadline boundaries (0ms through unbounded), the
incumbent-dominance verifier, and the CLI.  One test runs the meta-solver
on the system clock (the production mode, which fans arms out to the
worker pool when ``REPRO_JOBS`` > 1) and asserts no timings, only
certificates and incumbent dominance.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings

from repro.core import BCCInstance, from_letters as fs
from repro.core.bitset import ENGINES, use_engine
from repro.core.errors import IncumbentCertificateError, InvalidInstanceError
from repro.core.solution import evaluate
from repro.datasets import generate_fragmented
from repro.parallel.clock import SYSTEM_CLOCK, SystemClock, VirtualClock
from repro.parallel.pool import BatchResults, ParallelConfig, SolveTask, run_tasks
from repro.parallel.registry import (
    COST_TIERS,
    TIER_PRIOR_SECONDS,
    solver_names,
    solver_tier,
)
from repro.slo import (
    MIN_FIT_OBSERVATIONS,
    AnytimeMetaSolver,
    ArmStatsStore,
    SloConfig,
    solve_slo,
)
from repro.slo.cost_model import fit_cost_model
from repro.slo.features import (
    FEATURE_NAMES,
    features_as_dict,
    features_from_counts,
    instance_features,
)
from repro.slo.meta import DEFAULT_ARMS
from repro.slo.stats import (
    MAX_OBSERVATIONS_PER_KEY,
    STATS_VERSION,
    default_stats_store,
)
from repro.verify import check_incumbent_trace
from tests.strategies import arm_observations, feature_counts

_FEATURES = features_from_counts(10, 20, 5, 3, 1, 1, 2)


def _workload(components: int = 4, seed: int = 0) -> BCCInstance:
    return generate_fragmented(
        n_components=components,
        queries_per_component=4,
        budget=150.0 * components,
        seed=seed,
    )


def _prior_clock(stats: ArmStatsStore) -> VirtualClock:
    """Simulated time: every arm runs for its store-predicted runtime."""
    return VirtualClock(
        task_seconds=lambda task: stats.predict_runtime(
            task.solver, _FEATURES, "virtual"
        )
    )


def _virtual_solver(**config_kwargs) -> AnytimeMetaSolver:
    stats = config_kwargs.pop("stats", None) or ArmStatsStore(path=None)
    clock = config_kwargs.pop("clock", None) or _prior_clock(stats)
    return AnytimeMetaSolver(
        SloConfig(stats=stats, clock=clock, record=False, **config_kwargs)
    )


# ----------------------------------------------------------------------
# the clock protocol
# ----------------------------------------------------------------------
class TestClocks:
    def test_system_clock_is_not_virtual_and_moves_forward(self):
        clock = SystemClock()
        assert clock.virtual is False
        assert SYSTEM_CLOCK.virtual is False
        first = clock.now()
        assert clock.now() >= first

    def test_system_clock_run_task_times_the_call(self):
        result, seconds = SystemClock().run_task(None, lambda: 42)
        assert result == 42
        assert seconds >= 0.0

    def test_virtual_clock_starts_where_told_and_advances(self):
        clock = VirtualClock(start=5.0)
        assert clock.virtual is True
        assert clock.now() == 5.0
        clock.advance(2.5)
        assert clock.now() == 7.5

    def test_virtual_clock_rejects_backwards_time(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-1.0)

    def test_virtual_run_task_charges_the_simulated_duration(self):
        clock = VirtualClock(task_seconds=lambda task: 3.0)
        result, seconds = clock.run_task("anything", lambda: "done")
        assert (result, seconds) == ("done", 3.0)
        assert clock.now() == 3.0

    def test_virtual_run_task_defaults_to_instantaneous(self):
        clock = VirtualClock()
        _, seconds = clock.run_task("t", lambda: None)
        assert seconds == 0.0
        assert clock.now() == 0.0

    def test_virtual_run_task_rejects_negative_simulated_time(self):
        clock = VirtualClock(task_seconds=lambda task: -0.1)
        with pytest.raises(ValueError):
            clock.run_task("t", lambda: None)


# ----------------------------------------------------------------------
# fingerprint features
# ----------------------------------------------------------------------
class TestFeatures:
    def test_features_are_log1p_of_counts(self):
        vector = features_from_counts(1, 2, 3, 4, 5, 6, 7)
        assert vector == tuple(math.log1p(c) for c in (1, 2, 3, 4, 5, 6, 7))

    def test_zero_counts_give_the_zero_vector(self):
        assert features_from_counts(0, 0, 0, 0, 0, 0, 0) == (0.0,) * 7

    def test_negative_counts_are_rejected(self):
        with pytest.raises(ValueError):
            features_from_counts(1, -1, 0, 0, 0, 0, 0)

    def test_instance_features_match_manual_counts(self):
        instance = BCCInstance(
            [fs("a"), fs("bc"), fs("de")],
            {fs("a"): 1.0, fs("bc"): 2.0, fs("de"): 3.0},
            {},
            budget=10.0,
        )
        vector = features_as_dict(instance_features(instance))
        assert vector["log_queries"] == math.log1p(3)
        assert vector["log_properties"] == math.log1p(5)
        assert vector["log_len1"] == math.log1p(1)
        assert vector["log_len2"] == math.log1p(2)
        assert vector["log_len4p"] == 0.0
        # a, bc, de share no property: three independent shards
        assert vector["log_shards"] == math.log1p(3)

    def test_features_as_dict_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            features_as_dict((1.0, 2.0))


# ----------------------------------------------------------------------
# the cost model
# ----------------------------------------------------------------------
class TestCostModel:
    def test_no_samples_means_no_model(self):
        assert fit_cost_model([]) is None

    def test_few_samples_fit_the_geometric_mean(self):
        samples = [(_FEATURES, 2.0), (_FEATURES, 8.0)]
        model = fit_cost_model(samples)
        assert model.weights == (0.0,) * len(FEATURE_NAMES)
        assert model.predict_seconds(_FEATURES) == pytest.approx(4.0)

    def test_prediction_rejects_wrong_arity(self):
        model = fit_cost_model([(_FEATURES, 1.0)])
        with pytest.raises(ValueError):
            model.predict_seconds((1.0, 2.0))

    @settings(max_examples=60, deadline=None)
    @given(arm_observations())
    def test_predictions_are_always_positive_and_finite(self, samples):
        model = fit_cost_model(samples)
        for features, _ in samples:
            predicted = model.predict_seconds(features)
            assert predicted > 0.0
            assert math.isfinite(predicted)

    @settings(max_examples=40, deadline=None)
    @given(arm_observations())
    def test_fit_is_deterministic(self, samples):
        first = fit_cost_model(samples)
        second = fit_cost_model(list(samples))
        assert first == second

    @settings(max_examples=40, deadline=None)
    @given(arm_observations(), feature_counts(), feature_counts())
    def test_predictions_are_monotone_in_size(self, samples, counts_a, counts_b):
        """Growing every size count must never shrink the prediction."""
        model = fit_cost_model(samples)
        smaller = tuple(min(a, b) for a, b in zip(counts_a, counts_b))
        larger = tuple(max(a, b) for a, b in zip(counts_a, counts_b))
        low = model.predict_seconds(features_from_counts(*smaller))
        high = model.predict_seconds(features_from_counts(*larger))
        assert high >= low

    @settings(max_examples=40, deadline=None)
    @given(
        arm_observations(
            min_samples=MIN_FIT_OBSERVATIONS, max_samples=20, max_seconds=30.0
        )
    )
    def test_doubling_every_runtime_doubles_every_prediction(self, samples):
        """Metamorphic: 2x runtime scaling is a pure intercept shift."""
        # Stay above the MIN_SECONDS log floor so scaling is exact.
        samples = [(f, max(s, 1e-3)) for f, s in samples]
        base = fit_cost_model(samples)
        scaled = fit_cost_model([(f, 2.0 * s) for f, s in samples])
        assert scaled.weights == pytest.approx(base.weights, rel=1e-6, abs=1e-9)
        for features, _ in samples:
            assert scaled.predict_seconds(features) == pytest.approx(
                2.0 * base.predict_seconds(features), rel=1e-6
            )

    def test_extreme_features_cap_to_a_finite_prediction(self):
        samples = [(_FEATURES, 10.0)] * MIN_FIT_OBSERVATIONS
        model = fit_cost_model(samples)
        huge = (1e9,) * len(FEATURE_NAMES)
        assert math.isfinite(model.predict_seconds(huge))


# ----------------------------------------------------------------------
# the versioned stats store
# ----------------------------------------------------------------------
class TestArmStatsStore:
    def test_empty_store_answers_with_the_tier_prior(self):
        store = ArmStatsStore(path=None)
        for arm in solver_names():
            prior = TIER_PRIOR_SECONDS[solver_tier(arm)]
            assert store.predict_runtime(arm, _FEATURES, "bits") == prior

    def test_tier_priors_cover_every_tier_and_ascend(self):
        assert tuple(TIER_PRIOR_SECONDS) == COST_TIERS
        assert (
            TIER_PRIOR_SECONDS["cheap"]
            < TIER_PRIOR_SECONDS["medium"]
            < TIER_PRIOR_SECONDS["expensive"]
        )

    def test_few_observations_predict_their_geometric_mean(self):
        store = ArmStatsStore(path=None)
        store.record("abcc", "bits", _FEATURES, 2.0, 10.0)
        store.record("abcc", "bits", _FEATURES, 8.0, 10.0)
        assert store.predict_runtime("abcc", _FEATURES, "bits") == pytest.approx(4.0)
        # a different engine key is untouched
        assert (
            store.predict_runtime("abcc", _FEATURES, "sets")
            == TIER_PRIOR_SECONDS["medium"]
        )

    def test_record_validates_inputs(self):
        store = ArmStatsStore(path=None)
        with pytest.raises(ValueError):
            store.record("abcc", "bits", (1.0, 2.0), 1.0, 1.0)
        with pytest.raises(ValueError):
            store.record("abcc", "bits", _FEATURES, -1.0, 1.0)

    def test_roundtrip_through_disk(self, tmp_path):
        path = tmp_path / "stats.json"
        store = ArmStatsStore(path=path)
        store.record("abcc", "bits", _FEATURES, 0.25, 5.0)
        store.save()
        reloaded = ArmStatsStore(path=path)
        assert reloaded.observation_count("abcc", "bits") == 1
        assert reloaded.predict_runtime("abcc", _FEATURES, "bits") == pytest.approx(
            0.25
        )

    def test_save_without_recording_writes_nothing(self, tmp_path):
        path = tmp_path / "stats.json"
        ArmStatsStore(path=path).save()
        assert not path.exists()

    def test_corrupt_file_degrades_to_an_empty_store(self, tmp_path):
        path = tmp_path / "stats.json"
        path.write_text("{not json at all")
        store = ArmStatsStore(path=path)
        assert store.total_observations() == 0
        assert store.stats.discarded_files == 1
        prior = TIER_PRIOR_SECONDS[solver_tier("abcc")]
        assert store.predict_runtime("abcc", _FEATURES, "bits") == prior

    def test_version_bump_discards_old_observations(self, tmp_path):
        path = tmp_path / "stats.json"
        store = ArmStatsStore(path=path)
        store.record("abcc", "bits", _FEATURES, 1.0, 1.0)
        store.save()
        payload = json.loads(path.read_text())
        payload["version"] = STATS_VERSION + 1
        path.write_text(json.dumps(payload))
        reloaded = ArmStatsStore(path=path)
        assert reloaded.total_observations() == 0
        assert reloaded.stats.discarded_files == 1

    def test_malformed_rows_inside_valid_json_degrade_to_empty(self, tmp_path):
        path = tmp_path / "stats.json"
        payload = {
            "version": STATS_VERSION,
            "observations": {"abcc": {"bits": [[[1.0, 2.0], 0.5, 1.0]]}},
        }
        path.write_text(json.dumps(payload))
        store = ArmStatsStore(path=path)
        assert store.total_observations() == 0
        assert store.stats.discarded_files == 1

    def test_observation_cap_rolls_the_oldest_entries_off(self):
        store = ArmStatsStore(path=None)
        for index in range(MAX_OBSERVATIONS_PER_KEY + 40):
            store.record("abcc", "bits", _FEATURES, float(index + 1), 1.0)
        assert store.observation_count("abcc", "bits") == MAX_OBSERVATIONS_PER_KEY
        assert store.stats.recorded == MAX_OBSERVATIONS_PER_KEY + 40

    def test_models_refit_lazily(self):
        store = ArmStatsStore(path=None)
        for _ in range(MIN_FIT_OBSERVATIONS):
            store.record("abcc", "bits", _FEATURES, 1.0, 1.0)
        store.predict_runtime("abcc", _FEATURES, "bits")
        fits = store.stats.fits
        store.record("abcc", "bits", _FEATURES, 1.0, 1.0)
        store.predict_runtime("abcc", _FEATURES, "bits")
        assert store.stats.fits == fits  # +1 observation: under growth factor
        for _ in range(MIN_FIT_OBSERVATIONS):
            store.record("abcc", "bits", _FEATURES, 1.0, 1.0)
        store.predict_runtime("abcc", _FEATURES, "bits")
        assert store.stats.fits == fits + 1

    def test_default_store_honours_the_environment(self, tmp_path, monkeypatch):
        target = tmp_path / "custom-stats.json"
        monkeypatch.setenv("REPRO_ARM_STATS", str(target))
        assert default_stats_store().path == target


# ----------------------------------------------------------------------
# pool plumbing: clocks and advisory timeouts
# ----------------------------------------------------------------------
class TestPoolClockPlumbing:
    def _task(self, key="t", timeout_s=None):
        instance = BCCInstance(
            [fs("ab")], {fs("ab"): 5.0}, {fs("ab"): 1.0}, budget=10.0
        )
        return SolveTask(
            key=key, solver="ig1-bcc", instance=instance, timeout_s=timeout_s
        )

    def test_virtual_clock_reports_simulated_seconds(self):
        clock = VirtualClock(task_seconds=lambda task: 1.5)
        results = run_tasks(
            [self._task()], ParallelConfig(jobs=4, clock=clock)
        )
        assert results[0].seconds == 1.5
        assert clock.now() == 1.5

    def test_task_over_its_advisory_timeout_is_flagged(self):
        clock = VirtualClock(task_seconds=lambda task: 2.0)
        results = run_tasks(
            [self._task("a", timeout_s=1.0), self._task("b", timeout_s=3.0)],
            ParallelConfig(jobs=1, clock=clock),
        )
        assert results[0].timed_out is True
        assert results[1].timed_out is False

    def test_batch_results_sum_their_seconds(self):
        clock = VirtualClock(task_seconds=lambda task: 0.5)
        results = BatchResults(
            run_tasks(
                [self._task("a"), self._task("b")],
                ParallelConfig(jobs=1, clock=clock),
            )
        )
        assert results.total_seconds() == pytest.approx(1.0)


# ----------------------------------------------------------------------
# the anytime meta-solver
# ----------------------------------------------------------------------
class TestAnytimeMetaSolver:
    def test_zero_deadline_still_returns_a_certified_answer(self):
        solver = _virtual_solver()
        solution = solver.solve(_workload(), deadline_ms=0.0)
        slo = solution.meta["slo"]
        assert len(slo["schedule"]) == 1  # the cheapest arm always runs
        assert slo["arms_tried"][0]["timed_out"] is True  # honestly flagged
        assert "certificate" in solution.meta
        check_incumbent_trace(solver._as_instance(_workload(), None), solver.last_trace)

    def test_unbounded_deadline_runs_the_whole_portfolio(self):
        solver = _virtual_solver()
        solution = solver.solve(_workload(), deadline_ms=None)
        slo = solution.meta["slo"]
        assert sorted(slo["schedule"]) == sorted(DEFAULT_ARMS)
        assert slo["arms_skipped"] == []
        assert slo["slack_ms"] is None

    def test_unbounded_incumbent_matches_the_portfolio_best(self):
        workload = _workload()
        solver = _virtual_solver()
        solution = solver.solve(workload, deadline_ms=None)
        from repro.parallel.registry import get_solver
        from repro.parallel.seeding import seed_for
        from repro.parallel.fingerprint import instance_fingerprint

        fingerprint = instance_fingerprint(workload)
        best = max(
            (
                get_solver(arm)(workload, seed_for("slo", arm, fingerprint), False)
                for arm in DEFAULT_ARMS
            ),
            key=lambda s: (s.utility, -s.cost),
        )
        assert (solution.utility, solution.cost) == (best.utility, best.cost)

    def test_utility_never_decreases_with_a_longer_deadline(self):
        workload = _workload()
        previous = -1.0
        for deadline in (0.0, 5.0, 10.0, 20.0, 60.0, 120.0, 1000.0, None):
            solver = _virtual_solver()
            solution = solver.solve(workload, deadline_ms=deadline)
            assert solution.utility >= previous
            previous = solution.utility
            check_incumbent_trace(
                solver._as_instance(workload, None), solver.last_trace
            )

    def test_longer_deadlines_admit_weakly_more_arms(self):
        workload = _workload()
        previous = 0
        for deadline in (0.0, 5.0, 20.0, 60.0, 1000.0):
            solution = _virtual_solver().solve(workload, deadline_ms=deadline)
            tried = len(solution.meta["slo"]["schedule"])
            assert tried >= previous
            previous = tried

    def test_run_twice_is_bit_identical(self):
        workload = _workload()
        outcomes = []
        for _ in range(2):
            solver = _virtual_solver()
            solution = solver.solve(workload, deadline_ms=60.0)
            slo = solution.meta["slo"]
            outcomes.append(
                (
                    sorted(solution.classifiers),
                    solution.utility,
                    solution.cost,
                    slo["schedule"],
                    slo["elapsed_ms"],
                    [entry["arm"] for entry in slo["arms_skipped"]],
                )
            )
        assert outcomes[0] == outcomes[1]

    @pytest.mark.parametrize("engine", ENGINES)
    def test_schedule_and_incumbent_are_engine_identical(self, engine):
        workload = _workload()
        with use_engine("sets"):
            reference = _virtual_solver().solve(workload, deadline_ms=60.0)
        with use_engine(engine):
            solution = _virtual_solver().solve(workload, deadline_ms=60.0)
        assert solution.meta["slo"]["schedule"] == reference.meta["slo"]["schedule"]
        assert solution.classifiers == reference.classifiers
        assert solution.utility == reference.utility
        assert solution.cost == reference.cost

    def test_negative_or_nan_deadline_is_rejected(self):
        solver = _virtual_solver()
        with pytest.raises(ValueError):
            solver.solve(_workload(), deadline_ms=-1.0)
        with pytest.raises(ValueError):
            solver.solve(_workload(), deadline_ms=float("nan"))

    def test_budget_is_required_unless_the_workload_carries_one(self):
        workload = _workload()
        bare = workload.clone()
        bare.budget = None
        with pytest.raises(InvalidInstanceError):
            _virtual_solver().solve(bare)
        solution = _virtual_solver().solve(bare, budget=200.0)
        assert solution.cost <= 200.0 + 1e-9

    def test_telemetry_is_complete_and_consistent(self):
        solution = _virtual_solver().solve(_workload(), deadline_ms=20.0)
        slo = solution.meta["slo"]
        for key in (
            "deadline_ms",
            "elapsed_ms",
            "slack_ms",
            "overrun_ms",
            "engine",
            "schedule",
            "arms_tried",
            "arms_skipped",
            "incumbent_updates",
            "observations",
        ):
            assert key in slo
        assert slo["schedule"] == [entry["arm"] for entry in slo["arms_tried"]]
        tried = {entry["arm"] for entry in slo["arms_tried"]}
        skipped = {entry["arm"] for entry in slo["arms_skipped"]}
        assert tried | skipped == set(DEFAULT_ARMS)
        assert tried.isdisjoint(skipped)
        assert slo["incumbent_updates"] == sum(
            1 for entry in slo["arms_tried"] if entry["improved"]
        )

    def test_recording_grows_the_store_and_persists(self, tmp_path):
        path = tmp_path / "stats.json"
        stats = ArmStatsStore(path=path)
        clock = _prior_clock(stats)
        solver = AnytimeMetaSolver(SloConfig(stats=stats, clock=clock, record=True))
        solver.solve(_workload(), deadline_ms=None)
        assert stats.total_observations() == len(DEFAULT_ARMS)
        assert path.exists()
        assert ArmStatsStore(path=path).total_observations() == len(DEFAULT_ARMS)

    def test_record_false_leaves_the_store_untouched(self):
        stats = ArmStatsStore(path=None)
        _virtual_solver(stats=stats).solve(_workload(), deadline_ms=None)
        assert stats.total_observations() == 0

    def test_learned_predictions_steer_the_schedule(self):
        """An arm observed to be slow drops behind cheaper arms."""
        workload = _workload()
        features = instance_features(workload)
        stats = ArmStatsStore(path=None)
        from repro.core.bitset import active_engine

        engine = active_engine()
        # ig1-bcc observed very slow; abcc observed very fast.
        for _ in range(4):
            stats.record("ig1-bcc", engine, features, 5.0, 1.0)
            stats.record("abcc", engine, features, 0.001, 1.0)
        clock = VirtualClock(
            task_seconds=lambda task: stats.predict_runtime(
                task.solver, features, engine
            )
        )
        solution = _virtual_solver(stats=stats, clock=clock).solve(
            workload, deadline_ms=None
        )
        schedule = solution.meta["slo"]["schedule"]
        assert schedule.index("abcc") < schedule.index("ig1-bcc")

    def test_doubled_runtimes_and_deadline_preserve_the_schedule(self):
        """Metamorphic: scaling time itself must not change the policy."""
        workload = _workload()
        features = instance_features(workload)
        from repro.core.bitset import active_engine

        engine = active_engine()
        schedules = []
        for scale in (1.0, 2.0):
            stats = ArmStatsStore(path=None)
            for index in range(MIN_FIT_OBSERVATIONS + 2):
                for position, arm in enumerate(DEFAULT_ARMS):
                    stats.record(
                        arm,
                        engine,
                        features_from_counts(10 + index, 20 + index, 5, 3, 1, 1, 2),
                        scale * (0.002 * (position + 1)) * (1.0 + 0.05 * index),
                        1.0,
                    )
            clock = VirtualClock(
                task_seconds=lambda task, s=stats: s.predict_runtime(
                    task.solver, features, engine
                )
            )
            solution = _virtual_solver(stats=stats, clock=clock).solve(
                workload, deadline_ms=scale * 11.0
            )
            slo = solution.meta["slo"]
            schedules.append(
                (slo["schedule"], sorted(solution.classifiers), solution.utility)
            )
        assert schedules[0] == schedules[1]

    def test_higher_safety_margin_admits_fewer_arms(self):
        workload = _workload()
        relaxed = _virtual_solver(safety=1.0).solve(workload, deadline_ms=60.0)
        cautious = _virtual_solver(safety=1.5).solve(workload, deadline_ms=60.0)
        assert len(cautious.meta["slo"]["schedule"]) < len(
            relaxed.meta["slo"]["schedule"]
        )

    def test_skipped_arms_report_their_predictions(self):
        solution = _virtual_solver().solve(_workload(), deadline_ms=0.0)
        for entry in solution.meta["slo"]["arms_skipped"]:
            assert entry["predicted_ms"] > 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SloConfig(arms=())
        with pytest.raises(ValueError):
            SloConfig(safety=0.0)

    def test_solve_slo_wrapper_matches_the_class(self):
        workload = _workload()
        stats = ArmStatsStore(path=None)
        config = SloConfig(stats=stats, clock=_prior_clock(stats), record=False)
        via_wrapper = solve_slo(workload, deadline_ms=20.0, config=config)
        stats2 = ArmStatsStore(path=None)
        config2 = SloConfig(stats=stats2, clock=_prior_clock(stats2), record=False)
        via_class = AnytimeMetaSolver(config2).solve(workload, deadline_ms=20.0)
        assert via_wrapper.classifiers == via_class.classifiers
        assert via_wrapper.meta["slo"]["schedule"] == via_class.meta["slo"]["schedule"]

    def test_system_clock_incumbent_is_certified_at_every_deadline(self):
        """Real time, learning store, pool waves under ``REPRO_JOBS`` > 1.

        The unbounded solve runs first and teaches the store real arm
        runtimes.  Every answer, the 0 ms one included, must carry a
        certificate and a valid incumbent trace, and none may beat the
        unbounded answer: arm seeds are fixed, so a deadline only drops
        arms.
        """
        workload = generate_fragmented(
            n_components=5, queries_per_component=6, budget=750.0, seed=3
        )
        solver = AnytimeMetaSolver(
            SloConfig(stats=ArmStatsStore(path=None), record=True)
        )
        best = None
        for deadline in (None, 0.0, 20.0):
            solution = solver.solve(workload, deadline_ms=deadline)
            assert "certificate" in solution.meta
            check_incumbent_trace(workload, solver.last_trace)
            best = solution.utility if best is None else best
            assert solution.utility <= best

    def test_overrun_is_recorded_honestly(self):
        """A mispredicted first arm overruns the deadline; telemetry says so."""
        clock = VirtualClock(task_seconds=lambda task: 1.0)  # every arm: 1s
        solution = _virtual_solver(clock=clock).solve(_workload(), deadline_ms=1.0)
        slo = solution.meta["slo"]
        assert slo["overrun_ms"] == pytest.approx(999.0)
        assert slo["arms_tried"][0]["timed_out"] is True


# ----------------------------------------------------------------------
# the incumbent-dominance verifier
# ----------------------------------------------------------------------
class TestIncumbentTraceVerifier:
    def _instance(self):
        return BCCInstance(
            [fs("a"), fs("b")],
            {fs("a"): 2.0, fs("b"): 3.0},
            {fs("a"): 1.0, fs("b"): 1.0},
            budget=2.0,
        )

    def test_empty_trace_is_rejected(self):
        with pytest.raises(IncumbentCertificateError):
            check_incumbent_trace(self._instance(), [])

    def test_valid_trace_passes(self):
        instance = self._instance()
        trace = [
            evaluate(instance, []),
            evaluate(instance, [fs("b")]),
            evaluate(instance, [fs("a"), fs("b")]),
        ]
        check_incumbent_trace(instance, trace)

    def test_utility_regression_is_rejected(self):
        instance = self._instance()
        trace = [evaluate(instance, [fs("b")]), evaluate(instance, [fs("a")])]
        with pytest.raises(IncumbentCertificateError):
            check_incumbent_trace(instance, trace)

    def test_costlier_equal_utility_incumbent_is_rejected(self):
        instance = BCCInstance(
            [fs("a")],
            {fs("a"): 2.0},
            {fs("a"): 1.0, fs("b"): 1.0},
            budget=2.0,
        )
        cheap = evaluate(instance, [fs("a")])
        costly = evaluate(instance, [fs("a"), fs("b")])
        with pytest.raises(IncumbentCertificateError):
            check_incumbent_trace(instance, [cheap, costly])

    def test_infeasible_entry_is_rejected(self):
        instance = self._instance()
        overspent = evaluate(instance, [fs("a"), fs("b")])
        tight = instance.with_budget(1.0)
        with pytest.raises(IncumbentCertificateError):
            check_incumbent_trace(tight, [overspent])


# ----------------------------------------------------------------------
# the CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_virtual_run_exits_cleanly(self, capsys):
        from repro.slo.cli import main

        code = main(["--virtual", "--deadline-ms", "10", "--components", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "incumbent:" in out
        assert "certified" in out

    def test_json_report_is_written(self, tmp_path, capsys):
        from repro.slo.cli import main

        report = tmp_path / "slo.json"
        code = main(
            ["--virtual", "--deadline-ms", "0", "--components", "3", "--json", str(report)]
        )
        assert code == 0
        payload = json.loads(report.read_text())
        assert payload["slo"]["deadline_ms"] == 0.0
        assert payload["slo"]["schedule"]
