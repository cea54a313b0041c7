"""Test wall for the anytime latency-SLO meta-solver (``repro.slo``).

Everything timing-dependent runs on a :class:`VirtualClock`, so every
scheduling decision asserted here is deterministic: same portfolio +
same deadline → same arm schedule, bit for bit, on every platform and
under every coverage engine.  The wall covers the clock protocol, the
registry tier priors the meta-solver predicts with, the pool's clock
plumbing, the meta-solver's deadline boundaries (0ms through unbounded),
the incumbent-dominance verifier, and the CLI (its JSON report must not
depend on ``PYTHONHASHSEED``, and a run writes no file it was not asked
for).  One test runs the meta-solver on the system clock (the production
mode, which fans arms out to the worker pool when ``REPRO_JOBS`` > 1)
and asserts no timings, only certificates and incumbent dominance.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Optional

import pytest

from repro.core import BCCInstance, from_letters as fs
from repro.core.bitset import ENGINES, use_engine
from repro.core.errors import IncumbentCertificateError, InvalidInstanceError
from repro.core.solution import evaluate
from repro.datasets import generate_fragmented
from repro.parallel.clock import SYSTEM_CLOCK, SystemClock, VirtualClock
from repro.parallel.pool import BatchResults, ParallelConfig, SolveTask, run_tasks
from repro.parallel.registry import COST_TIERS, TIER_PRIOR_SECONDS, solver_tier
from repro.slo import AnytimeMetaSolver, SloConfig, solve_slo, tier_prior_clock
from repro.slo.meta import DEFAULT_ARMS
from repro.verify import check_incumbent_trace

_SRC = Path(__file__).resolve().parents[1] / "src"


def _workload(components: int = 4, seed: int = 0) -> BCCInstance:
    return generate_fragmented(
        n_components=components,
        queries_per_component=4,
        budget=150.0 * components,
        seed=seed,
    )


def _virtual_solver(clock: Optional[VirtualClock] = None) -> AnytimeMetaSolver:
    return AnytimeMetaSolver(SloConfig(clock=clock or tier_prior_clock()))


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
# the registry tier priors
# ----------------------------------------------------------------------
class TestTierPriors:
    def test_tier_priors_cover_every_tier_and_ascend(self):
        assert tuple(TIER_PRIOR_SECONDS) == COST_TIERS
        assert (
            TIER_PRIOR_SECONDS["cheap"]
            < TIER_PRIOR_SECONDS["medium"]
            < TIER_PRIOR_SECONDS["expensive"]
        )


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
                get_solver(arm)(workload, seed_for("slo", arm, fingerprint))
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

    @pytest.mark.parametrize("deadline_ms", [0.0, 20.0, 60.0, None])
    def test_every_arm_is_predicted_at_its_tier_prior(self, deadline_ms):
        solution = _virtual_solver().solve(_workload(), deadline_ms=deadline_ms)
        slo = solution.meta["slo"]
        entries = slo["arms_tried"] + slo["arms_skipped"]
        assert sorted(entry["arm"] for entry in entries) == sorted(DEFAULT_ARMS)
        for entry in entries:
            prior = TIER_PRIOR_SECONDS[solver_tier(entry["arm"])]
            assert entry["predicted_ms"] == prior * 1000.0
        for entry in slo["arms_tried"]:
            # the tier-prior clock charges each arm what admission predicted
            assert entry["actual_ms"] == entry["predicted_ms"]

    def test_skipped_arms_report_their_predictions(self):
        solution = _virtual_solver().solve(_workload(), deadline_ms=0.0)
        for entry in solution.meta["slo"]["arms_skipped"]:
            assert entry["predicted_ms"] > 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SloConfig(arms=())

    def test_solve_slo_wrapper_matches_the_class(self):
        workload = _workload()
        config = SloConfig(clock=tier_prior_clock())
        via_wrapper = solve_slo(workload, deadline_ms=20.0, config=config)
        config2 = SloConfig(clock=tier_prior_clock())
        via_class = AnytimeMetaSolver(config2).solve(workload, deadline_ms=20.0)
        assert via_wrapper.classifiers == via_class.classifiers
        assert via_wrapper.meta["slo"]["schedule"] == via_class.meta["slo"]["schedule"]

    def test_system_clock_incumbent_is_certified_at_every_deadline(self):
        """Real time, pool waves under ``REPRO_JOBS`` > 1.

        Every answer, the 0 ms one included, must carry a certificate and
        a valid incumbent trace, and none may beat the unbounded answer,
        which runs first: arm seeds are fixed, so a deadline only drops
        arms.
        """
        workload = generate_fragmented(
            n_components=5, queries_per_component=6, budget=750.0, seed=3
        )
        solver = AnytimeMetaSolver()
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

    def test_json_report_is_the_same_under_every_hash_seed(self, tmp_path):
        """Classifiers are frozensets: their order and spelling follow the
        hash seed unless the report sorts their members."""
        reports = []
        for hash_seed in ("1", "2"):
            report = tmp_path / f"slo-{hash_seed}.json"
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                filter(None, (str(_SRC), env.get("PYTHONPATH")))
            )
            subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro.slo",
                    "--virtual",
                    "--deadline-ms",
                    "20",
                    "--components",
                    "4",
                    "--json",
                    str(report),
                ],
                env=env,
                cwd=tmp_path,
                check=True,
                capture_output=True,
                timeout=120,
            )
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]
        classifiers = json.loads(reports[0])["classifiers"]
        assert classifiers == sorted(classifiers)
        assert all(members == sorted(members) for members in classifiers)

    def test_system_clock_run_writes_no_file(self, tmp_path, monkeypatch, capsys):
        from repro.slo.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["--deadline-ms", "5", "--components", "2"]) == 0
        assert "certified" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []
