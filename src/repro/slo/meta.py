"""The anytime latency-SLO meta-solver.

``AnytimeMetaSolver.solve(workload, budget, deadline_ms)`` answers the
serving question — *best certified answer within X ms* — instead of the
sweep question the rest of the repo optimizes (*run all arms to
completion*).  The policy:

1. **Predict.**  Every candidate arm is charged its registry tier prior
   (:data:`~repro.parallel.registry.TIER_PRIOR_SECONDS` of its
   ``cheap``/``medium``/``expensive`` tag) as its predicted runtime.
2. **Race cheap arms first.**  Arms are scheduled in ascending predicted
   runtime (ties: registry tier rank, then name — total and
   deterministic), executed through :func:`repro.parallel.pool.run_tasks`
   in waves of up to ``jobs`` tasks.
3. **Escalate while predicted time remains.**  Before admitting an arm,
   the solver checks that the wave's predicted seconds fit the remaining
   deadline; the clock is consulted between waves, so a mispredicted arm
   shrinks the budget of everything behind it.  The cheapest arm always
   runs — even at ``deadline_ms=0`` — because an SLO endpoint must
   return a real answer, not an apology.
4. **Always hold a certified incumbent.**  The incumbent starts as the
   certified empty solution and is re-certified
   (:func:`repro.verify.verify_solution`) on every improvement, so a
   timeout at *any* point returns a verifier-accepted answer; the
   returned solution keeps the last incumbent's certificate.  Later
   incumbents never regress (checked by
   :func:`repro.verify.anytime.check_incumbent_trace`).

Every timing decision goes through the injected
:class:`~repro.parallel.clock.Clock`; under a
:class:`~repro.parallel.clock.VirtualClock` the full schedule and the
incumbent are bit-identical across runs and engines, which is what makes
the test wall in ``tests/test_slo.py`` possible.  :func:`tier_prior_clock`
is that clock with each arm charged exactly its predicted runtime.
Telemetry — arms tried and skipped, predicted vs actual per arm,
deadline slack or overrun — lands in ``solution.meta["slo"]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.core.bitset import active_engine
from repro.core.errors import InvalidInstanceError
from repro.core.model import BCCInstance, ClassifierWorkload
from repro.core.solution import Solution, evaluate
from repro.parallel.clock import SYSTEM_CLOCK, Clock, VirtualClock
from repro.parallel.fingerprint import instance_fingerprint
from repro.parallel.pool import ParallelConfig, SolveTask, resolve_jobs, run_tasks
from repro.parallel.registry import TIER_PRIOR_SECONDS, TIER_RANK, solver_tier
from repro.parallel.seeding import seed_for
from repro.verify.certificate import verify_solution

#: The default BCC portfolio, cheap to expensive.  ``bcc-exact`` is
#: deliberately absent: its runtime is exponential in the worst case and
#: a tier prior has no way to know which case it is looking at.
DEFAULT_ARMS: Tuple[str, ...] = (
    "rand-bcc",
    "ig1-bcc",
    "ig2-bcc",
    "abcc-sharded",
    "abcc",
    "abcc-pruned",
    "abcc-unpruned",
)

#: Slack for deadline comparisons (float accumulation, not policy).
_TOL = 1e-12


def tier_prior_clock(start: float = 0.0) -> VirtualClock:
    """A virtual clock charging every solve task its registry tier prior.

    The standard simulation clock (the CLI's ``--virtual``, the
    ``figslo`` figure, serving replays): deterministic, engine- and
    platform-independent, and charging each arm exactly the runtime
    admission predicts for it (a task naming no registered solver
    charges nothing).
    """

    def seconds(task: object) -> float:
        solver = getattr(task, "solver", None)
        if not isinstance(solver, str):
            return 0.0
        try:
            return TIER_PRIOR_SECONDS[solver_tier(solver)]
        except KeyError:
            return 0.0

    return VirtualClock(start=start, task_seconds=seconds)


@dataclass(frozen=True)
class SloConfig:
    """Policy knobs for one meta-solver.

    Attributes:
        arms: candidate registry arms (every one must accept a
            :class:`BCCInstance`).
        clock: injected time; None uses the system clock.
        jobs: wave width through the task pool (None → ``REPRO_JOBS``);
            a virtual clock forces 1.
    """

    arms: Tuple[str, ...] = DEFAULT_ARMS
    clock: Optional[Clock] = None
    jobs: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.arms:
            raise ValueError("the arm portfolio must not be empty")


class AnytimeMetaSolver:
    """Deadline-driven arm scheduler holding a certified incumbent.

    After :meth:`solve`, :attr:`last_trace` holds every certified
    incumbent in improvement order (starting with the empty solution) —
    the input to the incumbent-dominance verifier.
    """

    def __init__(self, config: Optional[SloConfig] = None) -> None:
        self.config = config or SloConfig()
        self.clock = self.config.clock or SYSTEM_CLOCK
        self.last_trace: List[Solution] = []

    # ------------------------------------------------------------------
    def _as_instance(
        self, workload: ClassifierWorkload, budget: Optional[float]
    ) -> BCCInstance:
        if budget is None:
            if isinstance(workload, BCCInstance) and workload.budget is not None:
                return workload
            raise InvalidInstanceError(
                "solve() needs a budget unless the workload is a budgeted BCCInstance"
            )
        if isinstance(workload, BCCInstance):
            return workload.with_budget(budget)
        return BCCInstance(
            workload.queries,
            workload._utilities,
            workload._costs,
            budget=budget,
            default_utility=workload.default_utility,
            default_cost=workload.default_cost,
        )

    def _certified(self, instance: BCCInstance, solution: Solution) -> Solution:
        certificate = verify_solution(instance, solution, budget=instance.budget)
        if isinstance(solution.meta, dict):
            solution.meta["certificate"] = certificate
        return solution

    # ------------------------------------------------------------------
    def solve(
        self,
        workload: ClassifierWorkload,
        budget: Optional[float] = None,
        deadline_ms: Optional[float] = None,
    ) -> Solution:
        """Best certified solution reachable within ``deadline_ms``.

        ``deadline_ms=None`` means unbounded: the whole portfolio runs
        and the answer matches the full-portfolio best.  ``budget``
        overrides (or supplies) the instance budget.
        """
        if deadline_ms is not None and (deadline_ms < 0 or math.isnan(deadline_ms)):
            raise ValueError(f"deadline_ms must be >= 0, got {deadline_ms}")
        instance = self._as_instance(workload, budget)
        deadline_s = math.inf if deadline_ms is None else deadline_ms / 1000.0
        clock = self.clock
        engine = active_engine()
        fingerprint = instance_fingerprint(instance)
        jobs = 1 if clock.virtual else resolve_jobs(self.config.jobs)

        order = sorted(
            (TIER_PRIOR_SECONDS[solver_tier(arm)], TIER_RANK[solver_tier(arm)], arm)
            for arm in self.config.arms
        )

        start = clock.now()
        incumbent = self._certified(
            instance, evaluate(instance, [], meta={"algorithm": "slo-empty"})
        )
        trace = [incumbent]
        tried: List[dict] = []
        index = 0
        first = True
        while index < len(order):
            remaining = deadline_s - (clock.now() - start)
            wave: List[Tuple[float, str]] = []
            wave_pred = 0.0
            while index < len(order) and len(wave) < jobs:
                predicted, _, arm = order[index]
                if not first and wave_pred + predicted > remaining + _TOL:
                    break
                wave.append((predicted, arm))
                wave_pred += predicted
                index += 1
                first = False
            if not wave:
                break

            timeout = None if math.isinf(remaining) else max(remaining, 0.0)
            tasks = [
                SolveTask(
                    key=arm,
                    solver=arm,
                    instance=instance,
                    seed=seed_for("slo", arm, fingerprint),
                    timeout_s=timeout,
                )
                for _, arm in wave
            ]
            results = run_tasks(
                tasks, ParallelConfig(jobs=jobs, clock=clock)
            )
            for (predicted, arm), result in zip(wave, results):
                candidate = result.solution
                improved = (candidate.utility, -candidate.cost) > (
                    incumbent.utility,
                    -incumbent.cost,
                )
                if improved:
                    incumbent = self._certified(instance, candidate)
                    trace.append(incumbent)
                tried.append(
                    {
                        "arm": arm,
                        "predicted_ms": predicted * 1000.0,
                        "actual_ms": result.seconds * 1000.0,
                        "utility": candidate.utility,
                        "cost": candidate.cost,
                        "improved": improved,
                        "timed_out": result.timed_out,
                    }
                )

        skipped = [
            {"arm": arm, "predicted_ms": predicted * 1000.0}
            for predicted, _, arm in order[index:]
        ]
        elapsed = clock.now() - start
        telemetry = {
            "deadline_ms": deadline_ms,
            "elapsed_ms": elapsed * 1000.0,
            "slack_ms": None
            if deadline_ms is None
            else (deadline_s - elapsed) * 1000.0,
            "overrun_ms": 0.0
            if math.isinf(deadline_s)
            else max(0.0, (elapsed - deadline_s) * 1000.0),
            "engine": engine,
            "schedule": [entry["arm"] for entry in tried],
            "arms_tried": tried,
            "arms_skipped": skipped,
            "incumbent_updates": len(trace) - 1,
        }
        # The incumbent's certificate rides along in the copied meta: the
        # final solution has the same selection, cost, utility and cover.
        final = Solution(
            classifiers=incumbent.classifiers,
            cost=incumbent.cost,
            utility=incumbent.utility,
            covered=incumbent.covered,
            meta={**dict(incumbent.meta), "slo": telemetry},
        )
        self.last_trace = trace[:-1] + [final]
        return final


def solve_slo(
    workload: ClassifierWorkload,
    budget: Optional[float] = None,
    deadline_ms: Optional[float] = None,
    config: Optional[SloConfig] = None,
) -> Solution:
    """Functional one-shot wrapper around :class:`AnytimeMetaSolver`."""
    return AnytimeMetaSolver(config).solve(workload, budget, deadline_ms)
