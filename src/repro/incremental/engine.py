"""The shard-solve engine: cold sharded solves and warm delta re-plans.

A BCC instance splits into query components (shards) that interact only
through the shared budget: a classifier only helps queries that contain
it (:mod:`repro.decompose.partition`).  :class:`IncrementalSolver` holds
the current :class:`BCCInstance` and solves it shard by shard:

1. the shard partition, recomputed by
   :func:`~repro.decompose.partition.partition_workload` on every
   re-plan;
2. every shard missing from the profile store is solved over its
   candidate budget grid through :func:`repro.parallel.pool.run_tasks` —
   one :class:`~repro.parallel.pool.SolveTask` per (shard, budget point),
   never through a result cache;
3. solved per-shard pareto profiles are stored *content-addressed* under
   the shard's budget-free
   :func:`~repro.parallel.fingerprint.workload_fingerprint` — a shard
   untouched by a delta re-keys to the same fingerprint no matter how the
   other shards merged or split, so its profile (and every inner solve
   behind it) is reused verbatim;
4. the allocator (:mod:`repro.decompose.allocator`) picks one solved
   point per shard, the union selection is re-scored from first
   principles, and the recombined shard totals must match that re-score
   or a :class:`~repro.core.errors.DecompositionError` is raised.

Exactness: under a non-binding budget (one covering every shard's total
finite classifier cost) each shard is solved once and the result equals
the inner solver's on the whole instance; under a binding budget it is
optimal over the grid of per-shard solutions.

:func:`solve_bcc_sharded` is the cold entry: this pipeline on an empty
profile store, except that a one-shard instance runs the inner solver on
the whole instance.  :meth:`IncrementalSolver.resolve_delta` is the warm
one: it applies a :class:`~repro.incremental.delta.WorkloadDelta` to a
copy of the workload, re-partitions, solves only the (shard, point)
pairs the profile store lacks, and makes the copy the solver's workload
once the re-plan returns, so a failed re-plan commits nothing.  A shard
is *dirty* iff a task ran for it, and *reused* iff the store, the
engine's one piece of warm state, served it whole.
(A shard whose fingerprint hit can still be dirty: a profile stored
under a non-binding budget holds one point, so a binding budget needs
its grid.)  The result is *identical* to a cold solve of the mutated
instance.  It carries no certificate: a caller that reads one attaches
it (:func:`repro.verify.certificate.attach_certificate`).

The selection union is additionally replayed through a fresh
:class:`~repro.core.coverage.CoverageTracker` using the checkpoint /
rollback undo log: clean-shard classifiers first, checkpoint, dirty-shard
classifiers, rollback, re-apply — asserting that the patched coverage
state is bit-identical to the straight-through replay.  That exercises
the tracker's undo machinery on every re-plan, so a drifting rollback
cannot hide behind the evaluator.
"""

from __future__ import annotations

import math
import os
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.coverage import CoverageTracker
from repro.core.errors import DecompositionError
from repro.core.model import BCCInstance, Classifier
from repro.core.solution import Solution, evaluate
from repro.decompose.allocator import ProfilePoint, allocate, budget_grid
from repro.decompose.partition import WorkloadPartition, partition_workload
from repro.incremental.delta import WorkloadDelta
from repro.parallel.clock import Clock
from repro.parallel.fingerprint import shard_fingerprints
from repro.parallel.pool import ParallelConfig, SolveTask, resolve_jobs, run_tasks
from repro.parallel.seeding import seed_for

_TOL = 1e-9

#: Below this many queries a shard solve is cheaper than shipping it to a
#: worker process, so batches made only of such shards run in-process.
TINY_SHARD_QUERIES = 16

#: Shard profiles kept in the content-addressed store (LRU beyond this).
MAX_STORED_PROFILES = 256

#: Registry name of the per-shard solver (an entry of
#: :mod:`repro.parallel.registry`).
INNER_SOLVER = "abcc"

#: Per-shard budget-grid cap under a binding budget.
MAX_GRID_POINTS = 12


def effective_jobs(jobs: Optional[int], tasks: Sequence[SolveTask]) -> int:
    """Worker count actually worth using for this batch.

    ``resolve_jobs`` answers what the caller *allows*; this clamps it by
    what the machine and the batch can *use*: never more workers than
    CPUs or tasks, and serial when every task is tiny (fork + pickle
    overhead dwarfs a sub-millisecond shard solve).
    """
    allowed = resolve_jobs(jobs)
    allowed = min(allowed, os.cpu_count() or 1, max(1, len(tasks)))
    if allowed > 1 and all(
        task.instance.num_queries < TINY_SHARD_QUERIES for task in tasks
    ):
        return 1
    return allowed


def _finite_costs(shard: BCCInstance) -> List[float]:
    """The shard's finite relevant-classifier costs (their sum is the
    shard's saturation budget: no solution can usefully spend more)."""
    return [
        cost
        for cost in (shard.cost(c) for c in shard.relevant_classifiers())
        if not math.isinf(cost)
    ]


def _check_composition(
    solution: Solution,
    allocated_utility: float,
    shard_spends: List[float],
    chosen: List[Optional[ProfilePoint]],
) -> None:
    """First-principles totals must equal the recombined shard totals."""
    expected_utility = sum(point.utility for point in chosen if point is not None)
    expected_cost = sum(shard_spends)
    scale = max(1.0, abs(expected_utility), abs(solution.utility))
    if abs(solution.utility - expected_utility) > _TOL * scale:
        raise DecompositionError(
            f"recombined shard utility {expected_utility} disagrees with the "
            f"first-principles evaluation {solution.utility} — shards interact"
        )
    scale = max(1.0, abs(expected_cost), abs(solution.cost))
    if abs(solution.cost - expected_cost) > _TOL * scale:
        raise DecompositionError(
            f"recombined shard cost {expected_cost} disagrees with the "
            f"first-principles evaluation {solution.cost} — shards overlap"
        )
    scale = max(1.0, abs(allocated_utility))
    if abs(allocated_utility - expected_utility) > _TOL * scale:
        raise DecompositionError(
            f"allocator value {allocated_utility} disagrees with the chosen "
            f"profile points' utility {expected_utility}"
        )


@dataclass
class IncrementalConfig:
    """Tuning knobs for :class:`IncrementalSolver` and :func:`solve_bcc_sharded`.

    A solved shard point lives only in the solver's profile store, never
    in a result cache, so a re-plan's answer never depends on what
    another process wrote to disk.

    Attributes:
        jobs: worker processes for the shard fan-out (``None`` defers to
            ``REPRO_JOBS``; tiny batches run serially either way).  Keep
            at 1 when the caller itself runs inside a process pool.
        clock: injected time for the dirty-shard task batches (``None``
            uses the system clock).  A virtual clock forces the batches
            serial and charges simulated seconds, which is what lets the
            serving façade replay re-plans on a deterministic timeline.
    """

    jobs: Optional[int] = None
    clock: Optional[Clock] = field(default=None, repr=False)


@dataclass
class ShardProfile:
    """Everything solved about one shard, keyed by its content fingerprint."""

    fingerprint: str
    total: float  #: saturation budget (sum of finite relevant costs)
    solutions: Dict[str, Solution]  #: profile-point key → shard solution


class IncrementalSolver:
    """Stateful shard solver for a changing BCC workload: cold, then warm.

    :attr:`instance` is the current workload; a re-plan replaces it with
    a mutated copy and never mutates the instance it was handed.
    """

    def __init__(
        self,
        instance: BCCInstance,
        config: Optional[IncrementalConfig] = None,
        seed: Optional[int] = None,
    ) -> None:
        self.instance = instance
        self.config = config or IncrementalConfig()
        self.seed = seed
        self._profiles: "OrderedDict[str, ShardProfile]" = OrderedDict()
        self._max_profiles = MAX_STORED_PROFILES
        self.deltas_applied = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def solve(self) -> Solution:
        """Cold solve of the current instance (also primes the warm state)."""
        return self._resolve(self.instance, partition_workload(self.instance), delta=None)

    def resolve_delta(self, delta: WorkloadDelta) -> Solution:
        """Apply ``delta`` and re-plan, reusing every untouched shard.

        The delta is applied to a copy of :attr:`instance` that carries
        its version on (each mutation bumps it, so stale compiled views
        and trackers fail loudly).  The copy is re-partitioned, only the
        (shard, point) pairs the profile store lacks are solved, and the
        copy becomes :attr:`instance` once the re-plan returns.  A delta
        that fails validation or a re-plan that raises leaves the
        workload, its version and :attr:`deltas_applied` unchanged.
        """
        mutated = self.instance.clone()
        mutated.version = self.instance.version
        mutated.apply_delta(delta)
        solution = self._resolve(mutated, partition_workload(mutated), delta=delta)
        self.instance = mutated
        self.deltas_applied += 1
        return solution

    # ------------------------------------------------------------------
    # the re-plan pipeline
    # ------------------------------------------------------------------
    def _resolve(
        self,
        instance: BCCInstance,
        partition: WorkloadPartition,
        delta: Optional[WorkloadDelta],
    ) -> Solution:
        budget = instance.budget
        # Every live shard's profile must survive the whole re-plan: the
        # LRU floor tracks the partition width (evicting a live profile
        # mid-resolve would fault when the allocation is assembled).
        self._max_profiles = max(MAX_STORED_PROFILES, 2 * partition.num_shards)

        # Fingerprints are computed in one pass over the parent workload;
        # shard instances are only materialized for shards that actually
        # need solving (a clean re-plan touches none of them).
        fingerprints = shard_fingerprints(instance, partition.shards)
        shard_cache: Dict[int, BCCInstance] = {}

        def shard_at(index: int) -> BCCInstance:
            if index not in shard_cache:
                shard_cache[index] = partition.shard_instance(index, 0.0)
            return shard_cache[index]

        totals = [
            self._profiles[fp].total
            if fp in self._profiles
            else float(sum(_finite_costs(shard_at(index))))
            for index, fp in enumerate(fingerprints)
        ]

        non_binding = sum(totals) <= budget + _TOL
        if non_binding:
            # Every shard saturates independently, so each is solved once,
            # at the *global* budget rather than its saturation total: the
            # surplus slack keeps the inner solver on its cheap large-budget
            # paths instead of the hard mid-k HkS regime a budget pinned at
            # the saturation total forces.
            point = budget if math.isfinite(budget) else None
            grids: List[List[float]] = [
                [total if point is None else point] for total in totals
            ]
        else:
            # Grids are recomputed from shard content every time (cheap next
            # to a solve, and a profile stored on the non-binding path holds
            # only the saturation point) so warm grids always equal cold ones.
            grids = [
                budget_grid(
                    _finite_costs(shard_at(index)),
                    budget,
                    max_points=MAX_GRID_POINTS,
                )
                for index in range(partition.num_shards)
            ]

        solved = self._solve_missing(shard_at, fingerprints, grids, totals)
        dirty = set(solved)

        profiles: List[List[ProfilePoint]] = []
        by_key: Dict[str, Solution] = {}
        for index, fp in enumerate(fingerprints):
            profile = self._profiles[fp]
            wanted = [f"b={point!r}" for point in grids[index]]
            # Points are re-keyed under the *current* shard index so
            # allocator keys stay batch-unique after re-partitioning.
            points = []
            for key in wanted:
                if key not in profile.solutions:
                    raise DecompositionError(
                        f"shard {index} missing solved point {key} "
                        f"(fingerprint {fp[:12]})"
                    )
                solution = profile.solutions[key]
                points.append(
                    ProfilePoint(
                        cost=solution.cost,
                        utility=solution.utility,
                        key=f"s{index}/{key}",
                    )
                )
                by_key[f"s{index}/{key}"] = solution
            profiles.append(points)

        if non_binding:
            # Trivial allocation: every shard takes its single saturation
            # point, so the grouped-knapsack DP is skipped entirely.
            chosen: List[Optional[ProfilePoint]] = [
                points[0] if points else None for points in profiles
            ]
            allocated_utility = sum(
                point.utility for point in chosen if point is not None
            )
            path = "non-binding"
        else:
            allocated_utility, chosen, path = allocate(profiles, budget)

        selection: Set[Classifier] = set()
        shard_spends: List[float] = []
        clean_selection: List[Classifier] = []
        dirty_selection: List[Classifier] = []
        for index, point in enumerate(chosen):
            if point is None:
                shard_spends.append(0.0)
                continue
            solution = by_key[point.key]
            selection.update(solution.classifiers)
            shard_spends.append(solution.cost)
            bucket = dirty_selection if index in dirty else clean_selection
            bucket.extend(sorted(solution.classifiers, key=sorted))

        self._patch_and_check(instance, clean_selection, dirty_selection)

        result = evaluate(
            instance,
            selection,
            meta={
                "algorithm": "A^BCC[incremental]",
                "inner_solver": INNER_SOLVER,
                "incremental": {
                    "version": getattr(instance, "version", 0),
                    # A re-plan reports its own delta, which counts in
                    # ``deltas_applied`` once the re-plan returns.
                    "deltas_applied": self.deltas_applied + (0 if delta is None else 1),
                    "delta_edits": 0 if delta is None else delta.num_edits,
                    "shards": partition.num_shards,
                    "dirty_shards": len(dirty),
                    "reused_profiles": partition.num_shards - len(dirty),
                    "solved_tasks": len(solved),
                    "path": path,
                    "grid_sizes": [len(grid) for grid in grids],
                },
            },
        )
        _check_composition(result, allocated_utility, shard_spends, list(chosen))
        return result

    # ------------------------------------------------------------------
    # shard-profile store
    # ------------------------------------------------------------------
    def _store(self, profile: ShardProfile) -> None:
        self._profiles[profile.fingerprint] = profile
        self._profiles.move_to_end(profile.fingerprint)
        while len(self._profiles) > self._max_profiles:
            self._profiles.popitem(last=False)

    def _solve_missing(
        self,
        shard_at,
        fingerprints: Sequence[str],
        grids: Sequence[Sequence[float]],
        totals: Sequence[float],
    ) -> List[int]:
        """Run the inner solver for every (shard, point) not in the store.

        Returns the shard index of each task run.  Tasks are keyed and
        seeded by the shard *fingerprint*, not its index, so a shard keeps
        its derived seeds across re-partitionings.  The batch runs with no
        result cache: the profile store is the one copy of a shard solve.
        """
        config = self.config
        tasks: List[SolveTask] = []
        owners: List[Tuple[str, int, float]] = []
        for index, (fp, grid) in enumerate(zip(fingerprints, grids)):
            profile = self._profiles.get(fp)
            for point in grid:
                key = f"b={point!r}"
                if profile is not None and key in profile.solutions:
                    continue
                tasks.append(
                    SolveTask(
                        key=f"{fp[:16]}/{key}",
                        solver=INNER_SOLVER,
                        instance=shard_at(index).with_budget(point),
                        seed=seed_for(
                            "incremental", INNER_SOLVER, self.seed, fp, float(point)
                        ),
                    )
                )
                owners.append((fp, index, point))
        if tasks:
            jobs = effective_jobs(config.jobs, tasks)
            results = run_tasks(tasks, ParallelConfig(jobs=jobs, clock=config.clock))
            for (fp, index, point), result in zip(owners, results):
                profile = self._profiles.get(fp)
                if profile is None:
                    profile = ShardProfile(
                        fingerprint=fp, total=totals[index], solutions={}
                    )
                profile.solutions[f"b={point!r}"] = result.solution
                self._store(profile)
        return [index for _fp, index, _point in owners]

    # ------------------------------------------------------------------
    # tracker patching: checkpoint / rollback integrity on every re-plan
    # ------------------------------------------------------------------
    def _patch_and_check(
        self,
        instance: BCCInstance,
        clean_selection: Sequence[Classifier],
        dirty_selection: Sequence[Classifier],
    ) -> None:
        """Patch coverage in place and prove the undo log drift-free.

        Replays the union selection on a fresh tracker as clean-shard
        classifiers + checkpoint + dirty-shard classifiers, rolls the
        dirty patch back, re-applies it, and requires the totals after
        the rollback round-trip to equal the straight-through totals
        bit-for-bit.  A tracker whose rollback leaks utility, cost or
        coverage state fails every re-plan immediately.
        """
        tracker = CoverageTracker(instance)
        tracker.add_all(clean_selection)
        tracker.checkpoint()
        tracker.add_all(dirty_selection)
        utility, spent = tracker.utility, tracker.spent
        covered = tracker.covered
        tracker.rollback()
        tracker.checkpoint()
        tracker.add_all(dirty_selection)
        if (
            tracker.utility != utility
            or tracker.spent != spent
            or tracker.covered != covered
        ):
            raise DecompositionError(
                "coverage patch is not idempotent: rollback + re-apply gave "
                f"(utility={tracker.utility}, spent={tracker.spent}) vs "
                f"(utility={utility}, spent={spent})"
            )


def solve_bcc_sharded(
    instance: BCCInstance,
    config: Optional[IncrementalConfig] = None,
    seed: Optional[int] = None,
) -> Solution:
    """Solve ``instance`` by decomposition into independent shards.

    Drop-in alternative to :func:`~repro.algorithms.bcc.solve_bcc`: a
    cold :class:`IncrementalSolver` solve, returned without a
    certificate.  ``seed`` feeds the per-shard derived seeds of
    randomized inner solvers; deterministic inner solvers ignore it.

    A one-shard instance runs the inner solver once on the whole instance
    instead: under a binding budget the grid pipeline would solve up to
    :data:`MAX_GRID_POINTS` budgets of that same instance and can pick a
    different selection than the inner solver does.
    """
    partition = partition_workload(instance)
    if partition.num_shards > 1:
        return IncrementalSolver(instance, config, seed)._resolve(
            instance, partition, delta=None
        )

    from repro.parallel.registry import get_solver

    solution = get_solver(INNER_SOLVER)(instance, seed)
    meta = dict(solution.meta)
    meta["incremental"] = {
        "version": getattr(instance, "version", 0),
        "deltas_applied": 0,
        "delta_edits": 0,
        "shards": 1,
        "dirty_shards": 1,
        "reused_profiles": 0,
        "solved_tasks": 1,
        "path": "monolithic-fallback",
        "grid_sizes": [1],
    }
    return replace(solution, meta=meta)
