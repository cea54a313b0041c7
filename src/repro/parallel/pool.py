"""Process-pool task execution with a serial fallback and result caching.

The unit of work is a :class:`SolveTask`: one named solver applied to one
instance with one derived seed.  :func:`run_tasks` executes a batch —
serially when ``jobs == 1`` (debugging and coverage stay trivial), via
``ProcessPoolExecutor`` otherwise — and returns results *in task order*
regardless of completion order.  Determinism contract:

- tasks share no state: randomized solvers are pure functions of their
  ``seed`` field (derive seeds with :func:`repro.parallel.seeding.seed_for`);
- results are collected positionally, so reductions downstream (means,
  best-of) accumulate in the same order on every path;
- hence ``jobs=N`` is bit-identical to ``jobs=1`` for every batch.

With a :class:`~repro.parallel.cache.ResultCache` attached, each task's
fingerprint (instance ⊕ solver ⊕ seed) is consulted first and only the
misses are executed; stored entries include the original wall seconds, so
warm sweeps reproduce cold rows exactly.  A stored entry is not trusted:
every hit is re-verified against its task's instance, and one that fails
is rejected (a miss in the cache's stats), solved cold and overwritten.
Results carry no certificate; a caller that reads one attaches it
(:func:`repro.verify.certificate.attach_certificate`).

All timing goes through the config's :class:`~repro.parallel.clock.Clock`
(default: the system clock).  A :class:`~repro.parallel.clock.VirtualClock`
forces the batch serial and charges simulated task durations instead of
wall time — that is what makes the SLO meta-solver's scheduling decisions
testable bit for bit.  Worker processes of a fanned-out batch always
measure with the system clock (a virtual clock cannot cross a process
boundary, and never needs to: virtual implies serial).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.model import ClassifierWorkload
from repro.core.solution import Solution
from repro.parallel.cache import ResultCache
from repro.parallel.clock import SYSTEM_CLOCK, Clock
from repro.parallel.fingerprint import task_fingerprint

#: Hard ceiling on worker processes (a runaway guard, not a tuning knob).
MAX_JOBS = 64


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """The effective worker count: explicit arg, else ``REPRO_JOBS``, else 1.

    ``jobs=0`` means "one worker per CPU".  The result is clamped to
    ``[1, MAX_JOBS]``.
    """
    if jobs is None:
        raw = os.environ.get("REPRO_JOBS", "1")
        try:
            jobs = int(raw)
        except ValueError:
            raise ValueError(f"REPRO_JOBS must be an integer, got {raw!r}")
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    if jobs == 0:
        jobs = os.cpu_count() or 1
    return max(1, min(jobs, MAX_JOBS))


@dataclass(frozen=True)
class SolveTask:
    """One solver applied to one instance (the parallel unit of work).

    Attributes:
        key: batch-unique label used to address the result (never hashed).
        solver: registry name (see :mod:`repro.parallel.registry`).
        instance: the workload to solve (picklable by construction).
        seed: derived seed for randomized solvers; None for deterministic.
        timeout_s: advisory per-task deadline in seconds.  CPython cannot
            safely preempt a running solve, so the task is never killed;
            an overrun is *recorded* on the result (``timed_out=True``)
            for the scheduler to react to.  None disables the check.
    """

    key: str
    solver: str
    instance: ClassifierWorkload
    seed: Optional[int] = None
    timeout_s: Optional[float] = None


@dataclass(frozen=True)
class TaskResult:
    """One executed (or cache-served) task.

    ``seconds`` is the task's elapsed time as measured by the batch's
    clock (wall seconds on the system clock, simulated seconds on a
    virtual one; cache hits replay the original solve's seconds) — the
    single source callers consume instead of re-timing around the batch.
    ``timed_out`` records whether ``seconds`` exceeded the task's
    advisory ``timeout_s``.
    """

    key: str
    solution: Solution
    seconds: float
    cached: bool = False
    timed_out: bool = False


@dataclass(frozen=True)
class ParallelConfig:
    """Execution policy for a batch: worker count and cache handle.

    ``jobs=None`` defers to ``REPRO_JOBS`` (default 1); ``cache=None``
    disables caching; ``clock=None`` times tasks on the system clock.
    A virtual clock forces the batch serial (simulated time has no
    out-of-order completion), whatever ``jobs`` says.
    """

    jobs: Optional[int] = None
    cache: Optional[ResultCache] = None
    clock: Optional[Clock] = None


#: The do-nothing default: serial and uncached.
SERIAL = ParallelConfig(jobs=1)


def _execute_task(task: SolveTask, clock: Clock = SYSTEM_CLOCK) -> Tuple[Solution, float]:
    """Solve one task, timed on ``clock``.

    Pool workers take the default: the fanned-out path, which a virtual
    clock never takes, always measures on the system clock.
    """
    from repro.parallel.registry import get_solver

    solver = get_solver(task.solver)
    return clock.run_task(task, lambda: solver(task.instance, task.seed))


def _is_timed_out(task: SolveTask, seconds: float) -> bool:
    return task.timeout_s is not None and seconds > task.timeout_s


def _certifies(task: SolveTask, solution: Solution) -> bool:
    """Whether a cache-served solution re-certifies against its task.

    Coverage, cost and utility are re-derived from the instance, with
    the budget of a :class:`~repro.core.model.BCCInstance` and the target
    of a :class:`~repro.core.model.GMC3Instance`; a corrupt entry fails.
    """
    from repro.core.errors import CertificateError
    from repro.core.model import BCCInstance, GMC3Instance
    from repro.verify.certificate import verify_solution

    budget = task.instance.budget if isinstance(task.instance, BCCInstance) else None
    target = task.instance.target if isinstance(task.instance, GMC3Instance) else None
    try:
        verify_solution(task.instance, solution, budget=budget, target=target)
    except CertificateError:
        return False
    return True


def run_tasks(
    tasks: Sequence[SolveTask], parallel: Optional[ParallelConfig] = None
) -> List[TaskResult]:
    """Execute a batch and return results aligned with ``tasks``.

    Cache hits that re-certify are served without touching the pool;
    only misses (and rejected hits) execute, and their results are stored
    back.  The returned list order — and every float in it — is
    independent of ``jobs``.
    """
    config = parallel or SERIAL
    clock = config.clock or SYSTEM_CLOCK
    tasks = list(tasks)
    seen = set()
    for task in tasks:
        if task.key in seen:
            raise ValueError(f"duplicate task key {task.key!r} in batch")
        seen.add(task.key)

    results: List[Optional[TaskResult]] = [None] * len(tasks)
    misses: List[int] = []
    fingerprints: List[Optional[str]] = [None] * len(tasks)
    for index, task in enumerate(tasks):
        if config.cache is not None:
            fingerprint = task_fingerprint(task.instance, task.solver, task.seed)
            fingerprints[index] = fingerprint
            hit = config.cache.get(fingerprint)
            if hit is not None:
                if _certifies(task, hit[0]):
                    solution, seconds = hit
                    results[index] = TaskResult(
                        task.key, solution, seconds, cached=True,
                        timed_out=_is_timed_out(task, seconds),
                    )
                    continue
                config.cache.reject(fingerprint)
        misses.append(index)

    miss_tasks = [tasks[i] for i in misses]
    workers = min(resolve_jobs(config.jobs), len(miss_tasks))
    if clock.virtual or workers <= 1:
        # Serial path: timing goes through the injected clock (a virtual
        # clock charges simulated durations and must never fan out).
        executed = [_execute_task(task, clock) for task in miss_tasks]
    else:
        chunksize = max(1, len(miss_tasks) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as executor:
            executed = list(executor.map(_execute_task, miss_tasks, chunksize=chunksize))
    for index, (solution, seconds) in zip(misses, executed):
        task = tasks[index]
        results[index] = TaskResult(
            task.key, solution, seconds, cached=False,
            timed_out=_is_timed_out(task, seconds),
        )
        if config.cache is not None:
            config.cache.put(fingerprints[index], solution, seconds)

    return [result for result in results if result is not None]


@dataclass
class TaskBatch:
    """An order-preserving task accumulator with keyed result lookup.

    Figure builders stage every cell of a sweep into one batch, run it in
    a single :func:`run_tasks` call (maximal fan-out across budget points,
    trials and arms), then assemble rows by key.
    """

    tasks: List[SolveTask] = field(default_factory=list)

    def add(
        self,
        key: str,
        solver: str,
        instance: ClassifierWorkload,
        seed: Optional[int] = None,
    ) -> str:
        self.tasks.append(SolveTask(key=key, solver=solver, instance=instance, seed=seed))
        return key

    def run(self, parallel: Optional[ParallelConfig] = None) -> "BatchResults":
        return BatchResults(run_tasks(self.tasks, parallel))


class BatchResults:
    """Keyed access to a batch's results (insertion order preserved)."""

    def __init__(self, results: Sequence[TaskResult]) -> None:
        self._by_key = {result.key: result for result in results}

    def __getitem__(self, key: str) -> TaskResult:
        return self._by_key[key]

    def __len__(self) -> int:
        return len(self._by_key)

    def __iter__(self):
        return iter(self._by_key.values())

    def solution(self, key: str) -> Solution:
        return self._by_key[key].solution

    def seconds(self, key: str) -> float:
        return self._by_key[key].seconds

    def total_seconds(self) -> float:
        """Sum of per-task elapsed seconds (clock-measured, cache-replayed).

        The batch's own accounting — callers should consume this instead
        of re-timing around :meth:`TaskBatch.run`, which would conflate
        solver time with cache and scheduling overhead.
        """
        return sum(result.seconds for result in self._by_key.values())
