"""Parallel experiment execution with deterministic result caching.

The evaluation section of the paper is embarrassingly parallel — budget
points, randomized trials and solver arms are independent solves.
This package turns each into a :class:`~repro.parallel.pool.SolveTask`
and executes batches through a process pool (``--jobs``/``REPRO_JOBS``,
serial fallback at ``jobs=1``) with three guarantees:

1. **Bit-identical results.**  Seeds are derived per task
   (:func:`~repro.parallel.seeding.seed_for`), never drawn from shared
   RNG state, and results are reduced in task order — so ``jobs=N``
   reproduces ``jobs=1`` exactly, floats included.  The ``repro.verify``
   certificate harness referees this in ``tests/test_parallel.py``.
2. **Deterministic caching.**  Instances fingerprint canonically
   (:func:`~repro.parallel.fingerprint.instance_fingerprint`); solved
   tasks land as JSON under ``.repro-cache/`` (LRU-bounded), and warm
   sweeps replay rows byte for byte, timings included.
3. **Zero-friction fallback.**  ``jobs=1`` with no cache touches neither
   the pool nor the disk; debugging and coverage see plain function calls.
"""

from repro.parallel.cache import (
    CacheStats,
    ResultCache,
    default_cache,
    solution_from_payload,
    solution_to_payload,
)
from repro.parallel.clock import SYSTEM_CLOCK, Clock, SystemClock, VirtualClock
from repro.parallel.corpus import CORPUS_SOLVERS, corpus_figure, corpus_tasks
from repro.parallel.fingerprint import instance_fingerprint, task_fingerprint
from repro.parallel.pool import (
    SERIAL,
    ParallelConfig,
    SolveTask,
    TaskResult,
    resolve_jobs,
    run_tasks,
)
from repro.parallel.registry import get_solver, register_solver, solver_names
from repro.parallel.seeding import derive_rng, seed_for, spawn_keys

__all__ = [
    "Clock",
    "SystemClock",
    "VirtualClock",
    "SYSTEM_CLOCK",
    "CacheStats",
    "ResultCache",
    "default_cache",
    "solution_from_payload",
    "solution_to_payload",
    "CORPUS_SOLVERS",
    "corpus_figure",
    "corpus_tasks",
    "instance_fingerprint",
    "task_fingerprint",
    "SERIAL",
    "ParallelConfig",
    "SolveTask",
    "TaskResult",
    "resolve_jobs",
    "run_tasks",
    "get_solver",
    "register_solver",
    "solver_names",
    "derive_rng",
    "seed_for",
    "spawn_keys",
]
