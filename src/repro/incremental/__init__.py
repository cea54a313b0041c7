"""Sharded BCC solving: cold sharded solves and warm delta re-plans.

A BCC instance splits into query components that interact only through
the shared budget.  This package solves those components shard by shard,
cold or warm after workload edits — queries arrive and retire, utilities
drift, classifier prices change:

- :class:`~repro.incremental.delta.WorkloadDelta` describes one atomic
  batch of edits, validated up front and invertible
  (:meth:`~repro.incremental.delta.WorkloadDelta.inverse`);
- :class:`~repro.incremental.engine.IncrementalSolver` solves the shards,
  and its :meth:`~repro.incremental.engine.IncrementalSolver.resolve_delta`
  re-partitions the edited workload and re-solves only the shards whose
  content it has not solved before, reusing solved pareto profiles
  through a content-addressed store, and returns a solution identical
  to a cold solve of the mutated instance;
- :func:`~repro.incremental.engine.solve_bcc_sharded` is the cold entry
  (registry arm ``abcc-sharded``): an :class:`IncrementalSolver` solve
  with an empty profile store, or the inner solver on the whole instance
  when it has one shard.

See the "Incremental re-solve" section of
``docs/ALGORITHMS.md``.
"""

from repro.incremental.delta import WorkloadDelta, random_delta
from repro.incremental.engine import (
    IncrementalConfig,
    IncrementalSolver,
    ShardProfile,
    solve_bcc_sharded,
)

__all__ = [
    "WorkloadDelta",
    "random_delta",
    "IncrementalConfig",
    "IncrementalSolver",
    "ShardProfile",
    "solve_bcc_sharded",
]
