"""Workload decomposition: the shard partition and the budget allocator.

A BCC instance decomposes exactly along connected components of the
"shares a usable classifier" relation on ``Q``: a classifier ``c`` only
helps cover queries ``q ⊇ c``, so components never interact except
through the shared budget.  This package computes that partition
(:func:`partition_workload`) and recombines per-shard solved profiles
with an exact multiple-choice knapsack
(:mod:`repro.decompose.allocator`).  The shard solves themselves run in
:mod:`repro.incremental` (:func:`~repro.incremental.solve_bcc_sharded`);
see the "Incremental re-solve" section of
``docs/ALGORITHMS.md``.
"""

from repro.decompose.allocator import (
    ProfilePoint,
    allocate,
    budget_grid,
    pareto_profile,
)
from repro.decompose.partition import WorkloadPartition, partition_workload

__all__ = [
    "WorkloadPartition",
    "partition_workload",
    "ProfilePoint",
    "budget_grid",
    "pareto_profile",
    "allocate",
]
