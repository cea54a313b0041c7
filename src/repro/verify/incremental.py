"""Delta-vs-cold differential harness for the incremental engine.

The incremental engine's contract is absolute: after any sequence of
deltas, the warm re-plan must be *identical* to solving the mutated
instance cold through the same pipeline — same classifiers, bit-equal
utility and cost — and every shard must be either re-solved (dirty) or
served from the profile store (reused), never both.
:func:`check_delta_stream` drives one
:class:`~repro.incremental.engine.IncrementalSolver` through a stream of
deltas, re-solving a pristine clone cold at every step, and raises
:class:`~repro.core.errors.DifferentialError` on the first divergence;
every warm solution is also certificate-verified from first principles.
"""

from __future__ import annotations

from random import Random
from typing import Dict, List, Optional, Sequence

from repro.core.errors import DifferentialError
from repro.core.model import BCCInstance
from repro.incremental.delta import WorkloadDelta, random_delta
from repro.incremental.engine import IncrementalConfig, IncrementalSolver
from repro.verify.certificate import verify_solution


def check_delta_stream(
    instance: BCCInstance,
    deltas: Sequence[WorkloadDelta],
    config: Optional[IncrementalConfig] = None,
    seed: Optional[int] = None,
) -> Dict[str, object]:
    """Drive ``instance`` through ``deltas`` warm, cross-checking cold.

    At every step the warm solver applies the next delta and re-plans;
    an independent cold solver (same config, pristine clone of the
    mutated instance) re-solves from scratch.  Divergence in the selected
    classifiers, utility or cost — bit-equal, no tolerance — raises
    :class:`DifferentialError`, as does shard telemetry whose dirty and
    reused counts do not sum to the shard count.  A warm solution failing
    first-principles certificate verification raises its
    :class:`~repro.core.errors.CertificateError`.  Returns a report dict
    with per-step reuse telemetry.
    """
    config = config or IncrementalConfig()
    solver = IncrementalSolver(instance, config=config, seed=seed)
    steps: List[Dict[str, object]] = []
    solution = solver.solve()
    _check_step(solver, solution, config, seed, step=0)
    for index, delta in enumerate(deltas, start=1):
        solution = solver.resolve_delta(delta)
        _check_step(solver, solution, config, seed, step=index)
        info = dict(solution.meta["incremental"])
        steps.append(info)
    return {
        "steps": len(deltas),
        "final_version": getattr(solver.instance, "version", 0),
        "final_utility": solution.utility,
        "telemetry": steps,
    }


def _check_step(
    solver: IncrementalSolver,
    warm,
    config: IncrementalConfig,
    seed: Optional[int],
    step: int,
) -> None:
    verify_solution(
        solver.instance, warm, budget=solver.instance.budget
    )
    info = warm.meta["incremental"]
    if info["dirty_shards"] + info["reused_profiles"] != info["shards"]:
        raise DifferentialError(
            f"step {step}: {info['dirty_shards']} dirty + "
            f"{info['reused_profiles']} reused shards != {info['shards']}"
        )
    cold = IncrementalSolver(
        solver.instance.clone(), config=config, seed=seed
    ).solve()
    if warm.classifiers != cold.classifiers:
        raise DifferentialError(
            f"step {step}: warm selection diverged from cold "
            f"({sorted(map(sorted, warm.classifiers ^ cold.classifiers))})"
        )
    if warm.utility != cold.utility or warm.cost != cold.cost:
        raise DifferentialError(
            f"step {step}: warm totals (u={warm.utility}, c={warm.cost}) != "
            f"cold (u={cold.utility}, c={cold.cost})"
        )


def random_delta_stream(
    instance: BCCInstance,
    steps: int,
    rng: Random,
    fraction: float = 0.02,
) -> List[WorkloadDelta]:
    """A valid stream of ``steps`` random deltas (each applied in turn).

    Deltas are generated against a scratch clone that applies them as it
    goes, so every delta in the stream validates against the instance
    state it will actually meet.
    """
    scratch = instance.clone()
    stream: List[WorkloadDelta] = []
    for _ in range(steps):
        delta = random_delta(scratch, rng, fraction=fraction)
        scratch.apply_delta(delta)
        stream.append(delta)
    return stream
