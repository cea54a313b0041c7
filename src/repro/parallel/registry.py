"""The named-solver registry: the one table of solver arms.

Tasks name solvers by string so they pickle cheaply across process
boundaries and fingerprint stably into cache keys.  Every entry is a
module-level callable with the uniform signature
``solver(instance, seed) -> Solution``; deterministic solvers ignore
``seed``, randomized ones must be pure functions of it (no shared RNG —
that is what keeps out-of-order parallel execution bit-identical to the
serial sweep).  Entries return answers only; a caller that needs a
certificate attaches one
(:func:`repro.verify.certificate.attach_certificate`).

Each entry also records its cost tier and the objective it solves.
Figure code, the corpus stress runner, the cache and the SLO
meta-solver refer to entries by name, and the differential harness
(:func:`repro.verify.differential.default_arms`) certifies every entry
on the seeded corpus, so a new entry needs no further plumbing.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core.model import ClassifierWorkload
from repro.core.solution import Solution, evaluate

SolverFn = Callable[[ClassifierWorkload, Optional[int]], Solution]

_SOLVERS: Dict[str, SolverFn] = {}
_TIERS: Dict[str, str] = {}
_KINDS: Dict[str, str] = {}

#: Coarse cost tiers, cheapest first.  A tier is a *prior*, not a
#: measurement: the SLO meta-solver predicts each arm's runtime as its
#: tier's prior (seconds), admits arms while those predictions fit the
#: deadline, and breaks prediction ties by tier rank.
COST_TIERS = ("cheap", "medium", "expensive")
TIER_RANK = {tier: rank for rank, tier in enumerate(COST_TIERS)}
TIER_PRIOR_SECONDS = {"cheap": 0.005, "medium": 0.05, "expensive": 0.5}

#: The objectives an entry can solve, named by the instance it consumes:
#: a budgeted :class:`~repro.core.model.BCCInstance`, a targeted
#: :class:`~repro.core.model.GMC3Instance` or a budget-free
#: :class:`~repro.core.model.ECCInstance`.
KINDS = ("bcc", "gmc3", "ecc")


def register_solver(name: str, tier: str, kind: str) -> Callable[[SolverFn], SolverFn]:
    """Register ``fn`` under ``name`` (also its cache-key identity).

    ``tier`` tags the arm's coarse expected cost (see :data:`COST_TIERS`)
    for budget-aware schedulers; it never affects what the solver does.
    ``kind`` names the objective it solves (see :data:`KINDS`): only
    ``bcc`` entries answer a budgeted BCC question.
    """
    if tier not in TIER_RANK:
        raise ValueError(f"tier must be one of {COST_TIERS}, got {tier!r}")
    if kind not in KINDS:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")

    def decorator(fn: SolverFn) -> SolverFn:
        if name in _SOLVERS:
            raise ValueError(f"solver {name!r} already registered")
        _SOLVERS[name] = fn
        _TIERS[name] = tier
        _KINDS[name] = kind
        return fn

    return decorator


def get_solver(name: str) -> SolverFn:
    if name not in _SOLVERS:
        raise KeyError(f"unknown solver {name!r}; known: {sorted(_SOLVERS)}")
    return _SOLVERS[name]


def solver_tier(name: str) -> str:
    """The registered cost tier of ``name`` (raises on unknown solvers)."""
    if name not in _TIERS:
        raise KeyError(f"unknown solver {name!r}; known: {sorted(_SOLVERS)}")
    return _TIERS[name]


def solver_kind(name: str) -> str:
    """The objective ``name`` solves (raises on unknown solvers)."""
    if name not in _KINDS:
        raise KeyError(f"unknown solver {name!r}; known: {sorted(_SOLVERS)}")
    return _KINDS[name]


def solver_names() -> list:
    return sorted(_SOLVERS)


# ----------------------------------------------------------------------
# default entries: the paper's algorithms and baselines, and the
# Section 8 extensions at the parameters where they reduce to BCC
# ----------------------------------------------------------------------

@register_solver("abcc", tier="medium", kind="bcc")
def _abcc(instance, seed=None):
    from repro.algorithms import solve_bcc

    return solve_bcc(instance)


@register_solver("abcc-pruned", tier="medium", kind="bcc")
def _abcc_pruned(instance, seed=None):
    from repro.algorithms import AbccConfig, solve_bcc
    from repro.algorithms.pruning import PruningConfig

    return solve_bcc(instance, AbccConfig(pruning=PruningConfig.paper()))


@register_solver("abcc-unpruned", tier="expensive", kind="bcc")
def _abcc_unpruned(instance, seed=None):
    from repro.algorithms import AbccConfig, solve_bcc

    return solve_bcc(instance, AbccConfig(pruning=None))


@register_solver("bcc-exact", tier="expensive", kind="bcc")
def _bcc_exact(instance, seed=None):
    from repro.algorithms import solve_bcc_exact

    return solve_bcc_exact(instance)


@register_solver("rand-bcc", tier="cheap", kind="bcc")
def _rand_bcc(instance, seed=None):
    from repro.baselines import rand_bcc

    return rand_bcc(instance, seed=0 if seed is None else seed)


@register_solver("ig1-bcc", tier="cheap", kind="bcc")
def _ig1_bcc(instance, seed=None):
    from repro.baselines import ig1_bcc

    return ig1_bcc(instance)


@register_solver("ig2-bcc", tier="medium", kind="bcc")
def _ig2_bcc(instance, seed=None):
    from repro.baselines import ig2_bcc

    return ig2_bcc(instance)


@register_solver("abcc-sharded", tier="medium", kind="bcc")
def _abcc_sharded(instance, seed=None):
    # jobs=1: registry solvers already run inside pool workers, so the
    # shard fan-out must not open a nested process pool.
    from repro.incremental import IncrementalConfig, solve_bcc_sharded

    return solve_bcc_sharded(instance, IncrementalConfig(jobs=1), seed=seed)


@register_solver("agmc3", tier="medium", kind="gmc3")
def _agmc3(instance, seed=None):
    from repro.algorithms import solve_gmc3

    return solve_gmc3(instance)


@register_solver("rand-gmc3", tier="cheap", kind="gmc3")
def _rand_gmc3(instance, seed=None):
    from repro.baselines import rand_gmc3

    return rand_gmc3(instance, seed=0 if seed is None else seed)


@register_solver("ig1-gmc3", tier="cheap", kind="gmc3")
def _ig1_gmc3(instance, seed=None):
    from repro.baselines import ig1_gmc3

    return ig1_gmc3(instance)


@register_solver("ig2-gmc3", tier="medium", kind="gmc3")
def _ig2_gmc3(instance, seed=None):
    from repro.baselines import ig2_gmc3

    return ig2_gmc3(instance)


@register_solver("aecc", tier="medium", kind="ecc")
def _aecc(instance, seed=None):
    from repro.algorithms import solve_ecc

    return solve_ecc(instance)


@register_solver("rand-ecc", tier="cheap", kind="ecc")
def _rand_ecc(instance, seed=None):
    from repro.baselines import rand_ecc

    return rand_ecc(instance, seed=0 if seed is None else seed)


@register_solver("ig1-ecc", tier="cheap", kind="ecc")
def _ig1_ecc(instance, seed=None):
    from repro.baselines import ig1_ecc

    return ig1_ecc(instance)


@register_solver("ig2-ecc", tier="medium", kind="ecc")
def _ig2_ecc(instance, seed=None):
    from repro.baselines import ig2_ecc

    return ig2_ecc(instance)


@register_solver("shared-costs-bcc", tier="medium", kind="bcc")
def _shared_costs_bcc(instance, seed=None):
    """The shared-costs greedy with zero property costs: the base model."""
    from repro.extensions.shared_costs import SharedCostModel, solve_shared_cost_bcc

    model = SharedCostModel(instance, property_costs={}, default_property_cost=0.0)
    selection = solve_shared_cost_bcc(model)
    return evaluate(instance, selection, meta={"algorithm": "shared-costs[d=0]"})


@register_solver("partial-cover-bcc", tier="medium", kind="bcc")
def _partial_cover_bcc(instance, seed=None):
    """The partial-cover greedy with a step credit: the base model."""
    from repro.extensions.partial_cover import (
        PartialCoverModel,
        solve_partial_bcc,
        step_credit,
    )

    model = PartialCoverModel(instance, credit=step_credit)
    selection = solve_partial_bcc(model, warm_start=False)
    return evaluate(instance, selection, meta={"algorithm": "partial-cover[step]"})
