"""The named-solver registry the task layer executes against.

Tasks name solvers by string so they pickle cheaply across process
boundaries and fingerprint stably into cache keys.  Every entry is a
module-level callable with the uniform signature
``solver(instance, seed) -> Solution``; deterministic solvers ignore
``seed``, randomized ones must be pure functions of it (no shared RNG —
that is what keeps out-of-order parallel execution bit-identical to the
serial sweep).  Entries return answers only; a caller that needs a
certificate attaches one
(:func:`repro.verify.certificate.attach_certificate`).

Figure code refers to these names; registering a new solver makes it
available to every figure, to the corpus stress runner, and to the cache
without further plumbing.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.core.model import ClassifierWorkload
from repro.core.solution import Solution

SolverFn = Callable[[ClassifierWorkload, Optional[int]], Solution]

_SOLVERS: Dict[str, SolverFn] = {}
_TIERS: Dict[str, str] = {}

#: Coarse cost tiers, cheapest first.  A tier is a *prior*, not a
#: measurement: the SLO meta-solver predicts each arm's runtime as its
#: tier's prior (seconds), admits arms while those predictions fit the
#: deadline, and breaks prediction ties by tier rank.
COST_TIERS = ("cheap", "medium", "expensive")
TIER_RANK = {tier: rank for rank, tier in enumerate(COST_TIERS)}
TIER_PRIOR_SECONDS = {"cheap": 0.005, "medium": 0.05, "expensive": 0.5}


def register_solver(name: str, tier: str = "medium") -> Callable[[SolverFn], SolverFn]:
    """Register ``fn`` under ``name`` (also its cache-key identity).

    ``tier`` tags the arm's coarse expected cost (see :data:`COST_TIERS`)
    for budget-aware schedulers; it never affects what the solver does.
    """
    if tier not in TIER_RANK:
        raise ValueError(f"tier must be one of {COST_TIERS}, got {tier!r}")

    def decorator(fn: SolverFn) -> SolverFn:
        if name in _SOLVERS:
            raise ValueError(f"solver {name!r} already registered")
        _SOLVERS[name] = fn
        _TIERS[name] = tier
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


def solver_names() -> list:
    return sorted(_SOLVERS)


# ----------------------------------------------------------------------
# default entries: the paper's algorithms and baselines
# ----------------------------------------------------------------------

@register_solver("abcc", tier="medium")
def _abcc(instance, seed=None):
    from repro.algorithms import solve_bcc

    return solve_bcc(instance)


@register_solver("abcc-pruned", tier="medium")
def _abcc_pruned(instance, seed=None):
    from repro.algorithms import AbccConfig, solve_bcc
    from repro.algorithms.pruning import PruningConfig

    return solve_bcc(instance, AbccConfig(pruning=PruningConfig.paper()))


@register_solver("abcc-unpruned", tier="expensive")
def _abcc_unpruned(instance, seed=None):
    from repro.algorithms import AbccConfig, solve_bcc

    return solve_bcc(instance, AbccConfig(pruning=None))


@register_solver("bcc-exact", tier="expensive")
def _bcc_exact(instance, seed=None):
    from repro.algorithms import solve_bcc_exact

    return solve_bcc_exact(instance)


@register_solver("rand-bcc", tier="cheap")
def _rand_bcc(instance, seed=None):
    from repro.baselines import rand_bcc

    return rand_bcc(instance, seed=0 if seed is None else seed)


@register_solver("ig1-bcc", tier="cheap")
def _ig1_bcc(instance, seed=None):
    from repro.baselines import ig1_bcc

    return ig1_bcc(instance)


@register_solver("ig2-bcc", tier="medium")
def _ig2_bcc(instance, seed=None):
    from repro.baselines import ig2_bcc

    return ig2_bcc(instance)


@register_solver("abcc-sharded", tier="medium")
def _abcc_sharded(instance, seed=None):
    # jobs=1: registry solvers already run inside pool workers, so the
    # shard fan-out must not open a nested process pool.
    from repro.incremental import IncrementalConfig, solve_bcc_sharded

    return solve_bcc_sharded(instance, IncrementalConfig(jobs=1), seed=seed)


@register_solver("agmc3", tier="medium")
def _agmc3(instance, seed=None):
    from repro.algorithms import solve_gmc3

    return solve_gmc3(instance)


@register_solver("rand-gmc3", tier="cheap")
def _rand_gmc3(instance, seed=None):
    from repro.baselines import rand_gmc3

    return rand_gmc3(instance, seed=0 if seed is None else seed)


@register_solver("ig1-gmc3", tier="cheap")
def _ig1_gmc3(instance, seed=None):
    from repro.baselines import ig1_gmc3

    return ig1_gmc3(instance)


@register_solver("ig2-gmc3", tier="medium")
def _ig2_gmc3(instance, seed=None):
    from repro.baselines import ig2_gmc3

    return ig2_gmc3(instance)


@register_solver("aecc", tier="medium")
def _aecc(instance, seed=None):
    from repro.algorithms import solve_ecc

    return solve_ecc(instance)


@register_solver("rand-ecc", tier="cheap")
def _rand_ecc(instance, seed=None):
    from repro.baselines import rand_ecc

    return rand_ecc(instance, seed=0 if seed is None else seed)


@register_solver("ig1-ecc", tier="cheap")
def _ig1_ecc(instance, seed=None):
    from repro.baselines import ig1_ecc

    return ig1_ecc(instance)


@register_solver("ig2-ecc", tier="medium")
def _ig2_ecc(instance, seed=None):
    from repro.baselines import ig2_ecc

    return ig2_ecc(instance)
