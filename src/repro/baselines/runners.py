"""Stopping-mode drivers wiring the selectors to BCC / GMC3 / ECC.

- *budget* mode (BCC): keep stepping while an affordable move exists.
- *target* mode (GMC3): unconstrained budget, stop at utility >= target.
- *cover* mode (ECC): unconstrained budget, run until everything coverable
  is covered, return the best utility/cost snapshot along the way.

Every entry point returns the evaluated selection and nothing else; a
caller that needs a certificate passes it to
:func:`repro.verify.certificate.attach_certificate`.
"""

from __future__ import annotations

import math

from repro.baselines.selectors import (
    BaseSelector,
    IG1Selector,
    IG2Selector,
    RandomSelector,
)
from repro.core.model import BCCInstance, ECCInstance, GMC3Instance
from repro.core.solution import Solution, evaluate


def _run_budget(selector: BaseSelector, instance: BCCInstance, name: str) -> Solution:
    remaining = instance.budget
    steps = 0
    while True:
        move = selector.step(remaining)
        if move is None:
            break
        remaining -= selector.add(move)
        steps += 1
    return evaluate(
        instance, selector.selected, meta={"algorithm": name, "steps": steps}
    )


def _run_target(selector: BaseSelector, instance: GMC3Instance, name: str) -> Solution:
    steps = 0
    while selector.utility < instance.target:
        move = selector.step(None)
        if move is None:
            break
        selector.add(move)
        steps += 1
    return evaluate(
        instance,
        selector.selected,
        meta={
            "algorithm": name,
            "steps": steps,
            "reached_target": selector.utility >= instance.target,
        },
    )


def _run_cover(selector: BaseSelector, instance: ECCInstance, name: str) -> Solution:
    best_ratio = -math.inf
    best_selection = frozenset()
    spent = 0.0
    steps = 0
    while not selector.all_covered():
        move = selector.step(None)
        if move is None:
            break
        spent += selector.add(move)
        steps += 1
        utility = selector.utility
        ratio = math.inf if spent == 0 else utility / spent
        if utility > 0 and ratio > best_ratio:
            best_ratio = ratio
            best_selection = selector.selected
    return evaluate(
        instance, best_selection, meta={"algorithm": name, "steps": steps}
    )


# ----------------------------------------------------------------------
# public entry points
# ----------------------------------------------------------------------
def rand_bcc(instance: BCCInstance, seed: int = 0) -> Solution:
    """RAND baseline under a budget (Section 6.1)."""
    return _run_budget(RandomSelector(instance, seed=seed), instance, "RAND")


def ig1_bcc(instance: BCCInstance) -> Solution:
    """IG1 baseline under a budget (Section 6.1)."""
    return _run_budget(IG1Selector(instance), instance, "IG1")


def ig2_bcc(instance: BCCInstance) -> Solution:
    """IG2 baseline under a budget (Section 6.1)."""
    return _run_budget(IG2Selector(instance), instance, "IG2")


def rand_gmc3(instance: GMC3Instance, seed: int = 0) -> Solution:
    """RAND(G) baseline: random until the utility target is reached."""
    return _run_target(RandomSelector(instance, seed=seed), instance, "RAND(G)")


def ig1_gmc3(instance: GMC3Instance) -> Solution:
    """IG1(G) baseline: per-query greedy until the target is reached."""
    return _run_target(IG1Selector(instance), instance, "IG1(G)")


def ig2_gmc3(instance: GMC3Instance) -> Solution:
    """IG2(G) baseline: per-classifier greedy until the target is reached."""
    return _run_target(IG2Selector(instance), instance, "IG2(G)")


def rand_ecc(instance: ECCInstance, seed: int = 0) -> Solution:
    """RAND(E) baseline: random until all covered; best-ratio snapshot."""
    return _run_cover(RandomSelector(instance, seed=seed), instance, "RAND(E)")


def ig1_ecc(instance: ECCInstance) -> Solution:
    """IG1(E) baseline: per-query greedy; best-ratio snapshot."""
    return _run_cover(IG1Selector(instance), instance, "IG1(E)")


def ig2_ecc(instance: ECCInstance) -> Solution:
    """IG2(E) baseline: per-classifier greedy; best-ratio snapshot."""
    return _run_cover(IG2Selector(instance), instance, "IG2(E)")
