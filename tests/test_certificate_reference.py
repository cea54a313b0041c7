"""The single-pass verifier against the verifier it replaced.

``verify_solution`` walks the workload's queries once: each selected
classifier's canonical key is computed once, and one list of subset
members per query feeds both the re-derived coverage and the
certificate's witnesses.  The functions below are the earlier verifier,
which sorted by ``_canon`` inside every witness search and walked the
queries twice.  They are kept as the reference: on random selections over
hypothesis instances and a seeded synthetic corpus, the current code must
build an equal certificate (dataclass ``==``, ``to_json()`` and the
iteration order of witnesses and utilities) and, on tampered solutions and
certificates, raise the same error type with the same message.
"""

from __future__ import annotations

import dataclasses
import math
import random
from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.bcc import solve_bcc
from repro.core import BCCInstance, evaluate
from repro.core.errors import (
    BudgetCertificateError,
    CertificateError,
    CostCertificateError,
    CoverageCertificateError,
    TargetCertificateError,
    UtilityCertificateError,
    WitnessCertificateError,
)
from repro.datasets.synthetic import generate_synthetic
from repro.verify import corpus
from repro.verify.certificate import (
    SolutionCertificate,
    build_certificate,
    verify_solution,
)
from tests.strategies import bcc_instances

# ----------------------------------------------------------------------
# The reference verifier (two query walks, ``_canon`` per sort)
# ----------------------------------------------------------------------
_TOL = 1e-9


def _ref_close(a: float, b: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= _TOL * max(1.0, abs(a), abs(b))


def _ref_canon(classifier) -> Tuple[str, ...]:
    return tuple(sorted(str(p) for p in classifier))


def _ref_witness_for(query, subset_members):
    missing = set(query)
    witness: List = []
    pool = sorted(subset_members, key=_ref_canon)
    while missing:
        best = None
        best_gain = 0
        for classifier in pool:
            if classifier in witness:
                continue
            gain = len(classifier & missing)
            if gain > best_gain:
                best, best_gain = classifier, gain
        if best is None:
            return None
        witness.append(best)
        missing -= best
    return tuple(sorted(witness, key=_ref_canon))


def _ref_build_certificate(workload, solution) -> SolutionCertificate:
    selected = sorted(solution.classifiers, key=_ref_canon)
    witnesses: Dict = {}
    utilities: Dict = {}
    total_utility = 0.0
    for query in workload.queries:
        members = [c for c in selected if c <= query]
        union: set = set()
        for member in members:
            union |= member
        if union != set(query):
            continue
        witness = _ref_witness_for(query, members)
        assert witness is not None
        witnesses[query] = witness
        utility = workload.utility(query)
        utilities[query] = utility
        total_utility += utility
    item_costs = tuple(workload.cost(c) for c in selected)
    return SolutionCertificate(
        classifiers=tuple(selected),
        item_costs=item_costs,
        total_cost=sum(item_costs),
        witnesses=witnesses,
        query_utilities=utilities,
        total_utility=total_utility,
    )


def _ref_verify_solution(
    workload,
    solution,
    certificate: Optional[SolutionCertificate] = None,
    budget: Optional[float] = None,
    target: Optional[float] = None,
) -> SolutionCertificate:
    selected = frozenset(solution.classifiers)
    derived_covered = set()
    derived_utility = 0.0
    for query in workload.queries:
        union: set = set()
        for classifier in selected:
            if classifier <= query:
                union |= classifier
        if union == set(query):
            derived_covered.add(query)
            derived_utility += workload.utility(query)
    if derived_covered != set(solution.covered):
        missing = derived_covered - set(solution.covered)
        extra = set(solution.covered) - derived_covered
        raise CoverageCertificateError(
            f"claimed covered set disagrees with first-principles coverage "
            f"(unclaimed-but-covered: {len(missing)}, claimed-but-uncovered: {len(extra)})"
        )
    derived_cost = sum(workload.cost(c) for c in selected)
    if not _ref_close(derived_cost, solution.cost):
        raise CostCertificateError(
            f"claimed cost {solution.cost} != re-derived cost {derived_cost}"
        )
    if budget is not None and math.isinf(derived_cost):
        raise CostCertificateError("an infinite-cost classifier was selected")
    if not _ref_close(derived_utility, solution.utility):
        raise UtilityCertificateError(
            f"claimed utility {solution.utility} != re-derived utility {derived_utility}"
        )
    if budget is not None and derived_cost > budget * (1.0 + _TOL) + _TOL:
        raise BudgetCertificateError(
            f"certified cost {derived_cost} exceeds budget {budget}"
        )
    if target is not None and derived_utility < target - _TOL * max(1.0, target):
        raise TargetCertificateError(
            f"certified utility {derived_utility} falls short of target {target}"
        )
    if certificate is None:
        certificate = _ref_build_certificate(workload, solution)
    _ref_verify_certificate(workload, selected, derived_covered, certificate)
    return certificate


def _ref_verify_certificate(workload, selected, derived_covered, certificate) -> None:
    if frozenset(certificate.classifiers) != selected:
        raise WitnessCertificateError(
            "certificate classifier list disagrees with the solution's selection"
        )
    if len(certificate.classifiers) != len(certificate.item_costs):
        raise CostCertificateError("itemised costs misaligned with classifiers")
    for classifier, cost in zip(certificate.classifiers, certificate.item_costs):
        true_cost = workload.cost(classifier)
        if not _ref_close(cost, true_cost):
            raise CostCertificateError(
                f"itemised cost {cost} != workload cost {true_cost} "
                f"for {sorted(map(str, classifier))}"
            )
    if not _ref_close(sum(certificate.item_costs), certificate.total_cost):
        raise CostCertificateError("certificate total_cost != sum of item costs")
    if set(certificate.witnesses) != derived_covered:
        raise WitnessCertificateError(
            "witnessed query set disagrees with first-principles coverage"
        )
    total_utility = 0.0
    for query, witness in certificate.witnesses.items():
        if not workload.has_query(query):
            raise WitnessCertificateError(f"witness for unknown query {sorted(query)}")
        union: set = set()
        for member in witness:
            if member not in selected:
                raise WitnessCertificateError(
                    f"witness member {sorted(map(str, member))} is not selected"
                )
            if not member <= query:
                raise WitnessCertificateError(
                    f"witness member {sorted(map(str, member))} is not a subset "
                    f"of query {sorted(map(str, query))}"
                )
            union |= member
        if union != set(query):
            raise WitnessCertificateError(
                f"witness union does not equal query {sorted(map(str, query))}"
            )
        claimed = certificate.query_utilities.get(query)
        true_utility = workload.utility(query)
        if claimed is None or not _ref_close(claimed, true_utility):
            raise UtilityCertificateError(
                f"certificate utility {claimed} != workload utility {true_utility} "
                f"for query {sorted(map(str, query))}"
            )
        total_utility += true_utility
    if not _ref_close(total_utility, certificate.total_utility):
        raise UtilityCertificateError(
            "certificate total_utility != sum of witnessed utilities"
        )


# ----------------------------------------------------------------------
# The differential
# ----------------------------------------------------------------------
def _outcome(fn, *args, **kwargs):
    """A certificate with its JSON and iteration orders, or the error raised."""
    try:
        certificate = fn(*args, **kwargs)
    except CertificateError as exc:
        return type(exc), str(exc)
    return (
        certificate,
        certificate.to_json(),
        list(certificate.witnesses.items()),
        list(certificate.query_utilities.items()),
    )


def _tampered_solutions(instance, solution):
    yield dataclasses.replace(solution, utility=solution.utility + 1.0)
    yield dataclasses.replace(solution, utility=solution.utility * 2.0)
    yield dataclasses.replace(solution, cost=solution.cost + 1.0)
    yield dataclasses.replace(solution, cost=solution.cost - 1.0)
    yield dataclasses.replace(solution, cost=0.0)
    covered = sorted(solution.covered, key=sorted)
    if covered:
        yield dataclasses.replace(solution, covered=frozenset(covered[1:]))
    uncovered = [q for q in instance.queries if q not in solution.covered]
    if uncovered:
        yield dataclasses.replace(solution, covered=solution.covered | {uncovered[0]})


def _tampered_certificates(certificate):
    """Every field :class:`TestTamperedCertificateRejection` mutates."""
    replace = dataclasses.replace
    yield replace(certificate, item_costs=tuple(c + 1.0 for c in certificate.item_costs))
    yield replace(certificate, total_cost=certificate.total_cost + 1.0)
    yield replace(
        certificate,
        classifiers=certificate.classifiers[:-1],
        item_costs=certificate.item_costs[:-1],
    )
    for query, witness in list(certificate.witnesses.items())[:2]:
        dropped = dict(certificate.witnesses)
        del dropped[query]
        yield replace(certificate, witnesses=dropped)
        short = dict(certificate.witnesses)
        short[query] = witness[:-1]
        yield replace(certificate, witnesses=short)
        unselected = dict(certificate.witnesses)
        unselected[query] = (query,)
        yield replace(certificate, witnesses=unselected)
        inflated = dict(certificate.query_utilities)
        inflated[query] += 5.0
        yield replace(certificate, query_utilities=inflated)


def assert_matches_reference(instance: BCCInstance, solution) -> int:
    """Compare every outcome on ``solution`` and its tamperings; count cases."""
    cases = 0

    def same(reference, current, *args, **kwargs):
        nonlocal cases
        assert _outcome(current, *args, **kwargs) == _outcome(reference, *args, **kwargs)
        cases += 1

    same(_ref_build_certificate, build_certificate, instance, solution)
    checks = (
        {},
        {"budget": instance.budget},
        {"target": solution.utility},
        {"target": solution.utility + 1.0},
    )
    for kwargs in checks:
        same(_ref_verify_solution, verify_solution, instance, solution, **kwargs)
    for bad in _tampered_solutions(instance, solution):
        same(_ref_verify_solution, verify_solution, instance, bad, budget=instance.budget)
    honest = _ref_build_certificate(instance, solution)
    for bad in _tampered_certificates(honest):
        for kwargs in ({}, {"budget": instance.budget}):
            same(
                _ref_verify_solution,
                verify_solution,
                instance,
                solution,
                certificate=bad,
                **kwargs,
            )
    return cases


def random_selections(instance: BCCInstance, rng: random.Random, count: int):
    """``count`` random selections, plus every relevant classifier at once."""
    pool = sorted(instance.relevant_classifiers(), key=sorted)
    yield pool
    for _ in range(count):
        yield rng.sample(pool, rng.randint(0, min(len(pool), 12)))


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------
class TestCertificateMatchesReference:
    @given(instance=bcc_instances(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_selections_on_hypothesis_instances(self, instance, seed):
        rng = random.Random(seed)
        for selection in random_selections(instance, rng, 3):
            assert assert_matches_reference(instance, evaluate(instance, selection))

    def test_seeded_corpus_and_solver_answers(self):
        rng = random.Random(0)
        instances = [case.instance for case in corpus(range(2))]
        instances += [
            generate_synthetic(60, 30, budget=80.0, seed=seed) for seed in range(3)
        ]
        cases = 0
        for instance in instances:
            cases += assert_matches_reference(instance, solve_bcc(instance))
            for selection in random_selections(instance, rng, 4):
                cases += assert_matches_reference(instance, evaluate(instance, selection))
        assert cases > 1000
