"""Solution certificates: independently checkable evidence of a solution.

A :class:`SolutionCertificate` records, for every query the solution claims
to cover, a *witness* subset ``T ⊆ S`` with ``⋃T = q`` and every member a
subset of ``q`` — exactly the coverage condition of Section 2.1 — plus the
itemised classifier costs and per-query utilities the totals were derived
from.  :func:`verify_solution` re-derives coverage, cost and utility from
first principles (no :class:`~repro.core.coverage.CoverageTracker`, no
solver code; only the workload's ``cost``/``utility`` accessors and raw
set algebra) and raises a typed :class:`~repro.core.errors.CertificateError`
on any disagreement, so a bookkeeping bug in a solver — or a rollback bug
in the incremental engine it leans on — cannot survive certification.

One walk over the workload's queries serves the whole verification: each
selected classifier's canonical key is computed once, and each query's
subset members, collected in canonical order, feed both the re-derived
coverage and utility and the witness search.  The checks of a certificate
(:func:`_verify_certificate`) do not read that walk: every witness is
re-tested against the selection and its query on its own.

Certificates serialize to JSON (:meth:`SolutionCertificate.to_json`) so
sweeps can archive them next to results and re-check them offline.
:func:`verify_cover` checks an MC3 full cover from the same first
principles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.core.errors import (
    BudgetCertificateError,
    CostCertificateError,
    CoverageCertificateError,
    TargetCertificateError,
    UtilityCertificateError,
    WitnessCertificateError,
)
from repro.core.model import Classifier, ClassifierWorkload, Query
from repro.core.solution import Solution

#: Relative + absolute tolerance for floating-point total comparisons.
_TOL = 1e-9

CERTIFICATE_VERSION = 1


def _close(a: float, b: float) -> bool:
    if a == b:
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) <= _TOL * max(1.0, abs(a), abs(b))


def _sorted_props(props: Iterable[object]) -> Tuple[str, ...]:
    return tuple(sorted(map(str, props)))


def _canon(classifier: Classifier) -> Tuple[str, ...]:
    """A canonical, JSON-able, orderable key for a property set."""
    return _sorted_props(classifier)


@dataclass(frozen=True)
class SolutionCertificate:
    """Independently checkable evidence for a :class:`Solution`.

    Attributes:
        classifiers: the selected classifiers, canonically ordered.
        item_costs: construction cost per classifier, aligned with
            ``classifiers``.
        total_cost: sum of ``item_costs``.
        witnesses: covered query -> witness tuple ``T`` with ``⋃T = q``,
            every member selected and a subset of the query.
        query_utilities: covered query -> utility credited for it.
        total_utility: sum of ``query_utilities``.
        version: certificate schema version.
    """

    classifiers: Tuple[Classifier, ...]
    item_costs: Tuple[float, ...]
    total_cost: float
    witnesses: Mapping[Query, Tuple[Classifier, ...]]
    query_utilities: Mapping[Query, float]
    total_utility: float
    version: int = CERTIFICATE_VERSION

    def to_json(self) -> dict:
        """A JSON-serializable dict (property sets become sorted lists)."""
        return {
            "version": self.version,
            "classifiers": [list(_canon(c)) for c in self.classifiers],
            "item_costs": list(self.item_costs),
            "total_cost": self.total_cost,
            "witnesses": [
                {
                    "query": list(_canon(q)),
                    "witness": [list(_canon(c)) for c in witness],
                    "utility": self.query_utilities[q],
                }
                for q, witness in sorted(
                    self.witnesses.items(), key=lambda kv: _canon(kv[0])
                )
            ],
            "total_utility": self.total_utility,
        }

    @classmethod
    def from_json(cls, payload: Mapping[str, object]) -> "SolutionCertificate":
        """Rebuild a certificate emitted by :meth:`to_json`."""
        witnesses: Dict[Query, Tuple[Classifier, ...]] = {}
        utilities: Dict[Query, float] = {}
        for entry in payload["witnesses"]:  # type: ignore[index]
            query = frozenset(entry["query"])
            witnesses[query] = tuple(frozenset(c) for c in entry["witness"])
            utilities[query] = float(entry["utility"])
        return cls(
            classifiers=tuple(frozenset(c) for c in payload["classifiers"]),  # type: ignore[union-attr]
            item_costs=tuple(float(c) for c in payload["item_costs"]),  # type: ignore[union-attr]
            total_cost=float(payload["total_cost"]),  # type: ignore[arg-type]
            witnesses=witnesses,
            query_utilities=utilities,
            total_utility=float(payload["total_utility"]),  # type: ignore[arg-type]
            version=int(payload.get("version", CERTIFICATE_VERSION)),  # type: ignore[union-attr]
        )


def _canonical_order(
    classifiers: Collection[Classifier],
) -> Tuple[List[Classifier], Dict[Classifier, Tuple[str, ...]]]:
    """The selection sorted by :func:`_canon`, and each member's key.

    Each key is computed once per verification; every later sort (the
    selection's order, each witness's order) reads it back.
    """
    canon = {c: _canon(c) for c in classifiers}
    return sorted(classifiers, key=canon.__getitem__), canon


def _covered_members(
    workload: ClassifierWorkload, ordered: List[Classifier]
) -> List[Tuple[Query, List[Classifier], float]]:
    """One walk over the workload: each covered query, its members, its utility.

    A query is covered iff the union of the selected classifiers that are
    subsets of it equals it (raw set algebra, no solver bookkeeping).  The
    members keep the canonical order of ``ordered``, so one list serves
    both the re-derived coverage and utility and the certificate's
    witness search.  Entries follow the workload's query order.
    """
    covered = []
    for query in workload.queries:
        members = [c for c in ordered if c <= query]
        if set().union(*members) == query:
            covered.append((query, members, workload.utility(query)))
    return covered


def _witness_for(
    query: Query,
    members: List[Classifier],
    canon: Mapping[Classifier, Tuple[str, ...]],
) -> Optional[Tuple[Classifier, ...]]:
    """A small witness ``T`` with ``⋃T = q`` from the subset members, or None.

    Greedy set cover over the query's properties (largest marginal
    contribution first, canonical tie-break): not guaranteed minimum, but
    every returned member contributes a property no earlier member did.
    ``members`` must already be in canonical order; ``canon`` holds their
    :func:`_canon` keys.
    """
    if query in canon:
        # A selected query covers every property at once, and no other
        # subset of it can match that gain: the greedy's only first pick.
        return (query,)
    missing = set(query)
    witness: List[Classifier] = []
    while missing:
        best = None
        best_gain = 0
        for classifier in members:
            if classifier in witness:
                continue
            gain = len(classifier & missing)
            if gain > best_gain:
                best, best_gain = classifier, gain
        if best is None:
            return None
        witness.append(best)
        missing -= best
    return tuple(sorted(witness, key=canon.__getitem__))


def _certificate(
    workload: ClassifierWorkload,
    ordered: List[Classifier],
    canon: Mapping[Classifier, Tuple[str, ...]],
    covered: List[Tuple[Query, List[Classifier], float]],
) -> SolutionCertificate:
    """The certificate of a selection already walked by :func:`_covered_members`."""
    witnesses: Dict[Query, Tuple[Classifier, ...]] = {}
    utilities: Dict[Query, float] = {}
    total_utility = 0.0
    for query, members, utility in covered:
        witness = _witness_for(query, members, canon)
        assert witness is not None  # a covered query always has one
        witnesses[query] = witness
        utilities[query] = utility
        total_utility += utility
    item_costs = tuple(workload.cost(c) for c in ordered)
    return SolutionCertificate(
        classifiers=tuple(ordered),
        item_costs=item_costs,
        total_cost=sum(item_costs),
        witnesses=witnesses,
        query_utilities=utilities,
        total_utility=total_utility,
    )


def build_certificate(
    workload: ClassifierWorkload, solution: Solution
) -> SolutionCertificate:
    """Derive a certificate for ``solution`` from first principles.

    Coverage is recomputed with raw set algebra — the producing solver's
    claimed ``covered`` set is *not* consulted, so the certificate is
    evidence about the classifier selection, not about the solver's
    bookkeeping.  Verification then compares the two.
    """
    ordered, canon = _canonical_order(solution.classifiers)
    return _certificate(workload, ordered, canon, _covered_members(workload, ordered))


def verify_solution(
    workload: ClassifierWorkload,
    solution: Solution,
    certificate: Optional[SolutionCertificate] = None,
    budget: Optional[float] = None,
    target: Optional[float] = None,
) -> SolutionCertificate:
    """Check ``solution`` against ``workload`` from first principles.

    Re-derives the covered set, cost and utility with raw set algebra and
    compares them to the solution's claims; with a ``certificate`` also
    validates every witness (membership, subset-of-query, union equality)
    and the itemised costs.  ``budget``/``target`` add the BCC feasibility
    and GMC3 attainment checks.

    Returns the (validated) certificate, building one when none was given.

    Raises:
        CoverageCertificateError: claimed covered set is wrong.
        CostCertificateError: claimed or itemised costs are wrong, or an
            infinite-cost classifier was selected.
        UtilityCertificateError: claimed or itemised utilities are wrong.
        WitnessCertificateError: a witness fails ``T ⊆ S``, ``c ⊆ q`` or
            ``⋃T = q``, or the witnessed query set mismatches coverage.
        BudgetCertificateError: cost exceeds ``budget``.
        TargetCertificateError: utility falls short of ``target``.
    """
    selected = frozenset(solution.classifiers)

    # --- coverage, from raw set algebra -------------------------------
    ordered, canon = _canonical_order(solution.classifiers)
    covered = _covered_members(workload, ordered)
    derived_covered = set()
    derived_utility = 0.0
    for query, _members, utility in covered:
        derived_covered.add(query)
        derived_utility += utility
    if derived_covered != set(solution.covered):
        missing = derived_covered - set(solution.covered)
        extra = set(solution.covered) - derived_covered
        raise CoverageCertificateError(
            f"claimed covered set disagrees with first-principles coverage "
            f"(unclaimed-but-covered: {len(missing)}, claimed-but-uncovered: {len(extra)})"
        )

    # --- cost ---------------------------------------------------------
    derived_cost = sum(workload.cost(c) for c in selected)
    if not _close(derived_cost, solution.cost):
        raise CostCertificateError(
            f"claimed cost {solution.cost} != re-derived cost {derived_cost}"
        )
    if budget is not None and math.isinf(derived_cost):
        raise CostCertificateError("an infinite-cost classifier was selected")

    # --- utility ------------------------------------------------------
    if not _close(derived_utility, solution.utility):
        raise UtilityCertificateError(
            f"claimed utility {solution.utility} != re-derived utility {derived_utility}"
        )

    # --- budget / target ----------------------------------------------
    if budget is not None and derived_cost > budget * (1.0 + _TOL) + _TOL:
        raise BudgetCertificateError(
            f"certified cost {derived_cost} exceeds budget {budget}"
        )
    if target is not None and derived_utility < target - _TOL * max(1.0, target):
        raise TargetCertificateError(
            f"certified utility {derived_utility} falls short of target {target}"
        )

    # --- the certificate itself ---------------------------------------
    if certificate is None:
        certificate = _certificate(workload, ordered, canon, covered)
    _verify_certificate(workload, selected, derived_covered, certificate)
    return certificate


def _verify_certificate(
    workload: ClassifierWorkload,
    selected: frozenset,
    derived_covered: set,
    certificate: SolutionCertificate,
) -> None:
    if frozenset(certificate.classifiers) != selected:
        raise WitnessCertificateError(
            "certificate classifier list disagrees with the solution's selection"
        )
    if len(certificate.classifiers) != len(certificate.item_costs):
        raise CostCertificateError("itemised costs misaligned with classifiers")
    for classifier, cost in zip(certificate.classifiers, certificate.item_costs):
        true_cost = workload.cost(classifier)
        if not _close(cost, true_cost):
            raise CostCertificateError(
                f"itemised cost {cost} != workload cost {true_cost} "
                f"for {sorted(map(str, classifier))}"
            )
    if not _close(sum(certificate.item_costs), certificate.total_cost):
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
        if union != query:
            raise WitnessCertificateError(
                f"witness union does not equal query {sorted(map(str, query))}"
            )
        claimed = certificate.query_utilities.get(query)
        true_utility = workload.utility(query)
        if claimed is None or not _close(claimed, true_utility):
            raise UtilityCertificateError(
                f"certificate utility {claimed} != workload utility {true_utility} "
                f"for query {sorted(map(str, query))}"
            )
        total_utility += true_utility
    if not _close(total_utility, certificate.total_utility):
        raise UtilityCertificateError(
            "certificate total_utility != sum of witnessed utilities"
        )


def verify_cover(
    workload: ClassifierWorkload, selected: Collection[Classifier]
) -> None:
    """Check that ``selected`` is a finite-cost cover of every query.

    The MC3 condition from first principles: each query is the union of
    the selected classifiers it contains, and no selected classifier has
    infinite cost.

    Raises:
        CostCertificateError: an infinite-cost classifier was selected.
        CoverageCertificateError: some query is left uncovered.
    """
    for classifier in selected:
        if math.isinf(workload.cost(classifier)):
            raise CostCertificateError(
                f"the cover selects the infinite-cost classifier {_canon(classifier)}"
            )
    for query in workload.queries:
        union = set()
        for classifier in selected:
            if classifier <= query:
                union |= classifier
        if union != query:
            raise CoverageCertificateError(
                f"the cover leaves query {_sorted_props(query)} uncovered"
            )


def attach_certificate(
    workload: ClassifierWorkload,
    solution: Solution,
    budget: Optional[float] = None,
    target: Optional[float] = None,
) -> Solution:
    """Certify ``solution`` and record the certificate in ``meta``.

    The certificate lands in ``solution.meta["certificate"]`` (the meta
    mapping is a plain dict on an otherwise frozen dataclass, so solvers
    can opt in after evaluation without rebuilding the solution).
    """
    certificate = verify_solution(workload, solution, budget=budget, target=target)
    if isinstance(solution.meta, dict):
        solution.meta["certificate"] = certificate
    return solution
