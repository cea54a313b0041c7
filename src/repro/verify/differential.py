"""Differential verification: all solver arms, cross-checked on a corpus.

Every arm of the solver registry (:mod:`repro.parallel.registry`) runs,
under its registered name, on every corpus instance it applies to
(:func:`arm_view`); each output is certified with
:func:`~repro.verify.certificate.verify_solution`, and the arms are then
cross-checked against one another:

- the brute-force oracle (:data:`ORACLE`) dominates every heuristic at
  the same budget;
- on ``l = 1`` instances the oracle must match the Knapsack-reduction DP
  exactly (Theorem 3.1 — two independent exact solvers, one answer);
- on ``l <= 2`` instances ``A^BCC`` must stay within the paper's
  ``7*alpha`` bound of the optimum (``analysis/bounds.bcc_l2_ratio``,
  Theorem 4.7 with the DkS-derived HkS engine at ``alpha = 1``);
- a certified GMC3 answer reaches its target, costs no more than the MC3
  full cover, and the *exact* BCC solver at the implied budget (the GMC3
  answer's own cost) re-attains the target;
- a certified ECC answer is dominated by exact BCC at its implied budget;
- MC3's full cover, given to exact BCC as the budget, covers everything.

Failures are collected as :class:`Finding`s, not raised mid-sweep, so one
broken arm cannot mask another; :meth:`DifferentialReport.raise_on_failure`
turns a non-empty report into a :class:`DifferentialError` for CI.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.bounds import bcc_l2_ratio
from repro.core.errors import CertificateError, DifferentialError
from repro.core.model import BCCInstance, ClassifierWorkload, ECCInstance, GMC3Instance
from repro.core.solution import Solution
from repro.parallel.registry import get_solver, solver_kind, solver_names
from repro.verify.certificate import verify_cover, verify_solution
from repro.verify.corpus import CorpusCase, corpus

_TOL = 1e-9
#: The brute-force oracle refuses above this many feasible classifiers.
_ORACLE_LIMIT = 24
#: The provably exact registry arm: it defines dominance.
ORACLE = "bcc-exact"


@dataclass(frozen=True)
class SolverArm:
    """A solver entry point as the harness runs it.

    Attributes:
        name: registry name (the planted self-test arm has its own).
        kind: which instance view the arm consumes: ``bcc``, ``gmc3``
            or ``ecc``.
        run: ``instance -> Solution``.
    """

    name: str
    kind: str
    run: Callable


@dataclass(frozen=True)
class Finding:
    """One cross-check failure on one corpus case."""

    case: str
    arm: str
    check: str
    message: str

    def __str__(self) -> str:
        return f"[{self.case}] {self.arm} / {self.check}: {self.message}"


@dataclass
class DifferentialReport:
    """Outcome of a differential sweep."""

    cases: int = 0
    solutions_certified: int = 0
    checks_run: int = 0
    elapsed_sec: float = 0.0
    findings: List[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings

    def raise_on_failure(self) -> None:
        if self.findings:
            summary = "\n".join(str(f) for f in self.findings[:20])
            more = len(self.findings) - 20
            if more > 0:
                summary += f"\n... and {more} more"
            raise DifferentialError(
                f"{len(self.findings)} differential finding(s):\n{summary}"
            )


# ----------------------------------------------------------------------
# the arms
# ----------------------------------------------------------------------
def default_arms() -> List[SolverArm]:
    """Every arm of the solver registry, under its registered name and kind."""
    return [SolverArm(name, solver_kind(name), get_solver(name)) for name in solver_names()]


def dishonest_arm(inflate: float = 1.5) -> SolverArm:
    """A deliberately broken solver: overstates its utility by ``inflate``.

    Mutation-style fixture for the harness's own tests: it runs a real
    greedy, then reports ``utility * inflate + 1`` without covering
    anything extra.  Certification must flag it on every instance.  It
    is never registered, so no registry reader (the SLO portfolio
    included) can run it.
    """

    def run(instance: BCCInstance) -> Solution:
        from repro.baselines.runners import ig2_bcc

        honest = ig2_bcc(instance)
        return Solution(
            classifiers=honest.classifiers,
            cost=honest.cost,
            utility=honest.utility * inflate + 1.0,
            covered=honest.covered,
            meta={"algorithm": "dishonest"},
        )

    return SolverArm("dishonest", "bcc", run)


# ----------------------------------------------------------------------
# the sweep
# ----------------------------------------------------------------------
def _oracle_feasible(instance: BCCInstance) -> bool:
    count = 0
    for classifier in instance.relevant_classifiers():
        cost = instance.cost(classifier)
        if not math.isinf(cost) and cost <= instance.budget:
            count += 1
            if count > _ORACLE_LIMIT:
                return False
    return True


def _gmc3_view(instance: BCCInstance, fraction: float = 0.55) -> GMC3Instance:
    """The corpus instance re-read as a GMC3 problem at a mid-range target."""
    total = sum(instance.utility(q) for q in instance.queries)
    return GMC3Instance(
        instance.queries,
        {q: instance.utility(q) for q in instance.queries},
        {c: instance.cost(c) for c in instance.relevant_classifiers()},
        target=round(total * fraction, 6),
        default_utility=instance.default_utility,
        default_cost=instance.default_cost,
    )


def _ecc_view(instance: BCCInstance) -> ECCInstance:
    return ECCInstance(
        instance.queries,
        {q: instance.utility(q) for q in instance.queries},
        {c: instance.cost(c) for c in instance.relevant_classifiers()},
        default_utility=instance.default_utility,
        default_cost=instance.default_cost,
    )


def _has_finite_full_cover(instance: BCCInstance) -> bool:
    """Every query coverable at finite cost (GMC3/MC3 arms need this)."""
    for query in instance.queries:
        if math.isinf(
            min(instance.cost(frozenset({p})) for p in query)
        ) and math.isinf(instance.cost(query)):
            # Cheap necessary check only; singletons finite is the corpus
            # convention, so this is effectively "no query fully walled off".
            return False
    return True


def arm_view(arm: SolverArm, instance: BCCInstance) -> Optional[ClassifierWorkload]:
    """The instance ``arm`` solves for the corpus instance ``instance``.

    BCC arms solve the instance itself, the exact oracle only while its
    feasible classifiers stay within :data:`_ORACLE_LIMIT`; GMC3 arms a
    mid-range target, when every query has a finite cover; ECC arms the
    budget-free workload.  ``None`` when the arm does not apply.
    """
    if arm.kind == "gmc3":
        if not _has_finite_full_cover(instance):
            return None
        view = _gmc3_view(instance)
        return view if view.target > 0 else None
    if arm.kind == "ecc":
        return _ecc_view(instance)
    if arm.name == ORACLE and not _oracle_feasible(instance):
        return None
    return instance


class _CaseRunner:
    """Runs every arm and cross-check on one corpus case."""

    def __init__(self, case: CorpusCase, arms: Sequence[SolverArm], report: DifferentialReport):
        self.case = case
        self.arms = arms
        self.report = report

    def fail(self, arm: str, check: str, message: str) -> None:
        self.report.findings.append(
            Finding(case=self.case.name, arm=arm, check=check, message=message)
        )

    def check(self) -> None:
        self.report.checks_run += 1

    def run(self, objectives: Sequence[str]) -> None:
        """Certify every applicable arm, then cross-check the answers."""
        utilities: Dict[str, float] = {}  # certified BCC answers, by arm
        for arm in self.arms:
            view = arm_view(arm, self.case.instance) if arm.kind in objectives else None
            if view is None:
                continue
            try:
                solution = arm.run(view)
            except Exception as exc:  # a crash is a finding, not an abort
                self.fail(arm.name, "run", f"{type(exc).__name__}: {exc}")
                continue
            try:
                verify_solution(
                    view,
                    solution,
                    budget=getattr(view, "budget", None),
                    target=getattr(view, "target", None),
                )
                self.report.solutions_certified += 1
            except CertificateError as exc:
                self.fail(arm.name, "certificate", str(exc))
                continue
            if arm.kind == "bcc":
                utilities[arm.name] = solution.utility
            elif arm.name == "agmc3":
                self._check_gmc3_cross(view, solution)
            elif arm.name == "aecc" and solution.classifiers:
                self._check_ecc_cross(view, solution)

        oracle_utility = utilities.get(ORACLE)
        if oracle_utility is not None:
            for name, utility in utilities.items():
                self.check()
                if utility > oracle_utility + _TOL:
                    self.fail(
                        name,
                        "oracle-dominance",
                        f"heuristic utility {utility} exceeds the exact "
                        f"optimum {oracle_utility}",
                    )
            self._check_knapsack_reduction(oracle_utility)
            self._check_l2_bound(oracle_utility, utilities.get("abcc"))
            self._check_mc3_full_cover()

    def _check_knapsack_reduction(self, oracle_utility: float) -> None:
        instance = self.case.instance
        if instance.length != 1:
            return
        from repro.knapsack.solvers import solve_knapsack_dp
        from repro.reductions.knapsack import bcc_l1_to_knapsack

        items, capacity = bcc_l1_to_knapsack(instance)
        finite = [item for item in items if not math.isinf(item.weight)]
        try:
            value, _ = solve_knapsack_dp(finite, capacity)
        except ValueError:
            return  # non-integral weights: the DP oracle does not apply
        self.check()
        if abs(value - oracle_utility) > _TOL * max(1.0, value):
            self.fail(
                ORACLE,
                "knapsack-reduction",
                f"exact BCC_l=1 utility {oracle_utility} != knapsack DP "
                f"optimum {value} (Theorem 3.1)",
            )

    def _check_l2_bound(
        self, oracle_utility: float, abcc_utility: Optional[float]
    ) -> None:
        instance = self.case.instance
        if instance.length > 2 or abcc_utility is None or oracle_utility <= 0:
            return
        bound = bcc_l2_ratio(1.0)
        self.check()
        if oracle_utility > bound * abcc_utility + _TOL:
            self.fail(
                "abcc",
                "l2-approximation-bound",
                f"optimum {oracle_utility} exceeds {bound} x A^BCC utility "
                f"{abcc_utility} (Theorem 4.7 at alpha=1)",
            )

    def _check_mc3_full_cover(self) -> None:
        instance = self.case.instance
        if not _has_finite_full_cover(instance):
            return
        from repro.algorithms.brute_force import solve_bcc_exact
        from repro.mc3 import InfeasibleCoverError, solve_mc3

        try:
            cover = solve_mc3(instance)
        except InfeasibleCoverError:
            return
        try:
            verify_cover(instance, cover)
        except CertificateError as exc:
            self.fail("MC3", "certificate", str(exc))
            return
        self.report.solutions_certified += 1
        cover_cost = sum(instance.cost(c) for c in cover)
        total = sum(instance.utility(q) for q in instance.queries)
        budget = cover_cost * (1.0 + _TOL) + _TOL
        refunded = instance.with_budget(budget)
        if not _oracle_feasible(refunded):
            return
        exact = solve_bcc_exact(refunded)
        self.check()
        if exact.utility < total - _TOL * max(1.0, total):
            self.fail(
                "MC3",
                "full-cover-vs-exact-bcc",
                f"exact BCC at the MC3 full-cover budget {cover_cost} reaches "
                f"utility {exact.utility} < total {total}",
            )

    def _check_gmc3_cross(self, view: GMC3Instance, solution: Solution) -> None:
        from repro.algorithms.brute_force import solve_bcc_exact
        from repro.mc3 import full_cover_cost

        full_cost = full_cover_cost(view)
        self.check()
        if solution.cost > full_cost * (1.0 + _TOL) + _TOL:
            self.fail(
                "agmc3",
                "full-cover-ceiling",
                f"GMC3 cost {solution.cost} exceeds the MC3 full-cover "
                f"cost {full_cost}",
            )
        implied = view.as_bcc(solution.cost * (1.0 + _TOL) + _TOL)
        if not _oracle_feasible(implied):
            return
        exact = solve_bcc_exact(implied)
        self.check()
        if exact.utility < view.target - _TOL * max(1.0, view.target):
            self.fail(
                "agmc3",
                "implied-budget-vs-exact-bcc",
                f"exact BCC at the implied budget {implied.budget} reaches "
                f"{exact.utility} < target {view.target} although the GMC3 "
                f"answer itself is feasible there",
            )

    def _check_ecc_cross(self, view: ECCInstance, solution: Solution) -> None:
        from repro.algorithms.brute_force import solve_bcc_exact

        if math.isinf(solution.cost):
            self.fail("aecc", "finite-cost", "ECC selected an infinite-cost classifier")
            return
        implied = view.as_bcc(solution.cost * (1.0 + _TOL) + _TOL)
        if not _oracle_feasible(implied):
            return
        exact = solve_bcc_exact(implied)
        self.check()
        if solution.utility > exact.utility + _TOL:
            self.fail(
                "aecc",
                "implied-budget-vs-exact-bcc",
                f"ECC utility {solution.utility} exceeds the exact BCC "
                f"optimum {exact.utility} at budget {implied.budget}",
            )


def run_differential(
    cases: Optional[Sequence[CorpusCase]] = None,
    arms: Optional[Sequence[SolverArm]] = None,
    objectives: Sequence[str] = ("bcc", "gmc3", "ecc"),
) -> DifferentialReport:
    """Sweep ``arms`` over ``cases`` and cross-check; never raises mid-run."""
    if cases is None:
        cases = corpus()
    if arms is None:
        arms = default_arms()
    report = DifferentialReport()
    started = time.perf_counter()
    for case in cases:
        report.cases += 1
        _CaseRunner(case, arms, report).run(objectives)
    report.elapsed_sec = time.perf_counter() - started
    return report


def self_test() -> DifferentialReport:
    """Plant the dishonest solver and confirm the harness flags it everywhere.

    Returns the report of the planted run.  Raises
    :class:`DifferentialError` if any dishonest answer slipped through
    uncertified — i.e. if the harness itself is broken.
    """
    cases = corpus(seeds=range(2))
    arms = [dishonest_arm()]
    report = run_differential(cases, arms, objectives=("bcc",))
    flagged = {
        f.case for f in report.findings if f.arm == "dishonest" and f.check == "certificate"
    }
    missed = [c.name for c in cases if c.name not in flagged]
    if missed:
        raise DifferentialError(
            f"harness self-test failed: the dishonest solver went unflagged "
            f"on {missed}"
        )
    return report
