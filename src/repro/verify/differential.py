"""Differential verification: all solver arms, cross-checked on a corpus.

Every registered arm runs on every corpus instance; each output is
certified with :func:`~repro.verify.certificate.verify_solution`, and the
arms are then cross-checked against one another:

- the brute-force oracle dominates every heuristic at the same budget;
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
from repro.core.model import BCCInstance, ECCInstance, GMC3Instance
from repro.core.solution import Solution, evaluate
from repro.verify.certificate import verify_cover, verify_solution
from repro.verify.corpus import CorpusCase, corpus

_TOL = 1e-9
#: The brute-force oracle refuses above this many feasible classifiers.
_ORACLE_LIMIT = 24

BccSolver = Callable[[BCCInstance], Solution]


@dataclass(frozen=True)
class SolverArm:
    """A registered solver entry point.

    Attributes:
        name: display name (unique within its kind).
        kind: which instance view the arm consumes: ``bcc``, ``gmc3``
            or ``ecc``.
        run: ``instance -> Solution``.
        oracle: True for provably exact arms (they define dominance).
    """

    name: str
    kind: str
    run: Callable
    oracle: bool = False


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
# the arm registry
# ----------------------------------------------------------------------
def _shared_cost_degenerate(instance: BCCInstance) -> Solution:
    """Shared-costs solver with zero property costs == the base model."""
    from repro.extensions.shared_costs import SharedCostModel, solve_shared_cost_bcc

    model = SharedCostModel(instance, property_costs={}, default_property_cost=0.0)
    selection = solve_shared_cost_bcc(model)
    return evaluate(instance, selection, meta={"algorithm": "shared-costs[d=0]"})


def _partial_cover_degenerate(instance: BCCInstance) -> Solution:
    """Partial-cover solver with a step credit == the base model."""
    from repro.extensions.partial_cover import (
        PartialCoverModel,
        solve_partial_bcc,
        step_credit,
    )

    model = PartialCoverModel(instance, credit=step_credit)
    selection = solve_partial_bcc(model, warm_start=False)
    return evaluate(instance, selection, meta={"algorithm": "partial-cover[step]"})


def _abcc(instance: BCCInstance) -> Solution:
    from repro.algorithms.bcc import solve_bcc

    return solve_bcc(instance)


def _brute(instance: BCCInstance) -> Solution:
    from repro.algorithms.brute_force import solve_bcc_exact

    return solve_bcc_exact(instance)


def _abcc_sharded(instance: BCCInstance) -> Solution:
    """Decompose-solve-recombine arm (jobs=1: the harness may itself run
    inside a pool worker)."""
    from repro.incremental import IncrementalConfig, solve_bcc_sharded

    return solve_bcc_sharded(instance, IncrementalConfig(jobs=1))


def default_arms() -> List[SolverArm]:
    """Every registered solver arm, across all three objectives."""
    from repro.algorithms.ecc import solve_ecc
    from repro.algorithms.gmc3 import solve_gmc3
    from repro.baselines import runners

    return [
        SolverArm("A^BCC", "bcc", _abcc),
        SolverArm("A^BCC-sharded", "bcc", _abcc_sharded),
        SolverArm("brute-force", "bcc", _brute, oracle=True),
        SolverArm("RAND", "bcc", lambda i: runners.rand_bcc(i, seed=0)),
        SolverArm("IG1", "bcc", runners.ig1_bcc),
        SolverArm("IG2", "bcc", runners.ig2_bcc),
        SolverArm("shared-costs[d=0]", "bcc", _shared_cost_degenerate),
        SolverArm("partial-cover[step]", "bcc", _partial_cover_degenerate),
        SolverArm("A^GMC3", "gmc3", solve_gmc3),
        SolverArm("RAND(G)", "gmc3", lambda i: runners.rand_gmc3(i, seed=0)),
        SolverArm("IG1(G)", "gmc3", runners.ig1_gmc3),
        SolverArm("IG2(G)", "gmc3", runners.ig2_gmc3),
        SolverArm("A^ECC", "ecc", solve_ecc),
        SolverArm("RAND(E)", "ecc", lambda i: runners.rand_ecc(i, seed=0)),
        SolverArm("IG1(E)", "ecc", runners.ig1_ecc),
        SolverArm("IG2(E)", "ecc", runners.ig2_ecc),
    ]


def dishonest_arm(inflate: float = 1.5) -> SolverArm:
    """A deliberately broken solver: overstates its utility by ``inflate``.

    Mutation-style fixture for the harness's own tests: it runs a real
    greedy, then reports ``utility * inflate + 1`` without covering
    anything extra.  Certification must flag it on every instance.
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

    # -- BCC ------------------------------------------------------------
    def run_bcc(self) -> None:
        instance = self.case.instance
        utilities: Dict[str, float] = {}
        oracle_utility: Optional[float] = None
        oracle_ok = _oracle_feasible(instance)
        for arm in (a for a in self.arms if a.kind == "bcc"):
            if arm.oracle and not oracle_ok:
                continue
            try:
                solution = arm.run(instance)
            except Exception as exc:  # a crash is a finding, not an abort
                self.fail(arm.name, "run", f"{type(exc).__name__}: {exc}")
                continue
            try:
                verify_solution(instance, solution, budget=instance.budget)
                self.report.solutions_certified += 1
            except CertificateError as exc:
                self.fail(arm.name, "certificate", str(exc))
                continue
            utilities[arm.name] = solution.utility
            if arm.oracle:
                oracle_utility = solution.utility

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
            self._check_l2_bound(oracle_utility, utilities.get("A^BCC"))
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
                "brute-force",
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
                "A^BCC",
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

    # -- GMC3 -----------------------------------------------------------
    def run_gmc3(self) -> None:
        instance = self.case.instance
        if not _has_finite_full_cover(instance):
            return
        view = _gmc3_view(instance)
        if view.target <= 0:
            return
        for arm in (a for a in self.arms if a.kind == "gmc3"):
            try:
                solution = arm.run(view)
            except Exception as exc:
                self.fail(arm.name, "run", f"{type(exc).__name__}: {exc}")
                continue
            try:
                verify_solution(view, solution, target=view.target)
                self.report.solutions_certified += 1
            except CertificateError as exc:
                self.fail(arm.name, "certificate", str(exc))
                continue
            if arm.name == "A^GMC3":
                self._check_gmc3_cross(view, solution)

    def _check_gmc3_cross(self, view: GMC3Instance, solution: Solution) -> None:
        from repro.algorithms.brute_force import solve_bcc_exact
        from repro.mc3 import full_cover_cost

        full_cost = full_cover_cost(view)
        self.check()
        if solution.cost > full_cost * (1.0 + _TOL) + _TOL:
            self.fail(
                "A^GMC3",
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
                "A^GMC3",
                "implied-budget-vs-exact-bcc",
                f"exact BCC at the implied budget {implied.budget} reaches "
                f"{exact.utility} < target {view.target} although the GMC3 "
                f"answer itself is feasible there",
            )

    # -- ECC ------------------------------------------------------------
    def run_ecc(self) -> None:
        instance = self.case.instance
        view = _ecc_view(instance)
        for arm in (a for a in self.arms if a.kind == "ecc"):
            try:
                solution = arm.run(view)
            except Exception as exc:
                self.fail(arm.name, "run", f"{type(exc).__name__}: {exc}")
                continue
            try:
                verify_solution(view, solution)
                self.report.solutions_certified += 1
            except CertificateError as exc:
                self.fail(arm.name, "certificate", str(exc))
                continue
            if arm.name == "A^ECC" and solution.classifiers:
                self._check_ecc_cross(view, solution)

    def _check_ecc_cross(self, view: ECCInstance, solution: Solution) -> None:
        from repro.algorithms.brute_force import solve_bcc_exact

        if math.isinf(solution.cost):
            self.fail("A^ECC", "finite-cost", "ECC selected an infinite-cost classifier")
            return
        implied = view.as_bcc(solution.cost * (1.0 + _TOL) + _TOL)
        if not _oracle_feasible(implied):
            return
        exact = solve_bcc_exact(implied)
        self.check()
        if solution.utility > exact.utility + _TOL:
            self.fail(
                "A^ECC",
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
        runner = _CaseRunner(case, arms, report)
        if "bcc" in objectives:
            runner.run_bcc()
        if "gmc3" in objectives:
            runner.run_gmc3()
        if "ecc" in objectives:
            runner.run_ecc()
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
