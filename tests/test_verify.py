"""Tests for the certificate + differential verification subsystem.

Covers certificate round-trips (in-memory and through JSON), rejection of
tampered certificates and tampered solutions with the right typed errors,
the differential harness flagging a planted dishonest solver, a clean
default-arm sweep, and the metamorphic layer on the paper instance.
"""

import ast
import dataclasses
import importlib
import inspect
import json
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings

from repro.algorithms.bcc import solve_bcc
from repro.algorithms.brute_force import solve_bcc_exact
from repro.core import (
    BudgetExceededError,
    evaluate,
    from_letters as fs,
)
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
from repro.mc3 import solve_mc3
from repro.parallel.registry import solver_kind, solver_names
from repro.verify import (
    SolutionCertificate,
    attach_certificate,
    build_certificate,
    corpus,
    default_arms,
    dishonest_arm,
    run_differential,
    run_metamorphic,
    self_test,
    verify_cover,
    verify_solution,
)
from tests.conftest import figure1_instance
from tests.strategies import bcc_instances, solvable_instances


@pytest.fixture
def optimal_b4(fig1_b4):
    """The certified optimum of the B=4 paper instance: {YZ, XZ}."""
    return evaluate(fig1_b4, [fs("yz"), fs("xz")])


class TestCertificateRoundTrip:
    def test_build_records_witnesses_for_covered_queries(self, fig1_b4, optimal_b4):
        cert = build_certificate(fig1_b4, optimal_b4)
        assert set(cert.witnesses) == {fs("xyz"), fs("xz")}
        assert cert.total_utility == 9.0
        assert cert.total_cost == 4.0
        for query, witness in cert.witnesses.items():
            union = frozenset().union(*witness)
            assert union == query
            assert all(member <= query for member in witness)
            assert all(member in optimal_b4.classifiers for member in witness)

    def test_verify_accepts_built_certificate(self, fig1_b4, optimal_b4):
        cert = build_certificate(fig1_b4, optimal_b4)
        assert (
            verify_solution(
                fig1_b4, optimal_b4, certificate=cert, budget=fig1_b4.budget
            )
            is cert
        )

    def test_json_round_trip_is_identity(self, fig1_b4, optimal_b4):
        cert = build_certificate(fig1_b4, optimal_b4)
        assert SolutionCertificate.from_json(cert.to_json()) == cert

    def test_json_payload_is_pure(self, fig1_b4, optimal_b4):
        cert = build_certificate(fig1_b4, optimal_b4)
        recycled = json.loads(json.dumps(cert.to_json()))
        rebuilt = SolutionCertificate.from_json(recycled)
        verify_solution(
            fig1_b4, optimal_b4, certificate=rebuilt, budget=fig1_b4.budget
        )

    def test_attach_certificate_lands_in_meta(self, fig1_b4):
        solution = solve_bcc(fig1_b4)
        assert "certificate" not in solution.meta  # solvers only answer
        certified = attach_certificate(fig1_b4, solution, budget=fig1_b4.budget)
        assert certified is solution
        cert = solution.meta["certificate"]
        assert isinstance(cert, SolutionCertificate)
        assert cert.total_utility == solution.utility


class TestVerifyCover:
    def test_accepts_the_mc3_cover(self, fig1_b4):
        cover = solve_mc3(fig1_b4)
        assert cover == {fs("x"), fs("y"), fs("z")}
        verify_cover(fig1_b4, cover)

    def test_dropped_classifier_leaves_a_query_uncovered(self, fig1_b4):
        cover = solve_mc3(fig1_b4)
        for classifier in cover:
            with pytest.raises(CoverageCertificateError):
                verify_cover(fig1_b4, cover - {classifier})

    def test_infinite_cost_classifier_rejected(self, fig1_b4):
        assert math.isinf(fig1_b4.cost(fs("xy")))
        with pytest.raises(CostCertificateError):
            verify_cover(fig1_b4, solve_mc3(fig1_b4) | {fs("xy")})


class TestTamperedCertificateRejection:
    """Every mutated field must be caught with the right typed error."""

    def test_wrong_item_cost(self, fig1_b4, optimal_b4):
        cert = build_certificate(fig1_b4, optimal_b4)
        bad = dataclasses.replace(
            cert, item_costs=tuple(c + 1.0 for c in cert.item_costs)
        )
        with pytest.raises(CostCertificateError):
            verify_solution(fig1_b4, optimal_b4, certificate=bad)

    def test_wrong_total_cost(self, fig1_b4, optimal_b4):
        cert = build_certificate(fig1_b4, optimal_b4)
        bad = dataclasses.replace(cert, total_cost=cert.total_cost + 1.0)
        with pytest.raises(CostCertificateError):
            verify_solution(fig1_b4, optimal_b4, certificate=bad)

    def test_dropped_classifier(self, fig1_b4, optimal_b4):
        cert = build_certificate(fig1_b4, optimal_b4)
        bad = dataclasses.replace(
            cert,
            classifiers=cert.classifiers[:-1],
            item_costs=cert.item_costs[:-1],
        )
        with pytest.raises(WitnessCertificateError):
            verify_solution(fig1_b4, optimal_b4, certificate=bad)

    def test_dropped_witness(self, fig1_b4, optimal_b4):
        cert = build_certificate(fig1_b4, optimal_b4)
        witnesses = dict(cert.witnesses)
        del witnesses[fs("xyz")]
        bad = dataclasses.replace(cert, witnesses=witnesses)
        with pytest.raises(WitnessCertificateError):
            verify_solution(fig1_b4, optimal_b4, certificate=bad)

    def test_witness_union_short_of_query(self, fig1_b4, optimal_b4):
        cert = build_certificate(fig1_b4, optimal_b4)
        witnesses = dict(cert.witnesses)
        witnesses[fs("xyz")] = (fs("xz"),)  # union {x, z} misses y
        bad = dataclasses.replace(cert, witnesses=witnesses)
        with pytest.raises(WitnessCertificateError):
            verify_solution(fig1_b4, optimal_b4, certificate=bad)

    def test_unselected_witness_member(self, fig1_b4, optimal_b4):
        cert = build_certificate(fig1_b4, optimal_b4)
        witnesses = dict(cert.witnesses)
        witnesses[fs("xyz")] = (fs("xyz"),)  # covers, but was never selected
        bad = dataclasses.replace(cert, witnesses=witnesses)
        with pytest.raises(WitnessCertificateError):
            verify_solution(fig1_b4, optimal_b4, certificate=bad)

    def test_inflated_query_utility(self, fig1_b4, optimal_b4):
        cert = build_certificate(fig1_b4, optimal_b4)
        utilities = dict(cert.query_utilities)
        utilities[fs("xyz")] += 5.0
        bad = dataclasses.replace(cert, query_utilities=utilities)
        with pytest.raises(UtilityCertificateError):
            verify_solution(fig1_b4, optimal_b4, certificate=bad)


class TestTamperedSolutionRejection:
    def test_inflated_utility(self, fig1_b4, optimal_b4):
        bad = dataclasses.replace(optimal_b4, utility=optimal_b4.utility * 2)
        with pytest.raises(UtilityCertificateError):
            verify_solution(fig1_b4, bad)

    def test_wrong_covered_set(self, fig1_b4, optimal_b4):
        bad = dataclasses.replace(
            optimal_b4, covered=optimal_b4.covered | {fs("xy")}
        )
        with pytest.raises(CoverageCertificateError):
            verify_solution(fig1_b4, bad)

    def test_understated_cost(self, fig1_b4, optimal_b4):
        bad = dataclasses.replace(optimal_b4, cost=optimal_b4.cost - 1.0)
        with pytest.raises(CostCertificateError):
            verify_solution(fig1_b4, bad)

    def test_over_budget(self, fig1_b3):
        # {X} costs 5 against budget 3: honest bookkeeping, infeasible.
        solution = evaluate(fig1_b3, [fs("x")])
        with pytest.raises(BudgetCertificateError):
            verify_solution(fig1_b3, solution, budget=fig1_b3.budget)

    def test_budget_error_is_budget_exceeded(self, fig1_b3):
        # The certificate budget error satisfies the legacy hierarchy too.
        solution = evaluate(fig1_b3, [fs("x")])
        with pytest.raises(BudgetExceededError):
            verify_solution(fig1_b3, solution, budget=fig1_b3.budget)

    def test_infinite_cost_member_rejected_under_budget_check(self, fig1_b4):
        solution = evaluate(fig1_b4, [fs("xy")])
        assert math.isinf(solution.cost)
        with pytest.raises(CostCertificateError):
            verify_solution(fig1_b4, solution, budget=fig1_b4.budget)

    def test_target_shortfall(self, fig1_b4, optimal_b4):
        with pytest.raises(TargetCertificateError):
            verify_solution(fig1_b4, optimal_b4, target=optimal_b4.utility + 1.0)

    def test_attach_certificate_refuses_tampering(self, fig1_b4, optimal_b4):
        bad = dataclasses.replace(optimal_b4, utility=optimal_b4.utility + 1.0)
        with pytest.raises(CertificateError):
            attach_certificate(fig1_b4, bad)


class TestDifferentialHarness:
    def test_dishonest_solver_is_flagged_on_every_case(self):
        cases = corpus(seeds=range(1))
        report = run_differential(
            cases, arms=[dishonest_arm()], objectives=("bcc",)
        )
        assert not report.ok
        flagged = {f.case for f in report.findings if f.check == "certificate"}
        assert flagged == {case.name for case in cases}
        assert all(f.arm == "dishonest" for f in report.findings)

    def test_self_test_passes(self):
        report = self_test()
        assert report.findings  # the planted bug produced findings

    def test_raise_on_failure(self):
        from repro.core.errors import DifferentialError

        report = run_differential(
            corpus(seeds=range(1))[:1], arms=[dishonest_arm()], objectives=("bcc",)
        )
        with pytest.raises(DifferentialError):
            report.raise_on_failure()

    def test_default_arms_are_the_registry(self):
        # The harness keeps no arm list of its own: it runs every registry
        # entry, under its registered name, on the objective it solves.
        arms = default_arms()
        assert {arm.name for arm in arms} == set(solver_names())
        for arm in arms:
            assert arm.kind == solver_kind(arm.name), arm.name

    def test_default_arms_certify_cleanly(self):
        report = run_differential(corpus(seeds=range(1)))
        assert report.ok, "\n".join(str(f) for f in report.findings)
        assert report.solutions_certified > 0
        assert report.checks_run > 0


class TestMetamorphic:
    def test_paper_instance_passes_all_relations(self):
        ran = run_metamorphic(figure1_instance(4.0))
        assert ran == [
            "budget-monotonicity",
            "utility-rescaling",
            "property-renaming",
            "duplicate-merge",
        ]


class TestPropertyBasedCertification:
    @given(instance=solvable_instances(max_queries=4, max_length=2))
    @settings(max_examples=40, deadline=None)
    def test_exact_solver_certifies_and_round_trips(self, instance):
        solution = solve_bcc_exact(instance)
        attach_certificate(instance, solution, budget=instance.budget)
        cert = solution.meta["certificate"]
        recycled = SolutionCertificate.from_json(
            json.loads(json.dumps(cert.to_json()))
        )
        verify_solution(
            instance, solution, certificate=recycled, budget=instance.budget
        )

    @given(instance=bcc_instances())
    # A workload whose final swap polish changes the selection.
    @example(instance=generate_synthetic(80, 40, budget=150.0, seed=0))
    @settings(max_examples=40, deadline=None)
    def test_heuristic_certifies_on_adversarial_instances(self, instance):
        # Zero costs, infinite costs and tight budgets included: the
        # heuristic must stay feasible and its bookkeeping certifiable.
        verify_solution(instance, solve_bcc(instance), budget=instance.budget)


class TestSolversOnlyAnswer:
    """One way to certify: a caller attaches the certificate to an answer,
    so no solver, registry entry, task or config takes a certify flag."""

    @pytest.mark.parametrize(
        "package",
        [
            "repro.algorithms",
            "repro.baselines",
            "repro.mc3",
            "repro.extensions",
            "repro.incremental",
        ],
    )
    def test_no_exported_callable_takes_certify(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            exported = getattr(module, name)
            if isinstance(exported, type) and issubclass(exported, Exception):
                continue
            if callable(exported):
                parameters = inspect.signature(exported).parameters
                assert "certify" not in parameters, f"{package}.{name}"

    def test_every_registry_entry_takes_instance_and_seed(self):
        from repro.parallel.registry import get_solver, solver_names

        for name in solver_names():
            parameters = inspect.signature(get_solver(name)).parameters.values()
            assert [(p.name, p.default) for p in parameters] == [
                ("instance", inspect.Parameter.empty),
                ("seed", None),
            ], name

    def test_tasks_and_configs_carry_no_certify_field(self):
        from repro.incremental import IncrementalConfig
        from repro.parallel import ParallelConfig, SolveTask

        for kind in (SolveTask, ParallelConfig, IncrementalConfig):
            assert "certify" not in {f.name for f in dataclasses.fields(kind)}


class TestVerifierIndependence:
    def test_certificate_module_imports_only_core_data_types(self):
        # The oracle stays free of tracker, compiled-workload and solver
        # code however it is tuned: a bug there cannot certify itself.
        from repro.verify import certificate

        tree = ast.parse(Path(certificate.__file__).read_text(encoding="utf-8"))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert node.level == 0, "relative import in the verifier"
                imported.add(node.module)
            elif isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
        assert {name for name in imported if name.split(".")[0] == "repro"} <= {
            "repro.core.errors",
            "repro.core.model",
            "repro.core.solution",
        }
