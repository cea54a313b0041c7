"""Serving-façade test wall: requests, coalescing, cache, replay determinism.

Covers the full serving surface:

- typed request/response round-trips and validation;
- Zipf trace generation and trace-file round-trips;
- façade round-trips (plan / replan / what_if) with certificates on every
  successful response;
- per-tick coalescing (identical effective instances share one solve,
  across tenants and across request kinds);
- cache short-circuit, the never-store-certificates contract, the
  tampered-payload rejection regression, and a 600-request Zipf trace
  served without errors, fully certified and mostly warm on both the
  virtual and the system clock (the production mode, whose cold solves
  fan out to the worker pool when ``REPRO_JOBS`` > 1);
- replan-vs-cold bit-identity, re-plans that never touch the result
  cache, failed re-plans that commit nothing, and tenant isolation (one
  tenant's ``StaleWorkloadError`` never fails another's request);
- degenerate rows (deadline 0, empty workloads) across all engines;
- the metamorphic determinism property: a trace served twice under a
  virtual clock — and under ``jobs=1`` vs ``jobs=2``, and across coverage
  engines — yields byte-identical canonical response sequences.
"""

from __future__ import annotations

import asyncio
import json
import random
import types

import pytest
from hypothesis import given, settings

from repro.core import BCCInstance, from_letters as fs
from repro.core.bitset import ENGINES, use_engine
from repro.core.errors import DecompositionError, InvalidInstanceError, UnknownTenantError
from repro.datasets.fragmented import generate_fragmented
from repro.datasets.zipf import zipf_rank
from repro.incremental import engine as engine_module
from repro.incremental.delta import WorkloadDelta, random_delta
from repro.incremental.engine import IncrementalConfig, IncrementalSolver
from repro.parallel import fingerprint as fingerprint_module
from repro.parallel.cache import CACHE_VERSION, CacheStats, ResultCache
from repro.serving import (
    PlanRequest,
    ReplanRequest,
    ServingConfig,
    ServingFacade,
    WhatIfRequest,
    generate_trace,
    load_trace,
    request_from_json,
    request_to_json,
    save_trace,
    tier_prior_clock,
    trace_from_json,
    trace_to_json,
)
from repro.serving import facade as facade_module
from repro.serving.cli import main as serving_main
from repro.serving.traffic import TraceItem
from repro.verify.certificate import verify_solution
from repro.verify.incremental import random_delta_stream
from tests.conftest import figure1_instance, random_instance
from tests.strategies import request_streams

#: One cheap arm keeps behavioural tests fast; determinism tests use the
#: full default portfolio.
FAST_ARMS = ("abcc",)


def make_facade(tmp_path, arms=FAST_ARMS, cache=True, jobs=None, **kwargs):
    cache_obj = (
        ResultCache(directory=tmp_path / "serving-cache") if cache else None
    )
    return ServingFacade(
        ServingConfig(
            arms=arms, clock=tier_prior_clock(), cache=cache_obj, jobs=jobs, **kwargs
        )
    )


def serve(facade, *batches):
    """Serve each batch in its own tick; responses in submission order."""

    async def _run():
        out = []
        for batch in batches:
            futures = [facade.enqueue(request) for request in batch]
            await facade.tick()
            out.extend(future.result() for future in futures)
        return out

    return asyncio.run(_run())


def canonical_replay(trace, jobs=None, arms=None):
    """Replay ``trace`` on a fresh façade + cache; canonical responses."""
    import tempfile

    with tempfile.TemporaryDirectory(prefix="repro-serving-test-") as scratch:
        from pathlib import Path

        facade = ServingFacade(
            ServingConfig(
                arms=arms or FAST_ARMS,
                clock=tier_prior_clock(),
                cache=ResultCache(directory=Path(scratch)),
                jobs=jobs,
            )
        )
        return [response.canonical() for response in facade.replay(trace)]


# ----------------------------------------------------------------------
# requests: validation and JSON round-trips
# ----------------------------------------------------------------------
class TestRequests:
    def test_plan_round_trips_through_json(self):
        request = PlanRequest("acme", budget=12.5, deadline_ms=40.0)
        assert request_from_json(request_to_json(request)) == request

    def test_replan_round_trips_through_json(self):
        delta = WorkloadDelta.of(remove=[fs("xy")], utilities={fs("xz"): 3.0})
        request = ReplanRequest("acme", delta, expected_version=4, deadline_ms=10.0)
        assert request_from_json(request_to_json(request)) == request

    def test_what_if_round_trips_through_json(self):
        delta = WorkloadDelta.of(add={fs("qq"): 5.0})
        request = WhatIfRequest("acme", budget=9.0, delta=delta)
        assert request_from_json(request_to_json(request)) == request

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unknown request kind"):
            request_from_json({"kind": "destroy", "tenant": "acme"})

    def test_empty_tenant_is_rejected(self):
        with pytest.raises(ValueError, match="tenant"):
            PlanRequest("")

    def test_negative_budget_is_rejected(self):
        with pytest.raises(ValueError, match="budget"):
            PlanRequest("acme", budget=-1.0)

    def test_negative_deadline_is_rejected(self):
        with pytest.raises(ValueError, match="deadline_ms"):
            WhatIfRequest("acme", deadline_ms=-5.0)

    def test_replan_requires_a_workload_delta(self):
        with pytest.raises(ValueError, match="WorkloadDelta"):
            ReplanRequest("acme", delta={"remove": ["xy"]})

    def test_replan_rejects_negative_expected_version(self):
        with pytest.raises(ValueError, match="expected_version"):
            ReplanRequest("acme", WorkloadDelta.of(), expected_version=-1)

    def test_canonical_is_stable_and_sorted(self, tmp_path):
        facade = make_facade(tmp_path)
        facade.register_tenant("acme", figure1_instance(4.0))
        (response,) = serve(facade, [PlanRequest("acme")])
        assert response.canonical() == response.canonical()
        payload = json.loads(response.canonical())
        assert payload["status"] == "ok"
        assert payload["solution"]["classifiers"] == sorted(
            payload["solution"]["classifiers"]
        )

    def test_canonical_excludes_volatile_diagnostics(self, tmp_path):
        facade = make_facade(tmp_path)
        facade.register_tenant("acme", figure1_instance(4.0))
        (response,) = serve(facade, [PlanRequest("acme")])
        assert "slo" in response.solution.meta  # diagnostics are delivered...
        payload = json.loads(response.canonical())
        assert sorted(payload["solution"]) == ["classifiers", "cost", "covered", "utility"]
        assert "slo" not in payload["telemetry"]  # ...but never canonical


# ----------------------------------------------------------------------
# traffic: trace generation and files
# ----------------------------------------------------------------------
class TestTraffic:
    def test_generate_trace_is_a_pure_function_of_its_seed(self):
        one = trace_to_json(generate_trace(n_requests=40, n_tenants=3, seed=9))
        two = trace_to_json(generate_trace(n_requests=40, n_tenants=3, seed=9))
        assert one == two

    def test_generate_trace_seed_changes_the_trace(self):
        one = trace_to_json(generate_trace(n_requests=40, n_tenants=3, seed=1))
        two = trace_to_json(generate_trace(n_requests=40, n_tenants=3, seed=2))
        assert one != two

    def test_trace_round_trips_through_files(self, tmp_path):
        trace = generate_trace(n_requests=25, n_tenants=2, seed=5, deadline_ms=30.0)
        path = tmp_path / "trace.json"
        save_trace(trace, path)
        assert trace_to_json(load_trace(path)) == trace_to_json(trace)

    def test_kind_counts_cover_every_request(self):
        trace = generate_trace(n_requests=60, n_tenants=4, seed=2)
        counts = trace.kind_counts()
        assert sum(counts.values()) == len(trace) == 60
        assert counts["plan"] > counts["what_if"] > 0

    def test_tenant_popularity_is_zipf_skewed(self):
        trace = generate_trace(n_requests=400, n_tenants=6, seed=0, exponent=1.2)
        by_tenant = {}
        for item in trace.items:
            by_tenant[item.request.tenant] = by_tenant.get(item.request.tenant, 0) + 1
        ranked = [by_tenant.get(name, 0) for name in sorted(trace.tenants)]
        assert ranked[0] == max(ranked)
        assert ranked[0] >= 3 * max(ranked[-1], 1)

    def test_generated_replans_are_causally_valid(self, tmp_path):
        trace = generate_trace(n_requests=80, n_tenants=2, seed=4, replan_fraction=0.2)
        facade = make_facade(tmp_path)
        responses = facade.replay(trace)
        assert all(response.ok for response in responses)

    def test_generate_trace_validates_arguments(self):
        with pytest.raises(ValueError, match="n_requests"):
            generate_trace(n_requests=0)
        with pytest.raises(ValueError, match="n_tenants"):
            generate_trace(n_tenants=0)
        with pytest.raises(ValueError, match="fraction"):
            generate_trace(replan_fraction=0.8, what_if_fraction=0.5)

    def test_unsupported_trace_format_is_rejected(self):
        with pytest.raises(ValueError, match="format"):
            trace_from_json({"format": 99, "tenants": {}, "items": []})

    def test_zipf_rank_respects_bounds(self):
        import random

        rng = random.Random(0)
        ranks = {zipf_rank(rng, 5, 1.0) for _ in range(200)}
        assert ranks <= set(range(5)) and 0 in ranks
        with pytest.raises(ValueError):
            zipf_rank(rng, 0)


# ----------------------------------------------------------------------
# the façade: round-trips and tenant lifecycle
# ----------------------------------------------------------------------
class TestFacadeBasics:
    def test_plan_round_trip_is_certified_and_verified(self, tmp_path):
        instance = figure1_instance(4.0)
        facade = make_facade(tmp_path)
        facade.register_tenant("acme", instance)
        (response,) = serve(facade, [PlanRequest("acme")])
        assert response.ok
        certificate = response.solution.meta["certificate"]
        verify_solution(instance, response.solution, certificate)
        assert response.solution.utility == 9.0

    def test_register_tenant_clones_the_instance(self, tmp_path):
        instance = figure1_instance(4.0)
        facade = make_facade(tmp_path)
        facade.register_tenant("acme", instance)
        instance.apply_delta(WorkloadDelta.of(remove=[fs("xy")]))
        (response,) = serve(facade, [PlanRequest("acme")])
        assert response.ok and response.solution.utility == 9.0

    def test_register_tenant_validates_inputs(self, tmp_path):
        facade = make_facade(tmp_path)
        with pytest.raises(ValueError, match="tenant name"):
            facade.register_tenant("", figure1_instance(4.0))
        with pytest.raises(ValueError, match="BCCInstance"):
            facade.register_tenant("acme", {"not": "an instance"})

    def test_unknown_tenant_is_an_error_response(self, tmp_path):
        facade = make_facade(tmp_path)
        (response,) = serve(facade, [PlanRequest("ghost")])
        assert not response.ok
        assert response.error == "UnknownTenantError"
        assert facade.counters.errors == 1

    def test_tenant_state_is_one_entry_per_registered_name(self, tmp_path):
        facade = make_facade(tmp_path)
        facade.register_tenant("acme", figure1_instance(4.0))
        first = facade._tenants["acme"]
        facade.register_tenant("acme", figure1_instance(11.0))
        assert facade._tenants["acme"] is not first  # replaced, not stacked
        serve(facade, [PlanRequest("acme"), PlanRequest("ghost")])
        assert facade.tenants() == ["acme"]  # requests never add state

    def test_tenant_version_raises_for_unknown_tenants(self, tmp_path):
        facade = make_facade(tmp_path)
        with pytest.raises(UnknownTenantError):
            facade.tenant_version("ghost")

    def test_budget_override_is_respected(self, tmp_path):
        facade = make_facade(tmp_path)
        facade.register_tenant("acme", figure1_instance(11.0))
        low, high = serve(
            facade, [PlanRequest("acme", budget=3.0), PlanRequest("acme", budget=11.0)]
        )
        assert low.solution.cost <= 3.0
        assert low.solution.utility == 8.0
        assert high.solution.utility == 11.0

    def test_what_if_never_commits(self, tmp_path):
        facade = make_facade(tmp_path)
        facade.register_tenant("acme", figure1_instance(4.0))
        before = facade.tenant_version("acme")
        delta = WorkloadDelta.of(remove=[fs("xy")])
        (response,) = serve(facade, [WhatIfRequest("acme", delta=delta, budget=3.0)])
        assert response.ok
        assert facade.tenant_version("acme") == before
        # the same hypothetical again: still valid, still uncommitted
        (again,) = serve(facade, [WhatIfRequest("acme", delta=delta, budget=3.0)])
        assert again.ok and again.solution.utility == response.solution.utility

    def test_counters_account_for_every_request(self, tmp_path):
        facade = make_facade(tmp_path)
        facade.register_tenant("acme", figure1_instance(4.0))
        serve(facade, [PlanRequest("acme"), PlanRequest("ghost")], [PlanRequest("acme")])
        counters = facade.counters
        assert counters.requests == counters.responses == 3
        assert counters.errors == 1
        assert counters.ticks == 2
        snapshot = counters.snapshot()
        assert snapshot["hit_rate"] == counters.hit_rate()

    def test_submit_through_the_running_production_loop(self, tmp_path):
        facade = make_facade(tmp_path, tick_seconds=0.001)
        facade.register_tenant("acme", figure1_instance(4.0))
        assert facade.tenants() == ["acme"]

        async def _run():
            loop_task = asyncio.create_task(facade.run())
            try:
                return await asyncio.wait_for(
                    facade.submit(PlanRequest("acme")), timeout=30.0
                )
            finally:
                facade.stop()
                await asyncio.wait_for(loop_task, timeout=30.0)

        response = asyncio.run(_run())
        assert response.ok and "certificate" in response.solution.meta

    def test_telemetry_records_the_simulated_timeline(self, tmp_path):
        facade = make_facade(tmp_path)
        facade.register_tenant("acme", figure1_instance(4.0))
        (response,) = serve(facade, [PlanRequest("acme")])
        telemetry = response.telemetry
        assert telemetry["finish_s"] >= telemetry["start_s"] >= 0.0
        assert telemetry["queue_wait_s"] >= 0.0
        assert telemetry["tick"] == 0 and telemetry["batch_size"] == 1
        assert telemetry["path"] == "slo" and telemetry["cache"] == "miss"


# ----------------------------------------------------------------------
# coalescing
# ----------------------------------------------------------------------
class TestCoalescing:
    def test_identical_plans_share_one_solve(self, tmp_path):
        facade = make_facade(tmp_path)
        facade.register_tenant("acme", figure1_instance(4.0))
        responses = serve(facade, [PlanRequest("acme") for _ in range(4)])
        assert facade.counters.solves == 1
        assert facade.counters.coalesced == 3
        assert {response.telemetry["batch_size"] for response in responses} == {4}
        assert len({response.canonical() for response in responses}) == 4  # ids differ
        assert (
            len({response.solution.classifiers for response in responses}) == 1
        )

    def test_plan_and_what_if_coalesce_on_content(self, tmp_path):
        facade = make_facade(tmp_path)
        facade.register_tenant("acme", figure1_instance(4.0))
        responses = serve(facade, [PlanRequest("acme"), WhatIfRequest("acme")])
        assert facade.counters.solves == 1
        assert facade.counters.coalesced == 1
        assert [response.kind for response in responses] == ["plan", "what_if"]

    def test_identical_workloads_coalesce_across_tenants(self, tmp_path):
        facade = make_facade(tmp_path)
        facade.register_tenant("alpha", figure1_instance(4.0))
        facade.register_tenant("beta", figure1_instance(4.0))
        responses = serve(facade, [PlanRequest("alpha"), PlanRequest("beta")])
        assert facade.counters.solves == 1
        assert {response.tenant for response in responses} == {"alpha", "beta"}

    def test_different_budgets_do_not_coalesce(self, tmp_path):
        facade = make_facade(tmp_path)
        facade.register_tenant("acme", figure1_instance(4.0))
        serve(facade, [PlanRequest("acme", budget=3.0), PlanRequest("acme", budget=4.0)])
        assert facade.counters.solves == 2
        assert facade.counters.coalesced == 0

    def test_different_deadlines_do_not_coalesce(self, tmp_path):
        facade = make_facade(tmp_path)
        facade.register_tenant("acme", figure1_instance(4.0))
        serve(
            facade,
            [PlanRequest("acme", deadline_ms=10.0), PlanRequest("acme", deadline_ms=500.0)],
        )
        assert facade.counters.solves == 2


# ----------------------------------------------------------------------
# cache behaviour
# ----------------------------------------------------------------------
class TestCache:
    def test_warm_hit_short_circuits_the_pool(self, tmp_path):
        facade = make_facade(tmp_path)
        facade.register_tenant("acme", figure1_instance(4.0))
        (cold,), (warm,) = (
            serve(facade, [PlanRequest("acme")]),
            serve(facade, [PlanRequest("acme")]),
        )
        assert facade.counters.solves == 1  # the second tick never solved
        assert facade.counters.cache_hits == 1
        assert warm.telemetry["path"] == "cache"
        assert warm.telemetry["cache"] == "hit"
        assert warm.solution.classifiers == cold.solution.classifiers
        assert repr(warm.solution.cost) == repr(cold.solution.cost)
        assert repr(warm.solution.utility) == repr(cold.solution.utility)

    def test_cache_hits_carry_rederived_certificates(self, tmp_path):
        instance = figure1_instance(4.0)
        facade = make_facade(tmp_path)
        facade.register_tenant("acme", instance)
        serve(facade, [PlanRequest("acme")])
        (warm,) = serve(facade, [PlanRequest("acme")])
        certificate = warm.solution.meta["certificate"]
        verify_solution(instance, warm.solution, certificate)

    def test_certificates_are_never_stored(self, tmp_path):
        facade = make_facade(tmp_path)
        facade.register_tenant("acme", figure1_instance(4.0))
        serve(facade, [PlanRequest("acme")])
        entries = list((tmp_path / "serving-cache").glob("*.json"))
        assert entries, "the cold solve must have been cached"
        for entry in entries:
            payload = json.loads(entry.read_text())
            assert "certificate" not in payload["solution"]["meta"]

    def test_tampered_cache_payload_is_rejected(self, tmp_path):
        facade = make_facade(tmp_path)
        facade.register_tenant("acme", figure1_instance(4.0))
        serve(facade, [PlanRequest("acme")])
        (entry,) = (tmp_path / "serving-cache").glob("*.json")
        payload = json.loads(entry.read_text())
        payload["solution"]["utility"] = payload["solution"]["utility"] + 100.0
        entry.write_text(json.dumps(payload))

        (response,) = serve(facade, [PlanRequest("acme")])
        assert facade.counters.cache_rejected == 1
        assert facade.counters.cache_hits == 0
        assert facade.cache.stats.hits == 0  # a refused hit counts as a miss
        assert response.ok  # rejected hit falls back to a cold solve
        assert response.telemetry["cache"] == "rejected"
        assert response.solution.utility == 9.0
        verify_solution(
            figure1_instance(4.0), response.solution, response.solution.meta["certificate"]
        )
        # ...and the poisoned entry was overwritten with the good answer
        assert json.loads(entry.read_text())["solution"]["utility"] == 9.0

    def test_tampered_selection_is_rejected_too(self, tmp_path):
        facade = make_facade(tmp_path)
        facade.register_tenant("acme", figure1_instance(4.0))
        serve(facade, [PlanRequest("acme")])
        (entry,) = (tmp_path / "serving-cache").glob("*.json")
        payload = json.loads(entry.read_text())
        payload["solution"]["classifiers"].append(["x", "y"])  # C(XY) = inf
        entry.write_text(json.dumps(payload))
        (response,) = serve(facade, [PlanRequest("acme")])
        assert facade.counters.cache_rejected == 1
        assert response.ok and response.solution.utility == 9.0

    def test_non_object_cache_payload_is_a_cold_miss(self, tmp_path):
        trace = generate_trace(n_requests=40, n_tenants=4, seed=0, replan_fraction=0.0)
        reference = make_facade(tmp_path).replay(trace)
        entries = list((tmp_path / "serving-cache").glob("*.json"))
        assert entries
        for entry in entries:
            entry.write_text("[]")

        facade = make_facade(tmp_path)
        responses = facade.replay(trace)
        assert [r.request_id for r in responses if not r.ok] == []
        # Each unreadable entry misses once and is solved cold.
        assert facade.counters.cache_misses == facade.counters.solves == len(entries)
        assert [r.solution.classifiers for r in responses] == [
            r.solution.classifiers for r in reference
        ]
        for entry in entries:
            assert json.loads(entry.read_text())["version"] == CACHE_VERSION

    def test_no_cache_means_every_plan_solves_cold(self, tmp_path):
        facade = make_facade(tmp_path, cache=False)
        facade.register_tenant("acme", figure1_instance(4.0))
        serve(facade, [PlanRequest("acme")], [PlanRequest("acme")])
        assert facade.counters.solves == 2
        assert facade.counters.cache_hits == facade.counters.cache_misses == 0
        assert facade.counters.hit_rate() == 0.0

    @pytest.mark.parametrize("virtual", [True, False], ids=["virtual", "system"])
    def test_zipf_trace_is_certified_and_mostly_warm(self, tmp_path, virtual):
        """A 600-request Zipf trace on the full portfolio: no error
        responses, a certificate on every response, and the Zipf head
        served warm for at least half of the cache lookups.

        Cache keys are request content, so the hit rate does not depend
        on the clock; the system-clock leg asserts no timings.
        """
        trace = generate_trace(
            n_requests=600,
            n_tenants=8,
            seed=0,
            deadline_ms=20.0,
            replan_fraction=0.005,
            what_if_fraction=0.10,
            budget_levels=2,
        )
        facade = ServingFacade(
            ServingConfig(
                clock=tier_prior_clock() if virtual else None,
                cache=ResultCache(directory=tmp_path / "serving-cache"),
            )
        )
        responses = facade.replay(trace)
        assert [r.request_id for r in responses if not r.ok] == []
        for response in responses:
            certificate = response.solution.meta.get("certificate")
            assert certificate is not None, f"request {response.request_id} uncertified"
            assert frozenset(certificate.classifiers) == response.solution.classifiers
        assert facade.counters.hit_rate() >= 0.5


# ----------------------------------------------------------------------
# replan: warm mutation path
# ----------------------------------------------------------------------
class TestReplan:
    def test_replan_commits_and_bumps_the_version(self, tmp_path):
        facade = make_facade(tmp_path)
        facade.register_tenant("acme", figure1_instance(4.0))
        before = facade.tenant_version("acme")
        delta = WorkloadDelta.of(remove=[fs("xy")])
        (response,) = serve(facade, [ReplanRequest("acme", delta)])
        assert response.ok
        assert response.telemetry["path"] == "incremental"
        assert facade.tenant_version("acme") > before
        assert facade.counters.replans == 1

    def test_replan_matches_the_cold_solve_bit_for_bit(self, tmp_path):
        instance = random_instance(3, n_queries=8)
        delta = WorkloadDelta.of(remove=[list(instance.queries)[0]])
        facade = make_facade(tmp_path)
        facade.register_tenant("acme", instance)
        (warm,) = serve(facade, [ReplanRequest("acme", delta)])

        mutated = instance.clone()
        mutated.apply_delta(delta)
        cold = IncrementalSolver(mutated.clone(), config=IncrementalConfig(jobs=1)).solve()
        assert warm.solution.classifiers == cold.classifiers
        assert repr(warm.solution.cost) == repr(cold.cost)
        assert repr(warm.solution.utility) == repr(cold.utility)
        verify_solution(mutated, warm.solution, warm.solution.meta["certificate"])

    def test_replans_never_touch_the_result_cache(self, tmp_path):
        # A tenant's shard solves live only in its own profile store: the
        # façade's cache holds group answers, and re-plans neither read
        # nor write it.
        instance = generate_fragmented(3, 6, budget=1e6, seed=4)
        deltas = random_delta_stream(instance, steps=4, rng=random.Random(3), fraction=0.1)
        facade = make_facade(tmp_path)
        facade.register_tenant("acme", instance)
        reference = make_facade(tmp_path / "uncached", cache=False)
        reference.register_tenant("acme", instance)
        for delta in deltas:
            (response,) = serve(facade, [ReplanRequest("acme", delta)])
            (expected,) = serve(reference, [ReplanRequest("acme", delta)])
            assert response.ok, response.error
            assert response.solution.classifiers == expected.solution.classifiers
            assert repr(response.solution.cost) == repr(expected.solution.cost)
            assert repr(response.solution.utility) == repr(expected.solution.utility)
            verify_solution(
                facade._tenants["acme"].instance,
                response.solution,
                response.solution.meta["certificate"],
            )
        assert facade.cache.stats == CacheStats()
        assert not list((tmp_path / "serving-cache").glob("*"))

    def test_stale_replan_is_an_error_response(self, tmp_path):
        facade = make_facade(tmp_path)
        facade.register_tenant("acme", figure1_instance(4.0))
        delta = WorkloadDelta.of(remove=[fs("xy")])
        (response,) = serve(
            facade, [ReplanRequest("acme", delta, expected_version=999)]
        )
        assert not response.ok
        assert response.error == "StaleWorkloadError"
        # the workload was not mutated
        assert facade.tenant_version("acme") == 0

    def test_one_tenants_stale_replan_never_fails_another(self, tmp_path):
        facade = make_facade(tmp_path)
        facade.register_tenant("alpha", figure1_instance(4.0))
        facade.register_tenant("beta", figure1_instance(4.0))
        stale = ReplanRequest(
            "alpha", WorkloadDelta.of(remove=[fs("xy")]), expected_version=999
        )
        bad, good = serve(facade, [stale, PlanRequest("beta")])
        assert not bad.ok and bad.error == "StaleWorkloadError"
        assert good.ok and good.solution.utility == 9.0

    def test_failed_replan_commits_nothing(self, tmp_path, monkeypatch):
        # A re-plan that raises leaves the tenant's workload and version as
        # they were, so the same request can be retried as it stood.
        instance = generate_fragmented(3, 6, budget=1e6, seed=4)
        delta = random_delta(instance, random.Random(3), fraction=0.1)
        request = ReplanRequest("acme", delta, expected_version=0)
        facade = make_facade(tmp_path)
        facade.register_tenant("acme", instance)
        before = fingerprint_module.instance_fingerprint(facade._tenants["acme"].instance)

        def broken(*args, **kwargs):
            raise DecompositionError("injected recombination fault")

        with monkeypatch.context() as patch:
            patch.setattr(engine_module, "_check_composition", broken)
            (failed,) = serve(facade, [request])
        assert not failed.ok and failed.error == "DecompositionError"
        assert facade.tenant_version("acme") == 0
        after = fingerprint_module.instance_fingerprint(facade._tenants["acme"].instance)
        assert after == before

        (retried,) = serve(facade, [request])
        fresh = make_facade(tmp_path, cache=False)
        fresh.register_tenant("acme", instance)
        (expected,) = serve(fresh, [request])
        assert retried.ok, retried.error
        assert retried.solution.classifiers == expected.solution.classifiers
        assert repr(retried.solution.utility) == repr(expected.solution.utility)
        assert repr(retried.solution.cost) == repr(expected.solution.cost)

    def test_invalid_delta_is_an_error_response(self, tmp_path):
        facade = make_facade(tmp_path)
        facade.register_tenant("acme", figure1_instance(4.0))
        delta = WorkloadDelta.of(remove=[fs("zz")])  # no such query
        bad, good = serve(facade, [ReplanRequest("acme", delta), PlanRequest("acme")])
        assert not bad.ok and bad.error == "InvalidDeltaError"
        assert good.ok

    def test_replan_is_a_mutation_barrier_within_a_tick(self, tmp_path):
        instance = figure1_instance(4.0)
        facade = make_facade(tmp_path)
        facade.register_tenant("acme", instance)
        delta = WorkloadDelta.of(remove=[fs("xyz")])
        before, _replan, after = serve(
            facade,
            [PlanRequest("acme"), ReplanRequest("acme", delta), PlanRequest("acme")],
        )
        # the earlier plan answered the pre-delta workload...
        verify_solution(instance, before.solution, before.solution.meta["certificate"])
        assert before.solution.utility == 9.0
        # ...and the later plan the post-delta one
        mutated = instance.clone()
        mutated.apply_delta(delta)
        verify_solution(mutated, after.solution, after.solution.meta["certificate"])
        # with xyz (utility 8) gone, at most xz + xy = 3 remains
        assert after.solution.utility < 9.0


# ----------------------------------------------------------------------
# degenerate rows, across all engines
# ----------------------------------------------------------------------
class TestDegenerate:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_deadline_zero_still_returns_a_certified_answer(self, tmp_path, engine):
        with use_engine(engine):
            facade = make_facade(tmp_path / engine)
            facade.register_tenant("acme", figure1_instance(4.0))
            (response,) = serve(facade, [PlanRequest("acme", deadline_ms=0.0)])
            assert response.ok
            assert response.solution.cost <= 4.0
            assert "certificate" in response.solution.meta
            verify_solution(
                figure1_instance(4.0),
                response.solution,
                response.solution.meta["certificate"],
            )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_empty_workloads_never_reach_the_facade(self, tmp_path, engine):
        with use_engine(engine):
            with pytest.raises(InvalidInstanceError):
                BCCInstance([], {}, {}, budget=1.0)
            facade = make_facade(tmp_path / engine)
            with pytest.raises(ValueError, match="BCCInstance"):
                facade.register_tenant("acme", None)

    def test_zero_budget_plan_serves_free_coverage_only(self, tmp_path):
        facade = make_facade(tmp_path)
        facade.register_tenant("acme", figure1_instance(4.0))
        (response,) = serve(facade, [PlanRequest("acme", budget=0.0)])
        assert response.ok
        assert response.solution.cost == 0.0

    def test_tick_with_no_requests_is_a_no_op(self, tmp_path):
        facade = make_facade(tmp_path)
        responses = serve(facade, [])
        assert responses == []
        assert facade.counters.responses == 0


class TestFingerprintWork:
    """Warm reads encode each tenant workload once per version.

    Counted through wrappers, never timed: the workload's payload memo
    serves every plan and budget-only what-if of a tenant version, and a
    coalesced group reuses the key its requests were grouped under.
    """

    def test_tokens_once_per_tenant_version_and_one_key_per_request(
        self, tmp_path, monkeypatch
    ):
        trace = generate_trace(
            n_requests=60, n_tenants=3, seed=1, replan_fraction=0.0, what_if_fraction=0.3
        )
        delta = WorkloadDelta.of(add={frozenset({"memo-probe"}): 5.0})
        last = trace.items[-1]
        for offset, budget in enumerate((None, 30.0), start=1):
            request = WhatIfRequest("tenant000", budget=budget, delta=delta)
            trace.items.append(TraceItem(last.seq + offset, last.arrival_s, request))
        streams, keys = [], []
        real_tokens = fingerprint_module.workload_tokens
        real_key = facade_module.task_fingerprint

        def counting_tokens(workload):
            tokens = real_tokens(workload)
            streams.append(tuple(tokens))
            return tokens

        def counting_key(*args, **kwargs):
            keys.append(args[0])
            return real_key(*args, **kwargs)

        monkeypatch.setattr(fingerprint_module, "workload_tokens", counting_tokens)
        monkeypatch.setattr(facade_module, "task_fingerprint", counting_key)
        facade = make_facade(tmp_path)
        responses = facade.replay(trace)

        assert all(response.ok for response in responses)
        assert facade.counters.replans == 0 and facade.counters.solves > 0
        assert len(keys) == len(trace)
        hypothetical = trace.tenants["tenant000"].clone()
        hypothetical.apply_delta(delta)
        expected = [tuple(real_tokens(instance)) for instance in trace.tenants.values()]
        expected += [tuple(real_tokens(hypothetical))] * 2
        assert sorted(streams) == sorted(expected)


# ----------------------------------------------------------------------
# determinism: the replay contract
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_trace_replays_byte_identical_across_runs(self):
        trace = generate_trace(n_requests=30, n_tenants=3, seed=3, deadline_ms=60.0)
        assert canonical_replay(trace) == canonical_replay(trace)

    def test_trace_replays_byte_identical_across_worker_counts(self):
        trace = generate_trace(n_requests=30, n_tenants=3, seed=3, deadline_ms=60.0)
        assert canonical_replay(trace, jobs=1) == canonical_replay(trace, jobs=2)

    @pytest.mark.parametrize("engine", [e for e in ENGINES if e != "sets"])
    def test_trace_replays_byte_identical_across_engines(self, engine):
        trace = generate_trace(n_requests=25, n_tenants=2, seed=6, deadline_ms=60.0)
        with use_engine("sets"):
            baseline = canonical_replay(trace)
        with use_engine(engine):
            assert canonical_replay(trace) == baseline

    def test_full_portfolio_replay_is_deterministic(self):
        from repro.slo.meta import DEFAULT_ARMS

        trace = generate_trace(n_requests=15, n_tenants=2, seed=8, deadline_ms=80.0)
        one = canonical_replay(trace, arms=DEFAULT_ARMS)
        two = canonical_replay(trace, arms=DEFAULT_ARMS)
        assert one == two

    def test_replay_preserves_trace_order(self, tmp_path):
        trace = generate_trace(n_requests=20, n_tenants=2, seed=1, deadline_ms=50.0)
        facade = make_facade(tmp_path)
        responses = facade.replay(trace)
        assert [response.request_id for response in responses] == [
            item.seq for item in trace.items
        ]

    def test_replay_advances_the_virtual_clock(self, tmp_path):
        trace = generate_trace(n_requests=10, n_tenants=2, seed=1, deadline_ms=50.0)
        facade = make_facade(tmp_path)
        facade.replay(trace)
        assert facade.clock.now() >= max(item.arrival_s for item in trace.items)

    @given(trace=request_streams())
    @settings(max_examples=8, deadline=None)
    def test_metamorphic_served_twice_and_wider_is_identical(self, trace):
        first = canonical_replay(trace)
        assert canonical_replay(trace) == first
        assert canonical_replay(trace, jobs=2) == first


# ----------------------------------------------------------------------
# the tier-prior virtual clock
# ----------------------------------------------------------------------
class TestTierPriorClock:
    def test_tasks_charge_their_registry_tier(self):
        clock = tier_prior_clock()
        result, seconds = clock.run_task(
            types.SimpleNamespace(solver="abcc"), lambda: "done"
        )
        assert result == "done"
        assert seconds == pytest.approx(0.05)
        assert clock.now() == pytest.approx(0.05)

    def test_unknown_solvers_charge_nothing(self):
        clock = tier_prior_clock()
        clock.run_task(types.SimpleNamespace(solver="no-such-arm"), lambda: None)
        clock.run_task(types.SimpleNamespace(solver=None), lambda: None)
        assert clock.now() == 0.0

    def test_clock_is_virtual_and_starts_where_asked(self):
        clock = tier_prior_clock(start=7.5)
        assert clock.virtual and clock.now() == 7.5


# ----------------------------------------------------------------------
# the CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_generated_trace_report(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = serving_main(
            [
                "--requests", "20", "--tenants", "2", "--seed", "4",
                "--deadline-ms", "60", "--virtual",
                "--cache-dir", str(tmp_path / "cache"),
                "--json", str(report_path),
            ]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["requests"] == 20
        assert report["errors"] == 0
        assert report["virtual"] is True
        assert 0.0 <= report["cache"]["hit_rate"] <= 1.0
        assert report["latency_s"]["p99"] >= report["latency_s"]["p50"] >= 0.0
        out = capsys.readouterr().out
        assert "served 20 requests" in out and "virtual clock" in out

    def test_saved_trace_replays_identically(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        report_a = tmp_path / "a.json"
        report_b = tmp_path / "b.json"
        args = ["--deadline-ms", "60", "--virtual"]
        assert (
            serving_main(
                ["--requests", "15", "--tenants", "2", "--seed", "2",
                 "--save-trace", str(trace_path), "--json", str(report_a), *args]
            )
            == 0
        )
        assert (
            serving_main(["--trace", str(trace_path), "--json", str(report_b), *args])
            == 0
        )
        assert json.loads(report_a.read_text()) == json.loads(report_b.read_text())

    def test_no_cache_flag_disables_the_warm_path(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = serving_main(
            ["--requests", "10", "--tenants", "2", "--deadline-ms", "60",
             "--virtual", "--no-cache", "--json", str(report_path)]
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["cache"]["hits"] == report["cache"]["misses"] == 0
