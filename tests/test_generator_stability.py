"""Cross-version stability of the dataset generators and the solvers' answers.

Experiments and EXPERIMENTS.md quote numbers for specific seeds; these
tests pin the generators' aggregate outputs so an accidental change to a
generator (which would silently invalidate every quoted number) fails
loudly.  If you change a generator *intentionally*, update the pinned
values and regenerate EXPERIMENTS.md's measurements.  The same holds for
the answer digests of :class:`TestPinnedAnswers`: a change that moves an
answer on purpose re-records them and says so.
"""

import hashlib
import json

import pytest

from repro.core.model import BCCInstance, GMC3Instance
from repro.datasets import generate_bestbuy, generate_private, generate_synthetic
from repro.datasets.fragmented import generate_fragmented
from repro.mc3 import full_cover_cost
from repro.parallel.cache import ResultCache
from repro.parallel.registry import get_solver
from repro.qk import QKConfig, solve_qk, solve_qk_taylor
from repro.serving import ServingConfig, ServingFacade, generate_trace, tier_prior_clock
from repro.simulation import CatalogConfig, generate_catalog
from tests.test_qk import random_qk_graph


class TestPinnedAggregates:
    def test_bestbuy_seed1(self):
        instance = generate_bestbuy(n_queries=200, n_properties=220, seed=1)
        assert instance.num_queries == 200
        assert instance.total_utility() == pytest.approx(329.0)
        assert len(instance.properties) == 178

    def test_private_seed3(self):
        instance = generate_private(n_queries=200, n_properties=320, seed=3)
        assert instance.num_queries == 200
        assert instance.total_utility() == pytest.approx(2019.0)
        assert instance.length_histogram()[1] == 110

    def test_synthetic_seed5(self):
        instance = generate_synthetic(n_queries=200, n_properties=150, seed=5)
        assert instance.num_queries == 200
        assert instance.total_utility() == pytest.approx(4833.0)
        assert instance.length == 6


# ----------------------------------------------------------------------
# answers pinned across commits
# ----------------------------------------------------------------------
def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]


def _selection_digest(solution) -> str:
    return _digest(
        [
            sorted(sorted(classifier) for classifier in solution.classifiers),
            repr(solution.cost),
            repr(solution.utility),
        ]
    )


_PINNED_WORKLOADS = {
    "synthetic": lambda: generate_synthetic(n_queries=40, n_properties=30, seed=0),
    "private": lambda: generate_private(n_queries=60, n_properties=40, seed=3),
    "fragmented": lambda: generate_fragmented(
        n_components=3, queries_per_component=6, properties_per_component=6, seed=3
    ),
}


def _pinned_instance(name: str) -> BCCInstance:
    instance = _PINNED_WORKLOADS[name]()
    return instance.with_budget(round(0.3 * full_cover_cost(instance)))


class TestPinnedAnswers:
    """Answer digests recorded at an earlier commit.

    Most equality tests compare two answers computed in one process, so a
    change that moves every answer alike passes them.  These digests pin
    the answers themselves, from the registry arms down to the generators:
    a change that claims identical answers must keep them.  Tier-1 runs under a random hash
    seed, and some answers still depend on it, so each case here gave one
    digest under every ``PYTHONHASHSEED`` from 0 to 31 when recorded.
    """

    @pytest.mark.parametrize(
        "arm, workload, expected",
        [
            ("abcc", "synthetic", "21693f3848b36799"),
            ("abcc-pruned", "synthetic", "234c3d3e137e3f49"),
            ("abcc-unpruned", "synthetic", "21693f3848b36799"),
            ("abcc", "private", "0267ac60e867d079"),
            ("abcc", "fragmented", "32b3b6ff4007e039"),
            ("abcc-sharded", "fragmented", "2e9ebe12e34d7c56"),
        ],
    )
    def test_registry_bcc_arm(self, arm, workload, expected):
        solution = get_solver(arm)(_pinned_instance(workload), 0)
        assert _selection_digest(solution) == expected

    def test_registry_gmc3_arm(self):
        instance = _PINNED_WORKLOADS["fragmented"]()
        view = GMC3Instance(
            instance.queries,
            {query: instance.utility(query) for query in instance.queries},
            {c: instance.cost(c) for c in instance.relevant_classifiers()},
            target=round(0.5 * instance.total_utility(), 6),
        )
        assert _selection_digest(get_solver("agmc3")(view, 0)) == "ff3b9db87090ad5d"

    @pytest.mark.parametrize(
        "seed, budget, heuristic, taylor",
        [
            (0, 6.0, "16860f981f9bd647", "f2fb39a74ec47845"),
            (0, 15.0, "32b6dd4b9ff4fc8e", "1400b08e671a2cbe"),
            (1, 6.0, "a9db9155c2a8394f", "b172c1159360ac0b"),
            (1, 15.0, "27080ea7b60207cf", "e94a03d8c10a86e0"),
        ],
    )
    def test_qk_solvers(self, seed, budget, heuristic, taylor):
        graph = random_qk_graph(seed, n=30, p=0.3, max_cost=8)
        assert _digest(sorted(solve_qk(graph, budget, QKConfig(seed=seed)))) == heuristic
        assert _digest(sorted(solve_qk_taylor(graph, budget, seed=seed))) == taylor

    def test_catalog(self):
        catalog = generate_catalog(CatalogConfig(n_items=300, n_properties=25), seed=4)
        # Which latent properties get listed follows the hash seed (the
        # generator walks each item's latent set); how many does not.
        items = [[sorted(item.latent), len(item.listed)] for item in catalog.items]
        assert _digest(items) == "51bc33fe69e581cb"

    def test_serving_replay_with_replans(self, tmp_path):
        trace = generate_trace(n_requests=24, n_tenants=3, seed=2, replan_fraction=0.2)
        facade = ServingFacade(
            ServingConfig(
                arms=("abcc",),
                clock=tier_prior_clock(),
                cache=ResultCache(directory=tmp_path),
            )
        )
        responses = facade.replay(trace)
        assert facade.counters.replans > 0
        assert _digest([response.canonical() for response in responses]) == "5f73ce591d418bdf"
