"""Tests for the incremental coverage engine.

Covers the checkpoint/rollback undo log (round trips must restore
selected / covered / utility / spent / missing sets bit-identically),
incremental ``remove`` / ``reset`` / ``spent``, the engine telemetry
counters (``evaluate_gain`` must not construct trackers), and the
cover-greedy parking fix (unaffordable covers are re-queued with
recomputed costs instead of being dropped).
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.bcc import _cover_greedy_pick
from repro.algorithms.residual import ResidualProblem
from repro.core import BCCInstance, CoverageTracker, from_letters as fs
from repro.core.bitset import ENGINES, use_engine
from repro.datasets.synthetic import generate_synthetic
from tests.strategies import solvable_instances, wide_bcc_instances


def _rebuild_gain(residual, classifiers):
    """Reference gain: a fresh tracker rebuilt from the current selection.

    :meth:`ResidualProblem.evaluate_gain` must return the same
    ``(utility gain, cost)`` from its in-place probe.
    """
    addition = [c for c in classifiers if c not in residual.tracker.selected]
    cost = sum(residual.workload.cost(c) for c in addition)
    probe = CoverageTracker(residual.workload)
    probe.add_all(residual.tracker.selected)
    before = probe.utility
    probe.add_all(addition)
    return probe.utility - before, cost


def _snapshot(tracker):
    """Full observable state of a tracker, missing sets included."""
    workload = tracker._workload
    return (
        tracker.selected,
        tracker.covered,
        tracker.utility,
        tracker.spent,
        {q: tracker.missing_properties(q) for q in workload.queries},
    )


class TestCheckpointRollback:
    @given(instance=solvable_instances(max_queries=8))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_bit_identical(self, instance):
        classifiers = sorted(instance.relevant_classifiers(), key=sorted)
        split = len(classifiers) // 2
        tracker = CoverageTracker(instance)
        tracker.add_all(classifiers[:split])
        before = _snapshot(tracker)
        tracker.checkpoint()
        tracker.add_all(classifiers[split:])
        tracker.rollback()
        assert _snapshot(tracker) == before

    @given(instance=wide_bcc_instances(max_queries=80))
    @settings(max_examples=10, deadline=None)
    def test_round_trip_bit_identical_wide_universe(self, instance):
        """The same round trip on the multi-word wide-property regime."""
        classifiers = sorted(instance.relevant_classifiers(), key=sorted)
        tracker = CoverageTracker(instance)
        tracker.add_all(classifiers[::3])
        before = _snapshot(tracker)
        tracker.checkpoint()
        tracker.add_all(classifiers[1::3])
        tracker.rollback()
        assert _snapshot(tracker) == before

    def test_nested_checkpoints(self, fig1_b11):
        tracker = CoverageTracker(fig1_b11)
        tracker.add(fs("yz"))
        base = _snapshot(tracker)
        tracker.checkpoint()
        tracker.add(fs("x"))
        middle = _snapshot(tracker)
        tracker.checkpoint()
        tracker.add_all([fs("y"), fs("z")])
        tracker.rollback()
        assert _snapshot(tracker) == middle
        tracker.rollback()
        assert _snapshot(tracker) == base

    def test_rollback_without_checkpoint_raises(self, fig1_b4):
        tracker = CoverageTracker(fig1_b4)
        with pytest.raises(RuntimeError):
            tracker.rollback()

    def test_rollback_counter_increments(self, fig1_b4):
        tracker = CoverageTracker(fig1_b4)
        assert tracker.rollbacks == 0
        tracker.checkpoint()
        tracker.add(fs("yz"))
        tracker.rollback()
        assert tracker.rollbacks == 1

    def test_re_adding_selected_survives_rollback(self, fig1_b4):
        # Re-adding an already-selected classifier inside a checkpoint is a
        # no-op, so the rollback must not deselect it.
        tracker = CoverageTracker(fig1_b4)
        tracker.add(fs("yz"))
        tracker.checkpoint()
        tracker.add(fs("yz"))
        tracker.add(fs("xz"))
        tracker.rollback()
        assert tracker.selected == frozenset({fs("yz")})


class TestRemoveAndReset:
    @given(instance=solvable_instances(max_queries=8), pick=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_remove_matches_rebuild(self, instance, pick):
        classifiers = sorted(instance.relevant_classifiers(), key=sorted)[:8]
        tracker = CoverageTracker(instance)
        tracker.add_all(classifiers)
        removed = classifiers[pick % len(classifiers)]
        tracker.remove(removed)
        rebuilt = CoverageTracker(instance)
        rebuilt.add_all(c for c in classifiers if c != removed)
        assert _snapshot(tracker) == _snapshot(rebuilt)

    def test_remove_inside_checkpoint_raises(self, fig1_b4):
        tracker = CoverageTracker(fig1_b4)
        tracker.add(fs("yz"))
        tracker.checkpoint()
        with pytest.raises(RuntimeError):
            tracker.remove(fs("yz"))

    def test_remove_unselected_is_noop(self, fig1_b4):
        tracker = CoverageTracker(fig1_b4)
        tracker.add(fs("yz"))
        before = _snapshot(tracker)
        assert tracker.remove(fs("xz")) == []
        assert _snapshot(tracker) == before

    def test_remove_reports_uncovered(self, fig1_b4):
        tracker = CoverageTracker(fig1_b4)
        tracker.add_all([fs("yz"), fs("xz")])
        uncovered = tracker.remove(fs("xz"))
        assert set(uncovered) == {fs("xyz"), fs("xz")}
        assert tracker.missing_properties(fs("xyz")) == frozenset("x")

    def test_remove_infinite_cost_recomputes_spent(self):
        instance = BCCInstance(
            [fs("xy")],
            costs={fs("x"): 2.0, fs("y"): 3.0, fs("xy"): math.inf},
            budget=5.0,
        )
        tracker = CoverageTracker(instance)
        tracker.add_all([fs("x"), fs("y"), fs("xy")])
        assert math.isinf(tracker.spent)
        tracker.remove(fs("xy"))
        assert tracker.spent == 5.0

    def test_reset_restores_pristine(self, fig1_b11):
        tracker = CoverageTracker(fig1_b11)
        pristine = _snapshot(tracker)
        constructed = CoverageTracker.constructed
        tracker.add_all([fs("yz"), fs("x"), fs("y")])
        tracker.reset()
        assert _snapshot(tracker) == pristine
        assert CoverageTracker.constructed == constructed

    def test_spent_tracks_incrementally(self, fig1_b11):
        tracker = CoverageTracker(fig1_b11)
        assert tracker.spent == 0.0
        tracker.add(fs("yz"))
        assert tracker.spent == 0.0
        tracker.add(fs("x"))
        assert tracker.spent == 5.0
        tracker.add(fs("x"))  # re-add: no double charge
        assert tracker.spent == 5.0

    def test_contributors(self, fig1_b11):
        tracker = CoverageTracker(fig1_b11)
        tracker.add_all([fs("yz"), fs("x"), fs("xz")])
        assert tracker.contributors(fs("xyz")) == frozenset(
            {fs("yz"), fs("x"), fs("xz")}
        )
        assert tracker.contributors(fs("xy")) == frozenset({fs("x")})


class TestEngineCounters:
    def test_evaluate_gain_constructs_no_tracker(self, fig1_b11):
        residual = ResidualProblem(fig1_b11)
        residual.select([fs("yz")])
        constructed = CoverageTracker.constructed
        gain, cost = residual.evaluate_gain([fs("x")])
        assert CoverageTracker.constructed == constructed
        assert residual.stats["rebuilds_avoided"] == 1
        assert residual.tracker.rollbacks == 1
        # X completes xyz (utility 8) via YZ ∪ X; xz and xy stay uncovered.
        assert (gain, cost) == (8.0, 5.0)

    def test_evaluate_gain_matches_rebuild(self, fig1_b11):
        """Every engine, two cases: Figure 1 with hand-picked trials, and
        single and slate probes of the synthetic classifiers in the most
        queries.  Their long inverted-index rows send ``bits`` probes
        through the transposed kernel, where slate members share
        properties.
        """
        synthetic = generate_synthetic(300, 30, budget=300.0, seed=0)
        pool = sorted(
            synthetic.feasible_classifiers(),
            key=lambda c: (-len(synthetic.queries_containing(c)), sorted(c)),
        )[:40]
        rng = random.Random(0)
        cases = [
            (fig1_b11, [fs("yz")], [[fs("x")], [fs("xz")], [fs("x"), fs("y")], []]),
            (
                synthetic,
                pool[:3],
                [[c] for c in pool] + [rng.sample(pool, 8) for _ in range(20)],
            ),
        ]
        for engine in ENGINES:
            with use_engine(engine):
                for instance, selected, trials in cases:
                    residual = ResidualProblem(instance)
                    residual.select(selected)
                    for trial in trials:
                        assert residual.evaluate_gain(trial) == _rebuild_gain(
                            residual, trial
                        ), engine

    def test_evaluate_gain_leaves_state_untouched(self, fig1_b11):
        residual = ResidualProblem(fig1_b11)
        residual.select([fs("yz")])
        before = _snapshot(residual.tracker)
        residual.evaluate_gain([fs("x"), fs("y"), fs("z")])
        assert _snapshot(residual.tracker) == before

    def test_profiler_reports_engine_counters(self, fig1_b11):
        from repro.algorithms.bcc import solve_bcc
        from repro.profile import PhaseProfiler, activate

        with activate(PhaseProfiler()) as prof:
            solve_bcc(fig1_b11)
        assert prof.counts["rebuilds_avoided"] > 0
        assert prof.counts["tracker_probes"] >= prof.counts["rebuilds_avoided"]
        assert prof.calls["qk_build"] >= 1


class TestCoverGreedyParking:
    def test_parked_cover_bought_after_member_freed(self, monkeypatch):
        """A cover popped while unaffordable must be re-queued, not dropped.

        With an exact cover oracle an unaffordable cover can never become
        affordable within one call (each purchase lowers a parked cover's
        cost by at most the amount it spends), so the scenario is staged
        with an oracle whose first estimates for the long query are
        inflated — the structural situation an approximate or stale cover
        search produces.  The old implementation dropped the entry on the
        unaffordable pop and never bought the cover; the parked entry must
        be re-validated after the next purchase, when the earlier pick has
        made member ``a`` free and the 3-classifier cover affordable.
        """
        import repro.mc3.greedy as greedy_module

        q_short = fs("ab")
        q_long = fs("acd")
        instance = BCCInstance(
            [q_short, q_long],
            {q_short: 10.0, q_long: 1000.0},
            costs={
                fs("a"): 2.0,
                fs("b"): 2.0,
                fs("c"): 2.0,
                fs("d"): 2.0,
                fs("ab"): math.inf,
                fs("ac"): math.inf,
                fs("ad"): math.inf,
                fs("cd"): math.inf,
                fs("acd"): math.inf,
            },
            budget=8.0,
        )
        real_oracle = greedy_module.cheapest_residual_cover
        long_query_calls = {"count": 0}

        def staged_oracle(query, candidates, covered_props, compiled=None):
            if query == q_long:
                long_query_calls["count"] += 1
                if long_query_calls["count"] <= 2:
                    # Heap build + first pop: overestimate, so the entry is
                    # popped as unaffordable (100 > budget) and parked.
                    return 100.0, frozenset({fs("a"), fs("c"), fs("d")})
            return real_oracle(query, candidates, covered_props, compiled)

        monkeypatch.setattr(
            greedy_module, "cheapest_residual_cover", staged_oracle
        )
        residual = ResidualProblem(instance)
        picked = _cover_greedy_pick(residual, instance.budget)
        # {a, b} bought for q_short first (4.0), freeing member a; the
        # parked q_long entry re-validates to the residual cover {c, d}
        # (4.0 <= remaining 4.0) and is bought.
        assert picked == frozenset({fs("a"), fs("b"), fs("c"), fs("d")})

    def test_unaffordable_cover_never_bought_when_nothing_frees_it(self):
        instance = BCCInstance(
            [fs("ab"), fs("cd")],
            {fs("ab"): 10.0, fs("cd"): 1.0},
            costs={
                fs("a"): 2.0,
                fs("b"): 2.0,
                fs("c"): 4.0,
                fs("d"): 4.0,
                fs("ab"): math.inf,
                fs("cd"): math.inf,
                fs("ac"): math.inf,
                fs("ad"): math.inf,
                fs("bc"): math.inf,
                fs("bd"): math.inf,
            },
            budget=6.0,
        )
        residual = ResidualProblem(instance)
        picked = _cover_greedy_pick(residual, instance.budget)
        # cd's cover costs 8 and shares nothing with ab's; parking must not
        # buy it or loop forever.
        assert picked == frozenset({fs("a"), fs("b")})
