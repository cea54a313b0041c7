"""Engine-identity suite: the ``bits`` backend against the ``sets`` reference.

Promoted from ``test_bitset.py`` (which keeps the bits-specific
compilation-layer tests) and parametrized over every non-reference
engine in ``ENGINES``:

- tracker trace differentials — add / probe / checkpoint / rollback /
  remove / reset traces must match the ``sets`` reference snapshot for
  snapshot, float for float;
- checkpoint/rollback replay equivalence — a rolled-back tracker must be
  indistinguishable from one that never took the detour;
- incremental transpose maintenance — the live probe transpose must stay
  identical to a cold rebuild under any mutation interleaving;
- every arm of the solver registry (``default_arms()``) on each seeded
  corpus case it applies to (``arm_view``), identical
  utilities/costs/selections across all engines.

Wide-universe instances (hundreds of properties, short plans, so masks
span several 64-bit words) come from
:func:`tests.strategies.wide_bcc_instances`.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BCCInstance, CoverageTracker, from_letters as fs
from repro.core.bitset import ENGINES, compile_workload, use_engine
from repro.core.coverage import (
    BitsetCoverageTracker,
    SetCoverageTracker,
    covered_queries,
)
from repro.verify.corpus import corpus
from repro.verify.differential import arm_view, default_arms
from tests.strategies import solvable_instances, wide_bcc_instances


def _fig1() -> BCCInstance:
    import math

    queries = [fs("xyz"), fs("xz"), fs("xy")]
    utilities = {fs("xyz"): 8.0, fs("xz"): 1.0, fs("xy"): 2.0}
    costs = {
        fs("x"): 5.0,
        fs("y"): 3.0,
        fs("z"): 3.0,
        fs("xyz"): 3.0,
        fs("xz"): 4.0,
        fs("yz"): 0.0,
        fs("xy"): math.inf,
    }
    return BCCInstance(queries, utilities, costs, budget=4.0)


def _snapshot(tracker, workload):
    return (
        tracker.selected,
        tracker.covered,
        tracker.utility,
        tracker.spent,
        {q: tracker.missing_properties(q) for q in workload.queries},
    )


def _clone(instance: BCCInstance) -> BCCInstance:
    """A fresh instance (fresh compiled caches) with equal content."""
    return BCCInstance(
        list(instance.queries),
        {q: instance.utility(q) for q in instance.queries},
        {c: instance.cost(c) for c in instance.relevant_classifiers()},
        budget=instance.budget,
        default_utility=instance.default_utility,
        default_cost=instance.default_cost,
    )


# ----------------------------------------------------------------------
# dispatch
# ----------------------------------------------------------------------
class TestEngineDispatch:
    def test_tracker_dispatch_per_engine(self):
        instance = _fig1()
        with use_engine("sets"):
            assert not isinstance(CoverageTracker(instance), BitsetCoverageTracker)
        with use_engine("bits"):
            tracker = CoverageTracker(instance)
        assert type(tracker) is BitsetCoverageTracker
        assert tracker.engine_name == "bits"

    @settings(max_examples=10, deadline=None)
    @given(instance=wide_bcc_instances())
    def test_wide_universe_spans_multiple_words(self, instance):
        """The wide strategy must give ``bits`` masks wider than one word."""
        assert len(compile_workload(instance).space) > 64


# ----------------------------------------------------------------------
# tracker trace differential, every engine vs the sets reference
# ----------------------------------------------------------------------
class TestTrackerTraceDifferential:
    def _differential_trace(self, instance, engine):
        pool = sorted(instance.relevant_classifiers(), key=sorted)[:12]
        with use_engine("sets"):
            reference = SetCoverageTracker(instance)
        with use_engine(engine):
            candidate = CoverageTracker(instance)
        trackers = (reference, candidate)

        def check():
            assert _snapshot(reference, instance) == _snapshot(candidate, instance)

        check()
        for classifier in pool[:4] + pool[:1]:
            assert reference.add(classifier) == candidate.add(classifier)
            check()
        # ``* 3`` repeats one classifier within a slate, selected or not.
        for slate in (
            pool[4:8], pool[:2], pool[:1] * 3, pool[4:5] * 3, [frozenset()], []
        ):
            assert reference.probe_gain(slate) == candidate.probe_gain(slate)
            check()
        for classifier in pool:
            assert (
                reference.uncovered_contained_utility(classifier)
                == candidate.uncovered_contained_utility(classifier)
            )
        for tracker in trackers:
            tracker.checkpoint()
        for classifier in pool[4:8]:
            assert reference.add(classifier) == candidate.add(classifier)
            check()
        for tracker in trackers:
            tracker.rollback()
        check()
        for classifier in pool[:2]:
            assert reference.remove(classifier) == candidate.remove(classifier)
            check()
        for tracker in trackers:
            tracker.reset()
        check()

    @pytest.mark.parametrize("engine", ENGINES[1:])
    @settings(max_examples=30, deadline=None)
    @given(instance=solvable_instances(max_queries=5))
    def test_identical_traces_dense(self, engine, instance):
        self._differential_trace(instance, engine)

    @pytest.mark.parametrize("engine", ENGINES[1:])
    @settings(max_examples=15, deadline=None)
    @given(instance=wide_bcc_instances())
    def test_identical_traces_wide(self, engine, instance):
        self._differential_trace(instance, engine)

    @pytest.mark.parametrize("engine", ENGINES[1:])
    @settings(max_examples=15, deadline=None)
    @given(instance=wide_bcc_instances())
    def test_rollback_replay_equivalence(self, engine, instance):
        """A rolled-back tracker equals one that never took the detour."""
        pool = sorted(instance.relevant_classifiers(), key=sorted)
        split = len(pool) // 3
        with use_engine(engine):
            detoured = CoverageTracker(instance)
            straight = CoverageTracker(instance)
        detoured.add_all(pool[:split])
        straight.add_all(pool[:split])
        detoured.checkpoint()
        detoured.add_all(pool[split : 2 * split])
        detoured.rollback()
        assert _snapshot(detoured, instance) == _snapshot(straight, instance)
        # Post-rollback probes see no residue of the rolled-back adds.
        slate = pool[2 * split : 2 * split + 4]
        assert detoured.probe_gain(slate) == straight.probe_gain(slate)

    @pytest.mark.parametrize("engine", ENGINES)
    @settings(max_examples=10, deadline=None)
    @given(instance=wide_bcc_instances())
    def test_covered_queries_wide(self, engine, instance):
        pool = sorted(instance.relevant_classifiers(), key=sorted)
        with use_engine("sets"):
            expected = covered_queries(instance, pool[::3])
        with use_engine(engine):
            assert covered_queries(_clone(instance), pool[::3]) == expected


# ----------------------------------------------------------------------
# incremental transpose maintenance
# ----------------------------------------------------------------------
class TestIncrementalTranspose:
    """The property → still-missing-query transpose must be *maintained*.

    After any interleaving of add / remove / checkpoint / rollback the
    live ``_t_by_prop`` / ``_t_uncovered`` state must be bitmap-identical
    to a cold rebuild from the missing masks — zero entries deleted, the
    uncovered mask exact — with the rebuild counter still at the single
    initial build.  That is the A^BCC picks-loop invariant; perfbench
    reports the same counter per op as ``core.coverage.transpose_rebuilds``.
    """

    def _check_against_cold(self, tracker):
        live_by_prop = dict(tracker._t_by_prop)
        live_uncovered = tracker._t_uncovered
        rebuilds = tracker.transpose_rebuilds
        tracker._t_by_prop = None
        cold_by_prop, cold_uncovered = tracker._transpose()
        assert live_by_prop == cold_by_prop
        assert live_uncovered == cold_uncovered
        # The verification's own forced rebuild is not the tracker's doing.
        tracker.transpose_rebuilds = rebuilds

    def _interleave(self, instance, engine, seed, steps=40):
        pool = sorted(instance.relevant_classifiers(), key=sorted)[:10]
        if not pool:
            return
        rng = random.Random(seed)
        with use_engine(engine):
            tracker = CoverageTracker(instance)
        # Force the one cold build: the heuristic may route short probes
        # through row replay, which never builds the transpose.
        tracker._transpose()
        baseline = tracker.transpose_rebuilds
        depth = 0
        for _ in range(steps):
            op = rng.randrange(5)
            if op <= 1:
                tracker.add(rng.choice(pool))
            elif op == 2 and depth:
                tracker.rollback()
                depth -= 1
            elif op == 3 and not depth and tracker.selected:
                tracker.remove(rng.choice(sorted(tracker.selected, key=sorted)))
            elif depth < 3:
                tracker.checkpoint()
                depth += 1
            self._check_against_cold(tracker)
        while depth:
            tracker.rollback()
            depth -= 1
            self._check_against_cold(tracker)
        assert tracker.transpose_rebuilds == baseline

    @pytest.mark.parametrize("engine", ENGINES[1:])
    @settings(max_examples=25, deadline=None)
    @given(instance=solvable_instances(max_queries=5), seed=st.integers(0, 2**16))
    def test_matches_cold_rebuild_dense(self, engine, instance, seed):
        self._interleave(instance, engine, seed)

    @pytest.mark.parametrize("engine", ENGINES[1:])
    @settings(max_examples=10, deadline=None)
    @given(instance=wide_bcc_instances(), seed=st.integers(0, 2**16))
    def test_matches_cold_rebuild_wide(self, engine, instance, seed):
        self._interleave(instance, engine, seed, steps=25)


# ----------------------------------------------------------------------
# solver arms on the corpus, all engines (promoted from test_bitset.py)
# ----------------------------------------------------------------------
#: Each arm the harness ran before it read the registry keeps the case id
#: it had then, so an id names the same check from commit to commit;
#: later arms are ided by registry name.
_FORMER_IDS = {
    "abcc": "A^BCC",
    "abcc-sharded": "A^BCC-sharded",
    "bcc-exact": "brute-force",
    "rand-bcc": "RAND",
    "ig1-bcc": "IG1",
    "ig2-bcc": "IG2",
    "shared-costs-bcc": "shared-costs[d=0]",
    "partial-cover-bcc": "partial-cover[step]",
    "agmc3": "A^GMC3",
    "rand-gmc3": "RAND(G)",
    "ig1-gmc3": "IG1(G)",
    "ig2-gmc3": "IG2(G)",
    "aecc": "A^ECC",
    "rand-ecc": "RAND(E)",
    "ig1-ecc": "IG1(E)",
    "ig2-ecc": "IG2(E)",
}


def _arm_cases():
    cases = corpus(seeds=range(2))
    for arm in default_arms():
        label = _FORMER_IDS.get(arm.name, arm.name)
        for case in cases:
            yield pytest.param(arm, case, id=f"{label}-{case.name}")


@pytest.mark.parametrize("arm,case", _arm_cases())
def test_every_solver_arm_is_engine_identical(arm, case):
    """Every registry arm: sets vs bits."""
    view = arm_view(arm, case.instance)
    if view is None:
        pytest.skip(f"{arm.name} not applicable to {case.name}")
    outcomes = {}
    for engine in ENGINES:
        with use_engine(engine):
            solution = arm.run(view)
        outcomes[engine] = (
            solution.classifiers,
            solution.cost,
            solution.utility,
            solution.covered,
        )
    for engine in ENGINES[1:]:
        assert outcomes[engine] == outcomes["sets"], f"{engine} diverged"
