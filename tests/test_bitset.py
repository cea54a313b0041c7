"""Differential suite for the bitset compilation layer (``repro.core.bitset``).

Every test here drives the ``sets`` reference and the ``bits`` engine
through :func:`repro.core.bitset.use_engine` and asserts equal results:
coverage kernels and tracker traces (add / checkpoint / rollback /
remove / reset / probe).  The engine-parametrized identity suite — all
solver arms on the seeded corpus, tracker differentials across every
registered engine — lives in ``tests/test_engines.py``.
"""

from __future__ import annotations

import gc
import math
import re
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BCCInstance, CoverageTracker, from_letters as fs
from repro.core import bitset as bitset_module
from repro.core.bitset import (
    _COMPILED,
    ENGINES,
    PropertySpace,
    QueryInterner,
    active_engine,
    compile_workload,
    use_engine,
)
from repro.core.coverage import (
    BitsetCoverageTracker,
    SetCoverageTracker,
    covered_queries,
    i_covers,
    is_covered,
    is_minimal_cover,
    minimal_covers,
)
from repro.core.errors import StaleWorkloadError
from repro.core.model import powerset_classifiers
from repro.mc3.greedy import cheapest_residual_cover
from tests.strategies import bcc_instances, solvable_instances


def _fig1() -> BCCInstance:
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


# ----------------------------------------------------------------------
# the engine switch
# ----------------------------------------------------------------------
class TestEngineSwitch:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            with use_engine("bogus"):
                pass

    def test_unknown_env_value_rejected(self, monkeypatch):
        # ``matrix`` is a retired engine name: it must fail like any unknown one.
        registered = re.escape("('sets', 'bits')")
        for name in ("turbo", "matrix"):
            monkeypatch.setenv("REPRO_ENGINE", name)
            with pytest.raises(ValueError, match=registered):
                active_engine()
            with pytest.raises(ValueError, match=registered):
                with use_engine(name):
                    pass

    def test_env_value_normalized(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "  SETS ")
        assert active_engine() == "sets"

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "sets")
        with use_engine("bits"):
            assert active_engine() == "bits"
        assert active_engine() == "sets"

    def test_tracker_dispatch_follows_engine(self):
        instance = _fig1()
        with use_engine("bits"):
            assert type(CoverageTracker(instance)) is BitsetCoverageTracker
        with use_engine("sets"):
            assert not isinstance(CoverageTracker(instance), BitsetCoverageTracker)

    def test_set_tracker_pins_reference_backend(self):
        with use_engine("bits"):
            assert type(SetCoverageTracker(_fig1())) is SetCoverageTracker


# ----------------------------------------------------------------------
# the compilation layer
# ----------------------------------------------------------------------
class TestPropertySpace:
    def test_layout_is_sorted_and_deduplicated(self):
        space = PropertySpace(["b", "a", "c", "a"])
        assert len(space) == 3
        assert space.mask_of(["a"]) == 1
        assert space.mask_of(["b"]) == 2
        assert space.mask_of(["c"]) == 4

    def test_foreign_name_is_none_but_clip_drops_it(self):
        space = PropertySpace(["a", "b"])
        assert space.mask_of(["a", "zz"]) is None
        assert space.clip_mask(["a", "zz"]) == space.mask_of(["a"])

    def test_props_round_trip(self):
        space = PropertySpace(["a", "b", "c"])
        for props in (frozenset("a"), frozenset("ab"), frozenset("abc")):
            assert space.props_of(space.mask_of(props)) == props

    def test_interner_matches_space_of_one_query(self):
        query = fs("xz")
        interner = QueryInterner(query)
        assert interner.full == QueryInterner(query).clip(query)
        assert interner.mask(fs("xy")) is None
        assert interner.clip(fs("xy")) == interner.mask(fs("x"))
        assert interner.props_of(interner.full) == query

    def test_compiled_containing_is_ascending_workload_order(self):
        instance = _fig1()
        compiled = instance.compiled()
        x_mask = compiled.mask_of(fs("x"))
        rows = compiled.containing(x_mask)
        assert list(rows) == sorted(rows)
        assert [compiled.queries[i] for i in rows] == list(instance.queries)
        assert compiled.row_bitmap(x_mask) == sum(1 << i for i in rows)

    def test_compiled_is_memoized_per_workload(self):
        instance = _fig1()
        assert instance.compiled() is instance.compiled()


class TestCompiledMemoLifetime:
    """The weak-keyed compile memo frees its entry with the workload.

    A compiled view points back at its workload only weakly; a strong
    back-reference from the memo value to its own key would keep every
    entry alive for the life of the process.
    """

    def test_compiled_entries_die_with_their_workload(self):
        instance = _fig1()
        compiled = weakref.ref(compile_workload(instance))
        assert instance in _COMPILED
        del instance
        gc.collect()
        # The memo held the value strongly, so a dead value is a dead entry.
        assert compiled() is None

    def test_view_outliving_its_workload_reads_as_stale(self):
        instance = _fig1()
        view = compile_workload(instance)
        view.assert_current()
        del instance
        gc.collect()
        with pytest.raises(StaleWorkloadError, match="freed"):
            view.assert_current()


class TestContainingCacheBound:
    def test_irrelevant_probes_do_not_grow_the_cache(self):
        """Satellite: the classifier→query memo is bounded by ``|CL|``."""
        instance = _fig1()
        bound = len(instance.relevant_classifiers())
        for engine in ENGINES:
            with use_engine(engine):
                probe = BCCInstance(
                    list(instance.queries),
                    {q: instance.utility(q) for q in instance.queries},
                    {c: instance.cost(c) for c in instance.relevant_classifiers()},
                    budget=instance.budget,
                )
                for classifier in probe.relevant_classifiers():
                    probe.queries_containing(classifier)
                for junk in (fs("q"), fs("qw"), fs("xq"), frozenset({"nope"})):
                    for _ in range(50):
                        assert probe.queries_containing(junk) == ()
                assert len(probe._containing_cache) <= bound


class TestMaskCacheBound:
    def test_foreign_probes_do_not_grow_the_mask_memo(self):
        """``CompiledWorkload._mask_cache`` stores masks, never ``None``."""
        instance = _fig1()
        with use_engine("bits"):
            compiled = compile_workload(instance)
            for classifier in instance.relevant_classifiers():
                assert compiled.mask_of(classifier) is not None
            settled = len(compiled._mask_cache)
            for index in range(100):
                junk = frozenset({f"junk{index}", "a"})
                assert instance.queries_containing(junk) == ()
                assert compiled.mask_of(junk) is None
            assert len(compiled._mask_cache) == settled
            assert None not in compiled._mask_cache.values()
            for classifier in instance.relevant_classifiers():
                assert compiled.props_of(compiled.mask_of(classifier)) == classifier


class TestRowBitmapBound:
    def test_row_bitmap_memo_never_exceeds_its_cap(self, monkeypatch):
        """``CompiledWorkload._row_bitmaps`` clears wholesale at its cap."""
        cap = 3
        monkeypatch.setattr(bitset_module, "_ROW_BITMAP_CAP", cap)
        instance = _fig1()
        pool = sorted(instance.relevant_classifiers(), key=sorted)
        assert len(pool) > 2 * cap
        with use_engine("bits"):
            tracker = CoverageTracker(instance)
        reference = SetCoverageTracker(instance)
        compiled = tracker._compiled
        tracker._transpose()  # probes then run the row-bitmap kernel
        sizes = []
        for slate in [[c] for c in pool] + [pool[i : i + 2] for i in range(len(pool))]:
            assert tracker.probe_gain(slate) == reference.probe_gain(slate)
            sizes.append(len(compiled._row_bitmaps))
        for classifier in pool:
            cmask = compiled.mask_of(classifier)
            rows = compiled.containing(cmask)
            assert compiled.row_bitmap(cmask) == sum(1 << i for i in rows)
            sizes.append(len(compiled._row_bitmaps))
        assert max(sizes) == cap  # driven to the cap, never past it


# ----------------------------------------------------------------------
# kernel equality between engines
# ----------------------------------------------------------------------
def _naive_covered_queries(workload, classifiers):
    """Quadratic subset-union reference for :func:`covered_queries`."""
    result = set()
    for query in workload.queries:
        union = set()
        for classifier in classifiers:
            if classifier <= query:
                union |= classifier
        if union >= query:
            result.add(query)
    return result


class TestKernelEquality:
    @settings(max_examples=60, deadline=None)
    @given(bcc_instances(max_queries=5))
    def test_covered_queries_engines_and_naive_agree(self, instance):
        pool = sorted(instance.relevant_classifiers(), key=sorted)
        selection = pool[::2]
        expected = _naive_covered_queries(instance, selection)
        for engine in ENGINES:
            with use_engine(engine):
                assert covered_queries(instance, selection) == expected

    @settings(max_examples=60, deadline=None)
    @given(bcc_instances(max_queries=4))
    def test_is_covered_engines_agree(self, instance):
        pool = sorted(instance.relevant_classifiers(), key=sorted)
        for query in instance.queries:
            for selection in (pool, pool[::2], pool[:1], []):
                with use_engine("sets"):
                    reference = is_covered(query, selection)
                with use_engine("bits"):
                    assert is_covered(query, selection) == reference

    @settings(max_examples=40, deadline=None)
    @given(st.frozensets(st.sampled_from("abcde"), min_size=1, max_size=4))
    def test_minimal_cover_families_engines_agree(self, query):
        with use_engine("sets"):
            reference = minimal_covers(query)
        with use_engine("bits"):
            assert minimal_covers(query) == reference
        for size in range(1, len(query) + 1):
            with use_engine("sets"):
                sized = i_covers(query, size)
            with use_engine("bits"):
                assert i_covers(query, size) == sized
            for cover in sized:
                assert is_minimal_cover(query, cover)

    @settings(max_examples=60, deadline=None)
    @given(st.frozensets(st.sampled_from("abcd"), min_size=1, max_size=4), st.data())
    def test_is_minimal_cover_matches_quadratic_reference(self, query, data):
        """Satellite: the counting-pass minimality test vs rest-union."""
        pool = list(powerset_classifiers(query)) + [query | {"z"}]
        cover = data.draw(
            st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True)
        )

        def reference(q, members):
            union = frozenset().union(*members)
            if any(not c <= q for c in members) or union != q:
                return False
            return all(
                frozenset().union(*(o for o in members if o is not c)) != q
                for c in members
            )

        assert is_minimal_cover(query, cover) == reference(query, cover)

    @settings(max_examples=60, deadline=None)
    @given(solvable_instances(max_queries=5))
    def test_cheapest_residual_cover_engines_agree(self, instance):
        for query in instance.queries:
            candidates = [
                (c, instance.cost(c)) for c in powerset_classifiers(query)
            ]
            for covered in (set(), set(sorted(query)[:1])):
                with use_engine("sets"):
                    reference = cheapest_residual_cover(query, candidates, covered)
                with use_engine("bits"):
                    found = cheapest_residual_cover(query, candidates, covered)
                    compiled_found = cheapest_residual_cover(
                        query, candidates, covered, instance.compiled()
                    )
                assert found == reference
                assert compiled_found == reference


# ----------------------------------------------------------------------
# tracker trace differential
# ----------------------------------------------------------------------
def _snapshot(tracker, workload):
    return (
        tracker.selected,
        tracker.covered,
        tracker.utility,
        tracker.spent,
        {q: tracker.missing_properties(q) for q in workload.queries},
    )


class TestTrackerTraceDifferential:
    @settings(max_examples=50, deadline=None)
    @given(solvable_instances(max_queries=5))
    def test_identical_traces(self, instance):
        pool = sorted(instance.relevant_classifiers(), key=sorted)
        with use_engine("sets"):
            reference = SetCoverageTracker(instance)
        with use_engine("bits"):
            bits = CoverageTracker(instance)
        assert type(bits) is BitsetCoverageTracker
        trackers = (reference, bits)

        def check():
            ref, bit = (_snapshot(t, instance) for t in trackers)
            assert ref == bit
            for query in instance.queries:
                assert (
                    reference.is_query_covered(query)
                    == bits.is_query_covered(query)
                )
                missing = bits.missing_mask(query)
                assert bits._compiled.props_of(missing) == (
                    reference.missing_properties(query)
                )

        check()
        # Plain adds, including a duplicate.
        for classifier in pool[:3] + pool[:1]:
            assert reference.add(classifier) == bits.add(classifier)
            check()
        # Read-only probes must agree and leave no trace.
        for slate in (pool[3:6], pool[:2], [frozenset()]):
            assert reference.probe_gain(slate) == bits.probe_gain(slate)
            check()
        for classifier in pool:
            assert reference.probe_gain([classifier]) == bits.probe_gain(
                [classifier]
            )
            assert (
                reference.uncovered_contained_utility(classifier)
                == bits.uncovered_contained_utility(classifier)
            )
        # Checkpointed adds roll back bit-for-bit.
        for tracker in trackers:
            tracker.checkpoint()
        for classifier in pool[3:6]:
            assert reference.add(classifier) == bits.add(classifier)
            check()
        for tracker in trackers:
            tracker.rollback()
        check()
        # Removal recomputes residual state identically.
        for classifier in pool[:2]:
            assert reference.remove(classifier) == bits.remove(classifier)
            check()
        for tracker in trackers:
            tracker.reset()
        check()

    def test_probe_after_rollback_uses_fresh_state(self):
        """The bits transpose cache must not survive a rollback."""
        instance = _fig1()
        with use_engine("bits"):
            tracker = CoverageTracker(instance)
        with use_engine("sets"):
            reference = SetCoverageTracker(instance)
        slate = [fs("xyz"), fs("yz")]
        assert tracker.probe_gain(slate) == reference.probe_gain(slate)
        for t in (tracker, reference):
            t.checkpoint()
            t.add(fs("xyz"))
        assert tracker.probe_gain([fs("yz")]) == reference.probe_gain([fs("yz")])
        for t in (tracker, reference):
            t.rollback()
        assert tracker.probe_gain(slate) == reference.probe_gain(slate)
        assert _snapshot(tracker, instance) == _snapshot(reference, instance)


# The all-arm corpus differential (sets vs bits) lives in
# ``tests/test_engines.py``, together with the engine-parametrized
# tracker traces.
