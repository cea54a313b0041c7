"""Unit and property-based tests for coverage semantics (repro.core.coverage)."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BCCInstance,
    CoverageTracker,
    covered_queries,
    from_letters as fs,
    i_covers,
    is_covered,
    is_minimal_cover,
    minimal_covers,
)


class TestIsCovered:
    def test_exact_match(self):
        assert is_covered(fs("xy"), [fs("xy")])

    def test_union_of_two(self):
        # "wooden table" + "round table" cover "round wooden table".
        assert is_covered(fs("xyz"), [fs("xy"), fs("yz")])

    def test_superset_classifier_does_not_cover(self):
        # A classifier testing extra properties is not a subset of q.
        assert not is_covered(fs("xy"), [fs("xyz")])

    def test_partial_cover_insufficient(self):
        assert not is_covered(fs("xyz"), [fs("x"), fs("y")])

    def test_overlap_is_fine(self):
        # {YZ, XZ} covers xyz despite overlapping in z (Example 2.1).
        assert is_covered(fs("xyz"), [fs("yz"), fs("xz")])

    def test_empty_selection(self):
        assert not is_covered(fs("x"), [])

    def test_singletons_cover(self):
        assert is_covered(fs("xyz"), [fs("x"), fs("y"), fs("z")])


class TestCoveredQueries:
    def test_fig1_b4_solution(self, fig1_b4):
        covered = covered_queries(fig1_b4, [fs("yz"), fs("xz")])
        assert covered == {fs("xyz"), fs("xz")}

    def test_fig1_b11_solution(self, fig1_b11):
        covered = covered_queries(fig1_b11, [fs("yz"), fs("x"), fs("y"), fs("z")])
        assert covered == {fs("xyz"), fs("xz"), fs("xy")}

    def test_no_classifiers(self, fig1_b3):
        assert covered_queries(fig1_b3, []) == set()


class TestMinimalCovers:
    def test_singleton_query(self):
        assert minimal_covers(fs("x")) == [frozenset({fs("x")})]

    def test_pair_query(self):
        covers = minimal_covers(fs("xy"))
        assert frozenset({fs("xy")}) in covers
        assert frozenset({fs("x"), fs("y")}) in covers
        assert len(covers) == 2

    def test_triple_query_two_covers_count(self):
        # The paper (Section 4.2): a length-3 query has six 2-covers.
        assert len(i_covers(fs("xyz"), 2)) == 6

    def test_triple_query_three_cover(self):
        three = i_covers(fs("xyz"), 3)
        assert three == [frozenset({fs("x"), fs("y"), fs("z")})]

    def test_restricted_availability(self):
        covers = minimal_covers(fs("xy"), available=[fs("x"), fs("y")])
        assert covers == [frozenset({fs("x"), fs("y")})]

    def test_unavailable_query_uncoverable(self):
        assert minimal_covers(fs("xy"), available=[fs("x")]) == []

    def test_non_subset_classifiers_ignored(self):
        covers = minimal_covers(fs("xy"), available=[fs("xy"), fs("xz")])
        assert covers == [frozenset({fs("xy")})]

    def test_example_4_1_two_covers_of_xy(self):
        # In BCC(2), xy can only be 2-covered by {X, Y}; {X, XY} is not a
        # 2-cover since X is dispensable.
        covers = i_covers(fs("xy"), 2, available=[fs("x"), fs("y"), fs("xy")])
        assert covers == [frozenset({fs("x"), fs("y")})]


class TestIsMinimalCover:
    def test_exact(self):
        assert is_minimal_cover(fs("xy"), [fs("xy")])

    def test_redundant_member(self):
        assert not is_minimal_cover(fs("xy"), [fs("x"), fs("xy")])

    def test_non_subset_member(self):
        assert not is_minimal_cover(fs("xy"), [fs("xy"), fs("z")])

    def test_union_mismatch(self):
        assert not is_minimal_cover(fs("xyz"), [fs("x"), fs("y")])

    def test_overlapping_minimal(self):
        assert is_minimal_cover(fs("xyz"), [fs("xy"), fs("yz")])


class TestCoverageTracker:
    def test_incremental_matches_batch(self, fig1_b11):
        tracker = CoverageTracker(fig1_b11)
        selection = [fs("yz"), fs("x"), fs("y"), fs("z")]
        for classifier in selection:
            tracker.add(classifier)
        assert tracker.covered == frozenset(covered_queries(fig1_b11, selection))
        assert tracker.utility == 11.0

    def test_newly_covered_reporting(self, fig1_b4):
        tracker = CoverageTracker(fig1_b4)
        assert tracker.add(fs("yz")) == []
        newly = tracker.add(fs("xz"))
        assert set(newly) == {fs("xyz"), fs("xz")}

    def test_re_adding_is_noop(self, fig1_b4):
        tracker = CoverageTracker(fig1_b4)
        tracker.add(fs("xz"))
        assert tracker.add(fs("xz")) == []
        assert tracker.utility == 1.0

    def test_missing_properties(self, fig1_b4):
        tracker = CoverageTracker(fig1_b4)
        tracker.add(fs("yz"))
        assert tracker.missing_properties(fs("xyz")) == frozenset("x")

    def test_selected_exposed(self, fig1_b4):
        tracker = CoverageTracker(fig1_b4)
        tracker.add(fs("yz"))
        assert tracker.selected == frozenset({fs("yz")})


# ----------------------------------------------------------------------
# property-based tests
# ----------------------------------------------------------------------
_PROPS = "abcdef"


def _random_subsets(rng: random.Random, count: int):
    subsets = set()
    while len(subsets) < count:
        size = rng.randint(1, 3)
        subsets.add(frozenset(rng.sample(_PROPS, size)))
    return sorted(subsets, key=sorted)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_coverage_monotone(seed):
    """Adding classifiers never un-covers a query."""
    rng = random.Random(seed)
    queries = _random_subsets(rng, 5)
    classifiers = _random_subsets(rng, 6)
    workload = BCCInstance(queries, budget=1.0)
    prefix = []
    covered_so_far = set()
    for classifier in classifiers:
        prefix.append(classifier)
        now = covered_queries(workload, prefix)
        assert covered_so_far <= now
        covered_so_far = now


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_tracker_agrees_with_batch(seed):
    rng = random.Random(seed)
    queries = _random_subsets(rng, 5)
    classifiers = _random_subsets(rng, 6)
    workload = BCCInstance(queries, budget=1.0)
    tracker = CoverageTracker(workload)
    tracker.add_all(classifiers)
    assert tracker.covered == frozenset(covered_queries(workload, classifiers))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_minimal_covers_are_minimal_and_cover(seed):
    rng = random.Random(seed)
    query = frozenset(rng.sample(_PROPS, rng.randint(1, 4)))
    for cover in minimal_covers(query):
        assert is_minimal_cover(query, cover)
        assert is_covered(query, cover)
