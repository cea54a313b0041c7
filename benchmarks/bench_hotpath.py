"""Hot-path benchmark: incremental transpose + graph builds vs legacy.

Times this PR's two measured hot paths against faithful re-creations of
the pre-PR code, asserting byte-identical answers on every compared arm:

- ``micro_probe`` — the gain-probe kernel under *interleaved mutations*:
  the solver-loop pattern of checkpoint/add/probe/rollback/commit on the
  ``bits`` tracker.  The legacy arm reinstates invalidate-on-mutation
  (``_t_by_prop = None`` after every add/undo/remove, exactly where the
  old code set ``_transposed = None``), so each first probe after a
  mutation pays the full transpose rebuild walk the incremental
  maintenance now avoids.  Identical gain sequences and final rebuild
  counters are recorded for both arms.
- ``end_to_end`` — ``solve_bcc`` on the wide 950-property shape PR 4
  recorded at 0.97x.  The legacy arm stacks the invalidate-always
  tracker and the per-edge QK graph builds.  (The DkS kernel copies it
  once carried read the retired dict-based blow-up graph; each kernel's
  reference now lives in ``tests/test_dks.py``.)  Solutions must be
  byte-identical per seed; the current arm's
  ``transpose_rebuilds`` telemetry (the A^BCC picks loop) is recorded —
  the perf-smoke CI job gates on that counter, not on wall-clock.
  Every timed current-arm solve is also appended to ``arm_observations``
  (arm/engine/features/seconds/utility), the rows
  ``repro.slo.stats.seed_store_from_bench`` replays into the arm-stats
  store so SLO schedules track post-optimization runtimes.

Measurement methodology follows ``bench_bitset``: process CPU seconds
with the garbage collector disabled in timed regions, arms interleaved
within every repeat, minimum over repeats reported.

Run directly::

    PYTHONPATH=src python benchmarks/bench_hotpath.py [--quick]

or through pytest (``pytest benchmarks/bench_hotpath.py``), where the
TINY scale maps to the quick spec and the rebuild-counter assertions
(not wall-clock ratios) gate the run.
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
import time
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from repro.algorithms.bcc import AbccConfig, solve_bcc
from repro.core.bitset import use_engine
from repro.core.coverage import BitsetCoverageTracker, CoverageTracker
from repro.datasets.synthetic import generate_synthetic
from repro.graphs.graph import WeightedGraph, edge_key
from repro.qk import QKConfig
from repro.slo.features import instance_features

RESULT_PATH = Path(__file__).parent / "BENCH_hotpath.json"

QUICK_SPEC = {
    "micro_probe": {
        "n_queries": 1200,
        "n_properties": 60,
        "budget": 400.0,
        "seed": 0,
        "pool": 80,
        "slates": 24,
        "slate_size": 12,
        "commits": 12,
        "probes_per_mutation": 3,
        "repeats": 2,
    },
    "end_to_end": {
        "n_queries": 300,
        "n_properties": 240,
        "budget": 600.0,
        "seeds": [0, 1],
        "repeats": 2,
    },
}
MEDIUM_SPEC = {
    "micro_probe": {
        "n_queries": 4000,
        "n_properties": 80,
        "budget": 400.0,
        "seed": 0,
        "pool": 120,
        "slates": 50,
        "slate_size": 16,
        "commits": 30,
        "probes_per_mutation": 4,
        "repeats": 3,
    },
    # The wide shape PR 4 recorded at 0.97x: many properties, so the
    # transpose is expensive to rebuild and the QK/DkS portfolio carries
    # most of the end-to-end time.
    "end_to_end": {
        "n_queries": 1500,
        "n_properties": 950,
        "budget": 2500.0,
        "seeds": [0, 1, 2],
        "repeats": 2,
    },
}


def _timed(fn):
    """CPU-time ``fn()`` with the collector off; returns (result, seconds)."""
    gc.collect()
    gc.disable()
    try:
        started = time.process_time()
        result = fn()
        elapsed = time.process_time() - started
    finally:
        gc.enable()
    return result, elapsed


# ----------------------------------------------------------------------
# legacy arms: faithful re-creations of the pre-PR code paths
# ----------------------------------------------------------------------
@contextmanager
def legacy_invalidate_always():
    """Reinstate the pre-incremental tracker: drop the transpose on mutation.

    Wraps the ``bits`` mutation methods to null ``_t_by_prop`` exactly
    where the old code nulled ``_transposed`` — *before* delegating, so
    the incremental maintenance sees a cold transpose and skips itself;
    the legacy arm pays neither maintenance nor stale state.
    """
    cls = BitsetCoverageTracker
    orig_add, orig_undo, orig_remove = cls.add, cls._undo_one, cls.remove

    def add(self, classifier):
        if classifier not in self._selected and self._compiled.mask_of(classifier):
            self._t_by_prop = None
        return orig_add(self, classifier)

    def _undo_one(self):
        if self._undo and self._undo[-1][2]:
            self._t_by_prop = None
        return orig_undo(self)

    def remove(self, classifier):
        if not self._checkpoints and self._selected_masks.get(classifier):
            self._t_by_prop = None
        return orig_remove(self, classifier)

    cls.add, cls._undo_one, cls.remove = add, _undo_one, remove
    try:
        yield
    finally:
        cls.add, cls._undo_one, cls.remove = orig_add, orig_undo, orig_remove


def _legacy_edges(self):
    """The pre-PR edges() snapshot build: edge_key per encountered edge."""
    cached = self._edge_list
    if cached is None:
        cached = []
        visited = set()
        for u, nbrs in self._adj.items():
            visited.add(u)
            for v, w in nbrs.items():
                if v not in visited:
                    key = edge_key(u, v)
                    cached.append((key[0], key[1], w))
        self._edge_list = cached
    return iter(cached)


def _legacy_add_edges(self, edges):
    """Pre-PR bulk insert: one add_edge call (full dispatch) per edge."""
    for u, v, w in edges:
        self.add_edge(u, v, w)


@contextmanager
def legacy_graph_construction():
    """Swap the pre-PR graph-build paths (per-edge add_edge, keyed edges)."""
    saved = (WeightedGraph.edges, WeightedGraph.add_edges)
    WeightedGraph.edges = _legacy_edges
    WeightedGraph.add_edges = _legacy_add_edges
    try:
        yield
    finally:
        WeightedGraph.edges, WeightedGraph.add_edges = saved


@contextmanager
def _current():
    yield


@contextmanager
def _legacy_all():
    with legacy_invalidate_always(), legacy_graph_construction():
        yield


ARMS = ("current", "legacy")
_ARM_CONTEXT = {"current": _current, "legacy": _legacy_all}


# ----------------------------------------------------------------------
# micro: gain probes under interleaved mutations
# ----------------------------------------------------------------------
def _dense_pool(instance, size: int):
    relevant = sorted(instance.relevant_classifiers(), key=sorted)
    return sorted(
        relevant,
        key=lambda c: (-len(instance.queries_containing(c)), sorted(c)),
    )[:size]


def _probe_micro(spec: dict) -> dict:
    with use_engine("bits"):
        instance = generate_synthetic(
            n_queries=spec["n_queries"],
            n_properties=spec["n_properties"],
            budget=spec["budget"],
            seed=spec["seed"],
        )
        pool = _dense_pool(instance, spec["pool"])
        rng = random.Random(spec["seed"])
        slates = [
            rng.sample(pool, spec["slate_size"]) for _ in range(spec["slates"])
        ]
        commits = pool[: spec["commits"]]

        def run(tracker):
            # The solver-loop shape: trial mutations probed under a
            # checkpoint, rolled back, then a committed add — probes
            # always land on a just-mutated tracker.
            gains = []
            si = 0
            for classifier in commits:
                tracker.checkpoint()
                tracker.add(classifier)
                for _ in range(spec["probes_per_mutation"]):
                    gains.append(tracker.probe_gain(slates[si % len(slates)]))
                    si += 1
                tracker.rollback()
                tracker.add(classifier)
                gains.append(tracker.probe_gain(slates[si % len(slates)]))
                si += 1
            return gains

        best = dict.fromkeys(ARMS)
        rebuilds = dict.fromkeys(ARMS)
        for _ in range(spec["repeats"]):
            outputs = {}
            finals = {}
            for arm in ARMS:
                with _ARM_CONTEXT[arm]():
                    tracker = CoverageTracker(instance)
                    tracker._transpose()  # both arms start warm
                    result, seconds = _timed(lambda: run(tracker))
                outputs[arm] = result
                finals[arm] = (list(tracker._missing), tracker.spent)
                rebuilds[arm] = tracker.transpose_rebuilds
                if best[arm] is None or seconds < best[arm]:
                    best[arm] = seconds
            assert outputs["current"] == outputs["legacy"], "probe gains diverged"
            assert finals["current"] == finals["legacy"], "tracker state diverged"
    return {
        "workload": {
            k: spec[k] for k in ("n_queries", "n_properties", "budget", "seed")
        },
        "slates": spec["slates"],
        "slate_size": spec["slate_size"],
        "commits": spec["commits"],
        "probes_per_mutation": spec["probes_per_mutation"],
        "legacy_sec": best["legacy"],
        "current_sec": best["current"],
        "speedup": (
            best["legacy"] / best["current"] if best["current"] > 0 else float("inf")
        ),
        "rebuild_count": {arm: rebuilds[arm] for arm in ARMS},
        "identical_gains": True,
    }


# ----------------------------------------------------------------------
# end-to-end: solve_bcc on the wide shape, current vs legacy-everything
# ----------------------------------------------------------------------
def _e2e_bench(spec: dict) -> dict:
    runs = {arm: [] for arm in ARMS}
    observations = []
    for seed in spec["seeds"]:
        best = dict.fromkeys(ARMS)
        for _ in range(spec["repeats"]):
            for arm in ARMS:
                with use_engine("bits"), _ARM_CONTEXT[arm]():
                    instance = generate_synthetic(
                        n_queries=spec["n_queries"],
                        n_properties=spec["n_properties"],
                        budget=spec["budget"],
                        seed=seed,
                    )
                    features = instance_features(instance)
                    solution, elapsed = _timed(
                        lambda: solve_bcc(instance, AbccConfig(qk=QKConfig(rounds=2)))
                    )
                run = {
                    "seed": seed,
                    "utility": solution.utility,
                    "cost": solution.cost,
                    "classifiers": solution.classifiers,
                    "seconds": elapsed,
                    "transpose_rebuilds": solution.meta["engine"][
                        "transpose_rebuilds"
                    ],
                }
                if arm == "current":
                    observations.append(
                        {
                            "arm": "abcc",
                            "engine": "bits",
                            "features": list(features),
                            "seconds": elapsed,
                            "utility": solution.utility,
                        }
                    )
                if best[arm] is None or run["seconds"] < best[arm]["seconds"]:
                    best[arm] = run
        assert best["current"]["classifiers"] == best["legacy"]["classifiers"], (
            f"seed {seed}: current and legacy selected different classifiers"
        )
        assert best["current"]["utility"] == best["legacy"]["utility"]
        assert best["current"]["cost"] == best["legacy"]["cost"]
        for arm in ARMS:
            record = dict(best[arm])
            record["classifiers"] = len(record.pop("classifiers"))
            runs[arm].append(record)
    totals = {arm: sum(r["seconds"] for r in runs[arm]) for arm in ARMS}
    return {
        "workload": {k: spec[k] for k in ("n_queries", "n_properties", "budget")},
        "seeds": list(spec["seeds"]),
        "repeats": spec["repeats"],
        "runs": runs,
        "legacy_total_sec": totals["legacy"],
        "current_total_sec": totals["current"],
        "speedup": (
            totals["legacy"] / totals["current"]
            if totals["current"] > 0
            else float("inf")
        ),
        "picks_loop_rebuilds": {
            arm: max(r["transpose_rebuilds"] for r in runs[arm]) for arm in ARMS
        },
        "identical_solutions": True,
    }, observations


def run_bench(spec: dict) -> dict:
    e2e, observations = _e2e_bench(spec["end_to_end"])
    return {
        "timer": "process_time, gc disabled (CPU seconds, min over repeats)",
        "baseline": (
            "legacy arm = pre-PR code: invalidate-always transpose, "
            "per-edge graph builds"
        ),
        "micro_probe": _probe_micro(spec["micro_probe"]),
        "end_to_end": e2e,
        "arm_observations": observations,
    }


def check_rebuild_telemetry(result: dict) -> None:
    """The perf-smoke gate: counters, not wall-clock (runner-stable).

    The incremental tracker must stay at the one cold build per tracker
    in the probe loop, and per-solve rebuilds in the A^BCC picks loop
    must stay in low single digits — a regression to invalidate-always
    behavior puts both counters at one-per-mutation magnitudes.
    """
    micro = result["micro_probe"]
    assert micro["rebuild_count"]["current"] <= 1, (
        f"incremental transpose rebuilt {micro['rebuild_count']['current']} "
        "times in the probe loop; expected at most the one cold build"
    )
    assert micro["rebuild_count"]["legacy"] > micro["rebuild_count"]["current"], (
        "legacy arm did not rebuild more than the incremental arm — the "
        "baseline is not exercising invalidate-always behavior"
    )
    picks = result["end_to_end"]["picks_loop_rebuilds"]
    assert picks["current"] <= 5, (
        f"solve_bcc performed {picks['current']} transpose rebuilds; "
        "expected ~0 (at most one cold build per tracker epoch)"
    )
    assert micro["identical_gains"] and result["end_to_end"]["identical_solutions"]


def write_result(result: dict, path: Path = RESULT_PATH) -> None:
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")


def test_hotpath_kernels(benchmark, scale):
    """Pytest entry: quick spec at tiny scale, medium otherwise.

    Gates on answer identity and the rebuild-count telemetry — never on
    wall-clock ratios; the recorded JSON is the performance artifact.
    """
    from conftest import run_once

    spec = QUICK_SPEC if scale.name == "tiny" else MEDIUM_SPEC
    result = run_once(benchmark, run_bench, spec=spec)
    check_rebuild_telemetry(result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true", help="small workload (CI smoke mode)"
    )
    parser.add_argument(
        "--out", type=Path, default=RESULT_PATH, help="result JSON path"
    )
    args = parser.parse_args(argv)
    spec = QUICK_SPEC if args.quick else MEDIUM_SPEC
    result = run_bench(spec)
    check_rebuild_telemetry(result)
    write_result(result, args.out)
    micro = result["micro_probe"]
    e2e = result["end_to_end"]
    print(
        f"micro_probe {micro['workload']['n_queries']}q/"
        f"{micro['workload']['n_properties']}p, {micro['commits']} commits x "
        f"{micro['probes_per_mutation']} probes: "
        f"legacy {micro['legacy_sec']:.3f}s -> current {micro['current_sec']:.3f}s "
        f"({micro['speedup']:.2f}x), rebuilds {micro['rebuild_count']['legacy']} -> "
        f"{micro['rebuild_count']['current']}"
    )
    print(
        f"solve_bcc {e2e['workload']['n_queries']}q/"
        f"{e2e['workload']['n_properties']}p x {len(e2e['seeds'])} seeds: "
        f"legacy {e2e['legacy_total_sec']:.2f}s -> "
        f"current {e2e['current_total_sec']:.2f}s ({e2e['speedup']:.2f}x), "
        f"identical solutions, picks-loop rebuilds "
        f"{e2e['picks_loop_rebuilds']['legacy']} -> "
        f"{e2e['picks_loop_rebuilds']['current']}"
    )
    print(f"recorded {len(result['arm_observations'])} arm observation(s)")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
