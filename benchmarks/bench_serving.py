"""Load benchmark for the multi-tenant serving façade.

Replays a seeded Zipf traffic trace (10k requests over 8 tenants at full
scale) through :class:`~repro.serving.facade.ServingFacade` and measures:

- **throughput**: requests/second on the system clock (the wall leg);
- **latency**: p50/p99 request latency, on both the wall leg (real
  seconds) and the virtual leg (simulated tier-prior seconds);
- **cache effectiveness**: hit rate over cache-consulting requests —
  Zipf tenant popularity must push it past 50%;
- **SLO overruns**: cold solves whose anytime schedule overran the
  request deadline (advisory timeouts — recorded, never hidden).

Correctness gates, asserted on every run:

- the virtual-clock replay is **byte-identical** across two independent
  façades (fresh caches, fresh stats) and across the ``sets`` and
  ``bits`` coverage engines — canonical response sequences compared
  position by position;
- **every** successful response carries a certificate consistent with
  its solution, and no request errors;
- the cache hit rate clears the 50% floor.

Run directly::

    PYTHONPATH=src python benchmarks/bench_serving.py [--quick]

or through pytest (``pytest benchmarks/bench_serving.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from repro.core.bitset import ENGINES, use_engine
from repro.parallel.cache import ResultCache
from repro.serving import (
    ServingConfig,
    ServingFacade,
    generate_trace,
    tier_prior_clock,
)

RESULT_PATH = Path(__file__).parent / "BENCH_serving.json"

SEED = 0
DEADLINE_MS = 20.0
N_TENANTS = 8


def _trace(quick: bool):
    # Low workload churn keeps the fingerprint universe small, so the
    # Zipf head serves warm — the regime the façade is built for.
    return generate_trace(
        n_requests=600 if quick else 10_000,
        n_tenants=N_TENANTS,
        seed=SEED,
        deadline_ms=DEADLINE_MS,
        replan_fraction=0.005,
        what_if_fraction=0.10,
        budget_levels=2,
    )


def _replay(trace, clock):
    """One fresh façade + fresh cache serving ``trace`` end to end."""
    with tempfile.TemporaryDirectory(prefix="repro-serving-bench-") as scratch:
        facade = ServingFacade(
            ServingConfig(
                clock=clock,
                cache=ResultCache(directory=Path(scratch), max_entries=8192),
            )
        )
        responses = facade.replay(trace)
        return responses, facade.counters


def _percentile(values, q):
    if not values:
        return 0.0
    ranked = sorted(values)
    return ranked[min(len(ranked) - 1, max(0, round(q * (len(ranked) - 1))))]


def _check_certified(responses) -> int:
    """Every ok response carries a self-consistent certificate; count errors."""
    errors = 0
    for response in responses:
        if not response.ok:
            errors += 1
            continue
        certificate = response.solution.meta.get("certificate")
        assert certificate is not None, f"request {response.request_id} uncertified"
        assert frozenset(certificate.classifiers) == response.solution.classifiers
    return errors


def _overruns(responses):
    """Deadline overruns among the responses that actually ran the solver."""
    rows = []
    for response in responses:
        if not response.ok or response.telemetry.get("cache") == "hit":
            continue
        slo = response.telemetry.get("slo")
        if isinstance(slo, dict) and slo.get("overrun_ms", 0.0) > 0.0:
            rows.append(
                {
                    "request_id": response.request_id,
                    "overrun_ms": slo["overrun_ms"],
                }
            )
    return rows


def run_bench(quick: bool = False) -> dict:
    trace = _trace(quick)

    # Virtual legs: determinism gates (byte-identity across runs/engines).
    baseline, counters = _replay(trace, tier_prior_clock())
    canonical = [response.canonical() for response in baseline]
    rerun, _ = _replay(trace, tier_prior_clock())
    assert [r.canonical() for r in rerun] == canonical, "replay is not deterministic"
    for engine in ENGINES:
        if engine == "sets":
            continue
        with use_engine(engine):
            replayed, _ = _replay(trace, tier_prior_clock())
        assert (
            [r.canonical() for r in replayed] == canonical
        ), f"engine {engine} diverged from sets"

    assert _check_certified(baseline) == 0, "trace produced error responses"
    hit_rate = counters.hit_rate()
    assert hit_rate >= 0.5, f"cache hit rate {hit_rate:.3f} below the 50% floor"

    virtual_latencies = [
        r.telemetry["finish_s"] - r.telemetry["arrival_s"] for r in baseline
    ]
    overruns = _overruns(baseline)

    # Wall leg: the same trace on the system clock, for throughput.
    start = time.perf_counter()
    wall_responses, wall_counters = _replay(trace, None)
    wall_seconds = time.perf_counter() - start
    assert _check_certified(wall_responses) == 0
    wall_latencies = [
        r.telemetry["finish_s"] - r.telemetry["arrival_s"] for r in wall_responses
    ]

    return {
        "trace": {
            "requests": len(trace),
            "tenants": N_TENANTS,
            "seed": SEED,
            "deadline_ms": DEADLINE_MS,
            "kinds": trace.kind_counts(),
            "scale": "quick" if quick else "full",
        },
        "cpu_count": os.cpu_count(),
        "deterministic": {
            "runs_identical": True,
            "engines_identical": list(ENGINES),
            "clock": "tier-prior virtual",
        },
        "throughput_rps": len(trace) / wall_seconds if wall_seconds > 0 else None,
        "wall_seconds": wall_seconds,
        "latency_wall_s": {
            "p50": _percentile(wall_latencies, 0.50),
            "p99": _percentile(wall_latencies, 0.99),
        },
        "latency_virtual_s": {
            "p50": _percentile(virtual_latencies, 0.50),
            "p99": _percentile(virtual_latencies, 0.99),
        },
        "cache": {
            "hits": counters.cache_hits,
            "misses": counters.cache_misses,
            "rejected": counters.cache_rejected,
            "hit_rate": hit_rate,
        },
        "counters": counters.snapshot(),
        "wall_counters": wall_counters.snapshot(),
        "slo_overruns": len(overruns),
        "max_overrun_ms": max((o["overrun_ms"] for o in overruns), default=0.0),
        "certified": True,
    }


def write_result(result: dict, path: Path = RESULT_PATH) -> None:
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")


def test_serving_load(benchmark, scale):
    """Pytest entry: the serving loop under load (quick shape in CI)."""
    from conftest import run_once

    quick = scale.name in ("micro", "tiny")
    result = run_once(benchmark, run_bench, quick=quick)
    assert result["certified"]
    assert result["deterministic"]["runs_identical"]
    assert result["cache"]["hit_rate"] >= 0.5
    assert result["counters"]["errors"] == 0
    write_result(result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small trace, CI smoke")
    parser.add_argument("--out", type=Path, default=RESULT_PATH, help="result JSON path")
    args = parser.parse_args(argv)
    result = run_bench(quick=args.quick)
    write_result(result, args.out)
    print(
        f"{result['trace']['requests']} requests / {result['trace']['tenants']} tenants: "
        f"{result['throughput_rps']:.0f} req/s wall; "
        f"wall p50 {result['latency_wall_s']['p50'] * 1000.0:.2f}ms "
        f"p99 {result['latency_wall_s']['p99'] * 1000.0:.2f}ms; "
        f"hit rate {result['cache']['hit_rate']:.3f}; "
        f"{result['slo_overruns']} overrun(s); byte-identical across "
        f"2 runs and {len(result['deterministic']['engines_identical'])} engines; "
        f"every response certified"
    )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
