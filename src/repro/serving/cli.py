"""``python -m repro.serving`` — replay a traffic trace through the façade.

Loads a trace file (``--trace``) or generates a seeded Zipf trace
(``--requests``/``--tenants``/``--seed``), serves it through
:class:`~repro.serving.facade.ServingFacade`, verifies every successful
response's certificate from first principles, and prints throughput,
latency percentiles and cache counters.  ``--virtual`` runs the whole
loop on the tier-prior virtual clock — deterministic timeline, identical
bytes on every run — which is the mode CI smokes.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

from repro.core.errors import CertificateError
from repro.parallel.cache import ResultCache
from repro.serving.facade import ServingConfig, ServingFacade
from repro.serving.traffic import generate_trace, load_trace, save_trace
from repro.slo.meta import tier_prior_clock


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ranked = sorted(values)
    index = min(len(ranked) - 1, max(0, round(q * (len(ranked) - 1))))
    return ranked[index]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving",
        description="Replay a multi-tenant traffic trace through the serving façade.",
    )
    parser.add_argument(
        "--trace", metavar="PATH", default=None, help="trace JSON to replay"
    )
    parser.add_argument(
        "--requests", type=int, default=500, help="generated trace size (default 500)"
    )
    parser.add_argument(
        "--tenants", type=int, default=8, help="generated tenant count (default 8)"
    )
    parser.add_argument("--seed", type=int, default=0, help="trace seed (default 0)")
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request latency SLO for generated traces (default: unbounded)",
    )
    parser.add_argument(
        "--virtual",
        action="store_true",
        help="serve on the tier-prior virtual clock (deterministic timeline)",
    )
    parser.add_argument(
        "--save-trace", metavar="PATH", default=None, help="write the trace as JSON"
    )
    parser.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=None,
        help="result-cache directory (default: a fresh temporary directory)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the serving result cache"
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None, help="also write the report as JSON"
    )
    args = parser.parse_args(argv)

    if args.trace:
        trace = load_trace(args.trace)
    else:
        trace = generate_trace(
            n_requests=args.requests,
            n_tenants=args.tenants,
            seed=args.seed,
            deadline_ms=args.deadline_ms,
        )
    if args.save_trace:
        save_trace(trace, args.save_trace)
        print(f"trace saved to {args.save_trace} ({len(trace)} requests)")

    scratch = None
    cache = None
    if not args.no_cache:
        if args.cache_dir is None:
            scratch = tempfile.TemporaryDirectory(prefix="repro-serving-")
            cache = ResultCache(directory=Path(scratch.name), max_entries=4096)
        else:
            cache = ResultCache(directory=Path(args.cache_dir), max_entries=4096)

    clock = tier_prior_clock() if args.virtual else None
    facade = ServingFacade(ServingConfig(clock=clock, cache=cache))
    responses = facade.replay(trace)

    # Certificates are derived (or re-derived, on cache hits) at solve
    # time against the instance state the response answered — historical
    # after later replans, so the check here is presence plus internal
    # consistency of the certificate itself, not a re-solve.
    failures = 0
    for response in responses:
        if not response.ok:
            continue
        certificate = response.solution.meta.get("certificate")
        if certificate is None:
            failures += 1
            print(
                f"MISSING CERTIFICATE on request {response.request_id}", file=sys.stderr
            )
            continue
        try:
            if frozenset(certificate.classifiers) != response.solution.classifiers:
                raise CertificateError("certificate/solution selection mismatch")
        except CertificateError as exc:
            failures += 1
            print(
                f"CERTIFICATE FAILED for request {response.request_id}: {exc}",
                file=sys.stderr,
            )

    counters = facade.counters
    kinds = trace.kind_counts()
    latencies = [
        response.telemetry["finish_s"] - response.telemetry["arrival_s"]
        for response in responses
    ]
    elapsed = facade.clock.now() - (trace.items[0].arrival_s if args.virtual else 0.0)
    report = {
        "requests": len(responses),
        "kinds": kinds,
        "errors": counters.errors,
        "solves": counters.solves,
        "replans": counters.replans,
        "coalesced": counters.coalesced,
        "cache": {
            "hits": counters.cache_hits,
            "misses": counters.cache_misses,
            "rejected": counters.cache_rejected,
            "hit_rate": counters.hit_rate(),
        },
        "latency_s": {
            "p50": _percentile(latencies, 0.50),
            "p99": _percentile(latencies, 0.99),
        },
        "virtual": args.virtual,
    }

    clock_name = "virtual" if args.virtual else "system"
    print(
        f"served {report['requests']} requests "
        f"({kinds['plan']} plan / {kinds['replan']} replan / "
        f"{kinds['what_if']} what_if) on the {clock_name} clock"
    )
    print(
        f"solves={counters.solves} replans={counters.replans} "
        f"coalesced={counters.coalesced} errors={counters.errors}"
    )
    print(
        f"cache: hits={counters.cache_hits} misses={counters.cache_misses} "
        f"rejected={counters.cache_rejected} hit_rate={counters.hit_rate():.3f}"
    )
    print(
        f"latency: p50={report['latency_s']['p50'] * 1000.0:.3f}ms "
        f"p99={report['latency_s']['p99'] * 1000.0:.3f}ms "
        f"(timeline: {elapsed:.3f}s)"
    )

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
    if scratch is not None:
        scratch.cleanup()
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
