"""``python -m repro.slo`` — the anytime meta-solver as a command.

Builds a fragmented benchmark workload, runs
:class:`~repro.slo.meta.AnytimeMetaSolver` against the requested
deadline, re-verifies the incumbent trace, and prints the certified
answer plus its scheduling telemetry.  ``--virtual`` swaps in
:func:`~repro.slo.meta.tier_prior_clock`, a virtual clock that charges
each arm its registry tier prior, making the whole run deterministic —
the same mode the test wall and the ``figslo`` figure use.  The command
writes no file unless ``--json`` names one.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.core.errors import CertificateError
from repro.datasets import generate_fragmented
from repro.slo.meta import AnytimeMetaSolver, SloConfig, tier_prior_clock
from repro.verify.anytime import check_incumbent_trace


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.slo",
        description="Anytime latency-SLO meta-solve of a fragmented workload.",
    )
    parser.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="latency SLO in milliseconds (default: unbounded)",
    )
    parser.add_argument(
        "--components", type=int, default=8, help="workload components (default 8)"
    )
    parser.add_argument(
        "--queries", type=int, default=6, help="queries per component (default 6)"
    )
    parser.add_argument(
        "--budget",
        type=float,
        default=None,
        help="instance budget (default 150 * components)",
    )
    parser.add_argument("--seed", type=int, default=0, help="dataset seed (default 0)")
    parser.add_argument(
        "--virtual",
        action="store_true",
        help="simulate time on a virtual clock (deterministic schedule)",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="also write the telemetry as JSON"
    )
    args = parser.parse_args(argv)

    budget = 150.0 * args.components if args.budget is None else args.budget
    workload = generate_fragmented(
        n_components=args.components,
        queries_per_component=args.queries,
        budget=budget,
        seed=args.seed,
    )

    clock = tier_prior_clock() if args.virtual else None
    solver = AnytimeMetaSolver(SloConfig(clock=clock))
    solution = solver.solve(workload, deadline_ms=args.deadline_ms)
    try:
        check_incumbent_trace(solver._as_instance(workload, None), solver.last_trace)
    except CertificateError as exc:
        print(f"INCUMBENT TRACE FAILED: {exc}", file=sys.stderr)
        return 2

    slo = solution.meta["slo"]
    deadline = "inf" if args.deadline_ms is None else f"{args.deadline_ms:g}ms"
    print(
        f"incumbent: utility={solution.utility:.4f} cost={solution.cost:.4f} "
        f"classifiers={len(solution.classifiers)} (certified, deadline {deadline})"
    )
    print(
        f"schedule:  tried={len(slo['arms_tried'])} "
        f"skipped={len(slo['arms_skipped'])} "
        f"updates={slo['incumbent_updates']} engine={slo['engine']}"
    )
    print(
        f"timing:    elapsed={slo['elapsed_ms']:.3f}ms "
        f"overrun={slo['overrun_ms']:.3f}ms "
        f"trace={len(solver.last_trace)} certified incumbent(s)"
    )
    for entry in slo["arms_tried"]:
        marker = "*" if entry["improved"] else " "
        flag = " TIMEOUT" if entry["timed_out"] else ""
        print(
            f"  {marker} {entry['arm']:<16} predicted={entry['predicted_ms']:8.3f}ms "
            f"actual={entry['actual_ms']:8.3f}ms utility={entry['utility']:.4f}{flag}"
        )
    for entry in slo["arms_skipped"]:
        print(
            f"    {entry['arm']:<16} predicted={entry['predicted_ms']:8.3f}ms skipped"
        )

    if args.json:
        payload = {
            "utility": solution.utility,
            "cost": solution.cost,
            # Frozensets order by subset, and print in hash order: spell
            # each classifier as its sorted members so the report is the
            # same under every PYTHONHASHSEED.
            "classifiers": sorted(
                sorted(str(p) for p in c) for c in solution.classifiers
            ),
            "slo": slo,
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
