"""The ``figslo`` figure: incumbent quality vs deadline.

Sweeps the meta-solver over a deadline grid on a fragmented corpus
workload and plots the certified incumbent's utility at each point,
against the full-portfolio best as the horizontal reference.  The run is
fully deterministic: :func:`~repro.slo.meta.tier_prior_clock` simulates
each arm's runtime as its own predicted cost (its registry tier prior),
so the schedule — and hence every row — is a pure function of scale and
seed, independent of machine speed or ``jobs``.  That is what lets the
serial-vs-parallel equality harness in ``tests/test_parallel.py``
compare the figure's values bit for bit.
"""

from __future__ import annotations

from typing import Optional

from repro.datasets import generate_fragmented
from repro.experiments.runner import FigureResult
from repro.experiments.scales import SMALL, Scale
from repro.parallel.pool import ParallelConfig
from repro.slo.meta import AnytimeMetaSolver, SloConfig, tier_prior_clock

#: Simulated-time deadline grid (ms).  None = unbounded reference point.
DEADLINES_MS = (0.0, 5.0, 20.0, 60.0, 200.0, None)


def figslo(
    scale: Scale = SMALL, seed: int = 0, parallel: Optional[ParallelConfig] = None
) -> FigureResult:
    """Certified incumbent utility as a function of the deadline."""
    components = {"micro": 4, "tiny": 8, "small": 12}.get(scale.name, 20)
    base = generate_fragmented(
        n_components=components,
        queries_per_component=6,
        budget=150.0 * components,
        seed=seed,
    )
    result = FigureResult(
        figure="figslo",
        title="Anytime SLO meta-solver: incumbent utility vs deadline",
        x_label="deadline (simulated ms)",
        value_label="certified incumbent utility",
    )
    result.notes.append(
        f"workload: {components} components x 6 queries, virtual clock"
    )
    for deadline_ms in DEADLINES_MS:
        solver = AnytimeMetaSolver(SloConfig(clock=tier_prior_clock()))
        solution = solver.solve(base, deadline_ms=deadline_ms)
        slo = solution.meta["slo"]
        x = "inf" if deadline_ms is None else deadline_ms
        result.add(
            x,
            "anytime incumbent",
            solution.utility,
            solution.meta["slo"]["elapsed_ms"] / 1000.0,
            arms_tried=len(slo["arms_tried"]),
            arms_skipped=len(slo["arms_skipped"]),
            solution=solution,
        )
    return result
