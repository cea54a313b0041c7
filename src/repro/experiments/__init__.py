"""Experiment harness reproducing the paper's evaluation (Section 6).

One entry point per paper figure (3a-3f, 4a-4f) plus the textual insights
the paper reports alongside them.  Each figure function returns a
:class:`~repro.experiments.runner.FigureResult` whose rows mirror the
series the paper plots; ``python -m repro.experiments <figure>`` prints
them as tables, and ``benchmarks/bench_<figure>.py`` wraps them for
pytest-benchmark.
"""

from repro.experiments.runner import FigureResult, Row
from repro.experiments import figures
from repro.experiments.report import render_bars, render_table

__all__ = ["FigureResult", "Row", "figures", "render_table", "render_bars"]
