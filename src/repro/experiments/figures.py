"""One runner per paper figure (Section 6).

Every function takes a :class:`~repro.experiments.scales.Scale` and a seed
and returns a :class:`~repro.experiments.runner.FigureResult` whose rows
mirror the series the paper plots.  Dataset sizes default to laptop scale;
pass ``PAPER`` to approach the paper's sizes.

Execution goes through the task layer (:mod:`repro.parallel`): each
figure stages every cell of its sweep — budget points × algorithms ×
randomized trials — as one list of keyed
:class:`~repro.parallel.pool.SolveTask` objects and runs it in a single
:func:`~repro.parallel.pool.run_tasks` call, so
``parallel=ParallelConfig(jobs=N)`` fans the whole sweep out across
workers while rows are assembled by task key in the fixed serial order.
Randomized arms take per-trial seeds (the trial index, the paper's
convention); no task shares RNG state, so results are bit-identical for
every ``jobs`` value.  Passing a cache-bearing config
replays previously solved cells, timings included.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.core.model import BCCInstance, ECCInstance, GMC3Instance
from repro.datasets import (
    generate_bestbuy,
    generate_fragmented,
    generate_private,
    generate_synthetic,
)
from repro.experiments.runner import (
    FigureResult,
    budget_sweep,
    mean_in_order,
)
from repro.experiments.scales import SMALL, Scale
from repro.mc3 import full_cover_cost
from repro.parallel.pool import ParallelConfig, SolveTask, run_tasks

BCC_FRACTIONS = (0.05, 0.15, 0.3, 0.6)
GMC3_FRACTIONS = (0.25, 0.5, 0.75)

#: (display name, registry solver) per figure family, in row order.
_BCC_ARMS = (("IG1", "ig1-bcc"), ("IG2", "ig2-bcc"), ("A^BCC", "abcc"))
_GMC3_ARMS = (("IG1(G)", "ig1-gmc3"), ("IG2(G)", "ig2-gmc3"), ("A^GMC3", "agmc3"))
_ECC_ARMS = (("IG1(E)", "ig1-ecc"), ("IG2(E)", "ig2-ecc"), ("A^ECC", "aecc"))


def _dataset(scale: Scale, name: str, seed: int) -> BCCInstance:
    if name == "BB":
        return generate_bestbuy(scale.bb_queries, scale.bb_properties, seed=seed)
    if name == "P":
        return generate_private(scale.p_queries, scale.p_properties, seed=seed)
    if name == "S":
        return generate_synthetic(scale.s_queries, scale.s_properties, seed=seed)
    raise ValueError(f"unknown dataset {name!r}")


def _as_gmc3(instance: BCCInstance, target: float) -> GMC3Instance:
    return GMC3Instance(
        instance.queries,
        instance._utilities,
        instance._costs,
        target=target,
        default_utility=instance.default_utility,
        default_cost=instance.default_cost,
    )


def _as_ecc(instance: BCCInstance) -> ECCInstance:
    """ECC view of a dataset with zero costs clamped to 1.

    Synthetic costs are drawn from U{0..50}; a single already-built
    (zero-cost) classifier makes the best ratio infinite for *every*
    algorithm, collapsing the comparison.  The paper reports finite
    ratios, so for this figure the cheapest classifiers cost one unit.
    """
    costs = {
        c: max(1.0, v) if v == 0.0 else v
        for c, v in instance._costs.items()
    }
    return ECCInstance(
        instance.queries,
        instance._utilities,
        costs,
        default_utility=instance.default_utility,
        default_cost=max(1.0, instance.default_cost),
    )


def _add_rand_row(
    result: FigureResult,
    results,
    x,
    name: str,
    keys: List[str],
    value: Callable,
    **extra,
) -> None:
    """One averaged randomized-baseline row from the per-trial task results."""
    trials = [results[key] for key in keys]
    result.add(
        x,
        name,
        mean_in_order([value(t.solution) for t in trials]),
        sum(t.seconds for t in trials),
        solutions=[t.solution for t in trials],
        **extra,
    )


def _bcc_figure(
    figure: str,
    dataset: str,
    scale: Scale,
    seed: int,
    parallel: Optional[ParallelConfig] = None,
) -> FigureResult:
    """Shared engine for Figures 3a/3b/3c: utility vs budget, 4 algorithms."""
    base = _dataset(scale, dataset, seed)
    full_cost = full_cover_cost(base)
    budgets = budget_sweep(full_cost, BCC_FRACTIONS)
    result = FigureResult(
        figure=figure,
        title=f"BCC utility by budget on the {dataset} dataset",
        x_label="budget",
        value_label="total covered utility",
    )
    result.notes.append(f"MC3 full-cover cost: {full_cost:.0f}")
    result.notes.append(f"total utility: {base.total_utility():.0f}")

    tasks: List[SolveTask] = []
    for budget in budgets:
        instance = base.with_budget(budget)
        for trial in range(scale.rand_repeats):
            key = f"B{budget:g}/RAND/{trial}"
            tasks.append(SolveTask(key, "rand-bcc", instance, seed=trial))
        for name, solver in _BCC_ARMS:
            tasks.append(SolveTask(f"B{budget:g}/{name}", solver, instance))
    results = {r.key: r for r in run_tasks(tasks, parallel)}

    for budget in budgets:
        _add_rand_row(
            result,
            results,
            budget,
            "RAND",
            [f"B{budget:g}/RAND/{t}" for t in range(scale.rand_repeats)],
            value=lambda s: s.utility,
        )
        for name, _ in _BCC_ARMS:
            arm = results[f"B{budget:g}/{name}"]
            result.add(budget, name, arm.solution.utility, arm.seconds, solution=arm.solution)
    return result


def fig3a(
    scale: Scale = SMALL, seed: int = 0, parallel: Optional[ParallelConfig] = None
) -> FigureResult:
    """Figure 3a: utility by budget, BestBuy dataset."""
    return _bcc_figure("fig3a", "BB", scale, seed, parallel)


def fig3b(
    scale: Scale = SMALL, seed: int = 0, parallel: Optional[ParallelConfig] = None
) -> FigureResult:
    """Figure 3b: utility by budget, Private dataset."""
    return _bcc_figure("fig3b", "P", scale, seed, parallel)


def fig3c(
    scale: Scale = SMALL, seed: int = 0, parallel: Optional[ParallelConfig] = None
) -> FigureResult:
    """Figure 3c: utility by budget, Synthetic dataset."""
    return _bcc_figure("fig3c", "S", scale, seed, parallel)


def _small_subinstances(scale: Scale, seed: int, count: int = 4) -> List[BCCInstance]:
    """Small P-dataset subdomains on which brute force is tractable.

    Mirrors the paper's 'small query subsets pertaining to very specific
    subdomains (such as iPhones queries)': take the highest-utility queries
    of one category until the feasible classifier count nears the brute
    force limit.
    """
    base = generate_private(
        max(300, scale.p_queries // 4), max(400, scale.p_properties // 4), seed=seed
    )
    by_category: Dict[str, List] = {}
    for query in base.queries:
        category = next(iter(query)).split(":")[0]
        by_category.setdefault(category, []).append(query)
    instances = []
    for category in sorted(by_category)[:count]:
        queries = sorted(
            by_category[category], key=lambda q: -base.utility(q)
        )
        chosen: List = []

        feasible = 0
        for query in queries:
            extra = 2 ** len(query) - 1
            if feasible + extra > 18:
                continue
            chosen.append(query)
            feasible += extra
            if len(chosen) >= 8:
                break
        if len(chosen) < 3:
            continue
        utilities = {q: base.utility(q) for q in chosen}
        costs = {
            c: base.cost(c)
            for q in chosen
            for c in BCCInstance([q], budget=0).relevant_classifiers()
        }
        instances.append(
            BCCInstance(chosen, utilities, costs, budget=0.0)
        )
    return instances


def fig3d(
    scale: Scale = SMALL, seed: int = 0, parallel: Optional[ParallelConfig] = None
) -> FigureResult:
    """Figure 3d: A^BCC vs brute force on small P subdomains.

    The paper reports the loss is always below 20% on these instances.
    """
    import math as _math

    result = FigureResult(
        figure="fig3d",
        title="A^BCC vs exhaustive search on small P subdomains",
        x_label="subdomain",
        value_label="total covered utility",
    )
    subinstances = []
    tasks: List[SolveTask] = []
    for index, sub in enumerate(_small_subinstances(scale, seed)):
        total_cost = sum(
            sub.cost(c)
            for c in sub.relevant_classifiers()
            if not _math.isinf(sub.cost(c))
        )
        instance = sub.with_budget(max(1.0, round(total_cost * 0.4)))
        subinstances.append(instance)
        tasks.append(SolveTask(f"sub{index}/BruteForce", "bcc-exact", instance))
        tasks.append(SolveTask(f"sub{index}/A^BCC", "abcc", instance))
    results = {r.key: r for r in run_tasks(tasks, parallel)}

    worst_ratio = 1.0
    for index in range(len(subinstances)):
        exact = results[f"sub{index}/BruteForce"]
        ours = results[f"sub{index}/A^BCC"]
        result.add(
            index, "BruteForce", exact.solution.utility, exact.seconds,
            solution=exact.solution,
        )
        result.add(
            index, "A^BCC", ours.solution.utility, ours.seconds, solution=ours.solution
        )
        if exact.solution.utility > 0:
            worst_ratio = min(worst_ratio, ours.solution.utility / exact.solution.utility)
    result.notes.append(f"worst A^BCC/optimal ratio: {worst_ratio:.3f}")
    return result


def _preprocessing_sweep(
    scale: Scale,
    seed: int,
    value: str,
    parallel: Optional[ParallelConfig] = None,
) -> FigureResult:
    """Shared engine for Figures 3e (runtime) and 3f (utility)."""
    figure = "fig3e" if value == "seconds" else "fig3f"
    result = FigureResult(
        figure=figure,
        title="Effect of preprocessing on the synthetic dataset",
        x_label="num queries",
        value_label="runtime (s)" if value == "seconds" else "total covered utility",
    )
    tasks: List[SolveTask] = []
    for size in scale.sweep_sizes:
        instance = generate_synthetic(
            n_queries=size,
            n_properties=max(int(size * 0.62), 64),
            budget=max(50.0, size * 0.6),
            seed=seed + size,
        )
        tasks.append(SolveTask(f"q{size}/with", "abcc-pruned", instance))
        tasks.append(SolveTask(f"q{size}/without", "abcc-unpruned", instance))
    results = {r.key: r for r in run_tasks(tasks, parallel)}

    for size in scale.sweep_sizes:
        for arm, name in (("with", "with preprocessing"), ("without", "without preprocessing")):
            outcome = results[f"q{size}/{arm}"]
            measured = outcome.seconds if value == "seconds" else outcome.solution.utility
            result.add(size, name, measured, outcome.seconds, solution=outcome.solution)
    return result


def fig3e(
    scale: Scale = SMALL, seed: int = 0, parallel: Optional[ParallelConfig] = None
) -> FigureResult:
    """Figure 3e: runtime with/without preprocessing vs #queries (S)."""
    return _preprocessing_sweep(scale, seed, "seconds", parallel)


def fig3f(
    scale: Scale = SMALL, seed: int = 0, parallel: Optional[ParallelConfig] = None
) -> FigureResult:
    """Figure 3f: utility with/without preprocessing vs #queries (S)."""
    return _preprocessing_sweep(scale, seed, "utility", parallel)


def _gmc3_figure(
    figure: str,
    dataset: str,
    scale: Scale,
    seed: int,
    parallel: Optional[ParallelConfig] = None,
) -> FigureResult:
    """Shared engine for Figures 4a/4b/4c: budget used vs utility target."""
    base = _dataset(scale, dataset, seed)
    total = base.total_utility()
    result = FigureResult(
        figure=figure,
        title=f"GMC3 cost by utility target on the {dataset} dataset",
        x_label="utility target",
        value_label="classifier cost used (lower is better)",
    )
    targets = [round(total * fraction) for fraction in GMC3_FRACTIONS]

    tasks: List[SolveTask] = []
    for target in targets:
        instance = _as_gmc3(base, target)
        for trial in range(scale.rand_repeats):
            key = f"T{target:g}/RAND(G)/{trial}"
            tasks.append(SolveTask(key, "rand-gmc3", instance, seed=trial))
        for name, solver in _GMC3_ARMS:
            tasks.append(SolveTask(f"T{target:g}/{name}", solver, instance))
    results = {r.key: r for r in run_tasks(tasks, parallel)}

    for target in targets:
        _add_rand_row(
            result,
            results,
            target,
            "RAND(G)",
            [f"T{target:g}/RAND(G)/{t}" for t in range(scale.rand_repeats)],
            value=lambda s: s.cost,
        )
        for name, _ in _GMC3_ARMS:
            arm = results[f"T{target:g}/{name}"]
            result.add(
                target,
                name,
                arm.solution.cost,
                arm.seconds,
                utility=arm.solution.utility,
                solution=arm.solution,
            )
    return result


def fig4a(
    scale: Scale = SMALL, seed: int = 0, parallel: Optional[ParallelConfig] = None
) -> FigureResult:
    """Figure 4a: GMC3 budget used by target, BestBuy dataset."""
    return _gmc3_figure("fig4a", "BB", scale, seed, parallel)


def fig4b(
    scale: Scale = SMALL, seed: int = 0, parallel: Optional[ParallelConfig] = None
) -> FigureResult:
    """Figure 4b: GMC3 budget used by target, Private dataset."""
    return _gmc3_figure("fig4b", "P", scale, seed, parallel)


def fig4c(
    scale: Scale = SMALL, seed: int = 0, parallel: Optional[ParallelConfig] = None
) -> FigureResult:
    """Figure 4c: GMC3 budget used by target, Synthetic dataset."""
    return _gmc3_figure("fig4c", "S", scale, seed, parallel)


def fig4d(
    scale: Scale = SMALL, seed: int = 0, parallel: Optional[ParallelConfig] = None
) -> FigureResult:
    """Figure 4d: GMC3 running time over synthetic sizes.

    The paper uses a representative target; we use half the total utility.
    """
    result = FigureResult(
        figure="fig4d",
        title="GMC3 runtime over synthetic dataset sizes",
        x_label="num queries",
        value_label="runtime (s)",
    )
    tasks: List[SolveTask] = []
    for size in scale.sweep_sizes:
        base = generate_synthetic(
            n_queries=size,
            n_properties=max(int(size * 0.62), 64),
            seed=seed + size,
        )
        target = round(base.total_utility() * 0.5)
        instance = _as_gmc3(base, target)
        for name, solver in _GMC3_ARMS:
            tasks.append(SolveTask(f"q{size}/{name}", solver, instance))
    results = {r.key: r for r in run_tasks(tasks, parallel)}

    for size in scale.sweep_sizes:
        for name, _ in _GMC3_ARMS:
            arm = results[f"q{size}/{name}"]
            result.add(size, name, arm.seconds, arm.seconds, solution=arm.solution)
    return result


def _ecc_figure(
    figure: str,
    dataset: str,
    scale: Scale,
    seed: int,
    parallel: Optional[ParallelConfig] = None,
) -> FigureResult:
    """Shared engine for Figures 4e/4f: best utility/cost ratio."""
    base = _dataset(scale, dataset, seed)
    instance = _as_ecc(base)
    result = FigureResult(
        figure=figure,
        title=f"ECC best utility/cost ratio on the {dataset} dataset",
        x_label="dataset",
        value_label="utility / cost (higher is better)",
    )
    tasks: List[SolveTask] = []
    for trial in range(scale.rand_repeats):
        tasks.append(SolveTask(f"RAND(E)/{trial}", "rand-ecc", instance, seed=trial))
    for name, solver in _ECC_ARMS:
        tasks.append(SolveTask(name, solver, instance))
    results = {r.key: r for r in run_tasks(tasks, parallel)}

    _add_rand_row(
        result,
        results,
        dataset,
        "RAND(E)",
        [f"RAND(E)/{t}" for t in range(scale.rand_repeats)],
        value=lambda s: s.ratio,
    )
    for name, _ in _ECC_ARMS:
        arm = results[name]
        result.add(
            dataset,
            name,
            arm.solution.ratio,
            arm.seconds,
            cost=arm.solution.cost,
            solution=arm.solution,
        )
    return result


def fig4e(
    scale: Scale = SMALL, seed: int = 0, parallel: Optional[ParallelConfig] = None
) -> FigureResult:
    """Figure 4e: ECC best ratio, Private dataset."""
    return _ecc_figure("fig4e", "P", scale, seed, parallel)


def fig4f(
    scale: Scale = SMALL, seed: int = 0, parallel: Optional[ParallelConfig] = None
) -> FigureResult:
    """Figure 4f: ECC best ratio, Synthetic dataset."""
    return _ecc_figure("fig4f", "S", scale, seed, parallel)


def figfrag(
    scale: Scale = SMALL, seed: int = 0, parallel: Optional[ParallelConfig] = None
) -> FigureResult:
    """Decomposition figure: utility by budget on a fragmented workload.

    Not a paper figure — it exercises the sharded solver
    (:func:`repro.incremental.solve_bcc_sharded`) on a workload with ≥8
    independent components, comparing ``A^BCC`` against the
    ``abcc-sharded`` arm (plus the greedy baselines).  The sharded arm
    must match the monolithic arm wherever the budget is non-binding and
    stay within allocator-grid resolution elsewhere.
    """
    per_component = {"micro": 6, "tiny": 10, "small": 40}.get(scale.name, 80)
    base = generate_fragmented(
        n_components=8, queries_per_component=per_component, seed=seed
    )
    full_cost = full_cover_cost(base)
    budgets = budget_sweep(full_cost, BCC_FRACTIONS)
    result = FigureResult(
        figure="figfrag",
        title="BCC utility by budget on a fragmented (8-component) workload",
        x_label="budget",
        value_label="total covered utility",
    )
    result.notes.append(f"MC3 full-cover cost: {full_cost:.0f}")
    result.notes.append(f"total utility: {base.total_utility():.0f}")

    arms = _BCC_ARMS + (("A^BCC-sharded", "abcc-sharded"),)
    tasks: List[SolveTask] = []
    for budget in budgets:
        instance = base.with_budget(budget)
        for name, solver in arms:
            tasks.append(SolveTask(f"B{budget:g}/{name}", solver, instance))
    results = {r.key: r for r in run_tasks(tasks, parallel)}

    for budget in budgets:
        for name, _ in arms:
            arm = results[f"B{budget:g}/{name}"]
            result.add(budget, name, arm.solution.utility, arm.seconds, solution=arm.solution)
    return result


def figdrift(
    scale: Scale = SMALL, seed: int = 0, parallel: Optional[ParallelConfig] = None
) -> FigureResult:
    """Dynamic-BCC figure: warm re-plan speedup vs workload delta size.

    Not a paper figure — it drives :mod:`repro.incremental` through
    random deltas of growing size on a fragmented workload and reports
    how much faster the warm re-plan is than re-solving the mutated
    instance from scratch (cold monolithic ``A^BCC``, and a cold run of
    the incremental pipeline itself).  The warm solution is checked
    bit-identical to the cold incremental one at every point.  The value
    column is a wall-clock ratio, so the determinism harness compares
    solutions, not values.
    """
    import random as _random
    import time as _time

    from repro.algorithms.bcc import solve_bcc
    from repro.incremental import IncrementalConfig, IncrementalSolver, random_delta

    components = {"micro": 10, "tiny": 20, "small": 30}.get(scale.name, 60)
    base = generate_fragmented(
        n_components=components,
        queries_per_component=10,
        budget=1_000_000.0,
        seed=seed,
    )
    config = IncrementalConfig(jobs=None if parallel is None else parallel.jobs)
    result = FigureResult(
        figure="figdrift",
        title="Warm re-plan speedup by delta size (dynamic BCC)",
        x_label="delta size (fraction of queries edited)",
        value_label="cold / warm re-plan time (higher is better)",
    )
    result.notes.append(f"workload: {components} components x 10 queries")
    for fraction in (0.01, 0.05, 0.10, 0.25):
        solver = IncrementalSolver(base.clone(), config, seed=seed)
        solver.solve()
        delta = random_delta(
            solver.instance,
            _random.Random(seed + round(fraction * 100)),
            fraction=fraction,
        )
        started = _time.perf_counter()
        warm = solver.resolve_delta(delta)
        warm_sec = _time.perf_counter() - started

        mutated = solver.instance
        started = _time.perf_counter()
        solve_bcc(mutated.clone())
        mono_sec = _time.perf_counter() - started

        started = _time.perf_counter()
        cold = IncrementalSolver(mutated.clone(), config, seed=seed).solve()
        cold_sec = _time.perf_counter() - started
        if (warm.classifiers, warm.utility, warm.cost) != (
            cold.classifiers,
            cold.utility,
            cold.cost,
        ):
            raise AssertionError(
                f"figdrift: warm re-plan diverged from cold at delta {fraction}"
            )
        result.add(
            fraction,
            "vs cold monolithic",
            mono_sec / warm_sec,
            warm_sec + mono_sec,
            solution=warm,
        )
        result.add(
            fraction,
            "vs cold incremental",
            cold_sec / warm_sec,
            warm_sec + cold_sec,
        )
    return result


def figslo(
    scale: Scale = SMALL, seed: int = 0, parallel: Optional[ParallelConfig] = None
) -> FigureResult:
    """SLO figure: certified incumbent utility vs deadline (virtual clock).

    Not a paper figure — delegates to :func:`repro.slo.figure.figslo`
    (imported lazily to keep ``repro.experiments`` import-light).  The
    run simulates time on a virtual clock, so rows are a pure function
    of scale and seed and the serial-vs-parallel harness can compare
    them bit for bit.
    """
    from repro.slo.figure import figslo as _figslo

    return _figslo(scale, seed, parallel)


ALL_FIGURES: Dict[str, Callable[..., FigureResult]] = {
    "fig3a": fig3a,
    "fig3b": fig3b,
    "fig3c": fig3c,
    "fig3d": fig3d,
    "fig3e": fig3e,
    "fig3f": fig3f,
    "fig4a": fig4a,
    "fig4b": fig4b,
    "fig4c": fig4c,
    "fig4d": fig4d,
    "fig4e": fig4e,
    "fig4f": fig4f,
    "figfrag": figfrag,
    "figdrift": figdrift,
    "figslo": figslo,
}
