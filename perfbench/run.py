"""Run one workload of the benchmark once and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-warm --seed 1 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes the
traced run instead, which alternates untraced passes with passes that
have every layer wrapped, and prints the per-layer table and metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for the workloads and the layer map.
"""

from __future__ import annotations

import os
import sys

# Isolation, before numpy or the program is imported: one BLAS thread,
# the bits engine, no self-profiling on untraced runs, and one string-hash
# seed.  Set iteration order follows the hash seed, and near-tie picks in
# the solvers follow set order, so without a fixed seed two runs of the
# same inputs can do different work.  The hash seed is read only at
# interpreter start, hence the re-exec (same process, new image).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ["REPRO_ENGINE"] = "bits"
_REPRO_JOBS = os.environ.get("REPRO_JOBS")
_REPRO_PROFILE = os.environ.pop("REPRO_PROFILE", None)
if os.environ.get("PYTHONHASHSEED") != "0":
    os.environ["PYTHONHASHSEED"] = "0"
    os.execv(sys.executable, [sys.executable] + sys.argv)

import argparse
import gc
import hashlib
import json
import math
import resource
import shutil
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
DIGESTS = WORK / "digests.json"

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10
#: The gated tail percentile.  p99 qualifies on serve-warm, but rests on
#: the run's few slowest ticks and spread by up to 1.5 over five seeds.
TAIL = 0.9
#: Set-ups before the first pass; a run adds more at the passes' breaks.
SETUP_REPEATS = 5
#: Fewest samples the slowest quarter of a run may hold (see slowest_quarter).
MIN_QUARTER = 3


def percentile(samples: List[Tuple[float, int]], q: float) -> Tuple[float, int]:
    """Nearest-rank percentile ``q`` (0 < q < 1) over the ops in ``samples``.

    Each sample is one independent timing, ``(seconds, ops)``: every op it
    answered has that latency.  Where the rank falls exactly between two
    samples, as the median of solve-wide's four solves does, it is their
    mean, which halves the weight of one solve's noise.  Returns the
    percentile and the number of samples, not ops, that lie beyond it.
    """
    ranked = sorted(samples)
    target = q * sum(ops for _, ops in ranked)
    rank = max(1, math.ceil(target))
    seen = 0
    for index, (seconds, ops) in enumerate(ranked):
        seen += ops
        if seen >= rank:
            if seen == target and index + 1 < len(ranked):
                seconds = (seconds + ranked[index + 1][0]) / 2
            return seconds, len(ranked) - index - 1
    raise ValueError("no samples")


def run_rounds(steps, budget_s: float):
    """Rounds of one pass per step, until the next round would overrun ``budget_s``."""
    results = [[] for _ in steps]
    start = time.perf_counter()
    rounds = 0
    while True:
        for step, out in zip(steps, results):
            out.append(step(rounds))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed * (1 + 1 / rounds) > budget_s:
            return results


def slowest_quarter(items, slowness):
    """``items`` slowest first, and how many of them to time.

    The machine this benchmark was built on switches between speed
    states that last 5-15 s each, and one run sees a different mix of
    them than the next.  A median over every sample of a run follows that
    mix; the slowest quarter reads the most contended state, which recurs
    in nearly every run.  A quarter of fewer than ``MIN_QUARTER``
    samples would hold one or two extremes, which is noisier still, so
    short runs time every sample.
    """
    ranked = sorted(items, key=slowness, reverse=True)
    quarter = len(ranked) // 4
    return ranked, quarter if quarter >= MIN_QUARTER else len(ranked)


def latency_metrics(ranked, timed: int) -> Tuple[Dict[str, float], List[str]]:
    """The p50 and the tail over the ops of a run's slowest passes.

    ``ranked`` holds the run's passes, slowest first, and the first
    ``timed`` of them are the timed passes.  A tick answers all its
    requests at once, so one tick is one sample however many requests it
    holds, and a percentile is reported only with ``MIN_BEYOND`` ticks (or
    solves) beyond it: the tail takes the fewest slowest passes, ``timed``
    or more, that put that many beyond it.
    """

    def pooled(count: int) -> List[Tuple[float, int]]:
        return [sample for p in ranked[:count] for sample in p.samples]

    def basis(samples, count: int) -> str:
        ops = sum(n for _, n in samples)
        return f"{ops} ops in {len(samples)} samples, one per tick or solve, of {count} passes"

    samples = pooled(timed)
    p50, _ = percentile(samples, 0.5)
    lines = [f"latency_p50_ms      {1e3 * p50:.3f} ms  (over {basis(samples, timed)})"]
    for count in range(timed, len(ranked) + 1):
        samples = pooled(count)
        tail, past = percentile(samples, TAIL)
        if past >= MIN_BEYOND:
            lines.append(
                f"latency_tail_ms     {1e3 * tail:.3f} ms  = p{round(100 * TAIL)} over "
                f"{basis(samples, count)}; {past} samples beyond it"
            )
            break
    else:
        tail = p50
        lines.append(
            f"latency_tail_ms     {1e3 * tail:.3f} ms  = the median: p{round(100 * TAIL)} has "
            f"{past} of the run's {len(samples)} samples beyond it, fewer than {MIN_BEYOND}"
        )
    p99, past = percentile(samples, 0.99)
    if past >= MIN_BEYOND:
        lines.append(
            f"latency_p99_ms      {1e3 * p99:.3f} ms  over {len(samples)} samples; not gated, "
            f"as it rests on a run's few slowest ticks ({past} samples beyond it)"
        )
    return {"latency_p50_ms": 1e3 * p50, "latency_tail_ms": 1e3 * tail}, lines


def code_version() -> str:
    """A hash of the program's and the benchmark's sources."""
    digest = hashlib.sha256()
    sources = sorted(SRC.rglob("*.py")) + sorted(Path(__file__).resolve().parent.glob("*.py"))
    for path in sources:
        digest.update(str(path.relative_to(ROOT)).encode("utf-8"))
        digest.update(path.read_bytes())
    return digest.hexdigest()


def same_work(workload_name: str, seed: int, passes) -> Tuple[bool, str]:
    """Every pass answered alike, and alike with earlier runs of this seed.

    Earlier runs count only if they ran the same sources: a change to the
    program may change its answers.
    """
    digests = {p.digest for p in passes}
    if len(digests) != 1:
        return False, f"passes disagree: {len(digests)} distinct answer digests"
    digest = digests.pop()
    key = f"{workload_name}:{seed}:{code_version()}"
    try:
        known = json.loads(DIGESTS.read_text())
    except (OSError, ValueError):
        known = {}
    previous = known.get(key)
    if previous is not None and previous != digest:
        return False, f"digest {digest[:16]} differs from an earlier run's {previous[:16]}"
    known[key] = digest
    tmp = DIGESTS.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, sort_keys=True))
    os.replace(tmp, DIGESTS)
    seen = (
        "matches an earlier run of this seed and code"
        if previous
        else "first run of this seed and code"
    )
    return True, f"digest {digest[:16]} on all {len(passes)} passes; {seen}"


def summarise(passes) -> Dict[str, float]:
    counters: Dict[str, float] = {}
    for result in passes:
        for name, value in result.counters.items():
            counters[name] = counters.get(name, 0) + value
    return counters


def measure(workload, seed: int, seconds: float, traced: bool, workdir: Path):
    from repro.core.bitset import use_engine
    from repro.profile import PhaseProfiler, activate

    from layers import install, layer_metrics
    from tracing import Tracer

    lines: List[str] = []
    setups: List[float] = []

    def timed_setup(index: int):
        gc.collect()
        start = time.perf_counter()
        made = workload.setup(seed, workdir / f"setup{index}")
        setups.append(time.perf_counter() - start)
        return made

    def between() -> None:
        # More set-ups at each break of a pass, so that set-ups meet the
        # same spread of machine states as the passes do.
        for _ in range(workload.setups_per_break):
            index = len(setups)
            timed_setup(index)
            shutil.rmtree(workdir / f"setup{index}", ignore_errors=True)

    def skip() -> None:
        pass

    with use_engine("bits"):
        for index in range(SETUP_REPEATS):
            state = timed_setup(index)

        def untraced_pass(index: int):
            return workload.run_pass(state, workdir / f"pass{index}", skip if traced else between)

        if not traced:
            (passes,) = run_rounds([untraced_pass], seconds)
            traced_passes = []
        else:
            tracer = Tracer()
            profiler = PhaseProfiler()

            def traced_pass(index: int):
                install(tracer)
                try:
                    with activate(profiler):
                        return workload.run_pass(state, workdir / f"traced{index}", skip)
                finally:
                    tracer.restore()

            # Untraced and traced passes alternate, so a slow stretch of
            # the machine weighs on both sides of the overhead alike.
            passes, traced_passes = run_rounds([untraced_pass, traced_pass], seconds)

    every = passes + traced_passes
    attempted = sum(p.ops for p in every)
    errors = sum(p.errors for p in every)
    invalid = sum(p.invalid for p in every)
    agreed, work_note = same_work(workload.name, seed, every)
    counters = summarise(passes)
    per_pass = {name: value / len(passes) for name, value in counters.items()}

    lines.append(f"passes              {len(passes)} untraced, {len(traced_passes)} traced")
    lines.append(f"same work           {'ok' if agreed else 'FAILED'}: {work_note}")
    if per_pass:
        lines.append(
            "counters per pass   "
            + " ".join(f"{name}={value:g}" for name, value in sorted(per_pass.items()))
        )
    lines.append(
        f"correctness         {attempted - errors - invalid} of {attempted} answers "
        f"verified; {errors} error responses, {invalid} failed verify_solution"
    )
    lines.append(
        f"error_rate          {(errors + invalid) / attempted:.6f}  "
        f"({errors + invalid} of {attempted} ops)"
    )

    metrics: Dict[str, Tuple[float, str]] = {}
    if traced:
        throughput = statistics.median(p.ops / p.wall_s for p in passes)
        traced_wall = sum(p.wall_s for p in traced_passes)
        traced_ops = sum(p.ops for p in traced_passes)
        traced_throughput = statistics.median(p.ops / p.wall_s for p in traced_passes)
        overhead = 100.0 * (throughput / traced_throughput - 1.0)
        metrics, table = layer_metrics(
            tracer, profiler, summarise(traced_passes), traced_ops, traced_wall, overhead
        )
        lines.append(
            f"tracing overhead    {overhead:.2f}%  (untraced {throughput:.3f} ops/s, "
            f"traced {traced_throughput:.3f} ops/s)"
        )
        lines.append(f"traced wall         {traced_wall:.3f} s over {traced_ops} ops")
        lines.extend(table)
        spans_path = WORK / f"spans-{workload.name}-{seed}.jsonl"
        tracer.write(spans_path)
        lines.append(
            f"spans               {len(tracer.spans)} written to "
            f"{spans_path.relative_to(ROOT)}"
        )
    else:
        ranked, count = slowest_quarter(passes, lambda p: p.wall_s / p.ops)
        timed = ranked[:count]
        throughput = statistics.median(p.ops / p.wall_s for p in timed)
        latency, latency_lines = latency_metrics(ranked, count)
        cpu = statistics.median(1e3 * p.cpu_s / p.ops for p in timed)
        utility = sum(p.utility for p in passes) / sum(p.ops for p in passes)
        ranked_setups, setup_count = slowest_quarter(setups, lambda s: s)
        setup_s = statistics.median(ranked_setups[:setup_count])
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "throughput": (throughput, "ops/s"),
            "latency_p50_ms": (latency["latency_p50_ms"], "ms"),
            "latency_tail_ms": (latency["latency_tail_ms"], "ms"),
            "cpu_per_op_ms": (cpu, "ms"),
            "utility_mean": (utility, "utility"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        lines.append(
            f"timed passes        {len(timed)} of {len(passes)}"
            f"{' (the slowest quarter)' if len(timed) < len(passes) else ''}, "
            f"{passes[0].ops} ops each; throughput and cpu are medians over them"
        )
        lines.append(f"throughput          {throughput:.3f} ops/s")
        lines.extend(latency_lines)
        lines.append(f"cpu_per_op_ms       {cpu:.4f} ms  (process CPU)")
        lines.append(f"utility_mean        {utility:.4f}  (covered utility per op, all passes)")
        lines.append(
            f"setup_s             {setup_s:.4f} s  (median of the {setup_count} slowest of "
            f"{len(setups)} set-ups: {SETUP_REPEATS} before the passes, "
            f"{workload.setups_per_break} at each break of a pass)"
        )
        lines.append(f"peak_rss_mb         {rss_mb:.1f} MB")

    result = {
        "correct": agreed and invalid == 0 and errors == 0,
        "attempted": attempted,
        "failed": errors + invalid,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    return lines, result


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    from workloads import JOBS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    try:
        lines, result = measure(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(
        f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}; op: {workload.op}; closed loop, 1 client"
    )
    print(
        f"settings            jobs={JOBS} (REPRO_JOBS={_REPRO_JOBS or 'unset'} not used) "
        f"engine=bits REPRO_PROFILE=unset (was {_REPRO_PROFILE or 'unset'}) "
        "PYTHONHASHSEED=0 BLAS threads=1 gc.collect() before each timed pass; "
        "fresh cache directory per run"
    )
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
