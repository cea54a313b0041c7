"""Stratified query-length planning for the dataset generators.

The paper reports length marginals like "65% singletons" while our model
requires queries to be *distinct property sets*, so the number of singleton
queries can never exceed the number of properties.  (At the paper's stated
P-dataset ratio — 5K queries over 2K properties with 55% singletons — that
bound is already violated, suggesting the real logs contain distinct query
*strings* mapping onto colliding property sets.)  The generators therefore
plan exact per-length counts up front, cap the singleton bucket at a
fraction of the property pool, and spill the excess into length 2, which
keeps the achievable marginals as close to the paper's as possible.  Every
other length is bounded the same way by its number of distinct property
combinations, so a small pool never leaves rejection sampling hunting for
a query that does not exist.  A generator that draws every query inside
one block of the pool (a product category) passes the block sizes, since
its capacity is what the blocks hold, not what the whole pool holds.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

# Never use more than this fraction of the property pool as singleton
# queries; beyond it rejection sampling of distinct singletons stalls.
SINGLETON_POOL_FRACTION = 0.92


def plan_length_counts(
    n_queries: int,
    length_weights: Sequence[Tuple[int, float]],
    n_properties: int,
    blocks: Optional[Sequence[int]] = None,
) -> Dict[int, int]:
    """Exact number of queries to generate per length.

    Largest-remainder apportionment of ``n_queries`` across the length
    distribution, then the singleton bucket is capped at
    ``SINGLETON_POOL_FRACTION * n_properties`` with the excess moved to
    length 2 (creating it if absent).  Finally every length is clamped to
    the distinct queries of that length, ``math.comb(size, length)``
    summed over the sizes of the property ``blocks`` every query is drawn
    inside (by default one block of all ``n_properties``): excess spills
    to the next longer length, and what is still left after the longest
    fills any length with room, shortest first.

    Raises:
        ValueError: ``n_queries`` exceeds the distinct queries of length
            at most the longest planned length.
    """
    if n_queries <= 0:
        raise ValueError(f"n_queries must be positive, got {n_queries}")
    total_weight = sum(weight for _, weight in length_weights)
    if total_weight <= 0:
        raise ValueError("length weights must have positive total")

    shares = {
        length: n_queries * weight / total_weight
        for length, weight in length_weights
    }
    counts = {length: int(share) for length, share in shares.items()}
    remainder = n_queries - sum(counts.values())
    by_fraction = sorted(
        shares, key=lambda length: shares[length] - counts[length], reverse=True
    )
    for length in by_fraction[:remainder]:
        counts[length] += 1

    cap = int(SINGLETON_POOL_FRACTION * n_properties)
    if counts.get(1, 0) > cap:
        excess = counts[1] - cap
        counts[1] = cap
        counts[2] = counts.get(2, 0) + excess

    sizes = (n_properties,) if blocks is None else blocks
    lengths = range(1, max(counts) + 1)
    capacity = {
        length: sum(math.comb(size, length) for size in sizes) for length in lengths
    }
    if n_queries > sum(capacity.values()):
        raise ValueError(
            f"cannot draw {n_queries} distinct queries of length <= "
            f"{lengths[-1]}: only {sum(capacity.values())} exist in property "
            f"blocks of sizes {list(sizes)}"
        )
    feasible: Dict[int, int] = {}
    spill = 0
    for length in lengths:
        want = counts.get(length, 0) + spill
        feasible[length] = min(want, capacity[length])
        spill = want - feasible[length]
    for length in lengths:
        if spill == 0:
            break
        extra = min(capacity[length] - feasible[length], spill)
        feasible[length] += extra
        spill -= extra
    return {length: count for length, count in feasible.items() if count > 0}
