"""Private-dataset-like generator (the eBay "P" dataset of Section 6.1).

The real dataset is proprietary; this generator reproduces its published
structure (see DESIGN.md "Substitutions"):

- 5K queries over 2K properties, organized into product *categories*
  (mostly Electronics, Fashion, Home & Garden in the paper);
- query lengths 1-5 with 55% singletons and >=95% length <= 2;
- "popular queries have popular subqueries": multi-property queries are
  built from *popular* properties, and with high probability their
  singleton/pair subqueries are added to the workload too — the structural
  feature the paper credits for ``A^BCC``'s wide margin on P;
- classifier costs estimated by analysts: in ``[0, 50]`` with average ~8;
  conjunction classifiers are usually cheaper than the sum of their parts
  (less feature variability, as in the "wooden table" example) which makes
  the 1-cover/2-cover tradeoff real; a small fraction are impractical
  (cost infinity, omitted from the input as the paper does);
- utilities combine category importance with query popularity, rescaled to
  ``[1, 50]``.
"""

from __future__ import annotations

import math
import random
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.core.model import BCCInstance, powerset_classifiers
from repro.datasets.lengths import plan_length_counts
from repro.datasets.zipf import weighted_sample_distinct, zipf_weights

_LENGTH_WEIGHTS = ((1, 0.55), (2, 0.40), (3, 0.03), (4, 0.015), (5, 0.005))
_CATEGORIES = (
    "electronics",
    "fashion",
    "home-garden",
    "sports",
    "toys",
    "auto",
    "beauty",
    "books",
)


def _property_difficulty(rng: random.Random) -> float:
    """Analyst-estimated labeling difficulty, lognormal, mean ~8, max 50."""
    value = rng.lognormvariate(math.log(7.0), 0.7)
    return min(50.0, max(1.0, value))


def generate_private(
    n_queries: int = 5000,
    n_properties: int = 2000,
    budget: float = 2000.0,
    seed: int = 0,
    subquery_boost: float = 0.5,
    impractical_rate: float = 0.02,
) -> BCCInstance:
    """Generate a Private-like BCC instance with analyst costs and utilities."""
    if n_queries <= 0:
        raise ValueError(f"n_queries must be positive, got {n_queries}")
    if n_properties < 5 * len(_CATEGORIES):
        raise ValueError(f"need at least {5 * len(_CATEGORIES)} properties")
    rng = random.Random(seed)

    # Partition the properties into category blocks; popularity is Zipf
    # *within* each category so every category has its own head terms.
    per_category = n_properties // len(_CATEGORIES)
    category_props: Dict[str, List[str]] = {}
    popularity: Dict[str, float] = {}
    difficulty: Dict[str, float] = {}
    category_importance: Dict[str, float] = {}
    for index, category in enumerate(_CATEGORIES):
        start = index * per_category
        end = start + per_category if index < len(_CATEGORIES) - 1 else n_properties
        block = [f"{category}:{i}" for i in range(end - start)]
        category_props[category] = block
        for rank, prop in enumerate(block):
            popularity[prop] = 1.0 / (rank + 1)
            difficulty[prop] = _property_difficulty(rng)
        category_importance[category] = 0.5 + rng.random()

    # Every query is drawn inside one category block, so the blocks bound
    # how many distinct queries of each length exist.
    counts = plan_length_counts(
        n_queries,
        _LENGTH_WEIGHTS,
        n_properties,
        blocks=[len(block) for block in category_props.values()],
    )
    queries: Set[FrozenSet[str]] = set()
    raw_utility: Dict[FrozenSet[str], float] = {}
    category_of: Dict[str, str] = {
        prop: category
        for category, block in category_props.items()
        for prop in block
    }

    def utility_of(query: FrozenSet[str], category: str) -> float:
        pop = sum(popularity[p] for p in query) / len(query)
        noise = 0.6 + 0.8 * rng.random()
        return category_importance[category] * pop * noise

    def add_query(query: FrozenSet[str], category: str) -> bool:
        if query in queries:
            return False
        queries.add(query)
        raw_utility[query] = utility_of(query, category)
        return True

    def fresh_query(length: int) -> Tuple[FrozenSet[str], str]:
        category = rng.choice(_CATEGORIES)
        block = category_props[category]
        weights = zipf_weights(len(block))
        chosen = weighted_sample_distinct(
            rng, block, weights, min(length, len(block))
        )
        return frozenset(chosen), category

    # Longest queries first; shorter buckets then preferentially reuse
    # their sub-sets ("popular queries have popular subqueries").
    for length in sorted(counts, reverse=True):
        target = counts[length]
        produced = 0
        supersets = sorted(
            (q for q in queries if len(q) > length), key=sorted
        )
        rng.shuffle(supersets)
        superset_index = 0
        while produced < target:
            query = None
            if superset_index < len(supersets) and rng.random() < subquery_boost:
                parent = supersets[superset_index]
                superset_index += 1
                sub = frozenset(rng.sample(sorted(parent), length))
                category = category_of[next(iter(sub))]
                if add_query(sub, category):
                    produced += 1
                    continue
            query, category = fresh_query(length)
            if len(query) == length and add_query(query, category):
                produced += 1

    query_list = sorted(queries, key=sorted)

    # Rescale raw utilities into [1, 50] as the paper does.
    max_raw = max(raw_utility.values())
    utilities = {
        q: max(1.0, round(49.0 * raw_utility[q] / max_raw + 1.0))
        for q in query_list
    }

    # Classifier costs: a conjunction classifier is cheaper than the sum of
    # its parts (shrink factor per extra property) but never trivial.
    costs: Dict[FrozenSet[str], float] = {}
    for query in query_list:
        for classifier in powerset_classifiers(query):
            if classifier in costs:
                continue
            if len(classifier) >= 2 and rng.random() < impractical_rate:
                costs[classifier] = math.inf
                continue
            base = sum(difficulty[p] for p in classifier)
            shrink = 0.62 ** (len(classifier) - 1)
            noise = 0.75 + 0.5 * rng.random()
            costs[classifier] = float(
                min(50.0, max(0.0, round(base * shrink * noise)))
            )
    return BCCInstance(query_list, utilities, costs, budget=budget)
