"""Synthetic item catalog with a metadata gap.

Every item has a set of *latent* properties (what the item truly is) and
a set of *listed* properties (what the seller typed in).  Sellers omit
properties that are "evident from the image" — exactly the paper's
wooden-table example — so listed is a random subset of latent.  Search
over listed metadata therefore misses items, which is what classifier
construction repairs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.properties import PropertySet


@dataclass(frozen=True)
class Item:
    """A catalog item: identifier, latent truth and listed metadata."""

    item_id: int
    latent: PropertySet
    listed: PropertySet

    def truly_matches(self, query: PropertySet) -> bool:
        """Ground truth: the latent properties satisfy ``query``."""
        return query <= self.latent

    def listed_matches(self, query: PropertySet) -> bool:
        """Baseline retrieval: the listed metadata satisfies ``query``."""
        return query <= self.listed


@dataclass
class CatalogConfig:
    """Generator knobs.

    Attributes:
        n_items: catalog size.
        n_properties: property vocabulary size.
        properties_per_item: (min, max) latent properties per item.
        disclosure: probability a latent property is also listed.
    """

    n_items: int = 2000
    n_properties: int = 60
    properties_per_item: Tuple[int, int] = (2, 6)
    disclosure: float = 0.6


#: Zipf exponent of property prevalence.
POPULARITY_EXPONENT = 1.0


class Catalog:
    """An immutable collection of items with query helpers."""

    def __init__(self, items: Sequence[Item], properties: Sequence[str]) -> None:
        self.items: Tuple[Item, ...] = tuple(items)
        self.properties: Tuple[str, ...] = tuple(properties)

    def __len__(self) -> int:
        return len(self.items)

    def true_result_set(self, query: PropertySet) -> List[Item]:
        """Ground truth: items whose latent properties satisfy the query."""
        return [item for item in self.items if item.truly_matches(query)]

    def listed_result_set(self, query: PropertySet) -> List[Item]:
        """Baseline retrieval over listed metadata only."""
        return [item for item in self.items if item.listed_matches(query)]

    def property_prevalence(self) -> Dict[str, int]:
        """How many items latently carry each property."""
        counts: Dict[str, int] = {p: 0 for p in self.properties}
        for item in self.items:
            for prop in item.latent:
                counts[prop] += 1
        return counts


def generate_catalog(config: CatalogConfig = CatalogConfig(), seed: int = 0) -> Catalog:
    """Generate a catalog with Zipf property prevalence and partial listing."""
    if config.n_items <= 0:
        raise ValueError("n_items must be positive")
    lo, hi = config.properties_per_item
    if not 1 <= lo <= hi <= config.n_properties:
        raise ValueError("invalid properties_per_item range")
    if not 0.0 <= config.disclosure <= 1.0:
        raise ValueError("disclosure must be in [0, 1]")

    rng = random.Random(seed)
    properties = [f"attr{i}" for i in range(config.n_properties)]
    weights = [
        1.0 / (rank**POPULARITY_EXPONENT)
        for rank in range(1, config.n_properties + 1)
    ]

    items: List[Item] = []
    for item_id in range(config.n_items):
        size = rng.randint(lo, hi)
        latent = set()
        while len(latent) < size:
            latent.add(rng.choices(properties, weights=weights, k=1)[0])
        listed = {p for p in latent if rng.random() < config.disclosure}
        items.append(
            Item(item_id=item_id, latent=frozenset(latent), listed=frozenset(listed))
        )
    return Catalog(items, properties)


def workload_from_catalog(
    catalog: Catalog,
    n_queries: int,
    max_length: int = 3,
    seed: int = 0,
):
    """Derive a search workload from catalog demand.

    Queries are conjunctions of co-occurring latent properties (sampled
    from actual items so result sets are non-empty); utility is the
    number of truly matching items (demand proxy).

    Returns ``(queries, utilities)``.
    """
    rng = random.Random(seed)
    queries = set()
    attempts = 0
    while len(queries) < n_queries and attempts < n_queries * 50:
        attempts += 1
        item = rng.choice(catalog.items)
        length = rng.randint(1, min(max_length, len(item.latent)))
        query = frozenset(rng.sample(sorted(item.latent), length))
        queries.add(query)
    utilities = {
        q: float(max(1, len(catalog.true_result_set(q)))) for q in queries
    }
    return sorted(queries, key=sorted), utilities
