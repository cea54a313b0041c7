"""Stable instance fingerprints — the cache key of the execution layer.

A fingerprint is a SHA-256 over a canonical encoding of the semantic
content of an instance: the tuple ``⟨Q, U, C, B⟩`` (or target for GMC3),
plus the defaults that complete the partial utility/cost maps.  Canonical
means the encoding is invariant under every representation detail that
does not change the instance:

- query order and property iteration order (everything is sorted);
- dict insertion order of the utility and cost maps;
- float formatting of values (``2`` vs ``2.0`` vs ``2e0`` all encode as
  the shortest round-trip ``repr`` of the same ``float``);
- whether a query's utility arrives explicitly or through
  ``default_utility`` (effective per-query utilities are encoded).

Explicit classifier costs are encoded as the sorted explicit map plus the
default — two instances whose cost maps differ only in the explicit vs.
default split of the *same* effective costs hash differently, which costs
a cache miss but never a wrong hit.  Two semantically different instances
collide only with SHA-256 collision probability.

The budget-free encoding is memoized on the workload, once per version,
so a budget sweep or a warm serving read hashes it and appends only the
``B=``/``T=`` token; every hex equals the cold encoding's.
"""

from __future__ import annotations

import hashlib
import math
from typing import Iterable, List, Optional, Tuple

from repro.core.model import BCCInstance, ClassifierWorkload, GMC3Instance

FINGERPRINT_VERSION = 1


def _encode_float(value: float) -> str:
    """Shortest round-trip encoding; normalizes int-valued inputs."""
    value = float(value)
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if math.isnan(value):
        return "nan"
    return repr(value)


def _encode_props(props: Iterable[object]) -> str:
    return "{" + ",".join(sorted(str(p) for p in props)) + "}"


def workload_tokens(workload: ClassifierWorkload) -> List[str]:
    """The canonical token stream of the budget-free part of an instance."""
    tokens = [f"v{FINGERPRINT_VERSION}", type(workload).__name__]
    tokens.append("Q:")
    for query in sorted(workload.queries, key=_encode_props):
        tokens.append(f"{_encode_props(query)}={_encode_float(workload.utility(query))}")
    tokens.append("C:")
    explicit = sorted(
        (_encode_props(classifier), _encode_float(cost))
        for classifier, cost in workload._costs.items()
    )
    tokens.extend(f"{name}={cost}" for name, cost in explicit)
    tokens.append(f"dU={_encode_float(workload.default_utility)}")
    tokens.append(f"dC={_encode_float(workload.default_cost)}")
    return tokens


def _payload(workload: ClassifierWorkload) -> bytes:
    """The encoded :func:`workload_tokens` stream, memoized on the workload.

    One payload per live workload version, freed with the workload: every
    mutator replaces the memo box, and ``with_budget`` twins share it.
    """
    memo = workload._payload_memo
    if memo.payload is None:
        memo.payload = "\x1f".join(workload_tokens(workload)).encode("utf-8")
    return memo.payload


def workload_fingerprint(workload: ClassifierWorkload) -> str:
    """Hex SHA-256 of the budget-free instance content ``⟨Q, U, C⟩``.

    The content address of the incremental engine's shard-profile store:
    two shard views with identical queries, effective utilities and
    explicit costs hash equal no matter which global budget, shard index
    or workload version produced them, so solved pareto profiles survive
    re-partitioning after a delta.  Budget-sensitive callers want
    :func:`instance_fingerprint` instead.
    """
    return hashlib.sha256(_payload(workload)).hexdigest()


def shard_fingerprints(
    workload: ClassifierWorkload,
    shards: Iterable[Iterable[object]],
) -> List[str]:
    """Per-shard :func:`workload_fingerprint` without materializing shards.

    Token-identical to ``workload_fingerprint(workload.restrict(shard))``
    for each shard, but computed in one pass over the parent workload:
    the explicit cost map is walked once, attributing each entry to every
    shard containing one of its queries, instead of once per shard.  For
    a partition of ``s`` shards this is ``O(|workload|)`` total where the
    restrict-based path is ``O(s * |workload|)`` — the difference between
    a re-plan touching two shards and one that re-reads the whole
    workload per shard.
    """
    shard_lists = [list(shard) for shard in shards]
    shard_of = {
        query: index
        for index, members in enumerate(shard_lists)
        for query in members
    }
    query_sections: List[List[str]] = []
    for members in shard_lists:
        query_sections.append(
            [
                f"{_encode_props(query)}={_encode_float(workload.utility(query))}"
                for query in sorted(members, key=_encode_props)
            ]
        )
    cost_entries: List[List[Tuple[str, str]]] = [[] for _ in shard_lists]
    for classifier, cost in workload._costs.items():
        encoded = (_encode_props(classifier), _encode_float(cost))
        seen: set = set()
        for query in workload.queries_containing(classifier):
            index = shard_of.get(query)
            if index is not None and index not in seen:
                seen.add(index)
                cost_entries[index].append(encoded)
    prefix = [f"v{FINGERPRINT_VERSION}", type(workload).__name__, "Q:"]
    suffix = [
        f"dU={_encode_float(workload.default_utility)}",
        f"dC={_encode_float(workload.default_cost)}",
    ]
    digests: List[str] = []
    for section, entries in zip(query_sections, cost_entries):
        tokens = prefix + section + ["C:"]
        tokens.extend(f"{name}={cost}" for name, cost in sorted(entries))
        tokens.extend(suffix)
        payload = "\x1f".join(tokens).encode("utf-8")
        digests.append(hashlib.sha256(payload).hexdigest())
    return digests


def instance_fingerprint(workload: ClassifierWorkload) -> str:
    """Hex SHA-256 of the canonical instance encoding (includes B/T).

    The digest of the :func:`workload_tokens` stream plus one ``B=`` or
    ``T=`` token; the budget-free part is hashed from the workload's
    memoized payload.
    """
    digest = hashlib.sha256(_payload(workload))
    if isinstance(workload, BCCInstance):
        digest.update(f"\x1fB={_encode_float(workload.budget)}".encode("utf-8"))
    elif isinstance(workload, GMC3Instance):
        digest.update(f"\x1fT={_encode_float(workload.target)}".encode("utf-8"))
    return digest.hexdigest()


def task_fingerprint(
    workload: ClassifierWorkload,
    solver: str,
    seed: Optional[int] = None,
    params: Tuple[Tuple[str, object], ...] = (),
) -> str:
    """Cache key of one solve: instance ⊕ solver name ⊕ seed ⊕ params."""
    tokens = [
        instance_fingerprint(workload),
        f"solver={solver}",
        f"seed={'-' if seed is None else int(seed)}",
    ]
    tokens.extend(f"{name}={value!r}" for name, value in sorted(params))
    payload = "\x1f".join(tokens).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()
