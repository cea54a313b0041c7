"""Instance fingerprint features for the arm cost model.

A runtime prediction is only transferable between instances if the
instances are described the same way, so this module is the single
definition of the feature vector: a fixed-order tuple of non-negative
floats derived from the workload's *size* — query count, property-universe
size, plan-length histogram, shard count.  Two deliberate properties:

- **Monotone in size.**  Every feature is a ``log1p`` of a count, so
  growing the instance never shrinks any feature.  The cost model clamps
  its weights to be non-negative, and the composition guarantees the
  predicted runtime is monotone in instance size — a bigger workload is
  never predicted to finish faster (see ``tests/test_slo.py``).
- **Engine-free.**  The engine is a *store key*, not a feature: the same
  instance compiles to very different kernels under ``sets`` and
  ``bits``, so observations are recorded per engine and a prediction
  only ever mixes observations from one engine.
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from repro.core.model import ClassifierWorkload

#: Fixed feature order — the store serializes vectors positionally.
FEATURE_NAMES: Tuple[str, ...] = (
    "log_queries",
    "log_properties",
    "log_len1",
    "log_len2",
    "log_len3",
    "log_len4p",
    "log_shards",
)

FeatureVector = Tuple[float, ...]


def features_from_counts(
    n_queries: int,
    n_properties: int,
    len1: int,
    len2: int,
    len3: int,
    len4p: int,
    n_shards: int,
) -> FeatureVector:
    """The feature vector for explicit size counts (all must be >= 0).

    Shared by :func:`instance_features` and the hypothesis strategies, so
    fuzzed vectors are exactly the vectors real workloads produce.
    """
    counts = (n_queries, n_properties, len1, len2, len3, len4p, n_shards)
    for name, count in zip(FEATURE_NAMES, counts):
        if count < 0:
            raise ValueError(f"{name} count must be >= 0, got {count}")
    return tuple(math.log1p(float(count)) for count in counts)


def instance_features(workload: ClassifierWorkload) -> FeatureVector:
    """The fingerprint feature vector of ``workload``.

    ``|Q|``, ``|P|``, the plan-length histogram bucketed at 1/2/3/4+, and
    the number of independent shards of the decomposition partition —
    the shard count is what separates "one huge coupled component" from
    "many small independent ones" at equal ``|Q|``, and those solve at
    very different speeds through the sharded arms.
    """
    from repro.decompose.partition import partition_workload

    buckets = [0, 0, 0, 0]
    for query in workload.queries:
        buckets[min(len(query), 4) - 1] += 1
    return features_from_counts(
        workload.num_queries,
        len(workload.properties),
        buckets[0],
        buckets[1],
        buckets[2],
        buckets[3],
        len(partition_workload(workload).shards),
    )


def features_as_dict(vector: FeatureVector) -> Dict[str, float]:
    """Name→value view of a feature vector (telemetry and debugging)."""
    if len(vector) != len(FEATURE_NAMES):
        raise ValueError(
            f"expected {len(FEATURE_NAMES)} features, got {len(vector)}"
        )
    return dict(zip(FEATURE_NAMES, vector))
