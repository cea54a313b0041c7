"""Shared experiment infrastructure: result records and sweeps."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.solution import Solution


@dataclass
class Row:
    """One (x-value, algorithm) cell of a figure."""

    x: Any
    algorithm: str
    value: float
    seconds: float
    extra: Dict[str, Any] = field(default_factory=dict)


@dataclass
class FigureResult:
    """All rows of one reproduced figure plus free-form notes."""

    figure: str
    title: str
    x_label: str
    value_label: str
    rows: List[Row] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add(self, x: Any, algorithm: str, value: float, seconds: float, **extra: Any) -> None:
        """Append one cell."""
        self.rows.append(Row(x, algorithm, value, seconds, extra))

    def series(self, algorithm: str) -> List[Tuple[Any, float]]:
        """The ``(x, value)`` series of one algorithm, in insertion order."""
        return [(row.x, row.value) for row in self.rows if row.algorithm == algorithm]

    def algorithms(self) -> List[str]:
        """Algorithm names in first-appearance order."""
        seen: List[str] = []
        for row in self.rows:
            if row.algorithm not in seen:
                seen.append(row.algorithm)
        return seen

    def x_values(self) -> List[Any]:
        """X values in first-appearance order."""
        seen: List[Any] = []
        for row in self.rows:
            if row.x not in seen:
                seen.append(row.x)
        return seen

    def value_at(self, x: Any, algorithm: str) -> Optional[float]:
        """The value of one cell, or ``None`` if absent."""
        for row in self.rows:
            if row.x == x and row.algorithm == algorithm:
                return row.value
        return None

    def canonical(self, include_seconds: bool = True) -> str:
        """A canonical serialization of the rows (stability comparisons).

        Rows serialize in insertion order with sorted keys; floats keep
        their exact shortest-round-trip form, ``Solution`` objects in the
        extras canonicalize through the cache payload encoding (sorted
        classifier lists, no iteration-order leakage).  Two runs of the
        same figure produced identical rows iff their canonical strings
        are byte-identical.  ``include_seconds=False`` drops the timing
        column and the solution metas (diagnostics beside the answer, such
        as the SLO meta-solver's clock readings) for comparisons across
        cold runs.
        """
        from repro.parallel.cache import solution_to_payload

        def encode(value: Any) -> Any:
            if isinstance(value, Solution):
                payload = solution_to_payload(value)
                if not include_seconds:
                    payload.pop("meta", None)
                return payload
            if isinstance(value, dict):
                return {str(k): encode(v) for k, v in value.items()}
            if isinstance(value, (list, tuple)):
                return [encode(v) for v in value]
            if isinstance(value, (str, int, float, bool)) or value is None:
                return value
            return repr(value)

        payload = [
            {
                "x": encode(row.x),
                "algorithm": row.algorithm,
                "value": encode(row.value),
                **({"seconds": encode(row.seconds)} if include_seconds else {}),
                "extra": encode(row.extra),
            }
            for row in self.rows
        ]
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def digest(self, include_seconds: bool = True) -> str:
        """Hex SHA-256 of :meth:`canonical` — the row-stability fingerprint."""
        return hashlib.sha256(self.canonical(include_seconds).encode("utf-8")).hexdigest()


def mean_in_order(values: List[float]) -> float:
    """The mean with left-to-right float accumulation.

    Float addition is not associative; every path that averages trial
    values uses this helper so serial, parallel and cache-served runs sum
    in the same order and agree to the last bit.
    """
    if not values:
        raise ValueError("mean_in_order requires at least one value")
    total = 0.0
    for value in values:
        total += value
    return total / len(values)


def budget_sweep(full_cost: float, fractions: Tuple[float, ...]) -> List[float]:
    """Budget values as fractions of the MC3 full-cover cost (Section 6.1)."""
    return [max(1.0, round(full_cost * fraction)) for fraction in fractions]
