"""The arm-stats store: per-arm runtime/utility observations, versioned.

One JSON file — by default ``.repro-arm-stats.json``, next to the
``.repro-cache/`` result cache (override with ``REPRO_ARM_STATS``; pass
``path=None`` for a purely in-memory store) — holding every recorded
``(arm, engine) → [(features, seconds, utility), ...]`` observation.

Callers go through the interface, never the schema: ``record()`` to add
an observation, ``predict_runtime()`` for a runtime estimate,
``observation_count()`` for telemetry.  The file layout is private and
guarded by :data:`STATS_VERSION` — a version bump, a corrupt file or a
missing file all degrade identically to an *empty* store (predictions
fall back to the registry tier priors) instead of raising, because a
serving system must keep answering when its statistics are gone.  The
interflux budget-control review (SNIPPETS.md snippet 1) is the cautionary
tale here: its cost estimator coupled callers to a stats schema with no
version check, so schema drift broke them silently.

Prediction ladder (see :mod:`repro.slo.cost_model`):

1. enough observations for the arm+engine → the fitted cost model;
2. a few observations → geometric mean of observed runtimes;
3. none → the arm's registry cost-tier prior.

Models are refit *lazily*: a fitted model is reused until the
observation count for its key has grown past
:data:`REFIT_GROWTH_FACTOR`, so recording stays O(1) and prediction
amortizes the fit.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.parallel.registry import TIER_PRIOR_SECONDS, solver_tier
from repro.slo.cost_model import CostModel, fit_cost_model
from repro.slo.features import FEATURE_NAMES, FeatureVector

#: Bump when the on-disk layout changes; stale files load as empty.
STATS_VERSION = 1

DEFAULT_STATS_FILE = ".repro-arm-stats.json"

#: Per-(arm, engine) observation cap: oldest entries roll off so the
#: store — and every fit — stays bounded no matter how long it serves.
MAX_OBSERVATIONS_PER_KEY = 256

#: Refit once observations grow by this factor since the last fit.
REFIT_GROWTH_FACTOR = 1.25

_Key = Tuple[str, str]  # (arm, engine)


@dataclass
class StoreStats:
    """Telemetry counters for one store handle."""

    recorded: int = 0
    fits: int = 0
    discarded_files: int = 0


@dataclass
class ArmStatsStore:
    """Versioned observation store with a :meth:`predict_runtime` interface.

    Attributes:
        path: backing JSON file, or None for an in-memory store (tests,
            figures — anything that must not see another run's history).
        stats: counters for this handle (not persisted).
    """

    path: Optional[Path] = field(default_factory=lambda: Path(DEFAULT_STATS_FILE))
    stats: StoreStats = field(default_factory=StoreStats)

    def __post_init__(self) -> None:
        self.path = Path(self.path) if self.path is not None else None
        self._observations: Dict[_Key, List[Tuple[FeatureVector, float, float]]] = {}
        self._models: Dict[_Key, CostModel] = {}
        self._dirty = False
        if self.path is not None:
            self._load()

    # ------------------------------------------------------------------
    # persistence (private schema)
    # ------------------------------------------------------------------
    def _load(self) -> None:
        try:
            payload = json.loads(self.path.read_text())
        except OSError:
            return  # no file yet: empty store
        except ValueError:
            self.stats.discarded_files += 1
            return  # corrupt: degrade to empty, never raise
        if not isinstance(payload, dict) or payload.get("version") != STATS_VERSION:
            self.stats.discarded_files += 1
            return  # version bump: old observations are not trusted
        try:
            for arm, engines in payload["observations"].items():
                for engine, rows in engines.items():
                    parsed = []
                    for row in rows[-MAX_OBSERVATIONS_PER_KEY:]:
                        features = tuple(float(f) for f in row[0])
                        if len(features) != len(FEATURE_NAMES):
                            raise ValueError("feature arity mismatch")
                        parsed.append((features, float(row[1]), float(row[2])))
                    self._observations[(str(arm), str(engine))] = parsed
        except (KeyError, TypeError, ValueError, IndexError, AttributeError):
            self._observations.clear()
            self.stats.discarded_files += 1

    def save(self) -> None:
        """Persist to :attr:`path` atomically (no-op for in-memory stores)."""
        if self.path is None or not self._dirty:
            return
        observations: Dict[str, Dict[str, list]] = {}
        for (arm, engine), rows in sorted(self._observations.items()):
            observations.setdefault(arm, {})[engine] = [
                [list(features), seconds, utility]
                for features, seconds, utility in rows
            ]
        payload = {"version": STATS_VERSION, "observations": observations}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True))
        os.replace(tmp, self.path)
        self._dirty = False

    # ------------------------------------------------------------------
    # the caller-facing interface
    # ------------------------------------------------------------------
    def record(
        self,
        arm: str,
        engine: str,
        features: FeatureVector,
        seconds: float,
        utility: float,
    ) -> None:
        """Record one observed solve (runtime + achieved utility)."""
        if len(features) != len(FEATURE_NAMES):
            raise ValueError(
                f"expected {len(FEATURE_NAMES)} features, got {len(features)}"
            )
        if seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {seconds}")
        rows = self._observations.setdefault((arm, engine), [])
        rows.append((tuple(float(f) for f in features), float(seconds), float(utility)))
        if len(rows) > MAX_OBSERVATIONS_PER_KEY:
            del rows[: len(rows) - MAX_OBSERVATIONS_PER_KEY]
        self.stats.recorded += 1
        self._dirty = True

    def observation_count(self, arm: str, engine: str) -> int:
        return len(self._observations.get((arm, engine), ()))

    def total_observations(self) -> int:
        return sum(len(rows) for rows in self._observations.values())

    def _model_for(self, key: _Key) -> Optional[CostModel]:
        rows = self._observations.get(key)
        if not rows:
            return None
        model = self._models.get(key)
        if model is not None and len(rows) < model.observations * REFIT_GROWTH_FACTOR:
            return model
        model = fit_cost_model([(features, seconds) for features, seconds, _ in rows])
        assert model is not None  # rows is non-empty
        self._models[key] = model
        self.stats.fits += 1
        return model

    def predict_runtime(
        self, arm: str, features: FeatureVector, engine: str
    ) -> float:
        """Predicted wall seconds for ``arm`` on an instance with ``features``.

        Always finite and positive; never raises for unknown arms that
        are registered solvers (their tier prior answers).
        """
        model = self._model_for((arm, engine))
        if model is not None:
            return model.predict_seconds(features)
        return TIER_PRIOR_SECONDS[solver_tier(arm)]


def default_stats_store(path: Optional[str] = None) -> ArmStatsStore:
    """The environment-configured store (``REPRO_ARM_STATS`` overrides).

    Lives next to ``.repro-cache/`` by default so one serving directory
    carries both its result cache and its runtime statistics.
    """
    root = path or os.environ.get("REPRO_ARM_STATS", DEFAULT_STATS_FILE)
    return ArmStatsStore(path=Path(root))
