"""Euclidean projection onto the capped simplex ``{x in [0,1]^n : sum x = k}``.

The feasible set of the continuous HkS relaxation.  The projection of ``y``
has the form ``x_i = clip(y_i - tau, 0, 1)`` for the unique shift ``tau``
making the coordinates sum to ``k``; we find ``tau`` by bisection on the
monotone function ``tau -> sum_i clip(y_i - tau, 0, 1)``.

Each bisection step only needs the *sign* of ``mass(tau) - k``, and the
numpy sum is an O(n) pass.  So the loop first decides from an O(log n)
estimate read off the sorted ``y`` and its prefix sums ``P``::

    A = (n - b) + (P[b] - P[a]) - (b - a) * tau

where ``a`` counts ``y <= tau`` and ``b`` counts ``y < tau + 1`` (the
coordinates clipped to 0 and to 1 respectively; the ones in between
contribute ``y - tau``).  With ``u = 2**-53``, ``N = max(n, 4)``,
``gamma = N u / (1 - N u)`` and ``Y = max(|lo| + 1, |hi|)`` bounding every
``|y_i|`` and ``|tau|``, the numpy sum differs from ``A`` by at most
``E = 8 gamma N (Y + 1)`` in any summation order (docs/ALGORITHMS.md,
"Hot-path kernels & profiling", derives it with a factor-2 margin).  When
``A`` clears ``k`` by ``E`` the step takes the branch the numpy sum would
take; only inside the band does it run the numpy sum itself.  Every branch,
and so the returned array, is the one the plain bisection produces.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right

import numpy as np

from repro.profile import add_count

_UNIT_ROUNDOFF = 2.0 ** -53

#: Above this ``4 N (Y + 1)`` the estimate's terms may overflow; such
#: inputs (and any ``nan``/``inf`` entry, whose ``Y`` is not finite) decide
#: every step by the numpy sum.
_ESTIMATE_RANGE = 1e300


def project_capped_simplex(y: np.ndarray, k: float, tol: float = 1e-10) -> np.ndarray:
    """Project ``y`` onto ``{x in [0,1]^n : sum(x) = k}``.

    Raises:
        ValueError: if ``k`` is outside ``[0, n]`` (the set is empty).
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    if not 0.0 <= k <= n:
        raise ValueError(f"k={k} outside [0, {n}]: capped simplex is empty")
    if k == 0.0:
        return np.zeros(n)
    if k == float(n):
        return np.ones(n)

    def mass(tau: float) -> float:
        return float(np.clip(y - tau, 0.0, 1.0).sum())

    # sum is non-increasing in tau; bracket the root.
    lo = float(y.min()) - 1.0  # mass(lo) >= ... >= k eventually: mass(lo)=n>=k
    hi = float(y.max())        # mass(hi) = 0 <= k

    # Memoryviews, not lists: bisect and indexing read Python floats from
    # them without an O(n) conversion per call.
    sorted_y = np.sort(y, axis=None)
    prefix_sums = np.zeros(n + 1)
    np.cumsum(sorted_y, out=prefix_sums[1:])
    ordered = memoryview(sorted_y)
    prefix = memoryview(prefix_sums)
    big_n = max(n, 4)
    gamma = big_n * _UNIT_ROUNDOFF / (1.0 - big_n * _UNIT_ROUNDOFF)
    scale = max(abs(lo) + 1.0, abs(hi))
    band = 8.0 * gamma * big_n * (scale + 1.0)
    if not 4.0 * big_n * (scale + 1.0) < _ESTIMATE_RANGE:
        band = math.nan  # fails both comparisons: every step is exact

    exact = 0
    for steps in range(1, 201):
        mid = 0.5 * (lo + hi)
        a = bisect_right(ordered, mid)
        b = bisect_left(ordered, mid + 1.0)
        estimate = (n - b) + (prefix[b] - prefix[a]) - (b - a) * mid
        if estimate - k > band:
            lo = mid
        elif k - estimate >= band:
            hi = mid
        else:
            exact += 1
            if mass(mid) > k:
                lo = mid
            else:
                hi = mid
        if hi - lo < tol:
            break
    add_count("projection_steps", steps)
    add_count("projection_exact", exact)
    x = np.clip(y - 0.5 * (lo + hi), 0.0, 1.0)
    # Final mass correction: distribute any residual over interior coords.
    residual = k - float(x.sum())
    if abs(residual) > 0:
        interior = (x > 0.0) & (x < 1.0)
        if interior.any():
            x[interior] += residual / int(interior.sum())
            x = np.clip(x, 0.0, 1.0)
    return x


def top_k_indices(x: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest entries of ``x`` (deterministic ties)."""
    if k <= 0:
        return np.empty(0, dtype=int)
    k = min(k, x.size)
    order = np.argsort(-x, kind="stable")
    return order[:k]
