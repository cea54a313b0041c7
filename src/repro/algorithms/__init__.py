"""The paper's algorithms: ``A^BCC``, ``A^GMC3``, ``A^ECC`` and support.

- :mod:`repro.algorithms.residual` — residual-problem views: given the
  classifiers selected so far, what are the current 1-covers (a Knapsack
  instance) and 2-covers (a QK instance) of the uncovered queries.
- :mod:`repro.algorithms.pruning` — preprocessing (line 1 of Algorithm 1).
- :mod:`repro.algorithms.bcc` — ``A^BCC`` (Algorithm 1).
- :mod:`repro.algorithms.gmc3` — ``A^GMC3`` (Theorem 5.3).
- :mod:`repro.algorithms.ecc` — ``A^ECC`` (Theorem 5.4).
- :mod:`repro.algorithms.brute_force` — exact BCC oracle (Figure 3d).
"""

from repro.algorithms.bcc import AbccConfig, solve_bcc
from repro.algorithms.brute_force import solve_bcc_exact
from repro.algorithms.ecc import solve_ecc
from repro.algorithms.gmc3 import solve_gmc3
from repro.algorithms.pruning import PruningConfig, prune_classifiers
from repro.algorithms.residual import ResidualProblem

__all__ = [
    "solve_bcc",
    "AbccConfig",
    "solve_gmc3",
    "solve_ecc",
    "solve_bcc_exact",
    "prune_classifiers",
    "PruningConfig",
    "ResidualProblem",
]
