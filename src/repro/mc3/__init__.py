"""MC3 — Minimization of Classifier Construction Costs (Definition 2.4).

The predecessor problem of [23]: find a classifier set of minimum total cost
that covers *all* queries.  The paper uses an MC3 solver in three places,
all reproduced here:

1. as the local-search optimization inside ``A^BCC`` (line 3 of Algorithm 1),
2. to compute the budget upper bound for experiment sweeps (the cost that
   suffices to cover every query), and
3. as the backbone of the IG1 baseline's cheapest-cover computation.

For ``l <= 2`` the problem is solvable exactly in PTIME (Theorem 2.5); our
exact solver expresses it as a project-selection min-cut.  For ``l >= 3``
(NP-hard) we provide a greedy minimal-cover heuristic.
"""

from repro.mc3.errors import InfeasibleCoverError
from repro.mc3.exact_l2 import solve_mc3_l2
from repro.mc3.greedy import solve_mc3_greedy
from repro.mc3.solver import full_cover_cost, solve_mc3

__all__ = [
    "solve_mc3",
    "solve_mc3_l2",
    "solve_mc3_greedy",
    "full_cover_cost",
    "InfeasibleCoverError",
]
