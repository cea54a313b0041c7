"""Solution certificates and the differential verification harness.

Nothing in this package trusts solver code: coverage, cost and utility are
re-derived from raw set algebra and the workload's accessors, so a
bookkeeping bug anywhere in a solver (or in the shared incremental
coverage engine) surfaces as a typed
:class:`~repro.core.errors.CertificateError` instead of a silently wrong
number.

Solvers only answer: certification is a separate call made where a
certificate is read.

Entry points:

- :func:`verify_solution` / :func:`build_certificate` — certify one
  solution against one instance, and :func:`attach_certificate` to
  record the certificate in the solution's meta;
- :func:`verify_cover` — check an MC3 full cover;
- :func:`run_differential` — sweep every registered solver arm over the
  seeded corpus and cross-check invariants (oracle dominance, the
  Knapsack/DkS reduction oracles, GMC3/ECC consistency with BCC at the
  implied budget);
- :mod:`repro.verify.metamorphic` — semantics-preserving transforms that
  must leave certified answers invariant;
- ``python -m repro.verify`` — the corpus sweep as a command.
"""

from repro.verify.anytime import check_incumbent_trace
from repro.verify.certificate import (
    SolutionCertificate,
    attach_certificate,
    build_certificate,
    verify_cover,
    verify_solution,
)
from repro.verify.corpus import CorpusCase, corpus, corpus_cases
from repro.verify.incremental import check_delta_stream, random_delta_stream
from repro.verify.differential import (
    DifferentialReport,
    Finding,
    SolverArm,
    default_arms,
    dishonest_arm,
    run_differential,
    self_test,
)
from repro.verify.metamorphic import (
    check_budget_monotonicity,
    check_duplicate_merge,
    check_property_renaming,
    check_utility_rescaling,
    merge_duplicate_queries,
    run_metamorphic,
)

__all__ = [
    "check_incumbent_trace",
    "SolutionCertificate",
    "build_certificate",
    "verify_solution",
    "verify_cover",
    "attach_certificate",
    "CorpusCase",
    "corpus",
    "corpus_cases",
    "check_delta_stream",
    "random_delta_stream",
    "SolverArm",
    "Finding",
    "DifferentialReport",
    "default_arms",
    "dishonest_arm",
    "run_differential",
    "self_test",
    "merge_duplicate_queries",
    "check_budget_monotonicity",
    "check_utility_rescaling",
    "check_property_renaming",
    "check_duplicate_merge",
    "run_metamorphic",
]
