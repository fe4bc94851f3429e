"""Centralized numerical tolerances.

The underlying identities are exact; every threshold below is an
implementation artifact and is meant to be tunable per run.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    residual: float = 1e-10      # largest boundary-equation residual |B(eta) - u| of Clark points
    distinct: float = 1e-8       # minimum separation of computed Clark points
    match: float = 1e-8          # Clark-point matching tolerance
    decision: float = 1e-7       # membership accept threshold, relative to 1 + max|entry|
    reject_band: float = 1e-4    # relative residuals above this are clean rejections
    quadrature: float = 1e-12    # circle-quadrature convergence target
    rank: float = 1e-8           # numerical-rank cutoff relative to sigma_max
    fit: float = 1e-8            # scalar-multiple fit tolerance in classifications


DEFAULT = Tolerances()
