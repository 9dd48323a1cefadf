"""Output checks: the reference comparison and the property checks.

``TOLERANCE`` is derived from the program's convergence rule (see the
README, "Correctness"): the default work-queue criterion drops a node
once its belief moves by less than ``THRESHOLD`` in L1 in one sweep, so
one entry may still move by up to ``THRESHOLD / 2``, and later sweeps by
a geometric tail with the contraction ``rho`` of the workload's coupling.
With ``rho <= 0.87`` on every workload the remaining distance to the
fixed point is at most ``THRESHOLD / 2 * rho / (1 - rho)``, about 3.3e-3;
the float32 storage adds ~1e-6.  A posterior is accepted when every entry is
within ``TOLERANCE`` of the float64 reference.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Checker", "THRESHOLD", "TOLERANCE"]

#: the program's default convergence threshold (ConvergenceCriterion)
THRESHOLD = 1e-3
#: largest contraction of the benchmark's sub-critical couplings
RHO = 0.87
#: max abs error allowed against the reference
TOLERANCE = THRESHOLD / 2 * RHO / (1 - RHO)
#: float32 row sums may drift this far from 1
ROW_SUM_SLACK = 1e-4
#: the program's default iteration cap (ConvergenceCriterion)
MAX_ITERATIONS = 200


class Checker:
    """Collects check failures; a run is correct when none were found."""

    def __init__(self) -> None:
        self.problems: list[str] = []
        self.max_error = 0.0
        self.compared = 0

    @property
    def ok(self) -> bool:
        return not self.problems

    def fail(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)
        elif len(self.problems) == 20:
            self.problems.append("(further problems suppressed)")

    def properties(
        self,
        what: str,
        beliefs: np.ndarray,
        evidence: dict[int, int],
        *,
        converged: bool,
        iterations: int,
    ) -> None:
        """Rows finite, non-negative, summing to 1; observed nodes hold all
        their mass on the observed state; convergence reached before the
        iteration cap."""
        beliefs = np.asarray(beliefs, dtype=np.float64)
        if not np.isfinite(beliefs).all():
            self.fail(f"{what}: non-finite posterior")
            return
        if (beliefs < 0).any():
            self.fail(f"{what}: negative posterior")
        sums = beliefs.sum(axis=1)
        if np.abs(sums - 1.0).max() > ROW_SUM_SLACK:
            self.fail(f"{what}: row sums off by {np.abs(sums - 1.0).max():.3g}")
        for node, state in evidence.items():
            if abs(beliefs[node, state] - 1.0) > ROW_SUM_SLACK:
                self.fail(f"{what}: observed node {node} not clamped to {state}")
                break
        if not converged or iterations >= MAX_ITERATIONS:
            self.fail(f"{what}: not converged after {iterations} iterations")

    def against(self, what: str, beliefs: np.ndarray, reference: np.ndarray) -> None:
        err = float(np.abs(np.asarray(beliefs, np.float64) - reference).max())
        self.max_error = max(self.max_error, err)
        self.compared += 1
        if err > TOLERANCE:
            self.fail(f"{what}: max abs error {err:.3g} > {TOLERANCE:g} vs reference")
