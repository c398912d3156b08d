"""Projector partitions of one replicate unit.

The covariance of one replicate unit (block, wholeplot, Latin square) in an
orthogonal blocking design can be written as ``V = sum_l G_l (x) A_l`` where
the ``A_l`` are mutually orthogonal idempotents summing to the identity and
each ``G_l`` is a small symmetric matrix over the variables (response first,
then covariates).  This module holds the projector-set type and its checks
(``check-design``); :func:`.orthogonal_conditional.recipe_partition` builds
the sets.  The complete-RCB closed forms use the same strata as sums of
squares and products (:func:`.rcb_classical._rcb_table`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError


def averaging_matrix(n: int) -> np.ndarray:
    """Return ``J_n/n``, the projector onto the span of the ones vector."""
    if n < 1:
        raise ValidationError(f"averaging_matrix needs n >= 1, got {n}")
    return np.full((n, n), 1.0 / n)


@dataclass(frozen=True)
class OrthogonalPartition:
    """Ordered projector set ``A_0..A_q`` on R^dim, with ``A_0 = J/dim``.

    Each projector is symmetric idempotent, the set is mutually orthogonal,
    and the projectors sum to the identity.  Use :func:`validate_partition`
    to check a hand-built instance.
    """

    dim: int
    projectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        projs = tuple(np.asarray(A, dtype=float) for A in self.projectors)
        for A in projs:
            if A.shape != (self.dim, self.dim):
                raise ValidationError(
                    f"projector shape {A.shape} does not match dim {self.dim}"
                )
        object.__setattr__(self, "projectors", projs)

    @property
    def n_strata(self) -> int:
        return len(self.projectors)

    def ranks(self) -> np.ndarray:
        """Projector ranks (traces, rounded to the nearest integer)."""
        return np.array([int(round(np.trace(A))) for A in self.projectors])


@dataclass(frozen=True)
class PartitionReport:
    """Residuals of the projector-set checks, and the pass verdict."""

    idempotency: float
    symmetry: float
    orthogonality: float
    completeness: float
    grand_mean: float  # max |A_0 - J/dim|
    tol: float

    @property
    def passed(self) -> bool:
        return (
            max(
                self.idempotency,
                self.symmetry,
                self.orthogonality,
                self.completeness,
                self.grand_mean,
            )
            <= self.tol
        )


def validate_partition(p: OrthogonalPartition, tol: float = 1e-10) -> PartitionReport:
    """Check idempotency, orthogonality, completeness, and the A_0 convention.

    Returns a report with the max-abs residual of each check; ``passed`` is
    true iff every residual is within ``tol``.
    """
    projs = p.projectors
    if not projs:
        raise ValidationError("partition has no projectors")
    idem = max(np.max(np.abs(A @ A - A)) for A in projs)
    symm = max(np.max(np.abs(A - A.T)) for A in projs)
    orth = 0.0
    for i in range(len(projs)):
        for j in range(i + 1, len(projs)):
            orth = max(orth, np.max(np.abs(projs[i] @ projs[j])))
    comp = np.max(np.abs(sum(projs) - np.eye(p.dim)))
    grand = np.max(np.abs(projs[0] - averaging_matrix(p.dim)))
    return PartitionReport(
        idempotency=float(idem),
        symmetry=float(symm),
        orthogonality=float(orth),
        completeness=float(comp),
        grand_mean=float(grand),
        tol=tol,
    )
