"""Projector partitions and Kronecker-structured covariances.

The covariance of one replicate unit (block, wholeplot, Latin square) in an
orthogonal blocking design can be written as ``V = sum_l G_l (x) A_l`` where
the ``A_l`` are mutually orthogonal idempotents summing to the identity and
each ``G_l`` is a small symmetric matrix over the variables (response first,
then covariates).  Stratum regressions and the structured inverse run
through the two value types defined here; the complete-RCB closed forms use
the same strata as sums of squares and products (:mod:`.rcb_classical`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SingularityError, ValidationError


def centering_matrix(n: int) -> np.ndarray:
    """Return ``I_n - J_n/n``: symmetric, idempotent, annihilates ones."""
    if n < 1:
        raise ValidationError(f"centering_matrix needs n >= 1, got {n}")
    return np.eye(n) - np.full((n, n), 1.0 / n)


def averaging_matrix(n: int) -> np.ndarray:
    """Return ``J_n/n``, the projector onto the span of the ones vector."""
    if n < 1:
        raise ValidationError(f"averaging_matrix needs n >= 1, got {n}")
    return np.full((n, n), 1.0 / n)


def helmert_matrix(t: int) -> np.ndarray:
    """Orthogonal t x t matrix whose first column is the normalized ones.

    Column 1 is ``1/sqrt(t)``; column j (j >= 2) is the classical contrast
    with entries ``1/sqrt(j(j-1))`` in the first ``j-1`` rows,
    ``-(j-1)/sqrt(j(j-1))`` in row j, zeros below.  Any orthonormal
    completion of the ones column gives the same likelihoods; this one is
    fixed for reproducibility.
    """
    if t < 1:
        raise ValidationError(f"helmert_matrix needs t >= 1, got {t}")
    H = np.zeros((t, t))
    H[:, 0] = 1.0 / np.sqrt(t)
    for j in range(2, t + 1):
        norm = np.sqrt(j * (j - 1))
        H[: j - 1, j - 1] = 1.0 / norm
        H[j - 1, j - 1] = -(j - 1) / norm
    return H


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


def rcb_partition(t: int) -> OrthogonalPartition:
    """Two-stratum partition of a complete block: grand mean and contrasts."""
    if t < 2:
        raise ValidationError(f"rcb_partition needs t >= 2, got {t}")
    return OrthogonalPartition(
        dim=t, projectors=(averaging_matrix(t), centering_matrix(t))
    )


@dataclass(frozen=True)
class KroneckerCovariance:
    """Covariance ``V = sum_l G_l (x) A_l`` over one replicate unit.

    ``strata[l]`` is the symmetric (m+1) x (m+1) matrix attached to
    projector ``partition.projectors[l]``; variable 0 is the response.
    The dense realization lives in variable-major layout: index
    ``variable * dim + unit``.
    """

    partition: OrthogonalPartition
    strata: tuple[np.ndarray, ...] = field(default=())

    def __post_init__(self):
        strata = tuple(np.asarray(G, dtype=float) for G in self.strata)
        if len(strata) != self.partition.n_strata:
            raise ValidationError(
                f"{len(strata)} strata for {self.partition.n_strata} projectors"
            )
        size = strata[0].shape[0] if strata else 0
        for G in strata:
            if G.ndim != 2 or G.shape != (size, size):
                raise ValidationError("strata must be square and equally sized")
            if np.max(np.abs(G - G.T)) > 1e-8 * (1.0 + np.max(np.abs(G))):
                raise ValidationError("stratum matrix is not symmetric")
        object.__setattr__(self, "strata", strata)

    @property
    def n_variables(self) -> int:
        return self.strata[0].shape[0]


def kron_cov_dense(kc: KroneckerCovariance) -> np.ndarray:
    """Dense ``sum_l G_l (x) A_l`` in variable-major layout."""
    k = kc.partition.dim
    v = kc.n_variables
    V = np.zeros((v * k, v * k))
    for G, A in zip(kc.strata, kc.partition.projectors):
        V += np.kron(G, A)
    return V


def kron_cov_inverse(kc: KroneckerCovariance) -> KroneckerCovariance:
    """Partition-preserving inverse: invert each stratum matrix in place.

    Valid because the A_l are orthogonal idempotents summing to I, so
    ``(sum G_l (x) A_l)^-1 = sum G_l^-1 (x) A_l``.
    """
    inv = []
    for l, G in enumerate(kc.strata):
        try:
            Gi = np.linalg.inv(G)
        except np.linalg.LinAlgError as exc:
            raise SingularityError(f"stratum {l} matrix is singular") from exc
        # reject numerically singular strata that inv() silently accepts
        if not np.all(np.isfinite(Gi)) or np.linalg.cond(G) > 1e14:
            raise SingularityError(f"stratum {l} matrix is singular")
        inv.append(Gi)
    return KroneckerCovariance(partition=kc.partition, strata=tuple(inv))
