"""The stratum algebra reference of ``oracle_utils``: projector sets of one
replicate unit and covariances over them."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vcadjust.errors import SingularityError, ValidationError

from oracle_utils import (
    KroneckerCovariance,
    OrthogonalPartition,
    averaging_matrix,
    centering_matrix,
    helmert_matrix,
    kron_cov_dense,
    kron_cov_inverse,
    rcb_partition,
)


def _assert_partition(p: OrthogonalPartition, tol: float = 1e-10):
    """Symmetric idempotents, mutually orthogonal, summing to the identity,
    the first of them ``J/dim``."""
    projs = p.projectors
    for i, A in enumerate(projs):
        assert np.max(np.abs(A @ A - A)) <= tol
        assert np.max(np.abs(A - A.T)) <= tol
        for B in projs[i + 1:]:
            assert np.max(np.abs(A @ B)) <= tol
    assert np.max(np.abs(sum(projs) - np.eye(p.dim))) <= tol
    assert np.max(np.abs(projs[0] - averaging_matrix(p.dim))) <= tol


class TestCenteringMatrix:
    def test_scalar(self):
        assert np.allclose(centering_matrix(1), [[0.0]])

    def test_two(self):
        assert np.allclose(centering_matrix(2), [[0.5, -0.5], [-0.5, 0.5]])

    def test_rank_and_kernel(self):
        C = centering_matrix(4)
        assert np.allclose(C @ np.ones(4), 0.0)
        assert np.isclose(np.trace(C), 3.0)
        assert np.allclose(C, C.T)
        assert np.allclose(C @ C, C)

    def test_rejects_zero(self):
        with pytest.raises(ValidationError):
            centering_matrix(0)


class TestHelmertMatrix:
    def test_t1(self):
        assert np.allclose(helmert_matrix(1), [[1.0]])

    def test_t2_sign_convention(self):
        H = helmert_matrix(2)
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(H[:, 0], [s, s])
        assert np.allclose(H[:, 1], [s, -s])

    def test_t6_orthogonal(self):
        H = helmert_matrix(6)
        assert np.max(np.abs(H.T @ H - np.eye(6))) <= 1e-12

    def test_first_column_is_ones(self):
        for t in (2, 5, 9):
            H = helmert_matrix(t)
            assert np.allclose(H[:, 0], np.full(t, 1.0 / np.sqrt(t)))
            # remaining columns are contrasts
            assert np.max(np.abs(H[:, 1:].T @ np.ones(t))) < 1e-12

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=50))
    def test_orthogonality_up_to_50(self, t):
        H = helmert_matrix(t)
        assert np.max(np.abs(H.T @ H - np.eye(t))) <= 1e-12


class TestRcbPartition:
    def test_t2_values(self):
        p = rcb_partition(2)
        assert np.allclose(p.projectors[0], np.full((2, 2), 0.5))
        assert np.allclose(p.projectors[1], centering_matrix(2))

    def test_t6_validates(self):
        _assert_partition(rcb_partition(6))

    def test_t3_ranks(self):
        assert tuple(rcb_partition(3).ranks()) == (1, 2)

    def test_rejects_t1(self):
        with pytest.raises(ValidationError):
            rcb_partition(1)

    def test_helmert_diagonalizes_strata(self):
        # the contrast transform turns the two projectors into 0/1 diagonals
        for t in (3, 6):
            H = helmert_matrix(t)
            A0, A1 = rcb_partition(t).projectors
            d0 = np.zeros(t)
            d0[0] = 1.0
            assert np.max(np.abs(H.T @ A0 @ H - np.diag(d0))) <= 1e-10
            assert np.max(np.abs(H.T @ A1 @ H - np.diag(1.0 - d0))) <= 1e-10


class TestOrthogonalPartition:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            OrthogonalPartition(dim=3, projectors=(np.eye(2),))


def _random_spd(k, rng, scale=1.0):
    A = rng.normal(size=(k, k))
    return scale * (A @ A.T / k + 0.3 * np.eye(k))


class TestKroneckerCovariance:
    def test_inverse_identity_single_stratum(self):
        part = OrthogonalPartition(dim=2, projectors=(averaging_matrix(2), centering_matrix(2)))
        kc = KroneckerCovariance(partition=part, strata=(np.eye(1), np.eye(1)))
        inv = kron_cov_inverse(kc)
        assert np.allclose(kron_cov_dense(inv), np.eye(2))

    def test_inverse_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        part = rcb_partition(3)
        kc = KroneckerCovariance(
            partition=part,
            strata=(_random_spd(2, rng), _random_spd(2, rng)),
        )
        dense = kron_cov_dense(kc)
        inv = kron_cov_dense(kron_cov_inverse(kc))
        assert np.max(np.abs(inv - np.linalg.inv(dense))) <= 1e-10
        assert np.max(np.abs(inv @ dense - np.eye(6))) <= 1e-9

    def test_singular_stratum_reported_with_index(self):
        part = rcb_partition(3)
        kc = KroneckerCovariance(
            partition=part,
            strata=(np.eye(2), np.zeros((2, 2))),
        )
        with pytest.raises(SingularityError, match="stratum 1"):
            kron_cov_inverse(kc)

    def test_dense_reproduces_block_covariance(self):
        # the per-block covariance written with block and residual pieces
        # equals its two-stratum regrouping
        rng = np.random.default_rng(5)
        t = 4
        Sigma_E = _random_spd(2, rng)
        Sigma_B = _random_spd(2, rng, 0.7)
        direct = np.kron(Sigma_E, np.eye(t)) + np.kron(Sigma_B, np.ones((t, t)))
        kc = KroneckerCovariance(
            partition=rcb_partition(t),
            strata=(Sigma_E + t * Sigma_B, Sigma_E),
        )
        assert np.max(np.abs(kron_cov_dense(kc) - direct)) <= 1e-10

    def test_dense_trivial_identity(self):
        part = OrthogonalPartition(
            dim=2, projectors=(averaging_matrix(2), centering_matrix(2))
        )
        kc = KroneckerCovariance(partition=part, strata=(np.eye(1), np.eye(1)))
        assert np.allclose(kron_cov_dense(kc), np.eye(2))

    def test_dense_symmetric_three_strata(self):
        rng = np.random.default_rng(3)
        # latin-square style partition on 4 cells: rows/cols of a 2x2 square
        k = 4
        row = np.array([0, 0, 1, 1])
        col = np.array([0, 1, 0, 1])
        J = averaging_matrix(k)
        Pr = np.zeros((k, k))
        Pc = np.zeros((k, k))
        for g in (0, 1):
            ir, ic = np.where(row == g)[0], np.where(col == g)[0]
            Pr[np.ix_(ir, ir)] = 0.5
            Pc[np.ix_(ic, ic)] = 0.5
        part = OrthogonalPartition(
            dim=k, projectors=(J, Pr - J, Pc - J, np.eye(k) - Pr - Pc + J)
        )
        _assert_partition(part)
        kc = KroneckerCovariance(
            partition=part, strata=tuple(_random_spd(2, rng) for _ in range(4))
        )
        V = kron_cov_dense(kc)
        assert np.max(np.abs(V - V.T)) <= 1e-12

    def test_inverse_roundtrip_property(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            part = rcb_partition(int(rng.integers(2, 7)))
            m = int(rng.integers(0, 3))
            kc = KroneckerCovariance(
                partition=part,
                strata=tuple(_random_spd(m + 1, rng) for _ in range(2)),
            )
            prod = kron_cov_dense(kron_cov_inverse(kc)) @ kron_cov_dense(kc)
            assert np.max(np.abs(prod - np.eye(prod.shape[0]))) <= 1e-9
