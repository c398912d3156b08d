"""One factor of the mixed-model equations, shared by both engines.

Both fitters solve with M = s I + A'A, A = [a_k (x) Z_k] the (whitened,
scaled) random-effects design.  Term k has p_k loading columns and d_k
levels; its effects sit at positions c * d_k + level of its slice.  Every
term is one level code per record, so the blocks of A'A are Kronecker
products G_ik (x) N_ik of a p_i x p_k loading Gram G_ik = a_i'a_k and a
count matrix N_ik = Z_i'Z_k, bincounts of the codes (:class:`Layout`; no
Z_k is formed), and a term's own N_kk is the diagonal of its level counts.

The factor eliminates the term with the most levels, b, first (block
elimination; Takahashi, Fagan & Chin 1973, and the sparse Cholesky of
Bates et al. 2015).  Its block s I + G_bb (x) diag(n_b) is block diagonal
over levels, and one eigendecomposition G_bb = U diag(g) U' diagonalises
every level's p_b x p_b block: after the rotation R = U (x) I on term b,
that block is the diagonal E with entries e_jl = s + n_l g_j.  With B the
rotated coupling of the other terms to term b and C their own block,

    R'MR = [[E, B'], [B, C]] = L L',  L = [[E^1/2, 0], [G, L_S]],

G = B E^-1/2 and L_S the dense Cholesky factor of the Schur complement
C - G G' over the other terms (empty with one term).  The factor is
F = R L, so F F' = M, F^-1 y = L^-1 R'y and F^-T x = R L^-T x.  log det M,
these solves and the blocks of P = M^-1 that the callers read (selected
inversion) come from U, e, G and L_S:

    P = R (E^-1 (+) 0) R' + J'J,  J = L_S^-1 [-G E^-1/2 | I] R',

so a level block of term b is U diag(1/e_l) U' plus a product of q_r-row
columns of J, q_r the number of effects outside term b.  The factor forms
L_S^-1 once (:func:`_inverse`): it is J's block over the other terms, and
every solve with L_S is a product with it.  With one term an evaluation
costs O(q p_b^2) and no q x q array exists; otherwise the cost adds
O(q_r^2 q) for the Schur complement and J.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

_BLOCK = 64  # order up to which _inverse takes one numpy inverse


def _inverse(L: np.ndarray) -> np.ndarray:
    """L^-1 for a lower-triangular L.

    numpy has no triangular solve, and a general solve factors L again on
    every call, so each solve with a triangular factor in the package is a
    product with its inverse, formed once per factor and reused.  It is
    taken by halves, [[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]],
    so a large L costs matrix products: numpy's general inverse of a
    600 x 600 L takes four times as long.  Blocks of order up to ``_BLOCK``
    invert L' by an LU that takes no row exchanges, which is back
    substitution, so L^-1 is exactly lower triangular.
    """
    n = len(L)
    if n <= _BLOCK:
        return np.linalg.inv(L.T).T if n else L
    h = n // 2
    A, D = _inverse(L[:h, :h]), _inverse(L[h:, h:])
    out = np.zeros_like(L)
    out[:h, :h], out[h:, h:] = A, D
    out[h:, :h] = -D @ (L[h:, :h] @ A)
    return out


def _cholesky(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lower Cholesky factor L of A and L^-1; LinAlgError when A is not
    numerically positive definite.  An empty A skips numpy's per-call cost."""
    L = np.linalg.cholesky(A) if A.size else A
    return L, _inverse(L)


def _kron(a: np.ndarray, N: np.ndarray) -> np.ndarray:
    """a (x) N, with a 1-D N read as diag(N)."""
    N = np.diag(N) if N.ndim == 1 else N
    return (a[:, None, :, None] * N[None, :, None, :]).reshape(a.shape[0] * N.shape[0], -1)


class Layout:
    """Widths, level codes (``codes[k]``, one in [0, ``levels[k]``) per
    record) and count matrices of the random terms: everything about M that
    is fixed for a fit.  ``counts[i, k]`` (i <= k) is Z_i'Z_k, one bincount
    of the codes, as the vector of level counts when i == k."""

    def __init__(self, widths, codes, levels):
        self.widths, self.codes, self.levels = tuple(widths), tuple(codes), tuple(levels)
        d = self.levels
        self.counts = {
            (i, k): np.bincount(codes[i], minlength=d[i]).astype(float) if i == k
            else np.bincount(
                codes[i] * d[k] + codes[k], minlength=d[i] * d[k]
            ).reshape(d[i], d[k]).astype(float)
            for i in range(len(d))
            for k in range(i, len(d))
        }
        sizes = [p * dk for p, dk in zip(self.widths, d)]
        self.slices = _slices(sizes)
        self.q = sum(sizes)
        # the term eliminated first: most levels, the first on a tie
        self.big = int(np.argmax(d)) if d else None
        self.rest = tuple(k for k in range(len(sizes)) if k != self.big)
        self.rest_slices = _slices([sizes[k] for k in self.rest])  # within the others
        idx = np.concatenate(
            [np.zeros(0, dtype=int)] + [np.arange(self.q)[self.slices[k]] for k in self.rest]
        )
        # the others' positions: a slice unless term b sits between two of them
        lo = int(idx[0]) if len(idx) else self.q
        contiguous = np.array_equal(idx, np.arange(lo, lo + len(idx)))
        self.rest_idx = slice(lo, lo + len(idx)) if contiguous else idx

    def level_sums(self, E: np.ndarray) -> list[np.ndarray]:
        """E Z_k per term, for E with one column per record: rows x d_k."""
        return [np.stack([np.bincount(g, weights=row, minlength=d) for row in E])
                for g, d in zip(self.codes, self.levels)]

    def pair(self, i: int, k: int) -> np.ndarray:
        """Z_i'Z_k for either order of i and k (a vector when i == k)."""
        return self.counts[i, k] if i <= k else self.counts[k, i].T


def _weigh(J: np.ndarray, N: np.ndarray) -> np.ndarray:
    """J N over J's last axis (one GEMM), a vector N standing for diag(N)."""
    if N.ndim == 1:
        return J * N
    return (J.reshape(-1, J.shape[-1]) @ N).reshape(J.shape[:-1] + (N.shape[1],))


def _columns(y: np.ndarray) -> np.ndarray:
    """A vector as a one-column matrix."""
    return y[:, None] if y.ndim == 1 else y


def _slices(sizes) -> tuple[slice, ...]:
    ends = np.cumsum([0] + list(sizes))
    return tuple(slice(int(lo), int(hi)) for lo, hi in zip(ends[:-1], ends[1:]))


class Factor:
    """The block-eliminated factor F (F F' = M) of M = s I + [G_ik (x) N_ik]
    for loading Grams ``grams[i, k]`` (i <= k); see the module docstring.

    Raises LinAlgError when M is not numerically positive definite.
    """

    def __init__(self, layout: Layout, grams: dict[tuple[int, int], np.ndarray],
                 scale: float = 1.0):
        self.layout = lay = layout
        b = lay.big
        if b is None:  # no random effects
            g, self.U, counts, self.big = np.zeros(0), np.zeros((0, 0)), np.zeros(0), slice(0, 0)
        else:
            Gb = grams[b, b]  # a 1 x 1 Gram (every LMM factor) is its own eigenvalue: no call
            g, self.U = np.linalg.eigh(Gb) if len(Gb) > 1 else (Gb[0], np.ones((1, 1)))
            counts, self.big = lay.counts[b, b], lay.slices[b]
        self.e = scale + g[:, None] * counts  # p_b x d_b: the diagonal of E
        if not (self.e > 0).all():
            raise np.linalg.LinAlgError("a level block of M is not positive definite")
        self.root = np.sqrt(self.e).reshape(-1, 1)  # E^1/2, one row per effect of term b

        def gram(i, k):
            return grams[i, k] if i <= k else grams[k, i].T

        # G = B E^-1/2 and C, over the other terms
        self.G = np.concatenate(
            [np.zeros((0, self.e.size))]
            + [_kron(gram(i, b) @ self.U, lay.pair(i, b)) / self.root.T for i in lay.rest]
        )
        C = scale * np.eye(len(self.G))
        for i, si in zip(lay.rest, lay.rest_slices):
            for k, sk in zip(lay.rest, lay.rest_slices):
                C[si, sk] += _kron(gram(i, k), lay.pair(i, k))
        self.LS, self.LSinv = _cholesky(C - self.G @ self.G.T)
        self.logdet = float(np.log(self.e).sum() + 2.0 * np.log(self.LS.diagonal()).sum())

    def lower(self, y: np.ndarray) -> np.ndarray:
        """F^-1 y for a vector or the columns of a matrix y, whose rows are
        in the terms' order; the result's rows are in the factor's order
        (term b rotated, then the other terms)."""
        Y = _columns(y)
        (p, d), s = self.e.shape, Y.shape[1]
        xb = (self.U.T @ Y[self.big].reshape(p, d * s)).reshape(p * d, s) / self.root
        xr = self.LSinv @ (Y[self.layout.rest_idx] - self.G @ xb)
        return np.concatenate([xb, xr]).reshape(y.shape)

    def upper(self, x: np.ndarray) -> np.ndarray:
        """F^-T x for x in the factor's row order; the result's rows are in
        the terms' order.  ``upper(lower(y))`` is M^-1 y."""
        X = _columns(x)
        (p, d), s = self.e.shape, X.shape[1]
        xr = self.LSinv.T @ X[p * d :]
        xb = (X[: p * d] - self.G.T @ xr) / self.root
        out = np.empty_like(X)
        out[self.big] = (self.U @ xb.reshape(p, d * s)).reshape(p * d, s)
        out[self.layout.rest_idx] = xr
        return out.reshape(x.shape)

    @cached_property
    def J(self) -> dict[int, np.ndarray]:
        """The columns of J per term, each q_r x p_k x d_k."""
        lay, (p, d) = self.layout, self.e.shape
        out = {k: self.LSinv[:, s].reshape(-1, lay.widths[k], lay.levels[k])
               for k, s in zip(lay.rest, lay.rest_slices)}
        out[lay.big] = self.U @ (self.LSinv @ self.G / -self.root.T).reshape(-1, p, d)
        return out

    @cached_property
    def _einv(self) -> np.ndarray:
        return 1.0 / self.e

    def diag(self) -> np.ndarray:
        """diag(M^-1), in the terms' order."""
        out = np.empty(self.layout.q)
        for k, s in enumerate(self.layout.slices):
            out[s] = np.einsum("scl,scl->cl", self.J[k], self.J[k]).ravel()
        out[self.big] += (self.U**2 @ self._einv).ravel()
        return out

    def block_norms(self) -> np.ndarray:
        """|P_ik|_F^2 for every pair of terms, P = M^-1: block (i, k) of J'J
        has the norm tr(J_i J_i' J_k J_k'), and term b's own block adds
        |E^-1|^2 plus twice the E^-1-weighted squares of R'J_b'.  No block
        of P is formed."""
        lay = self.layout
        n, qr = len(lay.levels), len(self.LS)
        grams = np.zeros((n, qr, qr))
        for k in range(n):
            Jk = self.J[k].reshape(qr, lay.widths[k] * lay.levels[k])
            grams[k] = Jk @ Jk.T
        out = np.einsum("iab,kab->ik", grams, grams)
        if lay.big is not None:
            rotated = np.einsum("cj,scl->sjl", self.U, self.J[lay.big])
            out[lay.big, lay.big] += (self._einv**2).sum() + 2.0 * np.einsum(
                "jl,sjl->", self._einv, rotated**2)
        return out

    def contract(self, i: int, k: int, A: np.ndarray, B: np.ndarray | None = None) -> np.ndarray:
        """sum_ab P_(i,a),(k,b) W_ab, p_i x p_k: the blocks of P = M^-1
        between terms i and k weighted by W = A (d_i x d_k), or by W = A B'
        (A d_i x d_m, B d_k x d_m), a vector standing for its diagonal
        matrix; W is not formed, nor any block of P outside term b's level
        blocks and J.  For i = k, A is a vector or B is A."""
        Ti = _weigh(self.J[i], A)
        Tk = self.J[k] if B is None else _weigh(self.J[k], B)
        S = np.einsum("sca,sda->cd", Ti, Tk)
        if i == k == self.layout.big:  # plus the E^-1 part, on diag(W)
            w = A if B is None else A * B
            w = w if w.ndim == 1 else w.sum(axis=1)
            S += (self.U * (self._einv @ w)) @ self.U.T
        return S
