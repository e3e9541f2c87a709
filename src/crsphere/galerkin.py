"""Dense-matrix machinery on the truncated harmonic basis.

The perturbed (non-diagonal) regime works with matrices over the truncated
basis.  Multiplication operators are assembled from exact monomial
integrals, never quadrature: with B the (normalized) basis-in-monomials
matrix, S_f the exponent-shift matrix of the multiplier, and K the exact
monomial pairing, the Galerkin matrix of multiplication by f is

    M_f[j, i] = <f e_i, e_j> = (conj(B) K S_f B^T)[j, i].

The conformal weight exp((n+1) Upsilon) is realized as its degree-K Taylor
polynomial projected to the truncation, i.e. as the matrix Taylor sum of
M_{(n+1) Upsilon}; products beyond the truncation degree are dropped at each
step, which is the same truncation leakage every Galerkin product has and is
what the interior diagnostics measure.

Multiplication matrices stay sparse (a degree-d multiplier couples only
blocks whose degrees differ by at most d), and the weight keeps a single
Cholesky factor that every weighted solve reuses.  Residual sizes use the
certified bounds norm2_upper / norm2_lower instead of a full SVD: a
relative defect divides an upper bound by a lower bound, so it is never
below the spectral-norm ratio it stands for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import ConfigError, NumericalError
from .harmonics import HarmonicBasis, _integral_equal_exponents, monomials_homogeneous
from .poly import Poly


def norm2_upper(X) -> float:
    """Upper bound on the spectral norm: sqrt(||X||_1 ||X||_inf) >= ||X||_2."""
    if X.size == 0:
        return 0.0
    A = np.abs(X)
    return math.sqrt(float(A.sum(axis=0).max()) * float(A.sum(axis=1).max()))


def norm2_lower(X) -> float:
    """Lower bound on the spectral norm: the largest column norm max_j ||X e_j||_2."""
    if X.size == 0:
        return 0.0
    return float(np.linalg.norm(X, axis=0).max())


class MonomialIndex:
    """Index of bigraded monomials (A, B) with |A| + |B| <= max_degree."""

    def __init__(self, m, max_degree):
        self.m = m
        self.max_degree = max_degree
        keys = []
        for d in range(max_degree + 1):
            for p in range(d + 1):
                q = d - p
                for A in monomials_homogeneous(m, p):
                    for B in monomials_homogeneous(m, q):
                        keys.append((A, B))
        self.keys = keys
        self.index = {k: i for i, k in enumerate(keys)}

    def __len__(self):
        return len(self.keys)


def pairing_matrix(row_idx: MonomialIndex, col_idx: MonomialIndex, n):
    """Sparse K[r, c] = <mono_c, mono_r> over the sphere, exact values.

    <z^A zbar^B, z^A' zbar^B'> is nonzero iff A - B == A' - B' componentwise,
    with value integral(A + B').
    """
    sectors = {}
    for c, (A, B) in enumerate(col_idx.keys):
        sectors.setdefault(tuple(a - b for a, b in zip(A, B)), []).append(c)
    rows, cols, vals = [], [], []
    for r, (A, B) in enumerate(row_idx.keys):
        sector = sectors.get(tuple(a - b for a, b in zip(A, B)))
        if not sector:
            continue
        for c in sector:
            Ac, Bc = col_idx.keys[c]
            exps = tuple(a + b for a, b in zip(Ac, B))
            rows.append(r)
            cols.append(c)
            vals.append(float(_integral_equal_exponents(n, exps)))
    return scipy.sparse.csr_matrix(
        (vals, (rows, cols)), shape=(len(row_idx), len(col_idx))
    )


def shift_matrix(f: Poly, src_idx: MonomialIndex, dst_idx: MonomialIndex):
    """Multiplication by f on monomial coordinates (exponent shifts)."""
    rows, cols, vals = [], [], []
    for (a, C, D), coeff in f.terms.items():
        if a:
            raise ValueError("multiplier must be t-free")
        value = complex(coeff)
        for c, (A, B) in enumerate(src_idx.keys):
            key = (tuple(x + y for x, y in zip(A, C)), tuple(x + y for x, y in zip(B, D)))
            r = dst_idx.index.get(key)
            if r is not None:
                rows.append(r)
                cols.append(c)
                vals.append(value)
    return scipy.sparse.csr_matrix(
        (vals, (rows, cols)), shape=(len(dst_idx), len(src_idx)), dtype=complex
    )


def basis_matrix(basis: HarmonicBasis, idx: MonomialIndex):
    """Normalized basis coefficients as a sparse (total_dim x monomials) matrix."""
    rows, cols, vals = [], [], []
    for p, q, i, g in basis.index_blocks():
        el = basis.blocks[(p, q)][i]
        scale = 1.0 / math.sqrt(float(el.norm2))
        for (a, A, B), c in el.poly.terms.items():
            rows.append(g)
            cols.append(idx.index[(A, B)])
            vals.append(complex(c) * scale)
    return scipy.sparse.csr_matrix(
        (vals, (rows, cols)), shape=(basis.total_dim, len(idx)), dtype=complex
    )


class GalerkinContext:
    """Cached sparse scaffolding for multiplication matrices over one basis."""

    def __init__(self, basis: HarmonicBasis, mult_degree=6):
        self.basis = basis
        self.mult_degree = mult_degree
        m = basis.m
        self.idx_basis = MonomialIndex(m, basis.N)
        self.idx_big = MonomialIndex(m, basis.N + mult_degree)
        self.B = basis_matrix(basis, self.idx_basis)
        self.B_conj = self.B.conjugate()
        self.K = pairing_matrix(self.idx_basis, self.idx_big, basis.n)
        self._BK = (self.B_conj @ self.K).tocsr()

    def mult_matrix(self, f: Poly) -> scipy.sparse.csr_matrix:
        """Sparse (CSR) Galerkin matrix of multiplication by f (floating coefficients ok)."""
        degs = {sum(b) + sum(g) for (a, b, g) in f.terms}
        if degs and max(degs) > self.mult_degree:
            raise ConfigError(
                f"multiplier degree {max(degs)} exceeds context bound {self.mult_degree}"
            )
        S = shift_matrix(f, self.idx_basis, self.idx_big)
        return (self._BK @ (S @ self.B.T.tocsr())).tocsr()


def full_context(basis: HarmonicBasis) -> GalerkinContext:
    """Context accepting multipliers of any degree the truncation can hold."""
    ctx = getattr(basis, "_full_galerkin_ctx", None)
    if ctx is None:
        ctx = GalerkinContext(basis, mult_degree=basis.N)
        basis._full_galerkin_ctx = ctx
    return ctx


def taylor_exp_matrix(M, K: int) -> np.ndarray:
    """Sum_{k<=K} M^k / k! by Horner; each product stays on the truncation.

    M may be sparse or dense; the sum is dense.
    """
    D = M.shape[0]
    E = np.eye(D, dtype=M.dtype)
    for k in range(K, 0, -1):
        E = M @ E
        E /= k
        E.flat[:: D + 1] += 1
    return E


def taylor_exp_apply(M, K: int, vec: np.ndarray) -> np.ndarray:
    """Apply sum_{k<=K} M^k / k! (M sparse or dense) to a vector without forming the matrix."""
    out = vec.astype(complex)
    for k in range(K, 0, -1):
        out = vec + (M @ out) / k
    return out


@dataclass
class InnerProductWeight:
    """Gram matrix of the truncated basis under e^{(n+1) Upsilon} dsigma.

    Must be Hermitian positive definite; construction fails hard otherwise
    (a non-positive weight means the conformal factor left the regime the
    truncation can represent).  The matrix is factored once (Cholesky) and
    every solve reuses the factor.
    """

    matrix: np.ndarray
    taylor_depth: int
    upsilon_label: str = ""
    tail_bound: float = 0.0
    min_eigenvalue: float = field(init=False)
    hermitian_defect: float = field(init=False)
    _cholesky: tuple = field(init=False, repr=False)

    def __post_init__(self):
        W = self.matrix
        self.hermitian_defect = norm2_upper(W - W.conj().T)
        W = 0.5 * (W + W.conj().T)
        self.matrix = W
        self.min_eigenvalue = float(scipy.linalg.eigvalsh(W)[0])
        if self.min_eigenvalue <= 0:
            raise NumericalError(
                f"weight lost positivity (min eigenvalue {self.min_eigenvalue:.3e})"
            )
        try:
            self._cholesky = scipy.linalg.cho_factor(W)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"weight Cholesky factorization failed: {exc}") from exc

    @classmethod
    def identity(cls, dim):
        return cls(np.eye(dim, dtype=complex), taylor_depth=0, upsilon_label="0")

    def solve(self, rhs):
        """W^{-1} rhs from the stored Cholesky factor."""
        return scipy.linalg.cho_solve(self._cholesky, rhs)

    def inner(self, u, v):
        """<u, v>_hat for coefficient vectors."""
        return complex(np.vdot(v, self.matrix @ u))

    def norm(self, u):
        return math.sqrt(max(self.inner(u, u).real, 0.0))

    def projector(self, mask):
        """W-orthogonal projector onto the coordinate subspace given by mask."""
        mask = np.asarray(mask, dtype=bool)
        if not mask.any():
            return np.zeros_like(self.matrix)
        G = self.matrix[np.ix_(mask, mask)]
        rows = self.matrix[mask, :]
        X = scipy.linalg.solve(G, rows, assume_a="her")
        P = np.zeros_like(self.matrix)
        P[mask, :] = X
        return P

    def weighted_adjoint(self, X):
        """X^dagger = W^{-1} X^* W."""
        return self.solve(X.conj().T @ self.matrix)

    def adjoint_defect(self, X):
        """Relative asymmetry ||X - X^dagger|| / ||X|| in the weighted inner product.

        An upper bound on the spectral-norm ratio: certified upper bound over
        certified lower bound.
        """
        nx = norm2_lower(X)
        if nx == 0:
            return 0.0
        return norm2_upper(X - self.weighted_adjoint(X)) / nx
