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
Cholesky factor that every weighted solve reuses, plus one factor per
principal block W_MM it is asked to solve with.  No eigensolver runs on
the weight: W = T_K(M) is a polynomial in the Hermitian multiplier M and
||M|| <= a, so min_{|x|<=a} T_K(x), less an a-priori bound on the rounding
of Horner's rule and on the skew-Hermitian part of the assembled M, is a
lower bound on its smallest eigenvalue (a bound <= 0 refuses the weight).  Residual
sizes use the certified bounds norm2_upper / norm2_lower instead of a full
SVD: a relative defect divides an upper bound by a lower bound, so it is
never below the spectral-norm ratio it stands for.  The weighted
adjointness defect needs no solve either: X - W^{-1} X^* W =
W^{-1} (Y - Y^*) with Y = W X, bounded through the eigenvalue bound and
an a-priori bound on the rounding of the product W X.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import ConfigError, NumericalError
from .harmonics import HarmonicBasis, _integral_equal_exponents, monomials_homogeneous
from .poly import Poly


def norm2_upper(X) -> float:
    """Upper bound on the spectral norm: sqrt(||X||_1 ||X||_inf) >= ||X||_2 (dense or sparse X)."""
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


def _row_codes(X):
    """One int64 code per row of a non-negative integer matrix (mixed radix)."""
    return X @ (int(X.max(initial=0)) + 1) ** np.arange(X.shape[1], dtype=np.int64)


def pairing_matrix(row_idx: MonomialIndex, col_idx: MonomialIndex, n):
    """Sparse K[r, c] = <mono_c, mono_r> over the sphere, exact values.

    <z^A zbar^B, z^A' zbar^B'> is nonzero iff A - B == A' - B' componentwise,
    with value integral(A + B').  Rows and columns are matched by sector
    A - B with numpy; the exact integral is evaluated once per distinct
    exponent tuple A_c + B_r and rounded to float.
    """
    R, C = len(row_idx), len(col_idx)
    rows_ab = np.array(row_idx.keys, dtype=np.int64).reshape(R, 2, -1)
    cols_ab = np.array(col_idx.keys, dtype=np.int64).reshape(C, 2, -1)
    top = max(row_idx.max_degree, col_idx.max_degree)
    sector = _row_codes(top + np.concatenate(
        [rows_ab[:, 0] - rows_ab[:, 1], cols_ab[:, 0] - cols_ab[:, 1]]))
    row_sector, col_sector = sector[:R], sector[R:]
    # columns grouped by sector (ascending within one), one run per row
    order = np.argsort(col_sector, kind="stable")
    start = np.searchsorted(col_sector[order], row_sector, side="left")
    count = np.searchsorted(col_sector[order], row_sector, side="right") - start
    rows = np.repeat(np.arange(R), count)
    cols = order[np.arange(len(rows)) - np.repeat(np.cumsum(count) - count - start, count)]
    exps = cols_ab[cols, 0] + rows_ab[rows, 1]
    _, first, which = np.unique(_row_codes(exps), return_index=True, return_inverse=True)
    table = np.array([float(_integral_equal_exponents(n, tuple(e)))
                      for e in exps[first].tolist()])
    return scipy.sparse.csr_matrix((table[which], (rows, cols)), shape=(R, C))


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


# unit roundoff of float64 / complex128 arithmetic
UNIT_ROUNDOFF = 2.0**-53


def gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), the a-priori bound on k rounded operations."""
    return k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)


def taylor_exp_min(a: float, K: int) -> float:
    """min over |x| <= a of T_K(x) = sum_{k<=K} x^k / k!, in rational arithmetic.

    T_K' = T_{K-1}.  For odd K, T_{K-1} has even degree and no real root,
    so T_K increases and the minimum is T_K(-a); for even K the same holds
    when T_{K-1}(-a) > 0 (T_{K-1} increases).  Otherwise the minimum is at
    the one real root r in [-a, 0) of T_{K-1}, where T_K(r) = r^K / K!;
    bisection keeps a point h in (r, 0), and h^K / K! <= r^K / K!.
    """
    def T(x, k):
        return sum(x**j / math.factorial(j) for j in range(k + 1))

    x = -Fraction(a)
    if K == 0 or K % 2 or T(x, K - 1) > 0:
        return float(T(x, K))
    lo, hi = x, Fraction(0)
    for _ in range(60):
        mid = (lo + hi) / 2
        if T(mid, K - 1) > 0:
            hi = mid
        else:
            lo = mid
    return float(hi**K / math.factorial(K))


def taylor_rounding_bound(a: float, D: int) -> float:
    """Bound rho on ||fl(W) - T_K(M)||_2 for the weight W = T_K(M), ||M||_2 <= a.

    Horner's rule (taylor_exp_matrix) computes E_k = M E_{k+1} / k + I.
    One step commits at most c (|M| |E_{k+1}| / k + I) entrywise,
    c = sqrt(2) gamma_{2D+2}: each real part of a length-D complex inner
    product is a sum of 2D products, plus the division and the diagonal
    add (Higham, Accuracy and Stability of Numerical Algorithms, 3.5-3.6).
    With ||abs(X)||_2 <= sqrt(D) ||X||_2 and ||E_k|| <= e^a, the committed
    errors, carried forward by factors a^j / j!, sum to at most
    c e^a (2 D a e^a + 1); the symmetrization 0.5 (W + W^*) adds at most
    2 sqrt(D) u e^a.  Both are below 2 sqrt(2) gamma_{2D+2} (D a + 1) e^{2a}.
    The bound is on Horner's rule applied to M as assembled; how far the
    assembled M is from the exact Galerkin matrix is not part of it (see
    InnerProductWeight).
    """
    return 2 * math.sqrt(2) * gamma(2 * D + 2) * (D * a + 1) * math.exp(2 * a)


@dataclass
class InnerProductWeight:
    """Gram matrix of the truncated basis under e^{(n+1) Upsilon} dsigma.

    The matrix is the Taylor sum W = T_K(M) of the assembled multiplier
    M = H + S of (n+1) Upsilon, H its Hermitian and S its skew-Hermitian
    part.  multiplier_bound is a >= ||H||_2 and multiplier_skew is
    s >= ||S||_2.  Since eig(T_K(H)) = T_K(eig(H)), ||M|| <= a + s and
    ||T_K(M) - T_K(H)|| <= s e^{a+s} (telescoping M^k - H^k), the number
    min_eigenvalue_bound = min_{|x|<=a} T_K(x) - rho(a + s) - s e^{a+s}
    (taylor_exp_min, taylor_rounding_bound) is a lower bound on
    lambda_min(W) with no eigensolver.

    ContactPerturbation.weight passes a = (n+1) B(Upsilon), a bound on the
    exact Galerkin matrix, and s = norm2_upper(M - M^*) / 2 of the assembled
    one, which covers a Upsilon that is real only to a tolerance.  Not
    covered: the rounding of the assembly M = conj(B) K S_f B^T, a chain of
    sparse products of rounded factors, would have to lift ||H|| above a
    to break the bound (at criterion 5's Upsilon, a = 0.27, ||H|| = 0.18
    and ||S|| ~ 3e-15).

    The bound is below T_K on the whole interval [-a, a], so it can be
    <= 0 while W is still positive definite: for odd K, T_K has a real
    root r_K (r_1 = -1, r_3 = -1.60, r_5 = -2.18, r_7 = -2.76,
    r_9 = -3.33, r_11 = -3.91), and every a >= |r_K| gives a bound <= 0
    whatever the spectrum of M.  Such a weight is refused: a bound <= 0,
    like a failed Cholesky factorization, raises NumericalError (a
    non-positive weight means the conformal factor left the regime the
    truncation can represent).  The matrix is factored once and every solve
    reuses the factor; principal blocks W_MM get one Cholesky factor per
    mask (block_solve).
    """

    matrix: np.ndarray
    taylor_depth: int
    multiplier_bound: float
    multiplier_skew: float = 0.0
    upsilon_label: str = ""
    tail_bound: float = 0.0
    min_eigenvalue_bound: float = field(init=False)
    hermitian_defect: float = field(init=False)
    _norm_upper: float = field(init=False, repr=False)
    _cholesky: tuple = field(init=False, repr=False)
    _block_factors: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        W = self.matrix
        self.hermitian_defect = norm2_upper(W - W.conj().T)
        W = 0.5 * (W + W.conj().T)
        self.matrix = W
        self._norm_upper = norm2_upper(W)
        a, s = self.multiplier_bound, self.multiplier_skew
        self.min_eigenvalue_bound = (taylor_exp_min(a, self.taylor_depth)
                                     - taylor_rounding_bound(a + s, W.shape[0])
                                     - s * math.exp(a + s))
        if self.min_eigenvalue_bound <= 0:
            raise NumericalError(
                f"weight not certified positive (lower eigenvalue bound "
                f"{self.min_eigenvalue_bound:.3e} for ||M|| <= {a:.3e}, "
                f"Taylor depth {self.taylor_depth}; a larger depth or a "
                f"smaller Upsilon raises it)"
            )
        try:
            self._cholesky = scipy.linalg.cho_factor(W)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"weight Cholesky factorization failed: {exc}") from exc

    @classmethod
    def identity(cls, dim):
        return cls(np.eye(dim, dtype=complex), taylor_depth=0, multiplier_bound=0.0,
                   upsilon_label="0")

    def solve(self, rhs):
        """W^{-1} rhs from the stored Cholesky factor."""
        return scipy.linalg.cho_solve(self._cholesky, rhs)

    def block_solve(self, mask, rhs):
        """W_MM^{-1} rhs, W_MM the principal block on the coordinates in mask.

        The block's Cholesky factor is made once per mask and kept.
        """
        key = np.asarray(mask, dtype=bool).tobytes()
        factor = self._block_factors.get(key)
        if factor is None:
            try:
                factor = scipy.linalg.cho_factor(self.matrix[np.ix_(mask, mask)])
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"weight block factorization failed: {exc}") from exc
            self._block_factors[key] = factor
        return scipy.linalg.cho_solve(factor, rhs)

    def inner(self, u, v):
        """<u, v>_hat for coefficient vectors."""
        return complex(np.vdot(v, self.matrix @ u))

    def norm(self, u):
        return math.sqrt(max(self.inner(u, u).real, 0.0))

    def projector(self, mask):
        """W-orthogonal projector onto the coordinate subspace given by mask.

        Its rows outside mask are exactly zero; its rows in mask are
        W_MM^{-1} W_M:.
        """
        mask = np.asarray(mask, dtype=bool)
        P = np.zeros_like(self.matrix)
        if mask.any():
            P[mask] = self.block_solve(mask, self.matrix[mask])
        return P

    def adjoint_defect(self, X, rows=None):
        """Certified upper bound on ||X - X^dagger|| / ||X||, X^dagger = W^{-1} X^* W.

        X - X^dagger = W^{-1} (Y - Y^*) with Y = W X (W is Hermitian), so
        no solve is needed: ||X - X^dagger|| <= ||Y - Y^*|| / lambda_min(W).
        The computed Y differs from W X by at most sqrt(2) gamma_{2D} |W| |X|
        entrywise, whatever the summation order (Higham, 3.5-3.6), which
        adds 2 sqrt(2) gamma_{2D} ||W|| ||X|| to ||Y - Y^*||.  Numerator
        norms are norm2_upper, ||X|| in the denominator is norm2_lower and
        lambda_min(W) is min_eigenvalue_bound.  rows, if given, marks the
        only nonzero rows of X, and Y is formed from them alone.
        """
        nx = norm2_lower(X)
        if nx == 0:
            return 0.0
        W = self.matrix
        Y = W @ X if rows is None else W[:, rows] @ X[rows]
        Y -= Y.conj().T
        rounding = 2 * math.sqrt(2) * gamma(2 * W.shape[0]) * self._norm_upper * norm2_upper(X)
        return (norm2_upper(Y) + rounding) / (self.min_eigenvalue_bound * nx)
