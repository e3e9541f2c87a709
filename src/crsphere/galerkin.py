"""Galerkin machinery on the truncated harmonic basis: multipliers, the weight, the frame.

The perturbed (non-diagonal) regime works with matrices over the truncated
basis, written in its real frame (RealFrame): the orthonormal basis of real
functions r_a = (e_a + e_b)/sqrt2, r_b = i (e_a - e_b)/sqrt2 on each
conjugate pair a = (p, q, i), b = (q, p, i), p < q, and r_k = e_k on the
real-valued (p, p) blocks.  Upsilon is real, so its multiplier, the weight
and every operator built from them are real matrices in this frame, and
the dense algebra runs in float64.  Multiplication operators are assembled
from exact monomial integrals, never quadrature: with B the frame's
basis-in-monomials matrix, S_f the exponent-shift matrix of the multiplier,
and K the exact monomial pairing, the Galerkin matrix of multiplication by
f is

    M_f[j, i] = <f r_i, r_j> = (conj(B) K S_f B^T)[j, i].

The conformal weight exp((n+1) Upsilon) is realized as its degree-K Taylor
polynomial projected to the truncation, i.e. as the matrix Taylor sum of
M_{(n+1) Upsilon}; products beyond the truncation degree are dropped at each
step, which is the same truncation leakage every Galerkin product has and is
what the interior diagnostics measure.

Multiplication matrices stay sparse (a degree-d multiplier couples only
blocks whose degrees differ by at most d).  The weight is an operator
first: it applies W = T_K(M) to vectors and column blocks by Horner's rule
on the sparse M (taylor_exp_apply), forms its columns W[:, S] on a
coordinate set S the same way, and keeps one Cholesky factor per principal
block W_SS it solves with; the zero-Q solve needs nothing more.  The dense
matrix and its Cholesky factor are built only when the chain or the pencil
spectrum asks for them.  No eigensolver runs on the weight: W = T_K(M) is
a polynomial in the multiplier M and ||M|| <= a, so min_{|x|<=a} T_K(x),
less a-priori bounds on the rounding of Horner's rule, of the assembly of M
and on how far the assembled M is from a Hermitian matrix, is a lower
bound on its smallest eigenvalue (a bound <= 0 refuses the weight), and
T_K(a) plus the same terms an upper bound on its largest.  Residual
sizes use the certified bounds norm2_upper / norm2_lower instead of a full
SVD: a relative defect divides an upper bound by a lower bound, so it is
never below the spectral-norm ratio it stands for.  The weighted
adjointness defect needs no solve either: X - W^{-1} X^* W =
W^{-1} (Y - Y^*) with Y = W X, bounded through the eigenvalue bound and
an a-priori bound on the rounding of the product W X.  The weight is a
float64 matrix; a complex right-hand side is split into its real and
imaginary columns (real_matmul), so W is never cast to complex.
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
    """Multiplication by f on monomial coordinates (exponent shifts).

    Every term (C, D) of f moves the source monomial (A, B) to
    (A + C, B + D); the moved exponents are matched against the
    destination index with numpy, one int64 code per exponent row.
    """
    if any(a for (a, _, _) in f.terms):
        raise ValueError("multiplier must be t-free")
    width = 2 * src_idx.m
    shifts = np.array([C + D for (_, C, D) in f.terms], dtype=np.int64).reshape(-1, width)
    values = np.array([complex(c) for c in f.terms.values()], dtype=complex)
    src = np.array(src_idx.keys, dtype=np.int64).reshape(-1, width)
    dst = np.array(dst_idx.keys, dtype=np.int64).reshape(-1, width)
    moved = (shifts[:, None, :] + src[None, :, :]).reshape(-1, width)
    codes = _row_codes(np.concatenate([dst, moved]))
    dst_codes, moved_codes = codes[: len(dst)], codes[len(dst):]
    order = np.argsort(dst_codes)
    pos = np.minimum(np.searchsorted(dst_codes[order], moved_codes), len(dst) - 1)
    hit = dst_codes[order[pos]] == moved_codes
    cols = np.tile(np.arange(len(src)), len(values))
    return scipy.sparse.csr_matrix(
        (np.repeat(values, len(src))[hit], (order[pos[hit]], cols[hit])),
        shape=(len(dst_idx), len(src_idx)), dtype=complex,
    )


_SQRT_HALF = math.sqrt(0.5)


class RealFrame:
    """The real orthonormal frame of a truncated basis and its unitary U.

    harmonics builds every (q, p) block, p < q, from the conjugates of the
    (p, q) elements, element by element and with the same norm, and every
    (p, p) block from real-valued functions.  So for each conjugate pair
    a = (p, q, i), b = (q, p, i) with p < q the functions
    r_a = (e_a + e_b)/sqrt2 and r_b = i (e_a - e_b)/sqrt2 are real, and with
    r_k = e_k on the (p, p) blocks they form an orthonormal basis.  Basis
    coefficients c and frame coefficients x of one function are related by
    c = U x: c_a = (x_a + i x_b)/sqrt2 and c_b = (x_a - i x_b)/sqrt2.  A
    real function has real frame coefficients, an operator that commutes
    with conjugation (P, multiplication by a real function, the weight)
    has a real frame matrix, and conjugation of functions is plain complex
    conjugation of frame coefficients.  U has at most two nonzeros per row
    and maps every coordinate mask closed under (p, q) <-> (q, p) (the
    kernel, interior and complement masks) onto itself.
    """

    def __init__(self, basis: HarmonicBasis):
        self.dim = basis.total_dim
        pairs = [(g, basis.global_index(q, p, i))
                 for p, q, i, g in basis.index_blocks() if p < q]
        self.lo = np.array([a for a, _ in pairs], dtype=np.intp)
        self.hi = np.array([b for _, b in pairs], dtype=np.intp)

    def to_frame(self, c):
        """x = U^* c, along the first axis."""
        x = np.array(c, dtype=complex)
        a, b = x[self.lo], x[self.hi]
        x[self.lo] = (a + b) * _SQRT_HALF
        x[self.hi] = (a - b) * (-1j * _SQRT_HALF)
        return x

    def from_frame(self, x):
        """c = U x, along the first axis."""
        c = np.array(x, dtype=complex)
        a, b = c[self.lo], c[self.hi]
        c[self.lo] = (a + 1j * b) * _SQRT_HALF
        c[self.hi] = (a - 1j * b) * _SQRT_HALF
        return c

    def unitary(self):
        """U as a sparse (CSR) matrix; column k holds r_k in the basis e."""
        lo, hi, h = self.lo, self.hi, _SQRT_HALF
        same = np.setdiff1d(np.arange(self.dim), np.concatenate([lo, hi]))
        rows = np.concatenate([same, lo, lo, hi, hi])
        cols = np.concatenate([same, lo, hi, lo, hi])
        vals = np.concatenate([np.ones(same.size)] + [np.full(lo.size, v)
                                                      for v in (h, 1j * h, h, -1j * h)])
        return scipy.sparse.csr_matrix((vals, (rows, cols)), shape=(self.dim, self.dim),
                                       dtype=complex)


def basis_matrix(basis: HarmonicBasis, idx: MonomialIndex):
    """Frame rows as a sparse (total_dim x monomials) matrix: row k is r_k.

    A (p, p) row is v / sqrt(norm2), v the stored element; a conjugate pair
    a, b gives the rows (v_a + v_b) s and i (v_a - v_b) s with
    s = 1/sqrt(2 norm2).  v_a and v_b have disjoint monomials (bidegrees
    (p, q) and (q, p)), so every entry is one exact coefficient times one
    rounded scale, as for the unpaired elements.
    """
    rows, cols, vals = [], [], []

    def add(row, poly, scale):
        for (a, A, B), c in poly.terms.items():
            rows.append(row)
            cols.append(idx.index[(A, B)])
            vals.append(complex(c) * scale)

    for p, q, i, g in basis.index_blocks():
        el = basis.blocks[(p, q)][i]
        if p == q:
            add(g, el.poly, 1.0 / math.sqrt(float(el.norm2)))
        elif p < q:
            h = basis.global_index(q, p, i)
            conj = basis.blocks[(q, p)][i].poly
            s = 1.0 / math.sqrt(2 * float(el.norm2))
            add(g, el.poly, s)
            add(g, conj, s)
            add(h, el.poly, 1j * s)
            add(h, conj, -1j * s)
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
        """Sparse (CSR) frame Galerkin matrix of multiplication by f (floating coefficients ok).

        Complex in general; real up to rounding when f is real valued.
        """
        degs = {sum(b) + sum(g) for (a, b, g) in f.terms}
        if degs and max(degs) > self.mult_degree:
            raise ConfigError(
                f"multiplier degree {max(degs)} exceeds context bound {self.mult_degree}"
            )
        S = shift_matrix(f, self.idx_basis, self.idx_big)
        return (self._BK @ (S @ self.B.T.tocsr())).tocsr()

    def assembly_rounding(self, f_abs: Poly, coeff_roundings: int) -> float:
        """A-priori bound e_asm >= ||fl(M_f) - M_f||_2 on the rounding of mult_matrix.

        M_f = conj(B) K S_f B^T is formed as (conj(B) K) (S_f B^T) from
        rounded factors: an entry of B is one exact coefficient times a
        rounded scale (5 roundings: the coefficient, norm2, the square root,
        the quotient, the product), an entry of K one exact integral rounded
        once, and the computed coefficients of f are within
        gamma_{coeff_roundings} f_abs of the exact ones, f_abs a polynomial
        with non-negative coefficients.  A complex inner product of length L
        commits at most gamma_{L+2} relative to |x|^T |y| (a complex product
        is within sqrt(2) gamma_2 <= gamma_3 of exact, an addition within u:
        Higham, Accuracy and Stability of Numerical Algorithms, 3.5-3.6), and
        (1 + theta_j)(1 + theta_k) = 1 + theta_{j+k} (Higham, Lemma 3.3).
        So entrywise |fl(M_f) - M_f| <= gamma_k X with
        X = |B| K S_{f_abs} |B|^T, k = 11 + coeff_roundings + L_1 + L_2 + L_3 + 6,
        where L is the largest number of terms one entry of each sparse
        product sums: the most nonzeros in a row of its left factor
        (conj(B), S_f and conj(B) K).
        For |E| <= X entrywise, ||E||_2 <= ||X||_2 <= sqrt(||X||_1 ||X||_inf),
        and X's largest row and column sums come from the same sparse chain
        on absolute values, applied to a vector of ones, with no matrix
        product formed.  The factor 2 covers the second-order terms: the
        chain runs on the rounded |B| and its sums are rounded.
        """
        S = shift_matrix(f_abs, self.idx_basis, self.idx_big).real
        absB = abs(self.B)
        L = sum(int(np.diff(X.indptr).max(initial=0)) for X in (absB, S, self._BK))
        ones = np.ones(absB.shape[0])
        row_sums = absB @ (self.K @ (S @ (absB.T @ ones)))
        col_sums = absB @ (S.T @ (self.K.T @ (absB.T @ ones)))
        k = 11 + coeff_roundings + L + 6
        return 2 * gamma(k) * math.sqrt(float(row_sums.max()) * float(col_sums.max()))


def full_context(basis: HarmonicBasis) -> GalerkinContext:
    """Context accepting multipliers of any degree the truncation can hold."""
    ctx = getattr(basis, "_full_galerkin_ctx", None)
    if ctx is None:
        ctx = GalerkinContext(basis, mult_degree=basis.N)
        basis._full_galerkin_ctx = ctx
    return ctx


def taylor_exp_matrix(M, K: int) -> np.ndarray:
    """Sum_{k<=K} M^k / k! by Horner; each product stays on the truncation.

    M may be sparse or dense; the sum is dense.  The first step,
    M I / K + I, starts from M itself: no product with the identity.
    """
    D = M.shape[0]
    if K == 0:
        return np.eye(D, dtype=M.dtype)
    E = M.toarray() if scipy.sparse.issparse(M) else np.array(M)
    E /= K
    E.flat[:: D + 1] += 1
    for k in range(K - 1, 0, -1):
        E = M @ E
        E /= k
        E.flat[:: D + 1] += 1
    return E


def taylor_exp_apply(M, K: int, X) -> np.ndarray:
    """T_K(M) X = sum_{k<=K} M^k X / k! by Horner, for a vector or a block of columns X.

    The one Horner routine on vectors: the weight's matvec, its kernel
    columns and the conformal factors of qcurvature all run here, and no
    matrix of the size of M is formed.  Real for a real M and X; a complex X
    with a real M runs as its real and imaginary parts (real_matmul).  On the
    unit columns E_S of a coordinate set S it gives taylor_exp_matrix(M, K)[:, S]
    bit for bit when M is sparse: the first product M E_S is exact, and every
    later step is the same CSR product, column by column, as the full sum's.
    """
    X = np.asarray(X)
    if np.iscomplexobj(X) and not np.iscomplexobj(M):
        return real_matmul(lambda Y: taylor_exp_apply(M, K, Y), X)
    out = np.array(X, dtype=np.result_type(M.dtype, X.dtype, np.float64))
    for k in range(K, 0, -1):
        out = M @ out
        out /= k
        out += X
    return out


# unit roundoff of float64 / complex128 arithmetic
UNIT_ROUNDOFF = 2.0**-53


def gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), the a-priori bound on k rounded operations."""
    return k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)


def _taylor_sum(x: Fraction, k: int) -> Fraction:
    return sum(x**j / math.factorial(j) for j in range(k + 1))


def taylor_exp_min(a: float, K: int) -> float:
    """min over |x| <= a of T_K(x) = sum_{k<=K} x^k / k!, in rational arithmetic.

    T_K' = T_{K-1}.  For odd K, T_{K-1} has even degree and no real root,
    so T_K increases and the minimum is T_K(-a); for even K the same holds
    when T_{K-1}(-a) > 0 (T_{K-1} increases).  Otherwise the minimum is at
    the one real root r in [-a, 0) of T_{K-1}, where T_K(r) = r^K / K!;
    bisection keeps a point h in (r, 0), and h^K / K! <= r^K / K!.
    (The maximum is T_K(a): |T_K(-y)| <= T_K(y) for y >= 0.)
    """
    x = -Fraction(a)
    if K == 0 or K % 2 or _taylor_sum(x, K - 1) > 0:
        return float(_taylor_sum(x, K))
    lo, hi = x, Fraction(0)
    for _ in range(60):
        mid = (lo + hi) / 2
        if _taylor_sum(mid, K - 1) > 0:
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
    A real M (the frame multiplier) commits at most gamma_{D+2} per
    entry, below c, so the same constant covers it.
    With ||abs(X)||_2 <= sqrt(D) ||X||_2 and ||E_k|| <= e^a, the committed
    errors, carried forward by factors a^j / j!, sum to at most
    c e^a (2 D a e^a + 1); the symmetrization 0.5 (W + W^*) adds at most
    2 sqrt(D) u e^a.  Both are below 2 sqrt(2) gamma_{2D+2} (D a + 1) e^{2a}.
    The bound is on Horner's rule applied to M as assembled; how far the
    assembled M is from the exact Galerkin matrix is the multiplier's
    skew term (GalerkinContext.assembly_rounding, InnerProductWeight).
    """
    return 2 * math.sqrt(2) * gamma(2 * D + 2) * (D * a + 1) * math.exp(2 * a)


def taylor_apply_rounding_bound(a: float, D: int) -> float:
    """Bound on ||fl(T_K(M) x) - T_K(M) x|| / ||x|| for Horner on a vector (taylor_exp_apply).

    The steps of taylor_rounding_bound on one column: each commits at most
    c (|M| |e_{k+1}| / k + |x|) with ||abs(x)|| = ||x||, so only |M| costs
    a factor sqrt(D), and the same sum gives
    2 sqrt(2) gamma_{2D+2} (sqrt(D) a + 1) e^{2a}.  It holds for every
    column of a block.
    """
    return 2 * math.sqrt(2) * gamma(2 * D + 2) * (math.sqrt(D) * a + 1) * math.exp(2 * a)


def real_matmul(A, X):
    """A @ X for a real A without casting A to complex.

    A complex X (vector or matrix) is multiplied as its real and imaginary
    parts, side by side in one real array.  A is a matrix or a callable
    applying a real linear map to the columns of a real array.
    """
    apply = A if callable(A) else A.__matmul__
    if not np.iscomplexobj(X):
        return apply(X)
    X = np.ascontiguousarray(X, dtype=complex)
    parts = X.view(np.float64).reshape(X.shape[0], -1)  # columns re, im, re, im, ...
    return np.ascontiguousarray(apply(parts)).view(complex).reshape(X.shape)


def _cholesky(A, what):
    try:
        return scipy.linalg.cho_factor(A)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{what} Cholesky factorization failed: {exc}") from exc


@dataclass
class InnerProductWeight:
    """Gram matrix W = T_K(M) of the truncated basis under e^{(n+1) Upsilon} dsigma.

    An operator first: the weight is the real (float64) frame multiplier M
    of (n+1) Upsilon (RealFrame) with the Taylor depth K, and it acts by
    Horner's rule (taylor_exp_apply) without forming W.  Its operator core
    is apply (W x), columns (W[:, S] for a coordinate set S, by Horner on
    the unit columns E_S), block_solve (one Cholesky factor of the
    principal block W_SS per set, made from those columns) and the bounds
    below; the zero-Q solve needs nothing else (S = K, the kernel
    coordinates).  The dense matrix, symmetrized, and its full Cholesky
    factor are built on first use, by the chain and the pencil spectrum
    (matrix, solve, projector, adjoint_defect); once the matrix exists,
    columns are sliced from it.

    M = Re M_c, M_c the assembled complex frame Galerkin matrix of
    (n+1) Upsilon, and H the exact Galerkin matrix's Hermitian part.
    multiplier_bound is a >= ||H||_2 and multiplier_skew is
    s >= ||M - H||_2.  Since eig(T_K(H)) = T_K(eig(H)), ||M|| <= a + s and
    ||T_K(M) - T_K(H)|| <= s e^{a+s} (telescoping M^k - H^k), the numbers

        min_eigenvalue_bound = min_{|x|<=a} T_K(x) - rho - s e^{a+s}
        max_eigenvalue_bound = T_K(a) + rho + s e^{a+s}

    with rho = taylor_rounding_bound(a + s, D) bracket the spectrum of the
    symmetric part of T_K(M) and of the dense matrix, with no eigensolver
    (taylor_exp_min).  apply_rounding_bound = taylor_apply_rounding_bound(a + s, D)
    bounds the rounding of apply: ||apply(x) - T_K(M) x|| <= it times ||x||.

    ContactPerturbation.weight passes a = (n+1) B(Upsilon), a bound on the
    exact Galerkin matrix in any orthonormal frame, and
    s = norm2_upper(M - M^T) / 2 + norm2_upper(Im M_c) + e_asm: the skew
    part of M and the imaginary part dropped from M_c bound ||M - H_c||,
    H_c the Hermitian part of M_c, and e_asm >= ||M_c - M_exact|| is the
    a-priori bound on the rounding of the assembly
    (GalerkinContext.assembly_rounding), which bounds ||H_c - H||.

    The lower bound is below T_K on the whole interval [-a, a], so it can be
    <= 0 while W is still positive definite: for odd K, T_K has a real
    root r_K (r_1 = -1, r_3 = -1.60, r_5 = -2.18, r_7 = -2.76,
    r_9 = -3.33, r_11 = -3.91), and every a >= |r_K| gives a bound <= 0
    whatever the spectrum of M.  Such a weight is refused: a bound <= 0,
    like a failed Cholesky factorization of W_SS or of W, raises
    NumericalError (a non-positive weight means the conformal factor left
    the regime the truncation can represent).  Complex right-hand sides
    are applied and solved as their real and imaginary parts (real_matmul).
    """

    multiplier: object  # M: real D x D, sparse (CSR) or dense
    taylor_depth: int
    multiplier_bound: float
    multiplier_skew: float = 0.0
    upsilon_label: str = ""
    tail_bound: float = 0.0
    apply_rounding_bound: float = field(init=False)
    min_eigenvalue_bound: float = field(init=False)
    max_eigenvalue_bound: float = field(init=False)
    _matrix: np.ndarray | None = field(init=False, repr=False, default=None)
    _hermitian_defect: float = field(init=False, repr=False, default=0.0)
    _norm_upper: float = field(init=False, repr=False, default=0.0)
    _cholesky: tuple | None = field(init=False, repr=False, default=None)
    _columns: list = field(init=False, repr=False, default_factory=list)
    _block_factors: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self):
        M = self.multiplier
        if np.iscomplexobj(M):
            raise TypeError("the weight is real: build its multiplier in the real frame")
        a, s, K = self.multiplier_bound, self.multiplier_skew, self.taylor_depth
        rho = taylor_rounding_bound(a + s, M.shape[0])
        self.apply_rounding_bound = taylor_apply_rounding_bound(a + s, M.shape[0])
        skew = s * math.exp(a + s)
        self.min_eigenvalue_bound = taylor_exp_min(a, K) - rho - skew
        self.max_eigenvalue_bound = float(_taylor_sum(Fraction(a), K)) + rho + skew
        if self.min_eigenvalue_bound <= 0:
            raise NumericalError(
                f"weight not certified positive (lower eigenvalue bound "
                f"{self.min_eigenvalue_bound:.3e} for ||M|| <= {a:.3e}, "
                f"Taylor depth {K}; a larger depth or a "
                f"smaller Upsilon raises it)"
            )

    @classmethod
    def identity(cls, dim):
        return cls(scipy.sparse.csr_matrix((dim, dim)), taylor_depth=0,
                   multiplier_bound=0.0, upsilon_label="0")

    @property
    def dim(self):
        return self.multiplier.shape[0]

    def apply(self, x):
        """W x by Horner on x (a vector or a block of columns); W is not formed."""
        return taylor_exp_apply(self.multiplier, self.taylor_depth, x)

    def columns(self, mask):
        """W[:, mask]: Horner on the unit columns E_mask (bit-identical to the
        columns of taylor_exp_matrix), kept, and sliced for every subset of
        mask; from the dense matrix once that is built."""
        mask = np.asarray(mask, dtype=bool)
        if self._matrix is not None:
            return self._matrix[:, mask]
        for kept, cols in self._columns:
            if not (mask & ~kept).any():
                return cols[:, mask[kept]]
        E = np.zeros((mask.size, int(mask.sum())))
        E[np.flatnonzero(mask), np.arange(E.shape[1])] = 1.0
        cols = self.apply(E)
        self._columns.append((mask, cols))
        return cols

    def block_solve(self, mask, rhs):
        """W_MM^{-1} rhs, W_MM the principal block on the coordinates in mask.

        The block's Cholesky factor is made once per mask, from columns(mask),
        and kept.
        """
        mask = np.asarray(mask, dtype=bool)
        key = mask.tobytes()
        factor = self._block_factors.get(key)
        if factor is None:
            factor = _cholesky(self.columns(mask)[mask], "weight block")
            self._block_factors[key] = factor
        return real_matmul(lambda b: scipy.linalg.cho_solve(factor, b), rhs)

    @property
    def matrix(self) -> np.ndarray:
        """The dense weight 0.5 (W + W^T), W = taylor_exp_matrix(M, K), built on first use."""
        if self._matrix is None:
            W = taylor_exp_matrix(self.multiplier, self.taylor_depth)
            self._hermitian_defect = norm2_upper(W - W.T)
            W = 0.5 * (W + W.T)
            self._norm_upper = norm2_upper(W)
            self._matrix = W
        return self._matrix

    @property
    def hermitian_defect(self) -> float:
        """norm2_upper(W - W^T) of the dense Taylor sum before symmetrization."""
        self.matrix
        return self._hermitian_defect

    def solve(self, rhs):
        """W^{-1} rhs from the Cholesky factor of the dense matrix, made once."""
        if self._cholesky is None:
            self._cholesky = _cholesky(self.matrix, "weight")
        return real_matmul(lambda b: scipy.linalg.cho_solve(self._cholesky, b), rhs)

    def inner(self, u, v):
        """<u, v>_hat for coefficient vectors."""
        return complex(np.vdot(v, self.apply(u)))

    def projector(self, mask):
        """W-orthogonal projector onto the coordinate subspace given by mask.

        Its rows outside mask are exactly zero; its rows in mask are
        W_MM^{-1} W_M:.
        """
        mask = np.asarray(mask, dtype=bool)
        P = np.zeros((self.dim, self.dim))
        if mask.any():
            P[mask] = self.block_solve(mask, self.columns(mask).T)
        return P

    def adjoint_defect(self, X, rows=None):
        """Certified upper bound on ||X - X^dagger|| / ||X||, X^dagger = W^{-1} X^* W.

        X - X^dagger = W^{-1} (Y - Y^*) with Y = W X (W is symmetric), so
        no solve is needed: ||X - X^dagger|| <= ||Y - Y^*|| / lambda_min(W).
        The computed Y differs from W X by at most sqrt(2) gamma_{2D} |W| |X|
        entrywise, whatever the summation order (Higham, 3.5-3.6; a real X
        commits gamma_D), which adds 2 sqrt(2) gamma_{2D} ||W|| ||X|| to
        ||Y - Y^*||.  Numerator norms are norm2_upper, ||X|| in the
        denominator is norm2_lower and lambda_min(W) is
        min_eigenvalue_bound.  rows, if given, marks the only nonzero rows
        of X, and Y is formed from them alone.
        """
        nx = norm2_lower(X)
        if nx == 0:
            return 0.0
        W = self.matrix
        Y = real_matmul(W, X) if rows is None else real_matmul(W[:, rows], X[rows])
        Y -= Y.conj().T
        rounding = 2 * math.sqrt(2) * gamma(2 * W.shape[0]) * self._norm_upper * norm2_upper(X)
        return (norm2_upper(Y) + rounding) / (self.min_eigenvalue_bound * nx)
