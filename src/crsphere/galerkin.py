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
polynomial projected to the truncation, i.e. as the matrix Taylor sum
W = T_K(M) of M = M_{(n+1) Upsilon}; products beyond the truncation degree
are dropped at each step, which is the same truncation leakage every
Galerkin product has and is what the interior diagnostics measure.

Multiplication matrices stay sparse (a degree-d multiplier couples only
blocks whose degrees differ by at most d), in the module's own CSR type on
numpy alone: the floating layer imports no scipy.  The assembly streams a
block of rows of at most _BLOCK_BYTES (1 MB) at a time.  The weight's
multiplier M is the symmetric part of the assembled one without its
rounding residues (symmetric_part), exactly symmetric, so W is symmetric.
The weight is an operator (InnerProductWeight): it applies W to a vector or
a block by one pass of the powers of the sparse M (taylor_exp_apply), with
one rounding bound, solves with a principal block by conjugate gradients,
and bounds its spectrum with no eigensolver (taylor_exp_min).  Norms are
certified bounds (norm2_upper / norm2_lower, and norm2_upper_abs of
products of absolute values, where AbsTaylor stands for |W| and for the
rounding of a pass).  Only the pencil spectrum forms the dense W
(taylor_exp_matrix, two D x D arrays); a complex right-hand side is split
into its real and imaginary columns (real_matmul), so W is never cast to
complex.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ConfigError, NumericalError
from .harmonics import HarmonicBasis, _integral_equal_exponents, monomials_homogeneous
from .poly import Poly


# bytes of working memory one block of a streamed computation takes: the
# expansion of a sparse product, of the pairing matrix or of a symmetric
# part, or a block of rows of a dense array read by the norms and
# abs_matvec.  1 MB (at n=2 N=10 a D x D float64 array is 200 MB);
# of 1, 2, 4 and 8 MB it gave the lowest peak RSS of qcurv solve and
# parametrix-check at n=1 N=12, with run times inside their run-to-run spread
_BLOCK_BYTES = 1 << 20
# entries of one block of rows of a dense array: _BLOCK_BYTES of complex128
_DENSE_BLOCK = _BLOCK_BYTES // 16


def row_slices(shape, budget):
    """Consecutive blocks of rows of a matrix of this shape, of at most budget entries (or one row) each."""
    step = max(1, budget // max(shape[1], 1))
    return [slice(i, min(i + step, shape[0])) for i in range(0, shape[0], step)]


def norm2_upper(X) -> float:
    """Upper bound on the spectral norm: sqrt(||X||_1 ||X||_inf) >= ||X||_2 (dense or CSR X).

    The row and column sums are those of |X|, so it bounds ||abs(X)||_2 too.
    A dense X is read a block of rows at a time: no array of its size is made.
    """
    if X.size == 0:
        return 0.0
    if isinstance(X, CSR):
        A = abs(X)
        return math.sqrt(float(A.sum(axis=0).max()) * float(A.sum(axis=1).max()))
    return norm2_upper_blocks(X.shape, lambda sl: X[sl])


def norm2_upper_blocks(shape, rows_of):
    """norm2_upper of the dense matrix whose rows sl are rows_of(sl), a block of rows at a time."""
    rows, cols = np.empty(shape[0]), np.zeros(shape[1])
    for sl in row_slices(shape, _DENSE_BLOCK):
        A = np.abs(rows_of(sl))
        rows[sl] = A.sum(axis=1)
        cols += A.sum(axis=0)
    return math.sqrt(float(rows.max()) * float(cols.max()))


def norm2_upper_abs(*terms) -> float:
    """norm2_upper of sum_t |F_t1| |F_t2| ... |F_tk|, from its row and column sums alone.

    Each term is a tuple of factors: 2-D arrays, 1-D arrays standing for
    the diagonal matrices they hold, or operators with an abs_matvec
    (AbsTaylor, Columns); every term has the same shape.  The
    row sums of a product of nonnegative matrices are |F_1| (... (|F_k| 1))
    and its column sums (((1^T |F_1|) ...) |F_k|, so the product is never
    formed: each factor costs two matrix-vector products, with |F| taken a
    block of rows at a time (no array of the size of F is made).  An
    entrywise rounding bound gamma |A| |B| has a norm of at most gamma
    times norm2_upper_abs((A, B)), and a sum of such bounds the sum of the
    terms.
    """
    rows = cols = 0.0
    for factors in terms:
        r = np.ones(factors[-1].shape[-1])
        for F in reversed(factors):
            r = abs_matvec(F, r)
        c = np.ones(factors[0].shape[0])
        for F in factors:
            c = abs_matvec(F, c, left=True)
        rows = rows + r
        cols = cols + c
    if np.size(rows) == 0 or np.size(cols) == 0:
        return 0.0
    return math.sqrt(float(np.max(rows)) * float(np.max(cols)))


def abs_matvec(F, x, left=False):
    """|F| x, or x^T |F| with left, for a factor of norm2_upper_abs."""
    if hasattr(F, "abs_matvec"):
        return F.abs_matvec(x, left)
    if F.ndim == 1:
        return abs(F) * x
    out = np.zeros(F.shape[1]) if left else np.empty(F.shape[0])
    for sl in row_slices(F.shape, _DENSE_BLOCK):
        block = abs(F[sl])
        if left:
            out += x[sl] @ block
        else:
            out[sl] = block @ x
    return out


class Columns:
    """E_M, the D x |M| identity columns on the coordinates in mask, as a factor
    of norm2_upper_abs: no array of that size is made."""

    ndim = 2

    def __init__(self, mask):
        self.mask, self.shape = mask, (mask.size, int(mask.sum()))

    def abs_matvec(self, x, left=False):
        if left:
            return x[self.mask]
        out = np.zeros(self.shape[0])
        out[self.mask] = x
        return out


def norm2_lower(X) -> float:
    """Lower bound on the spectral norm: the largest column norm max_j ||X e_j||_2.

    The squared column norms are summed a block of rows at a time.
    """
    if X.size == 0:
        return 0.0
    sq = np.zeros(X.shape[1])
    for sl in row_slices(X.shape, _DENSE_BLOCK):
        B = X[sl]
        sq += np.einsum("ij,ij->j", B.conj(), B).real
    return math.sqrt(float(sq.max()))


# pairs of one block of a sparse product (CSR.__matmul__) expanded at a time:
# about 128 bytes each (the gathered indices, keys, sort order and values,
# int64 and complex128), so 2^13 pairs in _BLOCK_BYTES
_PRODUCT_BLOCK = _BLOCK_BYTES // 128


def _spans(ends, budget):
    """Consecutive row ranges (r0, r1) of at most budget entries each, or of one row.

    ends[i] is the number of entries in rows 0 .. i (a cumulative count).
    """
    r0, R = 0, len(ends)
    while r0 < R:
        base = int(ends[r0 - 1]) if r0 else 0
        r1 = max(r0 + 1, int(np.searchsorted(ends, base + budget, side="right")))
        yield r0, r1
        r0 = r1


class CSR:
    """A sparse matrix in compressed sparse rows, on numpy alone.

    Row i holds the columns indices[indptr[i]:indptr[i+1]], ascending and
    without repeats, with their values data[...].  Index arrays are int32
    when they fit.  It carries what the Galerkin layer needs: assembly from
    coordinate triples with duplicates summed (from_coo), sparse products,
    the transpose, the negation, the entrywise real part, conjugate and
    absolute value, row and column sums, the dense form, and products with
    dense vectors and blocks (on the right).

    The product with a vector gathers the vector at the column indices
    (np.take) and sums each row's products in order (np.add.reduceat); a
    block of columns runs column by column, so every column of a block is
    bit for bit the product with that column alone.
    """

    __array_ufunc__ = None  # an ndarray operand raises instead of looping over this object

    def __init__(self, data, indices, indptr, shape):
        self.data = data
        self.indices = indices
        self.indptr = indptr
        self.shape = (int(shape[0]), int(shape[1]))
        self._plan = None  # the matvec's gather indices and row starts, made on first use

    @classmethod
    def from_coo(cls, vals, rows, cols, shape, dtype=None):
        """The matrix with entries vals at (rows, cols); repeated positions are
        summed in the order given."""
        vals = np.asarray(vals, dtype=dtype)
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        R, C = shape
        order = np.argsort(rows * C + cols, kind="stable")
        return cls._from_sorted(vals[order], rows[order], cols[order], shape)

    @classmethod
    def _from_sorted(cls, vals, rows, cols, shape, drop_zeros=False):
        """from_coo for entries already ordered by row, then column."""
        vals, rows, cols = _sum_runs(vals, rows, cols, drop_zeros)
        R, C = shape
        itype = np.int32 if max(R, C, rows.size) < 2**31 else np.int64
        indptr = np.zeros(R + 1, dtype=itype)
        np.cumsum(np.bincount(rows, minlength=R), out=indptr[1:])
        return cls(vals, cols.astype(itype), indptr, shape)

    @classmethod
    def _from_row_blocks(cls, blocks, shape, dtype):
        """The matrix made of consecutive blocks of rows, each given as
        (values, columns, entries per row) in row and column order."""
        R, C = shape
        nnz = sum(v.size for v, _, _ in blocks)
        itype = np.int32 if max(R, C, nnz) < 2**31 else np.int64
        indptr = np.zeros(R + 1, dtype=itype)
        if not blocks:
            return cls(np.zeros(0, dtype), np.zeros(0, itype), indptr, shape)
        np.cumsum(np.concatenate([c for _, _, c in blocks]), out=indptr[1:])
        return cls(np.concatenate([v for v, _, _ in blocks]).astype(dtype, copy=False),
                   np.concatenate([j for _, j, _ in blocks]).astype(itype, copy=False),
                   indptr, shape)

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def nnz(self):
        return self.data.size

    size = nnz  # as for scipy.sparse: the stored entries

    def row_ids(self):
        """The row of every stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def _entries(self, r0, r1):
        """Values, rows and columns (int64) of the stored entries in rows r0 .. r1 - 1."""
        lo, hi = self.indptr[r0], self.indptr[r1]
        rows = np.repeat(np.arange(r0, r1), np.diff(self.indptr[r0:r1 + 1]))
        return self.data[lo:hi], rows, self.indices[lo:hi].astype(np.int64)

    def max_row_length(self):
        """The most entries stored in one row."""
        return int(np.diff(self.indptr).max(initial=0))

    def _with_data(self, data):
        return CSR(data, self.indices, self.indptr, self.shape)

    @property
    def real(self):
        return self._with_data(self.data.real.copy())

    def conj(self):
        return self._with_data(self.data.conj())

    def __abs__(self):
        return self._with_data(np.abs(self.data))

    def __neg__(self):
        return self._with_data(-self.data)

    @property
    def T(self):
        # a stable sort by column keeps the rows ascending inside each column
        order = np.argsort(self.indices, kind="stable")
        indptr = np.zeros(self.shape[1] + 1, dtype=self.indptr.dtype)
        np.cumsum(np.bincount(self.indices, minlength=self.shape[1]), out=indptr[1:])
        return CSR(self.data[order], self.row_ids()[order].astype(self.indices.dtype), indptr,
                   self.shape[::-1])

    def toarray(self):
        out = np.zeros(self.shape, dtype=self.dtype)
        out[self.row_ids(), self.indices] = self.data
        return out

    def sum(self, axis):
        """Row (axis=1) or column (axis=0) sums of a real matrix, as a dense vector."""
        if axis == 1:
            return self @ np.ones(self.shape[1])
        return np.bincount(self.indices, self.data, minlength=self.shape[1])

    def __matmul__(self, other):
        if isinstance(other, CSR):
            return self._sparse_product(other)
        X = np.asarray(other)
        if X.ndim == 1:
            return self._matvec(X)
        out = np.empty((X.shape[1], self.shape[0]), dtype=np.result_type(self.dtype, X.dtype))
        for j, x in enumerate(np.ascontiguousarray(X.T)):
            out[j] = self._matvec(x)
        return out.T

    def _matvec(self, x):
        if x.shape[0] != self.shape[1]:
            raise ValueError(f"dimension mismatch: {self.shape} @ {x.shape}")
        if self._plan is None:
            # gather indices in the platform's index type (np.take converts
            # any other on every call), and the starts of the nonempty rows
            nonempty = np.diff(self.indptr) > 0
            starts = self.indptr[:-1][nonempty]
            self._plan = (self.indices.astype(np.intp), starts,
                          None if nonempty.all() else nonempty)
        gather, starts, nonempty = self._plan
        dtype = np.result_type(self.dtype, x.dtype)
        if not starts.size:
            return np.zeros(self.shape[0], dtype=dtype)
        products = x.take(gather).astype(dtype, copy=False)
        products *= self.data
        sums = np.add.reduceat(products, starts)
        if nonempty is None:
            return sums
        out = np.zeros(self.shape[0], dtype=sums.dtype)
        out[nonempty] = sums
        return out

    def _sparse_product(self, other):
        """self @ other, expanded a block of rows at a time.

        Each stored A[i, k] meets row k of B.  The pairs of one block of
        rows (at most _PRODUCT_BLOCK of them, or one row) are sorted stably
        by (i, j), so each entry sums its terms in ascending k, and exact
        zeros are dropped; no more than one block is expanded at once, so
        the result does not depend on the block size.
        """
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"dimension mismatch: {self.shape} @ {other.shape}")
        R, C = self.shape[0], other.shape[1]
        count = np.diff(other.indptr).astype(np.int64)[self.indices]
        # pairs[e] = the pairs of the entries before entry e, so row i's end at pairs[indptr[i + 1]]
        pairs = np.concatenate([[0], np.cumsum(count)])
        blocks = []
        for r0, r1 in _spans(pairs[self.indptr[1:]], _PRODUCT_BLOCK):
            lo, hi = self.indptr[r0], self.indptr[r1]
            n = count[lo:hi]
            # the pairs of entry e are B's entries indptr[k] .. indptr[k] + n_e - 1
            take = np.repeat(other.indptr[self.indices[lo:hi]] - (pairs[lo:hi] - pairs[lo]), n)
            take += np.arange(take.size)
            i = np.repeat(np.repeat(np.arange(r0, r1), np.diff(self.indptr[r0:r1 + 1])), n)
            j = other.indices[take].astype(np.int64)
            order = np.argsort(i * C + j, kind="stable")
            v = np.repeat(self.data[lo:hi], n)[order] * other.data[take[order]]
            v, i, j = _sum_runs(v, i[order], j[order], drop_zeros=True)
            blocks.append((v, j, np.bincount(i - r0, minlength=r1 - r0)))
        return CSR._from_row_blocks(blocks, (R, C), np.result_type(self.dtype, other.dtype))


def _sum_runs(vals, rows, cols, drop_zeros=False):
    """Sum the adjacent entries of equal (row, col), in order; optionally drop exact zeros."""
    if rows.size:
        first = np.ones(rows.size, dtype=bool)
        first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        starts = np.flatnonzero(first)
        if starts.size < rows.size:
            vals = np.add.reduceat(vals, starts)
            rows, cols = rows[starts], cols[starts]
    if drop_zeros:
        keep = vals != 0
        vals, rows, cols = vals[keep], rows[keep], cols[keep]
    return np.array(vals), rows, cols


# the multiplier's entries dropped as rounding residues: |M_ij| <= PRUNE_TOL max|X|
# (2^7 u).  On the benchmark's draws the residues of exact zeros sit below
# 2^-48 max|X| and the true entries above 1e-13 max|X|: the cut drops 35% of
# the entries at n=1 N=12 (longest row 69 -> 39) and 44% at n=2 N=8 (114 -> 56)
PRUNE_TOL = 2.0**-46


def symmetric_part(X: CSR, tau=0.0):
    """(X + X^T) / 2 of a square CSR X without its entries of size <= tau, and a
    bound on the norm of what is dropped; a block of rows at a time.

    Each block of rows holds the stored entries of X and of X^T in those
    rows, summed as X + X.T sums them (X_ij + X_ji, in that order) and
    halved, so every entry is that of (X + X.T) * 0.5 bit for bit; a pair
    that cancels is not stored, nor is an entry with |S_ij| <= tau.  It is
    exactly symmetric, entry for entry, since a float sum does not depend
    on its order, and so is the dropped part: its norm is at most its
    largest absolute row sum (norm2_upper of a symmetric matrix), returned
    rounded up.  Besides X, its transpose and the result, one block of at
    most _PRODUCT_BLOCK entries is expanded at a time.
    """
    T = X.T
    D = X.shape[0]
    blocks = []
    dropped = 0.0
    for r0, r1 in _spans(X.indptr[1:].astype(np.int64) + T.indptr[1:], _PRODUCT_BLOCK):
        (a, ia, ja), (b, ib, jb) = X._entries(r0, r1), T._entries(r0, r1)
        i, j = np.concatenate([ia, ib]), np.concatenate([ja, jb])
        order = np.argsort(i * D + j, kind="stable")
        vals, i, j = _sum_runs(np.concatenate([a, b])[order], i[order], j[order])
        vals *= 0.5
        keep = np.abs(vals) > tau
        if not keep.all():
            sums = np.bincount(i[~keep] - r0, np.abs(vals[~keep]), minlength=r1 - r0)
            dropped = max(dropped, float(sums.max()))
            vals, i, j = vals[keep], i[keep], j[keep]
        blocks.append((vals, j, np.bincount(i - r0, minlength=r1 - r0)))
    return CSR._from_row_blocks(blocks, X.shape, X.dtype), dropped * (1 + gamma(D + 1))


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


def _place_values(radix, width):
    """The place values radix^k of a mixed-radix code: code(x) = x @ _place_values(...)."""
    return radix ** np.arange(width, dtype=np.int64)


# entries of one block of the pairing matrix formed at a time: about 256 bytes
# each (row and column, the gathered exponents, their codes and the sort of
# the codes, int64), so 2^12 entries in _BLOCK_BYTES
_PAIRING_BLOCK = _BLOCK_BYTES // 256


def pairing_matrix(row_idx: MonomialIndex, col_idx: MonomialIndex, n):
    """Sparse K[r, c] = <mono_c, mono_r> over the sphere, exact values.

    <z^A zbar^B, z^A' zbar^B'> is nonzero iff A - B == A' - B' componentwise,
    with value integral(A + B').  Rows and columns are matched by sector
    A - B with numpy; the exact integral is evaluated once per distinct
    exponent tuple A_c + B_r and rounded to float.  The entries are formed
    a block of rows at a time (at most _PAIRING_BLOCK of them, or one row),
    already in row and column order.
    """
    R, C = len(row_idx), len(col_idx)
    rows_ab = np.array(row_idx.keys, dtype=np.int64).reshape(R, 2, -1)
    cols_ab = np.array(col_idx.keys, dtype=np.int64).reshape(C, 2, -1)
    top = max(row_idx.max_degree, col_idx.max_degree)
    place = _place_values(2 * top + 1, rows_ab.shape[2])
    # A - B lies in [-top, top] componentwise, A_c + B_r in [0, 2 top]
    sector = (top + np.concatenate([rows_ab[:, 0] - rows_ab[:, 1],
                                    cols_ab[:, 0] - cols_ab[:, 1]])) @ place
    row_sector, col_sector = sector[:R], sector[R:]
    # columns grouped by sector (ascending within one), one run per row
    order = np.argsort(col_sector, kind="stable")
    start = np.searchsorted(col_sector[order], row_sector, side="left")
    count = np.searchsorted(col_sector[order], row_sector, side="right") - start
    # the integral of every exponent tuple met so far, by code (ascending),
    # after a sentinel code above every real one
    known, table = np.array([np.iinfo(np.int64).max]), np.zeros(1)
    blocks = []
    for r0, r1 in _spans(np.cumsum(count), _PAIRING_BLOCK):
        cnt = count[r0:r1]
        rows = np.repeat(np.arange(r0, r1), cnt)
        cols = order[np.arange(rows.size) - np.repeat(np.cumsum(cnt) - cnt - start[r0:r1], cnt)]
        exps = cols_ab[cols, 0] + rows_ab[rows, 1]
        codes = exps @ place
        new, first = np.unique(codes, return_index=True)
        fresh = known[np.searchsorted(known, new)] != new
        values = [float(_integral_equal_exponents(n, tuple(e)))
                  for e in exps[first[fresh]].tolist()]
        known = np.concatenate([known, new[fresh]])
        table = np.concatenate([table, values])
        by_code = np.argsort(known)
        known, table = known[by_code], table[by_code]
        blocks.append((table[np.searchsorted(known, codes)], cols, cnt))
    return CSR._from_row_blocks(blocks, (R, C), np.float64)


def shift_matrix(f: Poly, src_idx: MonomialIndex, dst_idx: MonomialIndex):
    """Multiplication by f on monomial coordinates (exponent shifts).

    Every term (C, D) of f moves the source monomial (A, B) to
    (A + C, B + D); the moved exponents are matched against the
    destination index by one int64 code per exponent row, in a radix above
    every moved and destination exponent.  Codes add: code(src + shift) =
    code(src) + code(shift), so the moved codes come from one code per
    source monomial and one per term, and no moved exponent row is formed.
    """
    if any(a for (a, _, _) in f.terms):
        raise ValueError("multiplier must be t-free")
    width = 2 * src_idx.m
    shifts = np.array([C + D for (_, C, D) in f.terms], dtype=np.int64).reshape(-1, width)
    values = np.array([complex(c) for c in f.terms.values()], dtype=complex)
    src = np.array(src_idx.keys, dtype=np.int64).reshape(-1, width)
    dst = np.array(dst_idx.keys, dtype=np.int64).reshape(-1, width)
    place = _place_values(max(int(src.max(initial=0)) + int(shifts.max(initial=0)),
                              int(dst.max(initial=0))) + 1, width)
    dst_codes = dst @ place
    moved_codes = ((shifts @ place)[:, None] + (src @ place)[None, :]).ravel()
    order = np.argsort(dst_codes)
    pos = np.minimum(np.searchsorted(dst_codes[order], moved_codes), len(dst) - 1)
    hit = dst_codes[order[pos]] == moved_codes
    cols = np.tile(np.arange(len(src)), len(values))
    return CSR.from_coo(np.repeat(values, len(src))[hit], order[pos[hit]], cols[hit],
                        (len(dst_idx), len(src_idx)), dtype=complex)


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
        return CSR.from_coo(vals, rows, cols, (self.dim, self.dim), dtype=complex)


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
    return CSR.from_coo(vals, rows, cols, (basis.total_dim, len(idx)), dtype=complex)


class GalerkinContext:
    """Cached sparse scaffolding for multiplication matrices over one basis."""

    def __init__(self, basis: HarmonicBasis, mult_degree=6):
        self.basis = basis
        self.mult_degree = mult_degree
        m = basis.m
        self.idx_basis = MonomialIndex(m, basis.N)
        self.idx_big = MonomialIndex(m, basis.N + mult_degree)
        self.B = basis_matrix(basis, self.idx_basis)
        self.K = pairing_matrix(self.idx_basis, self.idx_big, basis.n)
        self._BK = self.B.conj() @ self.K

    def mult_matrix(self, f: Poly) -> CSR:
        """Sparse (CSR) frame Galerkin matrix of multiplication by f (floating coefficients ok).

        Complex in general; real up to rounding when f is real valued.
        """
        degs = {sum(b) + sum(g) for (a, b, g) in f.terms}
        if degs and max(degs) > self.mult_degree:
            raise ConfigError(
                f"multiplier degree {max(degs)} exceeds context bound {self.mult_degree}"
            )
        S = shift_matrix(f, self.idx_basis, self.idx_big)
        return self._BK @ (S @ self.B.T)

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
        L = sum(X.max_row_length() for X in (absB, S, self._BK))
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
    """Sum_{k<=K} M^k / k! by Paterson and Stockmeyer; each product stays on the truncation.

    With the split s = 3 and r = floor(K / 3) the sum is Horner's rule
    in the power X = M^3,

        T_K(M) = sum_{j<=r} B_j X^j,   B_j = I / (3j)! + M / (3j+1)! + M^2 / (3j+2)!

    (B_r without the terms past M^K), and every B_j is a polynomial in M,
    so it commutes with X and Horner's rule runs on the right:
    E_r = B_r, E_j = E_{j+1} X + B_j.  That takes the products M^2 and M^3
    and r products in X, one fewer when 3 divides K (then B_r = I / K! and
    the first step is X / K! + B_{r-1}): 5 dense matmuls at K = 12, where
    Horner's rule in M takes 11 (Paterson and Stockmeyer, SIAM J. Comput.
    2, 1973; Higham, Functions of Matrices, 4.2).  M is CSR; the sum is
    dense, and every product is a dense matmul.  The coefficients are
    1 / k! correctly rounded, the M^2 term of each B_j is added from the
    nonzero entries of M^2 (7% of D^2 at n=2 N=8, 15% at n=1 N=12), the M
    term from the stored entries of M, and the identity term goes on the
    diagonal alone.

    Working memory: two D x D arrays, X and the sum E, one block of rows
    and the nonzero entries of M^2.  A row of Y X reads only the same row
    of Y, so a product on the right overwrites its left factor a block of
    at least D/8 rows at a time (eighth_blocks), through a buffer: M^2 is
    formed in X (the dense M the second array meanwhile) and turned into
    M^3 so, and each Horner step overwrites E so, the block taking its rows
    of B_j before it is copied back.  Every entry is rounded as in the same
    evaluation with each block's product formed on its own.
    """
    D = M.shape[0]
    r = K // 3
    dense = M.toarray()
    dtype = dense.dtype
    blocks = eighth_blocks(D)
    buf = np.empty((blocks[0].stop if blocks else 0, D), dtype=dtype)
    m2 = []  # per block of rows, M^2's nonzero entries: flat index in the block, value
    X = dense @ dense if K >= 2 else None  # M^2, then M^3 in place
    for rows in blocks if K >= 2 else ():
        at = np.flatnonzero(X[rows])
        m2.append((at.astype(np.int32 if at.size < 2**31 else np.int64), X[rows].reshape(-1)[at]))
        if K >= 3:
            B = buf[:rows.stop - rows.start]
            np.matmul(X[rows], dense, out=B)
            X[rows] = B
    del dense

    def add_block(j, B, i, rows):
        """B += the rows `rows` (block i) of B_j, in place (B holds those rows)."""
        k = 3 * j
        if k + 2 <= K:
            flat, values = m2[i]
            B.reshape(-1)[flat] += values * (1 / math.factorial(k + 2))
        if k + 1 <= K:
            c = 1 / math.factorial(k + 1)
            ptr = M.indptr[rows.start:rows.stop + 1]
            at = np.repeat(np.arange(ptr.size - 1), np.diff(ptr))
            B[at, M.indices[ptr[0]:ptr[-1]]] += M.data[ptr[0]:ptr[-1]] * c
        B[np.arange(B.shape[0]), np.arange(rows.start, rows.stop)] += 1 / math.factorial(k)

    if r and 3 * r == K:  # B_r = I / K!: the first step needs no product
        E = np.multiply(X, 1 / math.factorial(K))
        top = r - 1
    else:
        E = np.zeros((D, D), dtype=dtype)
        top = r
    for i, rows in enumerate(blocks):
        add_block(top, E[rows], i, rows)
    for j in range(top - 1, -1, -1):
        for i, rows in enumerate(blocks):
            B = buf[:rows.stop - rows.start]
            np.matmul(E[rows], X, out=B)
            add_block(j, B, i, rows)
            E[rows] = B
    return E


def eighth_blocks(D):
    """Eight blocks of about D/8 rows (or columns) of a D x D array: the
    blocks the Taylor sum's Horner steps and the chain's products take.  A
    product of a block of D/8 rows with a D x D matrix runs within 10% of
    one full product (one BLAS thread), and its temporaries stay D^2 / 8."""
    return row_slices((D, D), D * max(-(-D // 8), 1))


def taylor_exp_apply(M, K: int, X, negated=False, overwrite_x=False):
    """T_K(M) X = sum_j Y_j, Y_j = M^j X / j!, by one pass of the powers of M.

    The one routine for W = T_K(M) on vectors and blocks of columns: the
    weight's apply, the chain's passes and the conformal factors of
    qcurvature run here, and no matrix of the size of M is formed.  With
    negated it also returns T_K(-M) X = sum (-1)^j Y_j from the same powers
    (a real X), bit for bit a separate pass on -M; with overwrite_x a
    float64 X may hold the result.  Real for a real M and X; a complex X
    with a real M runs as its real and imaginary parts (real_matmul).  With
    a CSR M every column of a block is bit for bit the result for that
    column alone.  The pass holds three or four blocks of X's size, and its
    rounding is at most AbsTaylor.rounding() |X| entrywise.
    """
    X = np.asarray(X)
    if np.iscomplexobj(X) and not np.iscomplexobj(M):
        return real_matmul(lambda Y: taylor_exp_apply(M, K, Y), X)
    dtype = np.result_type(M.dtype, X.dtype, np.float64)
    S = X if overwrite_x and X.dtype == dtype else np.array(X, dtype=dtype)
    V = np.array(S) if negated else None
    Y = S
    for j in range(1, K + 1):
        Y = M @ Y
        if not Y.any():  # every further power is exactly zero too
            break
        Y /= j
        S += Y
        if negated and j % 2:
            V -= Y
        elif negated:
            V += Y
    return (S, V) if negated else S


class AbsTaylor:
    """c0 T_K(|M|) + c1 |M| T_K(|M|) >= 0, symmetric, as a factor of norm2_upper_abs: one
    pass of the powers of |M| per distinct vector (shared by scaled()), rounded up.

    |T_K(M)| <= T_K(|M|) entrywise.  rounding() bounds taylor_exp_apply: its
    Y_j = fl(fl(M Y_{j-1}) / j) is within ((1 + gamma_{L+1})^j - 1) |M|^j |X| / j!
    of M^j X / j! (L the longest row of M), and passes at most K additions,
    so with u' = u / (1 - K (L + 2) u) the sum is within
    u' sum_j (K + j (L + 1)) |M|^j |X| / j! <= u' (K T_K(|M|) + (L + 1) |M| T_K(|M|)) |X|
    of T_K(M) X, and of T_K(-M) X too (Higham, 3.1 and 3.5).
    """

    ndim = 2

    def __init__(self, M, K, c0=1.0, c1=0.0, _base=None):
        self.c0, self.c1, self.shape, self.K = c0, c1, M.shape, K
        if _base is None:
            self.abs_m, self._seen = abs(M), {}
            self.L = self.abs_m.max_row_length()
        else:
            self.abs_m, self.L, self._seen = _base.abs_m, _base.L, _base._seen

    def scaled(self, c0, c1=0.0):
        return AbsTaylor(self.abs_m, self.K, c0, c1, _base=self)

    def rounding(self):
        u = UNIT_ROUNDOFF / (1 - self.K * (self.L + 2) * UNIT_ROUNDOFF)
        return self.scaled(self.K * u, (self.L + 1) * u)

    def abs_matvec(self, x, left=False):
        key = x.tobytes()
        if key not in self._seen:
            t = taylor_exp_apply(self.abs_m, self.K, x)
            self._seen[key] = t * (1 + gamma(self.K * (self.L + 2) + 4))
        t = self._seen[key]
        out = self.c0 * t + self.c1 * (self.abs_m @ t) if self.c1 else self.c0 * t
        return out * (1 + gamma(self.L + 3))


# unit roundoff of float64 / complex128 arithmetic
UNIT_ROUNDOFF = 2.0**-53


def gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), the a-priori bound on k rounded operations."""
    return k * UNIT_ROUNDOFF / (1 - k * UNIT_ROUNDOFF)


# the smallest inner block of blocked_matmul: narrower matmuls run far below peak
_MATMUL_BLOCK = 64


def blocked_matmul(A, B):
    """A @ B summed over blocks of the inner dimension, and the order k of its rounding bound gamma_k.

    With n the inner dimension, each of the m = ceil(n / b) block products,
    b = max(ceil(sqrt n), _MATMUL_BLOCK), commits at most gamma_b |A_j| |B_j|
    whatever its summation order, and adding them in turn at most
    gamma_{m-1} of their absolute sum (Higham, Accuracy and Stability of
    Numerical Algorithms, 3.1 and 3.5), so the result is within
    gamma_{b+m-1} |A| |B| of the exact product, where one matmul is only
    within gamma_n.  For products whose rounding bound matters more than
    their cost.
    """
    n = A.shape[1]
    b = max(math.isqrt(max(n - 1, 0)) + 1, _MATMUL_BLOCK)
    out = A[:, :b] @ B[:b]
    for i in range(b, n, b):
        out += A[:, i:i + b] @ B[i:i + b]
    return out, b + max(-(-n // b) - 1, 0)


def _taylor_sum(x: Fraction, k: int) -> Fraction:
    """T_k(x) = sum_{j<=k} x^j / j! exactly, in integers over one denominator d^k k!, x = n / d."""
    n, d, f = x.numerator, x.denominator, math.factorial(k)
    num = sum(n**j * d**(k - j) * (f // math.factorial(j)) for j in range(k + 1))
    return Fraction(num, d**k * f)


def float_bound(x: Fraction, up: bool) -> float:
    """x rounded outward to a float: the least float >= x (up) or the greatest <= x."""
    f = float(x)
    return f if f == x or (f > x) == up else math.nextafter(f, math.inf if up else -math.inf)


def taylor_exp_min(a: float, K: int) -> float:
    """min over |x| <= a of T_K(x) = sum_{k<=K} x^k / k!, in rational arithmetic, rounded down.

    T_K' = T_{K-1}.  For odd K, T_{K-1} has even degree and no real root,
    so T_K increases and the minimum is T_K(-a); for even K the same holds
    when T_{K-1}(-a) > 0 (T_{K-1} increases).  Otherwise the minimum is at
    the one real root r in [-a, 0) of T_{K-1}, where T_K(r) = r^K / K!;
    bisection keeps a point h in (r, 0), and h^K / K! <= r^K / K!.
    (The maximum is T_K(a): |T_K(-y)| <= T_K(y) for y >= 0.)
    """
    x = -Fraction(a)
    if K == 0 or K % 2 or _taylor_sum(x, K - 1) > 0:
        return float_bound(_taylor_sum(x, K), up=False)
    lo, hi = x, Fraction(0)
    for _ in range(60):
        mid = (lo + hi) / 2
        if _taylor_sum(mid, K - 1) > 0:
            hi = mid
        else:
            lo = mid
    return float_bound(hi**K / math.factorial(K), up=False)


def taylor_exp_mismatch(a: float, K: int) -> float:
    """mu >= max_{|x|<=a} |T_K(x) T_K(-x) - 1|, so ||T_K(M) T_K(-M) - I|| <= mu for a
    symmetric M with ||M|| <= a.

    The product is 1 + sum_d m_d x^d, m_d = sum_{j=d-K}^{K} (-1)^j C(d, j) / d!:
    zero for d <= K (the coefficients of e^x e^-x = 1), and for d > K, from
    sum_{j<=m} (-1)^j C(d, j) = (-1)^m C(d-1, m), 2 (-1)^K C(d-1, K) / d! for
    even d and 0 for odd d.  mu = sum_d |m_d| a^d in Fractions, rounded up
    (26/14! a^14 + ... at K = 12: 5e-20 at a = 0.2, 8e-6 at a = 2).
    """
    x = Fraction(a)
    mu = sum(Fraction(2 * math.comb(d - 1, K), math.factorial(d)) * x**d
             for d in range(K + 2 - K % 2, 2 * K + 1, 2))
    return math.nextafter(float(mu), math.inf)


def cg_iteration_cap(kappa: float, tol: float) -> int:
    """Iterations within which conjugate gradients reaches ||r_k|| <= tol ||b||, cond(A) <= kappa.

    In exact arithmetic ||e_k||_A <= 2 q^k ||e_0||_A with
    q = (sqrt(kappa) - 1) / (sqrt(kappa) + 1), and ||r|| <= sqrt(lambda_max) ||e||_A,
    ||e_0||_A <= ||b|| / sqrt(lambda_min), so ||r_k|| <= 2 sqrt(kappa) q^k ||b||.  The
    cap is the first k where that is at most tol, plus CG_SLACK iterations
    for the delay rounding brings to the recursively updated residual.
    """
    q = (math.sqrt(kappa) - 1) / (math.sqrt(kappa) + 1)
    if q <= 0:
        return 1 + CG_SLACK
    return max(1, math.ceil(math.log(tol / (2 * math.sqrt(kappa))) / math.log(q))) + CG_SLACK


# the stopping rule of the block solve: ||r|| <= CG_TOL ||b||
CG_TOL = UNIT_ROUNDOFF
CG_SLACK = 10


def real_matmul(A, X):
    """A @ X for a real A without casting A to complex.

    A complex X (vector or matrix) is multiplied as its real and imaginary
    parts, side by side in one real array; a complex X with no imaginary
    part (a real function's frame coefficients) as its real part alone.  A
    is a matrix or a callable applying a real linear map to the columns of
    a real array.
    """
    apply = A if callable(A) else A.__matmul__
    if not np.iscomplexobj(X):
        return apply(X)
    if not np.imag(X).any():
        return apply(np.ascontiguousarray(np.real(X))).astype(complex)
    X = np.ascontiguousarray(X, dtype=complex)
    parts = X.view(np.float64).reshape(X.shape[0], -1)  # columns re, im, re, im, ...
    return np.ascontiguousarray(apply(parts)).view(complex).reshape(X.shape)


# rows (and columns) of one block of _symmetrized: a float64 block of _BLOCK_BYTES
_SYMMETRIZE_BLOCK = math.isqrt(_BLOCK_BYTES // 8)


def _symmetrized(X):
    """(X + X^T) / 2 in place, a pair of blocks (i, j), (j, i) at a time.

    Both entries of a pair become (X_ij + X_ji) * 0.5, the same floats
    0.5 * (X + X.T) gives (a sum does not depend on its order), and no
    temporary larger than a block of _BLOCK_BYTES is made.
    """
    D, b = X.shape[0], _SYMMETRIZE_BLOCK
    for i in range(0, D, b):
        for j in range(i, D, b):
            S = X[i:i + b, j:j + b] + X[j:j + b, i:i + b].T
            S *= 0.5
            X[i:i + b, j:j + b] = S
            X[j:j + b, i:i + b] = S.T
    return X


# past this exponent e^A and e^(2A) of the weight's bounds overflow
_EXP_LIMIT = math.log(np.finfo(float).max)


def check_exp_range(a: float) -> None:
    """Raise NumericalError unless 2 a < _EXP_LIMIT (a NaN too), a >= ||M||: past it
    e^(2||M||) leaves the float range, and the conformal factor the regime the
    truncation can represent.  The weight, qhat and total_q test it before any apply."""
    if not 2 * a < _EXP_LIMIT:
        raise NumericalError(f"conformal factor out of range: ||M|| <= {a:.3e} "
                             f"puts e^(2||M||) past the float range")


@dataclass
class InnerProductWeight:
    """Gram matrix W = T_K(M) of the truncated basis under e^{(n+1) Upsilon} dsigma.

    An operator: the real, symmetric frame multiplier M of (n+1) Upsilon
    with the Taylor depth K; W = W^T acts by passes of the powers of M
    (apply, taylor_exp_apply), and the zero-Q solve and the chain never
    form it.  The pencil spectrum alone builds the dense matrix (matrix,
    projector_rows; solve, projector and adjoint_defect serve the tests),
    in two D x D arrays (taylor_exp_matrix).

    block_solve(S, b) solves with the principal block W_SS by conjugate
    gradients on apply restricted to S, from zero, until
    ||r|| <= CG_TOL ||b||.  W_SS is symmetric positive definite with its
    spectrum inside [min_eigenvalue_bound, max_eigenvalue_bound]
    (interlacing), so cond(W_SS) <= kappa = max / min bound, and
    cg_iteration_cap (from kappa) bounds the iterations a converging run
    needs: reaching it, or a breakdown p^T W_SS p <= 0, raises
    NumericalError.  A caller that turns a solve into a number it reports
    accounts for where CG stopped: for any z and r = b - W_SS z,
    b^T W_SS^{-1} b = b^T z + z^T r + r^T W_SS^{-1} r, and the last term is
    at most ||r||^2 / lambda_lb (qcurvature.solvability_check).  Dense
    solves test no positivity: the bounds bracket every principal block and
    every compression V W V^* with orthonormal rows (parametrix.szego_rows).

    multiplier_bound is A >= ||M||_2 for the stored M
    (ContactPerturbation.multiplier_matrix forms it from a bound on the
    exact multiplier and the charge for assembling, symmetrizing and
    cutting M).  W = T_K(M) exactly and M is symmetric, so
    eig(W) = T_K(eig(M)) lies in [min_{|x|<=A} T_K(x), T_K(A)]: the numbers

        min_eigenvalue_bound = min_{|x|<=A} T_K(x), rounded down
        max_eigenvalue_bound = T_K(A), rounded up

    bracket the spectrum of W, with no eigensolver (taylor_exp_min); the
    dense matrix is W up to the rounding of its Taylor sum.  A pass is
    within R |x| of W x entrywise, R = abs_taylor.rounding() (AbsTaylor)
    symmetric and nonnegative, and ||abs(M)|| <= m = norm2_upper(M), so
    apply_rounding_bound = u' (K + (L + 1) m) T_K(m), rounded up (L the
    longest row of M), bounds ||R||: ||apply(x) - W x|| <= it times ||x||,
    for every column of a block and a complex x applied as its two parts.

    The lower bound is below T_K on the whole interval [-A, A], so it can be
    <= 0 while W is still positive definite: for odd K, T_K has a real root
    r_K (r_5 = -2.18, r_11 = -3.91), and every A >= |r_K| gives a bound <= 0.
    Such a weight is refused: a bound <= 0, like a CG breakdown or an
    A past _EXP_LIMIT / 2 (check_exp_range), raises NumericalError (the
    conformal factor left the regime the truncation can represent).
    Complex vectors are applied, solved by CG and taken by adjoint_defect
    as their real and imaginary parts (real_matmul).
    """

    multiplier: CSR  # M: real D x D
    taylor_depth: int
    multiplier_bound: float
    apply_rounding_bound: float = field(init=False)
    min_eigenvalue_bound: float = field(init=False)
    max_eigenvalue_bound: float = field(init=False)
    cg_iteration_cap: int = field(init=False)
    cg_iterations: list = field(init=False, default_factory=list)  # one entry per CG solve
    _matrix: np.ndarray | None = field(init=False, repr=False, default=None)
    _abs_taylor: AbsTaylor | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        M = self.multiplier
        if np.iscomplexobj(M):
            raise TypeError("the weight is real: build its multiplier in the real frame")
        A, K = self.multiplier_bound, self.taylor_depth
        check_exp_range(A)
        L, m = M.max_row_length(), Fraction(norm2_upper(M))
        u = Fraction(UNIT_ROUNDOFF) / (1 - K * (L + 2) * Fraction(UNIT_ROUNDOFF))
        try:
            rounding = float(u * (K + (L + 1) * m) * _taylor_sum(m, K))
        except OverflowError:
            rounding = math.inf
        self.apply_rounding_bound = math.nextafter(rounding, math.inf)
        self.min_eigenvalue_bound = taylor_exp_min(A, K)
        self.max_eigenvalue_bound = float_bound(_taylor_sum(Fraction(A), K), up=True)
        if self.min_eigenvalue_bound <= 0:
            raise NumericalError(
                f"weight not certified positive (lower eigenvalue bound "
                f"{self.min_eigenvalue_bound:.3e} for ||M|| <= {A:.3e}, "
                f"Taylor depth {K}; a larger depth or a "
                f"smaller Upsilon raises it)"
            )
        self.cg_iteration_cap = cg_iteration_cap(
            self.max_eigenvalue_bound / self.min_eigenvalue_bound, CG_TOL)

    def apply(self, x):
        """W x by one pass on a copy of x (a vector or a block of columns); W is not formed."""
        return taylor_exp_apply(self.multiplier, self.taylor_depth, x)

    @property
    def abs_taylor(self) -> AbsTaylor:
        """T_K(|M|) >= |W| entrywise, built on first use; its rounding() bounds a pass."""
        if self._abs_taylor is None:
            self._abs_taylor = AbsTaylor(self.multiplier, self.taylor_depth)
        return self._abs_taylor

    def block_apply(self, mask, x):
        """W_MM x for the principal block on the coordinates in mask, by one pass."""
        mask = np.asarray(mask, dtype=bool)
        full = np.zeros((mask.size,) + np.shape(x)[1:], dtype=np.result_type(x, np.float64))
        full[mask] = x
        return self.apply(full)[mask]

    def block_solve(self, mask, rhs):
        """W_MM^{-1} rhs, W_MM the principal block on the coordinates in mask.

        Conjugate gradients on block_apply, one run for all the columns of
        a block.
        """
        mask = np.asarray(mask, dtype=bool)
        return real_matmul(lambda b: self._conjugate_gradients(mask, b), rhs)

    def _conjugate_gradients(self, mask, B):
        """W_MM^{-1} B (real B) by CG from zero, each column stopped at ||r|| <= CG_TOL ||b||."""
        X = np.zeros(B.shape)
        R = np.array(B, dtype=float)
        P = R.copy()
        rr = np.sum(R * R, axis=0)
        stop = (CG_TOL**2) * rr
        for it in range(self.cg_iteration_cap + 1):
            live = ~(rr <= stop)  # a NaN residual stays live and breaks down below
            if not live.any():
                self.cg_iterations.append(it)
                return X
            if it == self.cg_iteration_cap:
                break
            Q = self.block_apply(mask, P)
            pq = np.sum(P * Q, axis=0)
            if np.any(~(pq > 0) & live):
                raise NumericalError(
                    f"weight block not positive: conjugate gradients broke down "
                    f"(p^T W p = {np.min(pq):.3e}) at iteration {it}")
            alpha = np.where(live, rr / np.where(live, pq, 1.0), 0.0)
            X += alpha * P
            R -= alpha * Q
            rr_next = np.sum(R * R, axis=0)
            P *= np.where(live, rr_next / np.where(live, rr, 1.0), 0.0)
            P += R
            rr = rr_next
        raise NumericalError(
            f"conjugate gradients on the weight block did not reach a relative residual "
            f"{CG_TOL:.1e} within {self.cg_iteration_cap} iterations, the cap its "
            f"condition bound {self.max_eigenvalue_bound / self.min_eigenvalue_bound:.3g} allows")

    @property
    def matrix(self) -> np.ndarray:
        """The dense weight (W + W^T) / 2, W = taylor_exp_matrix(M, K), built on first use.

        Only the pencil spectrum (spectrum --perturbation) forms it."""
        if self._matrix is None:
            self._matrix = _symmetrized(taylor_exp_matrix(self.multiplier, self.taylor_depth))
        return self._matrix

    def solve(self, rhs):
        """W^{-1} rhs (a real vector or block) by a dense solve with the matrix."""
        return np.linalg.solve(self.matrix, rhs)

    def projector_rows(self, mask, W_M=None):
        """The rows in mask of the W-orthogonal projector onto the coordinates in mask.

        They are W_MM^{-1} W_M:, one dense solve with the block of W's rows
        W_M: (which is W_MM, W being symmetric), taken from the matrix unless
        given; the projector's other rows are exactly zero.
        """
        mask = np.asarray(mask, dtype=bool)
        if W_M is None:
            W_M = self.matrix[mask]
        return np.linalg.solve(W_M[:, mask], W_M)

    def projector(self, mask):
        """W-orthogonal projector onto the coordinate subspace given by mask (projector_rows)."""
        mask = np.asarray(mask, dtype=bool)
        P = np.zeros(self.multiplier.shape)
        if mask.any():
            P[mask] = self.projector_rows(mask)
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
        rounding = 2 * math.sqrt(2) * gamma(2 * W.shape[0]) * norm2_upper(W) * norm2_upper(X)
        return (norm2_upper(Y) + rounding) / (self.min_eigenvalue_bound * nx)
