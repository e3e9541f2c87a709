import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from crsphere.errors import ConfigError, NumericalError
from crsphere import galerkin
from crsphere.galerkin import (
    CSR,
    CG_TOL,
    PRUNE_TOL,
    GalerkinContext,
    InnerProductWeight,
    MonomialIndex,
    RealFrame,
    full_context,
    gamma,
    norm2_lower,
    norm2_upper,
    norm2_upper_abs,
    pairing_matrix,
    shift_matrix,
    symmetric_part,
    taylor_exp_apply,
    taylor_exp_matrix,
    cg_iteration_cap,
    taylor_exp_min,
)
from crsphere.harmonics import dim_hpq
from crsphere.parametrix import interior_mask, kernel_mask
from crsphere.qcurvature import ContactPerturbation
from crsphere.harmonics import _integral_equal_exponents, inner_sphere
from crsphere.poly import Poly
from crsphere.scalars import QI
from crsphere.spectral import SpectralFunction
from csr_inputs import csr, csr_zeros
from dense_chain import taylor_rounding_bound


@pytest.fixture(scope="module")
def ctx8(basis8):
    return GalerkinContext(basis8, mult_degree=6)


def kept_symmetric_part(X):
    """(X + X^T) / 2 formed densely, less the entries the weight's multiplier drops:
    those of size at most PRUNE_TOL max|X|."""
    formed = (X.toarray() + X.T.toarray()) * 0.5
    formed[np.abs(formed) <= PRUNE_TOL * np.abs(X.data).max(initial=0.0)] = 0.0
    return formed


def weight_from(ctx, scaled_upsilon, K):
    """Weight of e^{scaled_upsilon} at Taylor depth K; norm2_upper bounds ||M||."""
    M = ctx.mult_matrix(scaled_upsilon).real
    return InnerProductWeight(M, taylor_depth=K, multiplier_bound=norm2_upper(M.toarray()))


def weighted_inner(weight, u, v):
    """<u, v>_hat for coefficient vectors, by the weight's matvec (one pass)."""
    return complex(np.vdot(v, weight.apply(u)))


def weighted_adjoint(weight, X):
    """Reference W-adjoint X^dagger = W^{-1} X^* W, by a solve."""
    return weight.solve(X.conj().T @ weight.matrix)


def assembly_rounding(ctx, upsilon, n):
    """The assembly term of the multiplier's charge for (n+1) upsilon: 8 roundings per
    term of to_poly_float, one per further term and one for the scale."""
    return ctx.assembly_rounding(upsilon.abs_poly_float().scale(float(n + 1)),
                                 8 + sum(1 for _ in upsilon.terms()))


def pairing_matrix_loop(row_idx, col_idx, n):
    """Reference pairing matrix: one Python step and one exact integral per pair."""
    sectors = {}
    for c, (A, B) in enumerate(col_idx.keys):
        sectors.setdefault(tuple(a - b for a, b in zip(A, B)), []).append(c)
    rows, cols, vals = [], [], []
    for r, (A, B) in enumerate(row_idx.keys):
        for c in sectors.get(tuple(a - b for a, b in zip(A, B)), ()):
            Ac, _ = col_idx.keys[c]
            rows.append(r)
            cols.append(c)
            vals.append(float(_integral_equal_exponents(n, tuple(a + b for a, b in zip(Ac, B)))))
    return scipy.sparse.csr_matrix(
        (vals, (rows, cols)), shape=(len(row_idx), len(col_idx))
    )


def shift_matrix_loop(f, src_idx, dst_idx):
    """Reference shift matrix: one dictionary lookup per term and source monomial."""
    rows, cols, vals = [], [], []
    for (a, C, D), coeff in f.terms.items():
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


def taylor_exp_matrix_loop(M, K):
    """Reference Horner sum, starting from the identity."""
    D = M.shape[0]
    E = np.eye(D, dtype=M.dtype)
    for k in range(K, 0, -1):
        E = M @ E
        E /= k
        E.flat[:: D + 1] += 1
    return E


def horner_rounding_bound(a, D):
    """Bound on the rounding of taylor_exp_matrix_loop for ||M||_2 <= a.

    Step k commits at most c (|M| |E_{k+1}| / k + I) entrywise,
    c = sqrt(2) gamma_{2D+2}; with ||abs(X)||_2 <= sqrt(D) ||X||_2 and
    ||E_k|| <= e^a, the errors, carried forward by a^j / j!, sum to at most
    c e^a (D a e^a + 1), doubled for the second-order terms.
    """
    return 2 * math.sqrt(2) * gamma(2 * D + 2) * (D * a + 1) * math.exp(2 * a)


def taylor_exp_matrix_fixed_point(M, K, bits=200):
    """T_K(M) 2^bits for a real CSR M, as an integer (object) matrix.

    Horner's rule E_k = M E_{k+1} / k + I runs in fixed point on Python
    integers: M and every E_k are integer multiples of 2^-bits, and each
    step floors once per entry, so every entry is within about K e^||M||
    units of 2^-bits of the exact sum (60 digits at bits=200).  Each step
    runs on the stored entries of M alone: nnz(M) D integer products.
    """
    one = 1 << bits
    D = M.shape[0]
    rows = []
    for i in range(D):
        lo, hi = M.indptr[i], M.indptr[i + 1]
        scaled = [int(math.ldexp(float(v), bits)) for v in M.data[lo:hi]]
        rows.append((M.indices[lo:hi], np.array(scaled, dtype=object)))
    ident = np.zeros((D, D), dtype=object)
    ident[np.arange(D), np.arange(D)] = one
    E = ident.copy()
    for k in range(K, 0, -1):
        ME = np.array([vals.dot(E[idx]) if idx.size else np.zeros(D, dtype=object)
                       for idx, vals in rows])
        E = ME // (one * k) + ident
    return E


def fixed_point_error(X, exact, bits=200):
    """The float X less the fixed-point matrix exact / 2^bits, entry by entry."""
    got = np.array([int(math.ldexp(float(x), bits)) for x in X.ravel()], dtype=object)
    diff = got.reshape(X.shape) - exact
    return np.array([math.ldexp(float(d), -bits) for d in diff.ravel()]).reshape(X.shape)


def real_test_function(basis, scale=1.0):
    f = SpectralFunction.from_terms(
        basis, [(1, 1, 0, QI(1)), (2, 0, 1, QI(1, 2)), (1, 0, 0, QI(0, 1))]
    ).realized()
    return f.scale(scale)


class TestMultiplicationMatrix:
    def test_identity_multiplier(self, ctx8, basis8):
        M = ctx8.mult_matrix(Poly.const(2, 1.0 + 0j)).toarray()
        assert np.linalg.norm(M - np.eye(basis8.total_dim), 2) < 1e-12

    def test_column_zero_recovers_coefficients(self, ctx8, basis8):
        # r_0 = e_0 = 1, so <f r_0, r_j> is the frame coefficient vector of f
        f = real_test_function(basis8)
        M = ctx8.mult_matrix(f.to_poly_float()).toarray()
        assert np.linalg.norm(M[:, 0] - RealFrame(basis8).to_frame(f.to_vector())) < 1e-12

    def test_hermitian_for_real_multiplier(self, ctx8, basis8):
        f = real_test_function(basis8)
        M = ctx8.mult_matrix(f.to_poly_float()).toarray()
        assert np.linalg.norm(M - M.conj().T, 2) < 1e-12

    def test_entries_against_direct_integrals(self, ctx8, basis8):
        # dual route: one matrix entry vs a hand-assembled exact triple product
        f = real_test_function(basis8)
        fp = f.to_poly_float()
        M = ctx8.mult_matrix(fp).toarray()
        probes = [((1, 0), 0, (2, 1), 1), ((1, 1), 0, (1, 1), 2), ((0, 0), 0, (2, 2), 0)]
        for (bi, i, bj, j) in probes:
            ei = basis8.blocks[bi][i]
            ej = basis8.blocks[bj][j]
            lhs = fp * ei.poly.to_float().scale(1 / math.sqrt(float(ei.norm2)))
            rhs = ej.poly.to_float().scale(1 / math.sqrt(float(ej.norm2)))
            direct = inner_sphere(lhs, rhs, 1)
            gi = basis8.global_index(*bi, i)
            gj = basis8.global_index(*bj, j)
            assert abs(M[gj, gi] - direct) < 1e-12

    def test_degree_guard(self, ctx8, basis8):
        too_big = Poly.monomial(2, 0, (4, 0), (3, 0), 1.0 + 0j)
        with pytest.raises(ConfigError):
            ctx8.mult_matrix(too_big)

    def test_full_context_cached(self, basis8):
        c1 = full_context(basis8)
        c2 = full_context(basis8)
        assert c1 is c2
        assert c1.mult_degree == basis8.N

    def test_perturbation_owns_its_context(self, ctx8, basis8):
        # the multiplier is built on a context of Upsilon's own degree; the
        # symmetric part of the real matrix a larger context assembles, less
        # its rounding residues, is the same matrix, entry for entry
        f = real_test_function(basis8, 0.1)
        M = ContactPerturbation(basis8, f).multiplier_matrix()
        poly = f.to_poly_float().scale(float(basis8.n + 1))
        degree = max(p + q for p, q in f.coeffs)
        for ctx in (GalerkinContext(basis8, mult_degree=degree), ctx8, full_context(basis8)):
            other = ctx.mult_matrix(poly).real
            assert np.array_equal(M.toarray(), kept_symmetric_part(other)), ctx.mult_degree


class TestTaylorExponential:
    def test_matrix_vs_vector_application(self, ctx8, basis8):
        f = real_test_function(basis8, 0.1)
        M = ctx8.mult_matrix(f.to_poly_float())
        E = taylor_exp_matrix(M, 8)
        rng = np.random.default_rng(1)
        v = rng.standard_normal(basis8.total_dim) + 1j * rng.standard_normal(basis8.total_dim)
        assert np.linalg.norm(E @ v - taylor_exp_apply(M, 8, v)) < 1e-12

    def test_scalar_limit(self):
        E = taylor_exp_matrix(csr([[0.3]]), 15)
        assert abs(E[0, 0] - math.exp(0.3)) < 1e-14

    def test_paterson_stockmeyer_against_horner_loop(self, ctx8, basis8):
        # the two evaluation orders of T_K(M) differ by at most the sum of
        # their rounding bounds, for real and complex M
        M = ctx8.mult_matrix(real_test_function(basis8, 0.1).to_poly_float())
        rng = np.random.default_rng(3)
        Z = (rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))) / 40
        for X in (M.real.toarray(), M.toarray(), Z, np.array([[0.3]])):
            a, D = norm2_upper(X), X.shape[0]
            for K in (1, 2, 12, 15):
                diff = norm2_upper(taylor_exp_matrix(csr(X), K) - taylor_exp_matrix_loop(X, K))
                assert diff <= taylor_rounding_bound(a, D, K) + horner_rounding_bound(a, D), (D, K)

    def test_rounding_bound_covers_the_dense_weight(self, basis16):
        # the dense weight at n=1 N=6 against a 60-digit fixed-point Horner
        # sum of the same multiplier: the Taylor sum as computed and its
        # symmetrization are within rho of T_K(M) and of its symmetric part
        basis = basis16.restrict(6)
        weight = ContactPerturbation(basis, real_test_function(basis, 0.1)).weight()
        M, K, D = weight.multiplier, weight.taylor_depth, basis.total_dim
        rho = taylor_rounding_bound(weight.multiplier_bound, D, K)
        exact = taylor_exp_matrix_fixed_point(M, K)
        err = np.linalg.norm(fixed_point_error(taylor_exp_matrix(M, K), exact), 2)
        sym_err = np.linalg.norm(fixed_point_error(weight.matrix, (exact + exact.T) // 2), 2)
        assert 0 < err <= rho
        assert 0 < sym_err <= rho


class TestWeight:
    def test_zero_exponent_gives_identity(self, ctx8, basis8):
        W = weight_from(ctx8, Poly.zero(2).to_float(), 12)
        assert np.linalg.norm(W.matrix - np.eye(basis8.total_dim), 2) < 1e-13
        assert W.min_eigenvalue_bound > 0.99

    def test_hat_volume_against_quadrature(self, ctx8, basis8):
        # <1, 1>_hat must equal int exp((n+1) Upsilon) dsigma
        ups = real_test_function(basis8, 0.05)
        mult = ups.to_poly_float().scale(2.0)
        W = weight_from(ctx8, mult, 12)
        e0 = np.zeros(basis8.total_dim)
        e0[0] = 1.0
        val = weighted_inner(W, e0, e0).real

        ng = 48
        x, wq = leggauss(ng)
        eta = 0.25 * np.pi * (x + 1)
        weta = 0.25 * np.pi * wq
        xi = 2 * np.pi * np.arange(ng) / ng
        E, X1, X2 = np.meshgrid(eta, xi, xi, indexing="ij")
        z1 = np.cos(E) * np.exp(1j * X1)
        z2 = np.sin(E) * np.exp(1j * X2)
        wgt = np.cos(E) * np.sin(E) * weta[:, None, None] * (2 * np.pi / ng) ** 2 / (2 * np.pi**2)
        u = mult.evaluate(0.0, [z1, z2]).real
        quad = float(np.sum(np.exp(u) * wgt))
        assert abs(val - quad) < 1e-9

    def test_positivity_hard_error(self, ctx8, basis8):
        # a large exponent with a shallow Taylor depth loses positivity
        ups = real_test_function(basis8, 3.0)
        with pytest.raises(NumericalError):
            weight_from(ctx8, ups.to_poly_float().scale(2.0), 3)

    def test_projector_properties(self, ctx8, basis8):
        ups = real_test_function(basis8, 0.05)
        W = weight_from(ctx8, ups.to_poly_float().scale(2.0), 12)
        mask = np.array([q == 0 for p, q, _, _ in basis8.index_blocks()])
        S = W.projector(mask)
        assert np.linalg.norm(S @ S - S, 2) < 1e-10
        assert W.adjoint_defect(S) < 1e-10
        # fixes the subspace and annihilates nothing outside its range footprint
        x = np.zeros(basis8.total_dim, dtype=complex)
        x[np.where(mask)[0][3]] = 1.0
        assert np.linalg.norm(S @ x - x) < 1e-12

    def test_weighted_adjoint_involution(self, ctx8, basis8):
        ups = real_test_function(basis8, 0.05)
        W = weight_from(ctx8, ups.to_poly_float().scale(2.0), 12)
        rng = np.random.default_rng(3)
        X = rng.standard_normal((basis8.total_dim, basis8.total_dim))
        X = X + 1j * rng.standard_normal(X.shape)
        again = weighted_adjoint(W, weighted_adjoint(W, X))
        assert np.linalg.norm(again - X, 2) / np.linalg.norm(X, 2) < 1e-10


def _draw_matrix(kind, rows, cols, seed, scale):
    rng = np.random.default_rng(seed)

    def cvec(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if kind == "random":
        return scale * cvec(rows, cols)
    if kind == "rank1":
        return scale * np.outer(cvec(rows), cvec(cols))
    if kind == "diagonal":
        return scale * np.diag(cvec(rows))
    return np.zeros((rows, cols), dtype=complex)


class TestNormBounds:
    @settings(max_examples=80, deadline=None)
    @given(
        kind=st.sampled_from(["random", "rank1", "diagonal", "zero"]),
        rows=st.integers(1, 24),
        cols=st.integers(1, 24),
        seed=st.integers(0, 2**32 - 1),
        scale=st.sampled_from([1e-14, 1.0, 1e6]),
    )
    def test_bounds_bracket_spectral_norm(self, kind, rows, cols, seed, scale):
        X = _draw_matrix(kind, rows, cols, seed, scale)
        exact = np.linalg.norm(X, 2)
        slack = 1e-12 * exact
        assert norm2_lower(X) <= exact + slack
        assert exact <= norm2_upper(X) + slack

    def test_empty_matrix(self):
        X = np.zeros((0, 0), dtype=complex)
        assert norm2_lower(X) == norm2_upper(X) == 0.0

    def test_abs_product_bound_is_that_of_the_formed_product(self):
        # row and column sums through the factors, |F| a block of rows at a
        # time (300 x 300 spans several blocks), against the product formed
        rng = np.random.default_rng(3)
        A, B, C = (rng.standard_normal(shape) for shape in ((300, 40), (40, 300), (300, 300)))
        d = rng.standard_normal(300)
        formed = np.abs(A) @ np.abs(B) * np.abs(d) + np.abs(C)
        got = norm2_upper_abs((A, B, d), (C,))
        assert got == pytest.approx(norm2_upper(formed), rel=1e-13)
        assert got >= np.linalg.norm(formed, 2)
        assert norm2_upper_abs((np.zeros((0, 3)), np.zeros((3, 4)))) == 0.0

    @pytest.mark.parametrize("n", [1, 50, 300])
    def test_blocked_matmul_within_its_rounding_bound(self, n):
        # the blocked product against the exact one (Fractions of the same
        # floats): within gamma_k |A| |B| entrywise for the order k it returns
        rng = np.random.default_rng(n)
        A, B = rng.standard_normal((6, n)), rng.standard_normal((n, 4))
        got, k = galerkin.blocked_matmul(A, B)
        b = max(math.isqrt(n - 1) + 1, 64)
        assert k == b + (n + b - 1) // b - 1
        exact = [[sum(Fraction(A[i, j]) * Fraction(B[j, l]) for j in range(n))
                  for l in range(4)] for i in range(6)]
        allowance = gamma(k) * (np.abs(A) @ np.abs(B))
        for i in range(6):
            for l in range(4):
                assert abs(Fraction(got[i, l]) - exact[i][l]) <= Fraction(allowance[i, l])


class TestFastPathsAgainstReference:
    """The dense weight and the sparse multiplier against the reference routes at N=8."""

    @pytest.fixture(scope="class")
    def weight8(self, ctx8, basis8):
        ups = real_test_function(basis8, 0.05)
        return weight_from(ctx8, ups.to_poly_float().scale(2.0), 12)

    @pytest.fixture(scope="class")
    def X8(self, basis8):
        rng = np.random.default_rng(5)
        D = basis8.total_dim
        return rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))

    def test_cholesky_solve_matches_hermitian_solve(self, weight8, X8):
        ref = scipy.linalg.solve(weight8.matrix, X8, assume_a="her")
        assert np.linalg.norm(weight8.solve(X8) - ref, 2) <= 1e-12 * np.linalg.norm(ref, 2)

    def test_weighted_adjoint_matches_hermitian_solve(self, weight8, X8):
        W = weight8.matrix
        ref = scipy.linalg.solve(W, X8.conj().T @ W, assume_a="her")
        got = weighted_adjoint(weight8, X8)
        assert np.linalg.norm(got - ref, 2) <= 1e-12 * np.linalg.norm(ref, 2)

    def test_adjoint_defect_bounds_the_svd_formula(self, weight8, basis8, X8):
        W = weight8.matrix
        mask = np.array([q == 0 for p, q, _, _ in basis8.index_blocks()])
        for X in (X8, weight8.projector(mask), X8 + weighted_adjoint(weight8, X8)):
            got = weight8.adjoint_defect(X)
            # the same matrix: the certified ratio is at least the SVD ratio
            svd = np.linalg.norm(X - weighted_adjoint(weight8, X), 2) / np.linalg.norm(X, 2)
            assert svd * (1 - 1e-12) <= got
            # and not far above it: within a factor D of the SVD value, plus
            # the a-priori rounding floor of the product W X, computed here
            D = basis8.total_dim
            floor = (2 * math.sqrt(2) * gamma(2 * D) * norm2_upper(W) * norm2_upper(X)
                     / (weight8.min_eigenvalue_bound * norm2_lower(X)))
            assert got <= D * svd + floor * (1 + 1e-12)
            # the old route (Bunch-Kaufman solve, SVD norms): equal up to its rounding
            adj = scipy.linalg.solve(W, X.conj().T @ W, assume_a="her")
            old = np.linalg.norm(X - adj, 2) / np.linalg.norm(X, 2)
            assert old * (1 - 1e-12) <= got + 1e-13

    @pytest.mark.parametrize("D", [5, 601])
    def test_blocked_symmetrization_is_bit_identical(self, D):
        # a pair of blocks at a time (one block at D = 5, uneven blocks at
        # D = 601) against the formed 0.5 * (X + X.T), bit for bit
        X = np.random.default_rng(D).standard_normal((D, D))
        ref = 0.5 * (X + X.T)
        got = galerkin._symmetrized(X)
        assert got is X and np.array_equal(got, ref)

    def test_conjugate_gradient_failures_are_numerical_errors(self, weight8, monkeypatch):
        # the operator route: an indefinite block breaks CG down, and a
        # solve that needs more iterations than the cap is refused
        weight = InnerProductWeight(weight8.multiplier, taylor_depth=12,
                                    multiplier_bound=weight8.multiplier_bound)
        mask = np.arange(weight.multiplier.shape[0]) % 3 == 0
        v = np.linspace(1.0, 2.0, int(mask.sum()))
        monkeypatch.setattr(weight, "apply", lambda x: -taylor_exp_apply(weight.multiplier, 12, x))
        with pytest.raises(NumericalError, match="broke down"):
            weight.block_solve(mask, v)
        monkeypatch.undo()
        with pytest.raises(NumericalError, match="broke down"):  # a NaN is not positive either
            weight.block_solve(mask, np.full(v.size, np.nan))
        weight.cg_iteration_cap = 2
        with pytest.raises(NumericalError, match="within 2 iterations"):
            weight.block_solve(mask, v)

    def test_multiplier_is_sparse(self, ctx8, basis8):
        M = ctx8.mult_matrix(real_test_function(basis8).to_poly_float())
        assert isinstance(M, CSR)
        assert M.nnz < 0.25 * basis8.total_dim**2

    def test_sparse_horner_matches_dense(self, ctx8, basis8):
        M = ctx8.mult_matrix(real_test_function(basis8, 0.1).to_poly_float())
        dense = M.toarray()
        rng = np.random.default_rng(2)
        v = rng.standard_normal(basis8.total_dim) + 1j * rng.standard_normal(basis8.total_dim)
        diff = taylor_exp_apply(-M, 12, v) - taylor_exp_apply(-dense, 12, v)
        assert np.abs(diff).max() <= 1e-14 * np.abs(v).max()


@pytest.mark.parametrize("n,N", [(1, 8), (1, 12), (2, 5)])
def test_shift_matrix_matches_loop(n, N):
    # every monomial of degree <= 3 plus one of degree 6, so some shifts
    # leave the destination index: the CSR arrays are bit-identical
    m = n + 1
    rng = np.random.default_rng(N)
    terms = {(0, A, B): complex(*rng.standard_normal(2))
             for A, B in MonomialIndex(m, 3).keys}
    terms[(0, (6,) + (0,) * n, (0,) * m)] = 0.5 - 0.25j
    f = Poly(m, terms)
    src, dst = MonomialIndex(m, N), MonomialIndex(m, N + 4)
    got, ref = shift_matrix(f, src, dst), shift_matrix_loop(f, src, dst)
    assert got.nnz < len(terms) * len(src)
    for part in ("data", "indices", "indptr"):
        a, b = getattr(got, part), getattr(ref, part)
        assert a.dtype == b.dtype and np.array_equal(a, b), part
    empty = shift_matrix(Poly.zero(m), src, dst)
    assert empty.nnz == 0 and empty.shape == (len(dst), len(src))
    with pytest.raises(ValueError):
        shift_matrix(Poly.monomial(m, 1, (0,) * m, (0,) * m, 1.0), src, dst)


@pytest.mark.parametrize("n", [1, 2])
def test_real_frame_unitary_and_round_trip(bases_small, n):
    basis = bases_small[n]
    frame = RealFrame(basis)
    U = frame.unitary().toarray()
    D = basis.total_dim
    assert np.abs(U.conj().T @ U - np.eye(D)).max() <= 1e-15
    assert np.count_nonzero(U, axis=1).max() <= 2
    # the masks the chain uses are closed under the frame change
    for mask in (kernel_mask(basis), interior_mask(basis)):
        assert not U[np.ix_(mask, ~mask)].any() and not U[np.ix_(~mask, mask)].any()
    rng = np.random.default_rng(n)
    for shape in ((D,), (D, 3)):
        c = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        x = frame.to_frame(c)
        assert np.abs(x - U.conj().T @ c).max() <= 1e-15 * np.abs(c).max()
        assert np.abs(frame.from_frame(x) - c).max() <= 1e-15 * np.abs(c).max()
    # a real function has exactly real frame coefficients
    f = real_test_function(basis) if n == 1 else SpectralFunction.from_terms(
        basis, [(2, 1, 3, 0.3 - 0.7j), (1, 1, 2, 1.5)]).realized()
    assert not frame.to_frame(f.to_vector()).imag.any()


def test_frame_multiplier_of_a_real_function_is_real(ctx8, basis8):
    # real up to the rounding of the assembly
    M = ctx8.mult_matrix(real_test_function(basis8).to_poly_float())
    assert norm2_upper(M.toarray().imag) <= 1e-15 * norm2_upper(M.real)


@pytest.mark.parametrize("n,N", [(1, 8), (1, 12), (2, 5)])
def test_pairing_matrix_matches_loop(n, N):
    # same floats in the same places: the CSR arrays are bit-identical
    rows, cols = MonomialIndex(n + 1, N), MonomialIndex(n + 1, N + 6)
    got, ref = pairing_matrix(rows, cols, n), pairing_matrix_loop(rows, cols, n)
    for part in ("data", "indices", "indptr"):
        a, b = getattr(got, part), getattr(ref, part)
        assert a.dtype == b.dtype and np.array_equal(a, b), part


class TestWeightEigenvalueBound:
    @pytest.mark.parametrize("K", range(14))
    def test_taylor_min_against_a_grid(self, K):
        # both branches for even K: T_{K-1}(-a) > 0, and the root of T_{K-1}
        for a in (0.0, 0.1, 1.0, 3.0, 4.5, 8.0):
            x = np.linspace(-a, a, 4001)
            T = sum(x**j / math.factorial(j) for j in range(K + 1))
            got = taylor_exp_min(a, K)
            assert got <= T.min() + 1e-12 * max(1.0, np.abs(T).max())
            assert got >= T.min() - 1e-5 * max(1.0, np.abs(T).max())

    def test_bracket_is_rounded_outward(self):
        # the weight's bracket against T_K in Fractions, for random A and K:
        # the lower end at most min_{|x|<=A} T_K(x) (for even K past the
        # root r of T_{K-1}, at most h^K / K! <= r^K / K! for a bisection
        # point h in (r, 0)), the upper end at least T_K(A)
        def taylor(x, K):
            return sum(x**j / math.factorial(j) for j in range(K + 1))

        rng = np.random.default_rng(29)
        for A, K in zip(rng.uniform(0.0, 4.5, 900), rng.choice([3, 11, 12], 900)):
            A, K, x = float(A), int(K), -Fraction(float(A))
            lowest = taylor(x, K)
            if K % 2 == 0 and taylor(x, K - 1) <= 0:  # A past |r_11| = 3.91
                lo, hi = x, Fraction(0)
                for _ in range(60):
                    mid = (lo + hi) / 2
                    lo, hi = (lo, mid) if taylor(mid, K - 1) > 0 else (mid, hi)
                lowest = hi**K / math.factorial(K)
            got = taylor_exp_min(A, K)
            assert Fraction(got) <= lowest, (A, K)
            if got > 0:
                weight = InnerProductWeight(csr([[0.0]]), taylor_depth=K, multiplier_bound=A)
                assert weight.min_eigenvalue_bound == got
                assert Fraction(weight.max_eigenvalue_bound) >= taylor(Fraction(A), K), (A, K)

    @settings(max_examples=12, deadline=None)
    @given(n=st.sampled_from([1, 2]), seed=st.integers(0, 2**32 - 1),
           size=st.floats(0.01, 1.5), K=st.sampled_from([5, 8, 12]))
    @example(n=2, seed=0, size=1.5, K=5)  # a = 4.5 is past r_5 = -2.18: refused
    @example(n=1, seed=0, size=0.1, K=5)
    def test_bound_below_smallest_eigenvalue(self, bases_small, n, seed, size, K):
        basis = bases_small[n]
        rng = np.random.default_rng(seed)
        terms = []
        for _ in range(rng.integers(1, 5)):
            d = int(rng.integers(1, 4))
            p = int(rng.integers(0, d + 1))
            i = int(rng.integers(0, dim_hpq(n, p, d - p)))
            terms.append((p, d - p, i, complex(*rng.standard_normal(2))))
        f = SpectralFunction.from_terms(basis, terms).realized()
        assume(f.sup_norm_bound() > 0)
        pert = ContactPerturbation(basis, f.scale(size / f.sup_norm_bound()), taylor_depth=K)
        # the frame multiplier as assembled: the weight keeps the symmetric
        # part of its real part less its rounding residues, and charges them
        degree = max(p + q for p, q in f.coeffs)
        ctx = GalerkinContext(basis, mult_degree=max(1, degree))
        R = ctx.mult_matrix(pert.upsilon.to_poly_float().scale(float(n + 1))).real
        M = pert.multiplier_matrix()
        assert np.array_equal(M.toarray(), kept_symmetric_part(R))
        dropped = symmetric_part(R, PRUNE_TOL * np.abs(R.data).max())[1]
        # A = a + s in Fractions, rounded up to the float just above it
        s = (Fraction(assembly_rounding(ctx, pert.upsilon, n))
             + Fraction(gamma(1)) * Fraction(norm2_upper(M))
             + M.max_row_length() * Fraction(math.ulp(0.0)) + Fraction(dropped))
        a_s = Fraction(pert.multiplier_norm_bound()) + s
        A = float(a_s)
        if A < a_s:
            A = math.nextafter(A, math.inf)
        expected = taylor_exp_min(A, K)
        if expected <= 0:
            # refused exactly when the bound is not positive (odd K, large a)
            with pytest.raises(NumericalError, match="not certified positive"):
                pert.weight()
            return
        weight = pert.weight()
        assert weight.multiplier_bound == A
        assert weight.min_eigenvalue_bound == expected
        assert 0 < weight.min_eigenvalue_bound <= scipy.linalg.eigvalsh(weight.matrix)[0]

    def test_imaginary_part_within_tolerance_leaves_the_bound_certified(self, basis8):
        # Upsilon real only to the constructor's 1e-12 tolerance: its
        # imaginary part gives the frame multiplier an imaginary part far
        # above the rounding, the multiplier of a real symmetric matrix
        # times i, which Re drops exactly; the bounds hold without it
        f = real_test_function(basis8, 0.05)
        g = SpectralFunction.from_terms(basis8, [(1, 1, 0, QI(1)), (2, 0, 1, QI(1))])
        ups = f + g.scale(2e-13j)
        assert ups.is_real(1e-12) and not ups.is_real(0.0)
        pert = ContactPerturbation(basis8, ups)
        degree = max(p + q for p, q in ups.coeffs)
        ctx = GalerkinContext(basis8, mult_degree=degree)
        M_c = ctx.mult_matrix(ups.to_poly_float().scale(2.0))
        assert norm2_upper(M_c.toarray().imag) > 1e-13
        R = M_c.real
        assert np.array_equal(pert.multiplier_matrix().toarray(), kept_symmetric_part(R))
        weight = pert.weight()
        lam = scipy.linalg.eigvalsh(weight.matrix)
        assert 0 < weight.min_eigenvalue_bound <= lam[0]
        assert lam[-1] <= weight.max_eigenvalue_bound

    def test_weight_is_real(self, basis8):
        pert = ContactPerturbation(basis8, real_test_function(basis8, 0.05))
        assert pert.multiplier_matrix().dtype == np.float64
        assert pert.weight().matrix.dtype == np.float64
        with pytest.raises(TypeError):
            InnerProductWeight(csr(np.eye(3, dtype=complex)), taylor_depth=1, multiplier_bound=0.1)

    def test_bound_at_or_below_zero_is_numerical_error(self, basis8):
        with pytest.raises(NumericalError):
            InnerProductWeight(csr(np.eye(basis8.total_dim)), taylor_depth=1,
                               multiplier_bound=1.0)

    def test_skew_part_of_the_multiplier_lowers_the_bound(self):
        # a symmetric M = -0.6 I off by s = 0.1 from H = -0.5 I (||H|| = a):
        # W = T_2(M) = 0.58 I, below min_{|x|<=a} T_2 = T_2(-0.5) = 0.625, so
        # the bound from a alone is false; a + s takes it under 0.58
        M = csr(np.diag([-0.6, -0.6]))
        lam = scipy.linalg.eigvalsh(taylor_exp_matrix(M, 2))[0]
        without = InnerProductWeight(M, taylor_depth=2, multiplier_bound=0.5)
        assert without.min_eigenvalue_bound > lam
        a_s = math.nextafter(0.5 + 0.1, math.inf)
        weight = InnerProductWeight(M, taylor_depth=2, multiplier_bound=a_s)
        assert 0 < weight.min_eigenvalue_bound <= scipy.linalg.eigvalsh(weight.matrix)[0] == lam

    def test_positive_weight_refused_past_the_root_of_odd_taylor_sum(self, ctx8, basis8):
        # T_5 has its real root at -2.18: with a = (n+1) B(Upsilon) = 2.5 the
        # bound is negative, though the spectrum of M stays inside (-2.18, 2.18)
        # and W = T_5(M) is positive definite.  The weight is refused all the same.
        f = real_test_function(basis8)
        pert = ContactPerturbation(basis8, f.scale(1.25 / f.sup_norm_bound()), taylor_depth=5)
        assert pert.multiplier_norm_bound() == pytest.approx(2.5)
        M = pert.multiplier_matrix()
        assert np.abs(scipy.linalg.eigvalsh(M.toarray())).max() < 2.18
        assert scipy.linalg.eigvalsh(taylor_exp_matrix(M, 5))[0] > 0
        with pytest.raises(NumericalError, match="not certified positive"):
            pert.weight()


def _exact_2x2_defect(w, X):
    """||X - W^{-1} X^T W|| / ||X|| in rational arithmetic, W = diag(w), X real, zero diagonal."""
    w = [Fraction(v) for v in w]
    x = [[Fraction(float(v.real)) for v in row] for row in X]
    z01 = x[0][1] - x[1][0] * w[1] / w[0]
    z10 = x[1][0] - x[0][1] * w[0] / w[1]
    return max(abs(z01), abs(z10)) / max(abs(x[0][1]), abs(x[1][0]))


class TestSolveFreeAdjointDefect:
    """2 x 2 weights W = I + diag(0, m), so ||M|| = |m| and T_1 gives W exactly."""

    @staticmethod
    def weight(w):
        # M = diag(0, w - 1): w - 1 and 1 + (w - 1) are exact for w in [0.5, 2]
        return InnerProductWeight(csr(np.diag([0.0, w - 1.0])), taylor_depth=1,
                                  multiplier_bound=abs(w - 1.0))

    def test_divides_by_the_eigenvalue_bound(self):
        # W^{-1} scales the defect by 1/lambda_min(W) = 2
        X = np.array([[0, 1], [0, 0]], dtype=complex)
        got = self.weight(0.5).adjoint_defect(X)
        assert Fraction(got) >= _exact_2x2_defect([1.0, 0.5], X) == 2

    def test_covers_the_rounding_of_the_product(self):
        # b = fl(1/w) with fl(w b) = 1 exactly but w b != 1: the computed
        # W X is exactly Hermitian, the exact one is not
        for w in np.linspace(0.6, 1.4, 81):
            b = 1.0 / w
            if w * b == 1.0 and Fraction(w) * Fraction(b) != 1:
                break
        else:
            pytest.fail("no w with fl(w fl(1/w)) = 1 != w fl(1/w)")
        X = np.array([[0, 1], [b, 0]], dtype=complex)
        weight = self.weight(w)
        Y = weight.matrix @ X
        assert np.all(Y == Y.conj().T)
        exact = _exact_2x2_defect([1.0, w], X)
        assert exact > 0
        assert Fraction(weight.adjoint_defect(X)) >= exact


def test_monomial_index_counts():
    idx = MonomialIndex(2, 3)
    assert len(idx) == sum(math.comb(d + 3, 3) for d in range(4))
    assert idx.index[((0, 0), (0, 0))] == 0


def test_reeb_commutator_with_multiplication(ctx8, basis8):
    # [iT, M_f] = M_{iT f}: the one non-diagonal commutator the model offers.
    # Both sides assemble from exact pairings, so the match is entrywise.
    from crsphere.spectral import reeb_t

    f = real_test_function(basis8)
    it = reeb_t(basis8)
    iT_f = f.apply_diagonal(it)
    # iT is diagonal in the basis e, not in the real frame: map both back
    U = RealFrame(basis8).unitary()
    Mf = (U @ ctx8.mult_matrix(f.to_poly_float()) @ U.conj().T).toarray()
    M_itf = (U @ ctx8.mult_matrix(iT_f.to_poly_float()) @ U.conj().T).toarray()
    it_diag = np.diag(it.to_diag_vector(basis8)).astype(complex)
    comm = it_diag @ Mf - Mf @ it_diag
    assert np.linalg.norm(comm - M_itf, 2) <= 1e-11


def frame_polys(basis):
    """(w_k, d_k) with r_k = w_k / sqrt(d_k) exactly: the rows of basis_matrix."""
    out = [None] * basis.total_dim
    for p, q, i, g in basis.index_blocks():
        el = basis.blocks[(p, q)][i]
        if p == q:
            out[g] = (el.poly, el.norm2)
        elif p < q:
            conj = basis.blocks[(q, p)][i].poly
            out[g] = (el.poly + conj, 2 * el.norm2)
            out[basis.global_index(q, p, i)] = ((el.poly - conj).scale(QI(0, 1)), 2 * el.norm2)
    return out


def poly_sectors(poly):
    return {tuple(b - c for b, c in zip(beta, gamma)) for (_, beta, gamma) in poly.terms}


def mp_frame_multiplier(basis, upsilon):
    """<f r_i, r_j> for f = (n+1) Upsilon to 50 digits, as mpmath numbers.

    The frame polynomials and Upsilon's float coefficients are exact (QI),
    each pairing <v_a w_i, w_j> is an exact sphere integral, and only the
    square roots of the norms are mpmath numbers.
    """
    def mp_of(x):
        return mpmath.mpc(mpmath.mpf(x.re.numerator) / x.re.denominator,
                          mpmath.mpf(x.im.numerator) / x.im.denominator)

    def inv_sqrt(r):
        return 1 / mpmath.sqrt(mpmath.mpf(r.numerator) / r.denominator)

    frame = frame_polys(basis)
    sectors = [poly_sectors(w) for w, _ in frame]
    D = basis.total_dim
    with mpmath.workdps(50):
        scales = [inv_sqrt(d) for _, d in frame]
        M = [[mpmath.mpc(0)] * D for _ in range(D)]
        for (p, q), vals in upsilon.coeffs.items():
            for v, el in zip(vals, basis.blocks[(p, q)]):
                c = complex(v)
                if not c:
                    continue
                coeff = QI(Fraction(c.real), Fraction(c.imag)) * (basis.n + 1)
                s_a = inv_sqrt(el.norm2)
                for i, (w_i, _) in enumerate(frame):
                    prod = el.poly * w_i
                    hit = poly_sectors(prod)
                    for j, (w_j, _) in enumerate(frame):
                        if hit & sectors[j]:
                            val = inner_sphere(prod, w_j, basis.n) * coeff
                            if val:
                                M[j][i] += mp_of(val) * s_a * scales[i] * scales[j]
        return M


@pytest.mark.parametrize("n,N", [(1, 4), (2, 3)])
def test_assembly_rounding_bounds_the_assembly_error(bases_small, n, N):
    # the assembled frame multiplier against a 50-digit assembly of the same
    # (float) Upsilon: e_asm bounds the difference, a bounds the exact
    # multiplier's Hermitian part H and multiplier_bound bounds ||M||
    basis = bases_small[n].restrict(N)
    rng = np.random.default_rng(N)
    terms = []
    for p, q in ((1, 1), (2, 1), (1, 0), (2, 0)):
        i = int(rng.integers(dim_hpq(n, p, q)))
        terms.append((p, q, i, complex(*rng.uniform(-1, 1, 2))))
    f = SpectralFunction.from_terms(basis, terms).realized()
    pert = ContactPerturbation(basis, f.scale(0.1 / f.sup_norm_bound()))
    ctx = GalerkinContext(basis, mult_degree=3)
    M_c = ctx.mult_matrix(pert.upsilon.to_poly_float().scale(float(n + 1))).toarray()
    exact = mp_frame_multiplier(basis, pert.upsilon)
    with mpmath.workdps(50):
        err = np.array([[complex(mpmath.mpc(M_c[j, i]) - exact[j][i]) for i in range(len(M_c))]
                        for j in range(len(M_c))])
        H = np.array([[complex((exact[j][i] + mpmath.conj(exact[i][j])) / 2)
                       for i in range(len(M_c))] for j in range(len(M_c))])
    e_asm = assembly_rounding(ctx, pert.upsilon, n)
    assert 0 < np.linalg.norm(err, 2) <= e_asm <= 1e-12
    weight = pert.weight()
    assert np.linalg.norm(H, 2) <= pert.multiplier_norm_bound()
    M = pert.multiplier_matrix().toarray()
    assert np.linalg.norm(M - H, 2) <= weight.multiplier_bound - pert.multiplier_norm_bound()
    assert np.linalg.norm(M, 2) <= weight.multiplier_bound


@pytest.mark.parametrize("N", [8, 12])
def test_horner_columns_are_the_taylor_matrix_columns(basis16, N):
    # the pass on the unit columns of the kernel coordinates gives the columns
    # of the full Taylor sum (dense matmuls) up to rounding, in float64
    basis = basis16.restrict(N)
    pert = ContactPerturbation(basis, real_test_function(basis, 0.05))
    M = pert.multiplier_matrix()
    full = taylor_exp_matrix(M, pert.K)
    weight = pert.weight()
    ker = kernel_mask(basis)
    E = np.eye(basis.total_dim)[:, ker]
    cols = weight.apply(E)
    assert cols.dtype == np.float64
    assert np.abs(cols - full[:, ker]).max() <= weight.apply_rounding_bound
    # each column of a block is the product with that column alone
    j = int(ker.sum()) // 2
    assert np.array_equal(cols[:, j], weight.apply(E[:, j]))
    # a real vector stays real; a complex one is its real and imaginary parts
    rng = np.random.default_rng(N)
    x, y = rng.standard_normal((2, basis.total_dim))
    wx = taylor_exp_apply(M, pert.K, x)
    assert wx.dtype == np.float64
    z = taylor_exp_apply(M, pert.K, x + 1j * y)
    assert np.array_equal(z.real, wx) and np.array_equal(z.imag, taylor_exp_apply(M, pert.K, y))


def test_weight_operator_core_against_the_dense_matrix(basis8):
    pert = ContactPerturbation(basis8, real_test_function(basis8, 0.05))
    weight = pert.weight()
    ker = kernel_mask(basis8)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(basis8.total_dim)
    wx = weight.apply(x)
    kernel_solve = weight.block_solve(ker, x[ker])  # conjugate gradients on W_KK
    assert weight.cg_iterations and max(weight.cg_iterations) <= weight.cg_iteration_cap
    W = weight.matrix
    assert np.linalg.norm(wx - W @ x) <= 1e-14 * np.linalg.norm(x)
    assert np.isclose(weighted_inner(weight, x, x).real, x @ W @ x, rtol=1e-14)
    ref = np.linalg.solve(W[np.ix_(ker, ker)], x[ker])
    assert np.abs(kernel_solve - ref).max() <= 1e-13 * np.abs(ref).max()
    # the dense matrix is the Taylor sum symmetrized, bit for bit
    raw = taylor_exp_matrix(weight.multiplier, weight.taylor_depth)
    assert np.array_equal(W, 0.5 * (raw + raw.T))
    # once W exists, a block solve is still conjugate gradients
    assert np.abs(weight.block_solve(ker, x[ker]) - ref).max() <= 1e-13 * np.abs(ref).max()
    assert len(weight.cg_iterations) == 2


def test_apply_rounding_bound_charges_the_rows_of_the_multiplier(basis8):
    # the pass's bound charges the longest row L and A = norm2_upper(M) >=
    # ||abs(M)||, not D: u' (K + (L + 1) A) T_K(A), rounded up, bounds the
    # norm of R = AbsTaylor.rounding(), the pass's entrywise bound
    pert = ContactPerturbation(basis8, real_test_function(basis8, 0.05))
    weight = pert.weight()
    M, K = pert.multiplier_matrix(), pert.K
    # the stored entries of a row, explicit zeros included, bound its nonzeros
    L = M.max_row_length()
    assert np.count_nonzero(M.toarray(), axis=1).max() <= L < basis8.total_dim
    A, u = Fraction(norm2_upper(M)), Fraction(2.0**-53)
    u = u / (1 - K * (L + 2) * u)
    taylor = sum(A**j / math.factorial(j) for j in range(K + 1))
    assert weight.apply_rounding_bound == math.nextafter(
        float(u * (K + (L + 1) * A) * taylor), math.inf)
    # R is symmetric and nonnegative, so its largest row sum bounds ||R||_2,
    # and the scalar is at least that row sum
    row_sums = weight.abs_taylor.rounding().abs_matvec(np.ones(basis8.total_dim))
    assert row_sums.max() <= weight.apply_rounding_bound <= 1e-13
    # against an extended-precision Horner on one vector
    x = np.random.default_rng(8).standard_normal(basis8.total_dim)
    dense = M.toarray()
    with mpmath.workdps(40):
        Mm = mpmath.matrix(dense.tolist())
        xm = mpmath.matrix(x.tolist())
        u = xm
        for k in range(pert.K, 0, -1):
            u = Mm * u / k + xm
        exact = np.array([float(v) for v in u])
    err = np.linalg.norm(weight.apply(x) - exact)
    assert err <= weight.apply_rounding_bound * np.linalg.norm(x)


def test_pass_leaves_its_argument_and_negates_bit_for_bit(basis8):
    # weight.apply and block_apply leave x as it was, real or complex (the
    # partial inverse, the column norm of G and the residual bound read it
    # again); overwrite_x writes the pass into X; the negated output is a
    # separate pass on -M bit for bit, (-M)^j X / j! being (-1)^j Y_j exactly
    weight = ContactPerturbation(basis8, real_test_function(basis8, 0.05)).weight()
    M, K, D = weight.multiplier, weight.taylor_depth, basis8.total_dim
    ker = kernel_mask(basis8)
    rng = np.random.default_rng(5)
    for x in (rng.standard_normal((D, 3)), rng.standard_normal(D) + 1j * rng.standard_normal(D)):
        y = x[ker]
        before, before_y = x.copy(), y.copy()
        weight.apply(x)
        weight.block_apply(ker, y)
        assert np.array_equal(x, before) and np.array_equal(y, before_y)
    X = rng.standard_normal((D, 4))
    W_X, V_X = taylor_exp_apply(M, K, X, negated=True)
    assert np.array_equal(W_X, weight.apply(X))
    assert np.array_equal(V_X, taylor_exp_apply(-M, K, X))
    assert not np.array_equal(V_X, W_X)
    out = np.array(X)
    assert taylor_exp_apply(M, K, out, overwrite_x=True) is out
    assert np.array_equal(out, W_X)


@pytest.mark.parametrize("kappa", [1.0, 1.2, 1.5, 4.0, 100.0])
def test_cg_cap_covers_the_exact_arithmetic_bound(kappa):
    cap = cg_iteration_cap(kappa, CG_TOL)
    q = (math.sqrt(kappa) - 1) / (math.sqrt(kappa) + 1)
    k = cap - galerkin.CG_SLACK
    assert k >= 1 and 2 * math.sqrt(kappa) * q**k <= CG_TOL
    if k > 1:
        assert 2 * math.sqrt(kappa) * q ** (k - 1) > CG_TOL


def to_scipy(X):
    return scipy.sparse.csr_matrix((X.data, X.indices, X.indptr), shape=X.shape)


def random_coo(rng, shape, nnz, dtype):
    rows = rng.integers(0, shape[0], nnz)
    cols = rng.integers(0, shape[1], nnz)
    vals = rng.standard_normal(nnz)
    if dtype == complex:
        vals = vals + 1j * rng.standard_normal(nnz)
    return vals, rows, cols


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_csr_against_scipy_sparse(dtype, seed, monkeypatch):
    # repeated coordinates, empty rows and columns, products in small blocks
    rng = np.random.default_rng(seed)
    monkeypatch.setattr(galerkin, "_PRODUCT_BLOCK", 7)
    A_coo = random_coo(rng, (30, 20), 80, dtype)
    B_coo = random_coo(rng, (20, 25), 60, float)
    A = CSR.from_coo(*A_coo, (30, 20))
    B = CSR.from_coo(*B_coo, (20, 25))
    A_ref = scipy.sparse.csr_matrix((A_coo[0], (A_coo[1], A_coo[2])), shape=(30, 20))
    B_ref = scipy.sparse.csr_matrix((B_coo[0], (B_coo[1], B_coo[2])), shape=(20, 25))
    A_ref.sum_duplicates()
    assert np.diff(A.indptr).min() == 0  # some row is empty
    for got, ref in ((A, A_ref), (A.T, A_ref.T), (A.conj(), A_ref.conj()),
                     (abs(A), abs(A_ref)), (A.real, A_ref.real),
                     (A @ B, A_ref @ B_ref), (-A, -A_ref)):
        dense = ref.toarray()
        assert got.shape == dense.shape
        assert np.abs(got.toarray() - dense).max() <= 1e-14 * max(1.0, np.abs(dense).max())
        assert all(np.all(np.diff(got.indices[lo:hi]) > 0)
                   for lo, hi in zip(got.indptr[:-1], got.indptr[1:]))
    x = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    X = rng.standard_normal((20, 3))
    assert np.abs(A @ x - A_ref @ x).max() <= 1e-14 * np.abs(A_ref @ x).max()
    assert np.abs(A @ X - A_ref @ X).max() <= 1e-14 * np.abs(A_ref @ X).max()
    for axis in (0, 1):
        assert np.allclose(abs(A).sum(axis=axis), np.ravel(abs(A_ref).sum(axis=axis)),
                           rtol=1e-14, atol=0)
    assert norm2_upper(A) == pytest.approx(norm2_upper(A_ref.toarray()), rel=1e-14)
    assert A.max_row_length() == np.diff(A_ref.indptr).max()
    # the product keeps the same entries as scipy's (exact zeros dropped)
    P, P_ref = A @ B, A_ref @ B_ref
    P_ref.sort_indices()
    assert np.array_equal(P.indptr, P_ref.indptr) and np.array_equal(P.indices, P_ref.indices)
    empty = csr_zeros((4, 3))
    assert empty.nnz == 0 and not (empty @ np.ones(3)).any()
    assert (empty @ csr_zeros((3, 5))).shape == (4, 5)


# ---------------------------------------------------------------------------
# bounded working memory: the streamed assembly and the two-array Taylor sum
# ---------------------------------------------------------------------------


def taylor_exp_matrix_plain(M, K):
    """Reference Paterson-Stockmeyer sum, split s = 3, Horner's rule on the
    right (E_j = E_{j+1} X + B_j) with the dense M, M^2 and X = M^3, the
    sum, each product and each scaled term in an array of its own; M^2 is
    one product, and each later product is formed a block of rows at a
    time, in the blocks taylor_exp_matrix uses (row blocks do not round as
    one full product does)."""
    D = M.shape[0]
    M = M.toarray() if isinstance(M, CSR) else np.asarray(M)
    blocks = galerkin.eighth_blocks(D)
    r = K // 3
    M2 = M @ M
    X = np.concatenate([M2[rows] @ M for rows in blocks]) if D else M2

    def plus_block(j, B):
        if 3 * j + 2 <= K:
            B = B + M2 * (1 / math.factorial(3 * j + 2))
        if 3 * j + 1 <= K:
            B = B + M * (1 / math.factorial(3 * j + 1))
        B = B.copy()
        B[np.diag_indices(D)] += 1 / math.factorial(3 * j)
        return B

    if r and 3 * r == K:
        E = plus_block(r - 1, X * (1 / math.factorial(K)))
        top = r - 1
    else:
        E = plus_block(r, np.zeros((D, D), dtype=M.dtype))
        top = r
    for j in range(top - 1, -1, -1):
        E = plus_block(j, np.concatenate([E[rows] @ X for rows in blocks]))
    return E


def seeded_multiplier(basis, seed=5, sup=0.1):
    """The real frame multiplier of a seeded real Upsilon with sup bound about sup."""
    rng = np.random.default_rng(seed)
    terms = []
    for p, q in ((1, 1), (2, 1), (1, 0)):
        i = int(rng.integers(dim_hpq(basis.n, p, q)))
        c = complex(*rng.uniform(-1, 1, 2))
        terms.append((p, q, i, c.real if p == q else c))
    f = SpectralFunction.from_terms(basis, terms).realized()
    return ContactPerturbation(basis, f.scale(sup / f.sup_norm_bound()))


@pytest.mark.parametrize("n,N", [(1, 6), (2, 4)])
def test_taylor_matrix_bit_identical_to_the_plain_evaluation(bases_small, n, N):
    pert = seeded_multiplier(bases_small[n].restrict(N))
    M = pert.multiplier_matrix()
    for K in (0, 1, 2, 3, 4, 5, 6, 12):
        got, ref = taylor_exp_matrix(M, K), taylor_exp_matrix_plain(M, K)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), K


def _csr_parts(X):
    return [(getattr(X, a).dtype, getattr(X, a).tolist()) for a in ("data", "indices", "indptr")]


@pytest.mark.parametrize("n,N", [(1, 8), (2, 5)])
def test_streamed_assembly_does_not_depend_on_the_block_size(bases_small, n, N, monkeypatch):
    # the pairing matrix, the sparse products of mult_matrix (with its shift
    # matrix) and the symmetric part of the multiplier, with one row per
    # block and with blocks of 2^18 entries, against the default blocks: the
    # same arrays, bit for bit
    basis = bases_small[n].restrict(N)
    f = seeded_multiplier(basis).upsilon.to_poly_float()
    rng = np.random.default_rng(N)
    A = CSR.from_coo(*random_coo(rng, (60, 50), 400, complex), (60, 50))
    B = CSR.from_coo(*random_coo(rng, (50, 40), 300, float), (50, 40))

    def outputs():
        ctx = GalerkinContext(basis, mult_degree=3)
        M = ctx.mult_matrix(f)
        S, dropped = symmetric_part(M.real, PRUNE_TOL * np.abs(M.real.data).max())
        return [_csr_parts(X) for X in (ctx.K, ctx._BK, M, M.real @ M.real, A @ B, S)] + [dropped]

    default = outputs()
    for size in (1, 1 << 18):
        monkeypatch.setattr(galerkin, "_PRODUCT_BLOCK", size)
        monkeypatch.setattr(galerkin, "_PAIRING_BLOCK", size)
        assert outputs() == default, size


@pytest.mark.parametrize("n,N", [(1, 8), (2, 5), (3, 4)])
def test_symmetric_part_is_that_of_the_formed_sum(bases_small, basis_n3_N4, n, N):
    # the weight's multiplier is the streamed (R + R^T) / 2 of the assembled
    # real part R, bit for bit, with the pairs that cancel and the entries of
    # size at most tau = PRUNE_TOL max|R| not stored, and equals its
    # transpose array for array; the charge returned for the entries cut
    # bounds their norm, and the cut leaves every entry above tau
    basis = basis_n3_N4 if n == 3 else bases_small[n].restrict(N)
    pert = seeded_multiplier(basis)
    M = pert.multiplier_matrix()
    degree = max(p + q for p, q in pert.upsilon.coeffs)
    ctx = GalerkinContext(basis, mult_degree=degree)
    R = ctx.mult_matrix(pert.upsilon.to_poly_float().scale(float(n + 1))).real
    assert not np.array_equal(R.toarray(), R.T.toarray())  # R itself is not symmetric
    Z = CSR.from_coo(*random_coo(np.random.default_rng(n), (30, 30), 200, float), (30, 30))
    Z.data[:3] = 0.0  # explicit zeros: their pairs cancel unless a mirror entry is stored
    tau = PRUNE_TOL * np.abs(R.data).max()
    for X, t, S in ((R, tau, M), (R, tau, symmetric_part(R, tau)[0]), (R, 0.0, symmetric_part(R)[0]),
                    (Z, 0.0, symmetric_part(Z)[0]), (Z, 0.3, symmetric_part(Z, 0.3)[0])):
        formed = (X.toarray() + X.T.toarray()) * 0.5
        cut = np.where(np.abs(formed) <= t, 0.0, formed)
        assert np.array_equal(S.toarray(), cut)
        assert S.data.all() and S.nnz == np.count_nonzero(cut)
        assert _csr_parts(S) == _csr_parts(S.T)
        charge = symmetric_part(X, t)[1]
        assert np.linalg.norm(formed - cut, 2) <= charge
        assert (charge == 0.0) == (np.count_nonzero(formed) == S.nnz)
    assert 0 < np.count_nonzero((R.toarray() + R.T.toarray()) * 0.5) - M.nnz
    assert _csr_parts(M) == _csr_parts(symmetric_part(R, tau)[0])
    zero, charge = symmetric_part(csr_zeros((3, 3)))
    assert _csr_parts(zero) == _csr_parts(csr_zeros((3, 3))) and charge == 0.0


def test_cut_multiplier_keeps_the_weight_bound_below_its_spectrum():
    # M = H less the entries of H of size at most tau: here the cut moves the
    # smallest eigenvalue of M below -||H|| (the entries cut, at (0, 2), push
    # H's lowest eigenvector up), so a lower bound for T_K(M) from
    # a = ||H|| alone would be false; the charge for the entries cut, in
    # multiplier_bound a + s, takes it below the spectrum of the dense T_K(M)
    tau = 1e-3
    H = np.array([[-1.0, 0.3, 0.0], [0.3, 0.5, 0.4], [0.0, 0.4, -0.8]])
    v = np.linalg.eigh(H)[1][:, 0]
    H[0, 2] = H[2, 0] = 0.9 * tau * np.sign(v[0] * v[2])  # cut
    H[1, 1] += 2 * tau  # H_11 = 0.502 is kept
    M, charge = symmetric_part(csr(H), tau)
    assert M.nnz == np.count_nonzero(H) - 2 and charge >= 0.9 * tau
    a = float(np.abs(scipy.linalg.eigvalsh(H)).max()) * (1 + 1e-15)
    lam = scipy.linalg.eigvalsh(taylor_exp_matrix(M, 12))[0]
    assert InnerProductWeight(M, taylor_depth=12, multiplier_bound=a).min_eigenvalue_bound > lam
    a_s = math.nextafter(a + charge, math.inf)
    weight = InnerProductWeight(M, taylor_depth=12, multiplier_bound=a_s)
    assert 0 < weight.min_eigenvalue_bound <= lam


def traced_peak(fn):
    """fn(), and the most bytes it held allocated at once beyond what it returned."""
    tracemalloc.start()
    try:
        out = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - kept


def test_taylor_matrix_holds_two_dense_arrays(basis12):
    M = seeded_multiplier(basis12).multiplier_matrix()
    D = M.shape[0]
    W, extra = traced_peak(lambda: taylor_exp_matrix(M, 12))
    # the result is one of the two arrays (X = M^3 and the sum); the rest is
    # one block of D/8 rows, the nonzero entries of M^2 and O(nnz): 2.33 D^2
    # doubles measured, where the four-array sum took 4.14
    assert extra + W.nbytes <= 8 * 2.45 * D * D


def test_dense_norms_read_blocks_of_rows():
    D = 1200  # 11.5 MB, above the block budget
    X = np.random.default_rng(1).standard_normal((D, D))
    for fn in (norm2_upper, norm2_lower):
        _, extra = traced_peak(lambda: fn(X))
        assert extra < 8 * D * D, fn.__name__
    Z = X + 1j * X
    _, extra = traced_peak(lambda: norm2_lower(Z))
    assert extra < 8 * D * D


def test_assembly_transients_are_bounded(basis_n2_N8):
    # at n=2 N=8 the unblocked assembly held 25 MB beyond its output
    # (mult_matrix) and 17 MB (the weight, for its skew bound); streamed,
    # what remains is of the size of the sparse outputs.  The symmetric part
    # holds 3.0 MB (the formed (R + R.T) * 0.5: 12 MB), and the weight's
    # multiplier (its own context, the assembly, the rounding bound and the
    # symmetric part) peaks at 11.4 MB, in the context and the assembly
    pert = seeded_multiplier(basis_n2_N8)
    ctx = GalerkinContext(basis_n2_N8, mult_degree=3)
    f = pert.upsilon.to_poly_float().scale(3.0)
    _, extra = traced_peak(lambda: ctx.mult_matrix(f))
    assert extra <= 8e6
    R = ctx.mult_matrix(f).real
    del ctx
    _, extra = traced_peak(lambda: symmetric_part(R, PRUNE_TOL * np.abs(R.data).max()))
    assert extra <= 4e6
    _, extra = traced_peak(pert.multiplier_matrix)
    assert extra <= 12e6
    _, extra = traced_peak(pert.weight)
    assert extra <= 4e6
