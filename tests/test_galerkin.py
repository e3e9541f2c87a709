import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from crsphere.errors import ConfigError, NumericalError
from crsphere.galerkin import (
    GalerkinContext,
    InnerProductWeight,
    MonomialIndex,
    full_context,
    norm2_lower,
    norm2_upper,
    taylor_exp_apply,
    taylor_exp_matrix,
)
from crsphere.harmonics import inner_sphere
from crsphere.poly import Poly
from crsphere.scalars import QI
from crsphere.spectral import SpectralFunction


@pytest.fixture(scope="module")
def ctx8(basis8):
    return GalerkinContext(basis8, mult_degree=6)


def weight_from(ctx, scaled_upsilon, K):
    """Weight of e^{scaled_upsilon} at Taylor depth K."""
    return InnerProductWeight(taylor_exp_matrix(ctx.mult_matrix(scaled_upsilon), K), taylor_depth=K)


def real_test_function(basis, scale=1.0):
    f = SpectralFunction.from_terms(
        basis, [(1, 1, 0, QI(1)), (2, 0, 1, QI(1, 2)), (1, 0, 0, QI(0, 1))]
    ).realized()
    return f.scale(scale)


class TestMultiplicationMatrix:
    def test_identity_multiplier(self, ctx8, basis8):
        M = ctx8.mult_matrix(Poly.const(2, 1.0 + 0j))
        assert np.linalg.norm(M - np.eye(basis8.total_dim), 2) < 1e-12

    def test_column_zero_recovers_coefficients(self, ctx8, basis8):
        # e_0 = 1, so <f e_0, e_j> is the coefficient vector of f
        f = real_test_function(basis8)
        M = ctx8.mult_matrix(f.to_poly_float()).toarray()
        assert np.linalg.norm(M[:, 0] - f.to_vector()) < 1e-12

    def test_hermitian_for_real_multiplier(self, ctx8, basis8):
        f = real_test_function(basis8)
        M = ctx8.mult_matrix(f.to_poly_float()).toarray()
        assert np.linalg.norm(M - M.conj().T, 2) < 1e-12

    def test_entries_against_direct_integrals(self, ctx8, basis8):
        # dual route: one matrix entry vs a hand-assembled exact triple product
        f = real_test_function(basis8)
        fp = f.to_poly_float()
        M = ctx8.mult_matrix(fp)
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


class TestTaylorExponential:
    def test_matrix_vs_vector_application(self, ctx8, basis8):
        f = real_test_function(basis8, 0.1)
        M = ctx8.mult_matrix(f.to_poly_float())
        E = taylor_exp_matrix(M, 8)
        rng = np.random.default_rng(1)
        v = rng.standard_normal(basis8.total_dim) + 1j * rng.standard_normal(basis8.total_dim)
        assert np.linalg.norm(E @ v - taylor_exp_apply(M, 8, v)) < 1e-12

    def test_scalar_limit(self):
        M = np.array([[0.3]])
        E = taylor_exp_matrix(M, 15)
        assert abs(E[0, 0] - math.exp(0.3)) < 1e-14


class TestWeight:
    def test_zero_exponent_gives_identity(self, ctx8, basis8):
        W = weight_from(ctx8, Poly.zero(2).to_float(), 12)
        assert np.linalg.norm(W.matrix - np.eye(basis8.total_dim), 2) < 1e-13
        assert W.min_eigenvalue > 0.99

    def test_hat_volume_against_quadrature(self, ctx8, basis8):
        # <1, 1>_hat must equal int exp((n+1) Upsilon) dsigma
        ups = real_test_function(basis8, 0.05)
        mult = ups.to_poly_float().scale(2.0)
        W = weight_from(ctx8, mult, 12)
        e0 = np.zeros(basis8.total_dim)
        e0[0] = 1.0
        val = W.inner(e0, e0).real

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
        again = W.weighted_adjoint(W.weighted_adjoint(X))
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


class TestFastPathsAgainstReference:
    """The Cholesky weight and the sparse multiplier against the dense routes at N=8."""

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
        got = weight8.weighted_adjoint(X8)
        assert np.linalg.norm(got - ref, 2) <= 1e-12 * np.linalg.norm(ref, 2)

    def test_adjoint_defect_bounds_the_svd_formula(self, weight8, basis8, X8):
        W = weight8.matrix
        mask = np.array([q == 0 for p, q, _, _ in basis8.index_blocks()])
        for X in (X8, weight8.projector(mask), X8 + weight8.weighted_adjoint(X8)):
            got = weight8.adjoint_defect(X)
            # the same matrix: the certified ratio brackets the SVD ratio
            svd = np.linalg.norm(X - weight8.weighted_adjoint(X), 2) / np.linalg.norm(X, 2)
            assert svd * (1 - 1e-12) <= got <= basis8.total_dim * svd
            # the old route (Bunch-Kaufman solve, SVD norms): equal up to its rounding
            adj = scipy.linalg.solve(W, X.conj().T @ W, assume_a="her")
            old = np.linalg.norm(X - adj, 2) / np.linalg.norm(X, 2)
            assert old * (1 - 1e-12) <= got + 1e-13

    def test_hermitian_defect_is_an_upper_bound(self, ctx8, basis8):
        M = ctx8.mult_matrix(real_test_function(basis8, 0.05).to_poly_float())
        raw = taylor_exp_matrix(M, 12)
        raw[0, 1] += 1e-9
        weight = InnerProductWeight(raw.copy(), taylor_depth=12)
        assert weight.hermitian_defect >= np.linalg.norm(raw - raw.conj().T, 2) * (1 - 1e-12)

    def test_failed_factorization_is_numerical_error(self, weight8, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("not positive definite")

        monkeypatch.setattr(scipy.linalg, "cho_factor", fail)
        with pytest.raises(NumericalError):
            InnerProductWeight(weight8.matrix.copy(), taylor_depth=12)

    def test_multiplier_is_sparse(self, ctx8, basis8):
        M = ctx8.mult_matrix(real_test_function(basis8).to_poly_float())
        assert scipy.sparse.issparse(M) and M.format == "csr"
        assert M.nnz < 0.25 * basis8.total_dim**2

    def test_sparse_horner_matches_dense(self, ctx8, basis8):
        M = ctx8.mult_matrix(real_test_function(basis8, 0.1).to_poly_float())
        dense = M.toarray()
        assert np.abs(taylor_exp_matrix(M, 12) - taylor_exp_matrix(dense, 12)).max() <= 1e-14
        rng = np.random.default_rng(2)
        v = rng.standard_normal(basis8.total_dim) + 1j * rng.standard_normal(basis8.total_dim)
        diff = taylor_exp_apply(-M, 12, v) - taylor_exp_apply(-dense, 12, v)
        assert np.abs(diff).max() <= 1e-14 * np.abs(v).max()


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
    Mf = ctx8.mult_matrix(f.to_poly_float())
    M_itf = ctx8.mult_matrix(iT_f.to_poly_float())
    it_diag = np.diag(it.to_diag_vector(basis8)).astype(complex)
    comm = it_diag @ Mf - Mf @ it_diag
    assert np.linalg.norm(comm - M_itf, 2) <= 1e-11
