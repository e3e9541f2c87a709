from fractions import Fraction

import numpy as np
import pytest

from crsphere.errors import NumericalError
from crsphere.harmonics import HarmonicBasis
from crsphere.scalars import QI, qi
from crsphere.spectral import (
    DiagonalOperator,
    SpectralFunction,
    Truncation,
    critical_gjms,
    gjms_diag_vector,
    l_mu,
    pluriharmonic_proj,
    reeb_t,
    sublaplacian,
    szego,
    szego_bar,
)
from frame_oracle import (
    apply_kohn,
    apply_kohn_bar,
    apply_reeb_it,
    apply_sublaplacian,
    certify_eigentables,
)
from order_diagnostic import order_diagnostic


class TestFrameOracle:
    def test_certification_degree_6(self, basis8):
        # every basis element of degree <= 6: the ambient operators act as the tables
        assert certify_eigentables(basis8.restrict(6)) == []

    def test_specific_low_blocks(self, basis8):
        # lambda_deltab(1,0) = 2, lambda_iT(1,0) = -2, lambda_deltab(1,1) = 8,
        # read off by applying the honest differential operators
        z1 = basis8.blocks[(1, 0)][0].poly
        assert apply_sublaplacian(z1) == z1.scale(QI(2))
        assert apply_reeb_it(z1) == z1.scale(QI(-2))
        assert apply_kohn(z1).is_zero()  # CR holomorphic
        for el in basis8.blocks[(1, 1)]:
            assert apply_sublaplacian(el.poly) == el.poly.scale(QI(8))

    def test_certification_n2(self):
        basis = HarmonicBasis.build(2, 3)
        assert certify_eigentables(basis) == []

    def test_kohn_oracle_matches_l_n(self, basis8):
        # box_b = L_n blockwise, via the ambient operators
        small = basis8.restrict(4)
        table = l_mu(small, 1)
        for (p, q) in small.block_order:
            lam = qi(table.value(p, q))
            for el in small.blocks[(p, q)]:
                assert apply_kohn(el.poly) == el.poly.scale(lam)
                assert apply_kohn_bar(el.poly) == el.poly.scale(
                    qi(l_mu(small, -1).value(p, q))
                )


class TestEigentables:
    def test_constants_killed(self):
        tr = Truncation(1, 6)
        assert sublaplacian(tr).value(0, 0) == 0
        assert reeb_t(tr).value(0, 0) == 0
        assert critical_gjms(tr).value(0, 0) == 0

    def test_l_mu_kernels_forced(self):
        # mu = n kills q = 0 (CR holomorphics), mu = -n kills p = 0
        for n in (1, 2, 3):
            tr = Truncation(n, 6)
            Ln = l_mu(tr, n)
            Lmn = l_mu(tr, -n)
            for d in range(7):
                assert Ln.value(d, 0) == 0
                assert Lmn.value(0, d) == 0

    def test_operator_identity_blockwise(self):
        # lambda_box = lambda_deltab / 2 + (n/2) lambda_iT on every block
        for n in (1, 2, 3):
            tr = Truncation(n, 6)
            half = sublaplacian(tr).scale(Fraction(1, 2)) + reeb_t(tr).scale(Fraction(n, 2))
            assert half.equals(l_mu(tr, n))

    def test_l1_at_11_cross_checked(self, basis8):
        # 2pq + n(p+q) + mu(q-p) at (1,1), mu=0 equals half the oracle deltab value
        assert l_mu(basis8, 0).value(1, 1) == 4
        el = basis8.blocks[(1, 1)][0]
        assert apply_sublaplacian(el.poly) == el.poly.scale(QI(8))

    def test_conjugation_symmetry(self):
        tr = Truncation(2, 6)
        db, it = sublaplacian(tr), reeb_t(tr)
        for (p, q) in db.blocks():
            assert db.value(p, q) == db.value(q, p)
            assert it.value(p, q) == -it.value(q, p)

    def test_real_tables_self_adjoint(self):
        tr = Truncation(1, 6)
        for op in (l_mu(tr, Fraction(3, 2)), critical_gjms(tr), sublaplacian(tr)):
            assert op.is_real


class TestCriticalGJMS:
    def test_kernel_is_pluriharmonic(self):
        for n in (1, 2, 3):
            P = critical_gjms(Truncation(n, 8))
            for (p, q), v in P.table.items():
                assert (v == 0) == (p * q == 0)

    def test_closed_form_n1(self):
        # lambda_P = 4 p q (p+1)(q+1) at n = 1, derived from the product of tables
        P = critical_gjms(Truncation(1, 8))
        for (p, q), v in P.table.items():
            assert v == 4 * p * q * (p + 1) * (q + 1)
        assert P.value(1, 1) == 16
        assert P.value(2, 1) == 48

    def test_product_structure(self):
        # P equals the composition of its L_mu factors
        tr = Truncation(2, 6)
        prod = DiagonalOperator.identity(2, 6)
        for k in range(3):
            prod = prod.compose(l_mu(tr, 2 - 2 * k))
        assert prod.equals(critical_gjms(tr))

    def test_nonnegative_tables(self):
        for n in (1, 2, 3):
            P = critical_gjms(Truncation(n, 8))
            assert all(v >= 0 for v in P.table.values())

    def test_float_diagonal_is_p_exactly_or_refused(self, basis8):
        # the float layer's P_d is the table itself; where some P is not a
        # float64 (n = 12 at N = 4 on (1, 3) and (3, 1), n = 14 already on
        # (1, 1) at N = 2) it is refused, without building a basis
        P = critical_gjms(basis8)
        assert np.array_equal(gjms_diag_vector(basis8), P.to_diag_vector(basis8))
        for n, N, block in ((12, 4, "(1, 3)"), (14, 2, "(1, 1)")):
            with pytest.raises(NumericalError, match=block.replace("(", r"\(").replace(")", r"\)")):
                gjms_diag_vector(Truncation(n, N))

    def test_order_tag(self):
        assert critical_gjms(Truncation(2, 4)).order_tag == 6


class TestSzegoFamily:
    def test_projector_tables(self):
        tr = Truncation(1, 6)
        S, Sb, pi = szego(tr), szego_bar(tr), pluriharmonic_proj(tr)
        assert S.value(0, 0) == 1 and Sb.value(0, 0) == 1
        assert (S + Sb).value(0, 0) == 2
        assert pi.value(2, 1) == 0
        assert (S + Sb - S.compose(Sb)).equals(pi)

    def test_szego_szegobar_rank_one(self):
        tr = Truncation(1, 6)
        SSb = szego(tr).compose(szego_bar(tr))
        assert SSb.rank() == 1
        assert SSb.nonzero_blocks() == [(0, 0)]

    def test_partial_inverse_examples(self):
        tr = Truncation(1, 6)
        P = critical_gjms(tr)
        N = P.partial_inverse()
        assert N.value(1, 1) == Fraction(1, 16)
        for d in range(7):
            assert N.value(d, 0) == 0
        # involution off the kernel
        again = N.partial_inverse()
        for key, v in P.table.items():
            if v:
                assert again.table[key] == v


class TestOrderDiagnostic:
    def test_sublaplacian_order_2(self):
        rep = order_diagnostic(sublaplacian(Truncation(1, 12)), 2)
        assert rep.passed
        assert max(r.max_ratio for r in rep.rays) <= 1.0

    @pytest.mark.parametrize("n", [1, 2])
    def test_critical_gjms_order(self, n):
        rep = order_diagnostic(critical_gjms(Truncation(n, 12)), 2 * n + 2)
        assert rep.passed

    def test_finite_rank_passes_any_negative_order(self):
        tr = Truncation(1, 12)
        SSb = szego(tr).compose(szego_bar(tr))
        for k in range(1, 7):
            assert order_diagnostic(SSb, -k).passed

    def test_understated_order_fails(self):
        rep = order_diagnostic(critical_gjms(Truncation(1, 12)), 3)
        assert not rep.passed

    def test_jsonable(self):
        rep = order_diagnostic(sublaplacian(Truncation(1, 8)), 2)
        data = rep.to_jsonable()
        assert data["passed"] and len(data["rays"]) == 3


class TestSpectralFunction:
    def test_inner_products_exact(self, basis8):
        f = SpectralFunction.from_terms(basis8, [(1, 1, 0, QI(2)), (2, 0, 1, QI(0, 1))])
        g = SpectralFunction.from_terms(basis8, [(1, 1, 0, QI(1, 1))])
        assert f.inner(g) == QI(2) * QI(1, -1)
        assert f.norm2() == QI(5)

    def test_realized_and_conjugation(self, basis8):
        f = SpectralFunction.from_terms(basis8, [(2, 0, 1, QI(1, 2))])
        r = f.realized()
        assert r.is_real(0.0)
        assert r.coeffs[(2, 0)][1] == QI(Fraction(1, 2), 1)
        assert r.coeffs[(0, 2)][1] == QI(Fraction(1, 2), -1)

    def test_diagonal_action(self, basis8):
        P = critical_gjms(basis8)
        f = SpectralFunction.from_terms(basis8, [(1, 1, 0, QI(1)), (3, 0, 0, QI(7))])
        Pf = f.apply_diagonal(P)
        assert list(Pf.terms()) == [(1, 1, 0, QI(16))]

    def test_vector_round_trip(self, basis8):
        f = SpectralFunction.from_terms(basis8, [(1, 0, 1, QI(1, -1)), (2, 2, 3, QI(5))])
        g = SpectralFunction.from_vector(basis8, f.to_vector())
        assert (f - g).norm() < 1e-15

    def test_sup_norm_of_constant(self, basis8):
        one = SpectralFunction.from_terms(basis8, [(0, 0, 0, QI(1))])
        assert abs(one.sup_norm_estimate(samples=256) - 1.0) < 1e-12
        assert one.sup_norm_bound() == 1.0

    def test_sup_norm_bound_dominates_samples(self, basis8):
        # B(f) = sum sqrt(dim H_pq) ||f_pq|| is a true bound; every sample is
        # a value of |f|, so no sample may exceed it
        rng = np.random.default_rng(2)
        for _ in range(5):
            terms = [(p, q, 0, complex(*rng.standard_normal(2)))
                     for p, q in [(1, 0), (1, 1), (2, 1), (0, 3)]]
            f = SpectralFunction.from_terms(basis8, terms).realized()
            assert f.sup_norm_estimate(samples=20000) <= f.sup_norm_bound()
        assert SpectralFunction.zero(basis8).sup_norm_bound() == 0.0

    def test_pointwise_evaluation_matches_blocks(self, basis8):
        # |z1|^2 - 1/2 is (up to scale) the first H_{1,1} element; evaluate both
        rng = np.random.default_rng(5)
        z = rng.standard_normal((50, 2)) + 1j * rng.standard_normal((50, 2))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        el = basis8.blocks[(1, 1)][0]
        f = SpectralFunction.from_terms(basis8, [(1, 1, 0, QI(1))])
        vals = f.to_poly_float().evaluate(0.0, [z[:, 0], z[:, 1]])
        direct = el.poly.to_float().evaluate(0.0, [z[:, 0], z[:, 1]])
        import math

        assert np.max(np.abs(vals - direct / math.sqrt(float(el.norm2)))) < 1e-12
