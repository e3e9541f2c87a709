import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from crsphere.errors import DimensionMismatchError
from crsphere.heisenberg import (
    Dilation,
    GroupElement,
    LeftInvariantOp,
    box_b,
    box_b_bar,
    contact_frame_checks,
    dilate,
    dilate_poly,
    gaussian_pairing,
    group_inv,
    group_mul,
    levi_matrix,
    model_identity_suite,
    sublaplacian_model,
    translate_poly,
    weighted_apply,
    _random_poly,
    _spanning_monomials,
)
from crsphere.poly import Poly
from crsphere.scalars import QI, qi


def rnd_rational(rng):
    return Fraction(rng.randint(-8, 8), rng.randint(1, 9))


def rnd_element(rng, n):
    return GroupElement(
        rnd_rational(rng), tuple(QI(rnd_rational(rng), rnd_rational(rng)) for _ in range(n))
    )


class TestGroupLayer:
    def test_identity_absorbs(self):
        g = GroupElement(Fraction(3, 7), (QI(1, 2),))
        e = GroupElement.identity(1)
        assert group_mul(e, g) == g
        assert group_mul(g, e) == g

    def test_hand_evaluated_product(self):
        # (1, 1) . (1, i) has twist 2 Im(1 * conj(i)) = -2
        g = GroupElement(1, (QI(1),))
        h = GroupElement(1, (QI(0, 1),))
        assert group_mul(g, h) == GroupElement(0, (QI(1, 1),))

    def test_inverse_formula_solves_group_law(self):
        # solving g . x = e forces x = (-t, -z) because Im(z . conj z) = 0
        rng = random.Random(3)
        for _ in range(20):
            g = rnd_element(rng, 2)
            inv = group_inv(g)
            assert inv == GroupElement(-g.t, tuple(-c for c in g.z))
            assert group_mul(g, inv) == GroupElement.identity(2)
            assert group_inv(inv) == g

    def test_associativity_random(self):
        rng = random.Random(5)
        for _ in range(25):
            g, h, k = (rnd_element(rng, 1) for _ in range(3))
            assert group_mul(group_mul(g, h), k) == group_mul(g, group_mul(h, k))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            group_mul(GroupElement.identity(1), GroupElement.identity(2))

    def test_dilation_formula_and_semigroup(self):
        g = GroupElement(1, (QI(1),))
        assert dilate(Dilation(2), g) == GroupElement(4, (QI(2),))
        assert dilate(Dilation(1), g) == g
        rng = random.Random(7)
        for _ in range(10):
            r = Dilation(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            s = Dilation(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
            h = rnd_element(rng, 2)
            assert dilate(r, dilate(s, h)) == dilate(Dilation(r.r * s.r), h)

    def test_dilation_is_homomorphism(self):
        rng = random.Random(11)
        r = Dilation(Fraction(3, 2))
        for _ in range(10):
            g, h = rnd_element(rng, 2), rnd_element(rng, 2)
            assert dilate(r, group_mul(g, h)) == group_mul(dilate(r, g), dilate(r, h))

    def test_nonpositive_dilation_rejected(self):
        with pytest.raises(ValueError):
            Dilation(0)
        with pytest.raises(ValueError):
            Dilation(Fraction(-1, 2))


class TestFrameAction:
    def test_reeb_on_t(self):
        T = LeftInvariantOp.t_gen(1)
        assert T.apply(Poly.var_t(1)) == Poly.const(1, QI(1))

    def test_z_on_t_gives_izbar(self):
        Z = LeftInvariantOp.z_gen(1, 0)
        assert Z.apply(Poly.var_t(1)) == Poly.var_zbar(1, 0).scale(QI(0, 1))

    def test_z_kills_zbar(self):
        Z = LeftInvariantOp.z_gen(1, 0)
        assert Z.apply(Poly.var_zbar(1, 0)).is_zero()

    def test_left_invariance_of_generators(self):
        rng = random.Random(13)
        n = 2
        gens = [LeftInvariantOp.t_gen(n)]
        gens += [LeftInvariantOp.z_gen(n, a) for a in range(n)]
        gens += [LeftInvariantOp.zbar_gen(n, a) for a in range(n)]
        f = (
            Poly.var_t(n) * Poly.var_z(n, 0)
            + Poly.var_zbar(n, 1) ** 2
            + Poly.monomial(n, 0, (1, 0), (0, 1), QI(Fraction(2, 3)))
        )
        for _ in range(5):
            g = rnd_element(rng, n)
            for L in gens:
                assert L.apply(translate_poly(f, g)) == translate_poly(L.apply(f), g)


    @pytest.mark.parametrize("n", [1, 2])
    def test_generator_actions_against_product_formulas(self, n):
        # the exponent-shift actions against multiplying by a fresh variable
        # polynomial and scaling, on random polynomials in t, z and zbar
        rng = random.Random(17 + n)
        I = QI(0, 1)
        for _ in range(6):
            f = _random_poly(rng, n, 5, 2)
            for var, j, mono in [("t", 0, Poly.var_t(n))] + [
                (kind, a, ctor(n, a))
                for a in range(n)
                for kind, ctor in (("z", Poly.var_z), ("zb", Poly.var_zbar))
            ]:
                for c in (QI(1), I, -2, QI(Fraction(-1, 3), 2)):
                    assert f.times_var(var, j, c) == (mono * f).scale(qi(c))
            for a in range(n):
                Z, Zb = LeftInvariantOp.z_gen(n, a), LeftInvariantOp.zbar_gen(n, a)
                dt = f.diff_t()
                assert Z.apply(f) == f.diff_z(a) + (Poly.var_zbar(n, a) * dt).scale(I)
                assert Zb.apply(f) == f.diff_zbar(a) - (Poly.var_z(n, a) * dt).scale(I)
                gt = dt - Poly.var_t(n).scale(qi(2)) * f
                assert weighted_apply(Z, f) == (
                    f.diff_z(a) - Poly.var_zbar(n, a) * f + (Poly.var_zbar(n, a) * gt).scale(I))
                assert weighted_apply(Zb, f) == (
                    f.diff_zbar(a) - Poly.var_z(n, a) * f - (Poly.var_z(n, a) * gt).scale(I))


class TestEnvelopingAlgebra:
    def test_commutator_bracket(self):
        # brute force on all monomials of parabolic degree <= 4, then in the algebra
        n = 2
        T = LeftInvariantOp.t_gen(n)
        span = _spanning_monomials(n, 4)
        for a in range(n):
            for b in range(n):
                Za = LeftInvariantOp.z_gen(n, a)
                Zb = LeftInvariantOp.zbar_gen(n, b)
                expect = T.scale(QI(0, -2)) if a == b else LeftInvariantOp.zero(n)
                assert Za.compose(Zb) - Zb.compose(Za) == expect
                for f in span:
                    lhs = Za.apply(Zb.apply(f)) - Zb.apply(Za.apply(f))
                    assert lhs == expect.apply(f)

    def test_reeb_central(self):
        n = 2
        T = LeftInvariantOp.t_gen(n)
        for L in [
            LeftInvariantOp.z_gen(n, 0),
            LeftInvariantOp.zbar_gen(n, 1),
            sublaplacian_model(n),
            box_b(n),
        ]:
            assert T.compose(L) == L.compose(T)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_kohn_identity(self, n):
        # box_b = delta_b / 2 + (i/2) n T, an exact enveloping-algebra identity
        lhs = sublaplacian_model(n).scale(QI(Fraction(1, 2))) + LeftInvariantOp.t_gen(n).scale(
            QI(0, Fraction(n, 2))
        )
        assert lhs == box_b(n)
        assert sublaplacian_model(n) == box_b(n) + box_b_bar(n)

    def test_pbw_soundness(self):
        n = 1
        span = _spanning_monomials(n, 4)
        ops = [
            LeftInvariantOp.t_gen(n),
            LeftInvariantOp.z_gen(n, 0),
            LeftInvariantOp.zbar_gen(n, 0),
            sublaplacian_model(n),
            box_b(n),
        ]
        for L1 in ops:
            for L2 in ops:
                C = L1.compose(L2)
                for f in span:
                    assert C.apply(f) == L1.apply(L2.apply(f))

    def test_positivity_of_model_operators(self):
        # <delta_b f, f> >= 0 against the Gaussian weight pins the sign convention
        rng = random.Random(17)
        n = 1
        for _ in range(10):
            f = Poly(
                n,
                {
                    (rng.randint(0, 1), (rng.randint(0, 2),), (rng.randint(0, 2),)): QI(
                        rnd_rational(rng), rnd_rational(rng)
                    )
                    for _ in range(3)
                },
            )
            for op in (sublaplacian_model(n), box_b(n)):
                val = gaussian_pairing(weighted_apply(op, f), f)
                assert val.im == 0
                assert val.re >= 0


class TestAdjoint:
    def test_generator_rules_via_pairing_oracle(self):
        # <L u, v> = <u, L* v> against the Gaussian weight, exactly
        n = 2
        rng = random.Random(19)
        gens = [LeftInvariantOp.t_gen(n)]
        gens += [LeftInvariantOp.z_gen(n, a) for a in range(n)]
        gens += [LeftInvariantOp.zbar_gen(n, a) for a in range(n)]
        for L in gens + [sublaplacian_model(n)]:
            Ls = L.formal_adjoint()
            for _ in range(4):
                u = Poly.monomial(
                    n,
                    rng.randint(0, 1),
                    tuple(rng.randint(0, 1) for _ in range(n)),
                    tuple(rng.randint(0, 1) for _ in range(n)),
                    QI(rnd_rational(rng), rnd_rational(rng)),
                )
                v = Poly.monomial(
                    n,
                    rng.randint(0, 1),
                    tuple(rng.randint(0, 1) for _ in range(n)),
                    tuple(rng.randint(0, 1) for _ in range(n)),
                    QI(rnd_rational(rng)),
                )
                assert gaussian_pairing(weighted_apply(L, u), v) == gaussian_pairing(
                    u, weighted_apply(Ls, v)
                )

    def test_expected_generator_images(self):
        n = 2
        T = LeftInvariantOp.t_gen(n)
        assert T.formal_adjoint() == T.scale(QI(-1))
        for a in range(n):
            assert LeftInvariantOp.z_gen(n, a).formal_adjoint() == LeftInvariantOp.zbar_gen(
                n, a
            ).scale(QI(-1))
        assert sublaplacian_model(n).formal_adjoint() == sublaplacian_model(n)
        assert box_b(n).formal_adjoint() == box_b(n)

    def test_involution_and_antihomomorphism(self):
        rng = random.Random(23)
        n = 1
        for _ in range(8):
            terms1 = {
                (rng.randint(0, 1), (rng.randint(0, 2),), (rng.randint(0, 2),)): QI(
                    rnd_rational(rng), rnd_rational(rng)
                )
            }
            terms2 = {
                (rng.randint(0, 1), (rng.randint(0, 2),), (rng.randint(0, 2),)): QI(
                    rnd_rational(rng), rnd_rational(rng)
                )
            }
            L1, L2 = LeftInvariantOp(n, terms1), LeftInvariantOp(n, terms2)
            assert L1.formal_adjoint().formal_adjoint() == L1
            assert L1.compose(L2).formal_adjoint() == L2.formal_adjoint().compose(
                L1.formal_adjoint()
            )


class TestGaussianPairing:
    # closed forms against exp(-2 t^2 - 2 |z|^2), Gaussian volume divided out

    def test_powers_of_t(self):
        n = 2
        zero = (0,) * n
        one = Poly.const(n, QI(1))
        for k in range(5):
            double_factorial = math.prod(range(2 * k - 1, 0, -2))
            even = Poly.monomial(n, 2 * k, zero, zero)
            assert gaussian_pairing(even, one) == QI(Fraction(double_factorial, 4**k))
            assert gaussian_pairing(Poly.monomial(n, 2 * k + 1, zero, zero), one) == QI(0)

    def test_matched_z_powers(self):
        n = 2
        zero = (0,) * n
        one = Poly.const(n, QI(1))
        for j in [(0, 0), (1, 0), (0, 2), (2, 3), (4, 1)]:
            expect = math.prod(Fraction(math.factorial(e), 2**e) for e in j)
            zj = Poly.monomial(n, 0, j, zero)
            assert gaussian_pairing(zj, zj) == QI(expect)
            assert gaussian_pairing(Poly.monomial(n, 0, j, j), one) == QI(expect)
            c1, c2 = QI(Fraction(2, 3), -1), QI(5, Fraction(1, 2))
            assert gaussian_pairing(zj.scale(c1), zj.scale(c2)) == c1 * c2.conjugate() * expect

    def test_mismatched_exponents_vanish(self):
        n = 2
        zero = (0,) * n
        for (b1, g1, b2, g2) in [((1, 0), zero, (0, 1), zero), ((1, 0), zero, zero, zero),
                                 ((2, 1), (0, 1), (1, 1), zero), (zero, (1, 0), (1, 0), zero)]:
            f = Poly.monomial(n, 0, b1, g1)
            g = Poly.monomial(n, 2, b2, g2)
            assert gaussian_pairing(f, g) == QI(0)


class TestHomogeneity:
    def test_gradings(self):
        n = 1
        assert LeftInvariantOp.z_gen(n, 0).homogeneity_degree() == 1
        assert LeftInvariantOp.t_gen(n).homogeneity_degree() == 2
        assert sublaplacian_model(n).homogeneity_degree() == 2
        mixed = sublaplacian_model(n) + LeftInvariantOp.z_gen(n, 0)
        assert mixed.homogeneity_degree() is None

    def test_dilation_covariance(self):
        # apply(L, f . delta_r) = r^m (apply(L, f)) . delta_r
        rng = random.Random(29)
        n = 1
        f = Poly.var_t(n) * Poly.var_z(n, 0) + Poly.var_zbar(n, 0) ** 2
        for L in [LeftInvariantOp.t_gen(n), LeftInvariantOp.z_gen(n, 0), sublaplacian_model(n)]:
            m = L.homogeneity_degree()
            for _ in range(4):
                r = Dilation(Fraction(rng.randint(1, 7), rng.randint(1, 7)))
                lhs = L.apply(dilate_poly(f, r))
                rhs = dilate_poly(L.apply(f), r).scale(qi(r.r**m))
                assert lhs == rhs


class TestContactGeometry:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_levi_normalization(self, n):
        M = levi_matrix(n)
        for a in range(n):
            for b in range(n):
                expect = Poly.const(n, QI(2)) if a == b else Poly.zero(n)
                assert M[a][b] == expect

    def test_contact_frame_relations(self):
        checks = contact_frame_checks(2)
        assert checks["theta_of_T_minus_one"].is_zero()
        assert all(p.is_zero() for p in checks["theta_of_Z"])
        assert all(p.is_zero() for p in checks["reeb_contraction"])


class TestSerialization:
    def test_operator_round_trip(self):
        op = box_b(2) + LeftInvariantOp.t_gen(2).scale(QI(Fraction(1, 3), Fraction(-2, 5)))
        data = op.to_jsonable()
        assert all(isinstance(item["coeff"], str) for item in data["terms"])
        assert LeftInvariantOp.from_jsonable(data) == op

    def test_poly_round_trip(self):
        f = Poly.var_t(1) * Poly.var_z(1, 0) + Poly.const(1, QI(Fraction(1, 2), Fraction(3, 4)))
        assert Poly.from_jsonable(f.to_jsonable()) == f


def test_identity_suite_all_pass():
    for n in (1, 2):
        records = model_identity_suite(n, seed=1)
        assert all(r["passed"] for r in records), [r for r in records if not r["passed"]]


def test_identity_suite_records_are_pinned():
    # sha256 of the records of model_identity_suite(1) and (2), as first recorded
    records = [model_identity_suite(n) for n in (1, 2)]
    digest = hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()
    assert digest == "c8102773043fac8943307a9a6e1fc3f7401696ad65e2d015df3e954cda975c3b"
