import math
import random
from fractions import Fraction

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from crsphere.errors import CapExceededError, ConfigError
from crsphere.harmonics import (
    HarmonicBasis,
    _real_valued_block_basis,
    dim_hpq,
    gram_schmidt_exact,
    harmonic_block_polys,
    inner_sphere,
    monomials_homogeneous,
)
from crsphere.poly import Poly
from crsphere.scalars import QI, qi
from sphere_oracle import (
    amb_laplacian,
    bidegree_components,
    decompose_bihomogeneous,
    expand_in_basis,
    integral_monomial,
    sphere_integral,
    sphere_reduce,
)


def quadrature_integral_s3(f: Poly, ng=40):
    """Independent numeric oracle: Gauss-Legendre x trapezoid on S^3."""
    x, wq = leggauss(ng)
    eta = 0.25 * np.pi * (x + 1)
    weta = 0.25 * np.pi * wq
    xi = 2 * np.pi * np.arange(ng) / ng
    E, X1, X2 = np.meshgrid(eta, xi, xi, indexing="ij")
    z1 = np.cos(E) * np.exp(1j * X1)
    z2 = np.sin(E) * np.exp(1j * X2)
    wgt = np.cos(E) * np.sin(E) * weta[:, None, None] * (2 * np.pi / ng) ** 2 / (2 * np.pi**2)
    vals = f.to_float().evaluate(0.0, [z1, z2])
    return complex(np.sum(vals * wgt))


class TestSphereIntegral:
    def test_constant(self):
        assert sphere_integral(Poly.const(2, QI(1)), 1) == QI(1)

    def test_z1_squared_average(self):
        # |z1|^2 averages to 1/2 on S^3: 1! 1! / (1+1)! by the monomial formula
        f = Poly.var_z(2, 0) * Poly.var_zbar(2, 0)
        assert sphere_integral(f, 1) == QI(Fraction(1, 2))
        assert integral_monomial(1, (1, 0), (1, 0)) == Fraction(1, 2)

    def test_bidegree_mismatch_vanishes(self):
        assert sphere_integral(Poly.var_z(2, 0), 1) == QI(0)

    def test_against_quadrature_oracle(self):
        rng = random.Random(31)
        for _ in range(6):
            terms = {}
            for _ in range(4):
                key = (
                    0,
                    tuple(rng.randint(0, 2) for _ in range(2)),
                    tuple(rng.randint(0, 2) for _ in range(2)),
                )
                terms[key] = QI(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
            f = Poly(2, terms)
            exact = complex(sphere_integral(f, 1))
            quad = quadrature_integral_s3(f)
            assert abs(exact - quad) < 1e-10


def random_exact_poly(rng, m, bidegrees, nterms=4):
    """Random Gaussian-rational polynomial mixing the given bidegrees."""
    terms = {}
    for _ in range(nterms):
        p, q = rng.choice(bidegrees)
        b = rng.choice(monomials_homogeneous(m, p))
        g = rng.choice(monomials_homogeneous(m, q))
        terms[(0, b, g)] = QI(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                              Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    return Poly(m, terms)


class TestInnerSphere:
    @pytest.mark.parametrize("n", [1, 2])
    def test_equals_integral_of_the_product(self, n):
        # the sector-matched pairing against its definition int f conj(g)
        rng = random.Random(41 + n)
        m = n + 1
        bidegrees = [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2), (3, 1)]
        for _ in range(12):
            f = random_exact_poly(rng, m, bidegrees)
            g = random_exact_poly(rng, m, bidegrees)
            val = inner_sphere(f, g, n)
            assert isinstance(val, QI)
            assert val == sphere_integral(f * g.conj_fn(), n)
            assert val == inner_sphere(g, f, n).conjugate()

    @pytest.mark.parametrize("n", [1, 2])
    def test_different_bidegrees(self, n):
        rng = random.Random(53 + n)
        m = n + 1
        # the last three pairs share the sector p - q, so their terms do match
        pairs = [((1, 0), (0, 1)), ((2, 1), (1, 1)), ((2, 1), (1, 0)), ((2, 2), (1, 1)),
                 ((3, 1), (2, 0))]
        for (pq1, pq2) in pairs:
            f = random_exact_poly(rng, m, [pq1])
            g = random_exact_poly(rng, m, [pq2])
            assert inner_sphere(f, g, n) == sphere_integral(f * g.conj_fn(), n)

    def test_floating_data_give_complex(self):
        rng = random.Random(59)
        bidegrees = [(0, 0), (1, 1), (2, 1), (1, 2)]
        f = random_exact_poly(rng, 2, bidegrees)
        g = random_exact_poly(rng, 2, bidegrees)
        val = inner_sphere(f.to_float(), g.to_float(), 1)
        assert isinstance(val, complex)
        assert abs(val - complex(inner_sphere(f, g, 1))) < 1e-12

    def test_t_term_rejected(self):
        # as by sphere_integral of the product, matched partner or not
        f = Poly.var_t(2) * Poly.var_z(2, 0)
        for g in (Poly.var_z(2, 0), Poly.var_z(2, 1)):
            with pytest.raises(ValueError):
                inner_sphere(f, g, 1)
            with pytest.raises(ValueError):
                inner_sphere(g, f, 1)
        assert inner_sphere(f, Poly.zero(2), 1) == QI(0)


def assert_gram_is_identity(basis):
    """Normalized Gram = I exactly, every pair through inner_sphere itself:
    off-diagonal inner products vanish, diagonal ones equal the stored norms."""
    for (p, q) in basis.block_order:
        els = basis.blocks[(p, q)]
        for i in range(len(els)):
            for j in range(i + 1):
                val = inner_sphere(els[i].poly, els[j].poly, basis.n)
                if i == j:
                    assert val == QI(els[i].norm2)
                else:
                    assert val == QI(0), ((p, q), i, j)


def gram_schmidt_pairing_running_u(polys, n):
    """Textbook classical Gram-Schmidt: each coefficient pairs the running u."""
    out = []
    for v in polys:
        u = v
        for w, w_norm2 in out:
            coeff = inner_sphere(u, w, n) / qi(w_norm2)
            u = u - w.scale(coeff)
        norm2 = inner_sphere(u, u, n)
        assert norm2.im == 0 and norm2.re > 0
        out.append((u, norm2.re))
    return out


@pytest.mark.parametrize("n,N", [(1, 8), (2, 4), (3, 3)])
def test_gram_schmidt_matches_running_u_oracle(n, N):
    # <v, w_j> through w_j's functional against <u, w_j> on the running u:
    # the same polynomials (terms in the same order) and squared norms
    for d in range(N + 1):
        for p in range(d, (d - 1) // 2, -1):
            raw = harmonic_block_polys(n, p, d - p)
            if p == d - p:
                raw = _real_valued_block_basis(raw)
            got = gram_schmidt_exact(raw, n)
            want = gram_schmidt_pairing_running_u(raw, n)
            assert len(got) == len(want) == dim_hpq(n, p, d - p)
            for (u, norm2), (u_ref, norm2_ref) in zip(got, want):
                assert u == u_ref, (p, d - p)
                assert list(u.terms) == list(u_ref.terms)
                assert norm2 == norm2_ref


class TestBlockConstruction:
    def test_constants_block(self, basis8):
        assert len(basis8.blocks[(0, 0)]) == 1
        el = basis8.blocks[(0, 0)][0]
        assert el.poly == Poly.const(2, QI(1))
        assert el.norm2 == 1

    def test_rank_oracle_matches_dimension_formula_n1(self):
        # nullspace of the ambient Laplacian on bidegree monomials vs p+q+1
        for p in range(4):
            for q in range(4):
                raw = harmonic_block_polys(1, p, q)
                assert len(raw) == p + q + 1 == dim_hpq(1, p, q)
                for v in raw:
                    assert amb_laplacian(v).is_zero()

    def test_rank_oracle_n2(self):
        assert len(harmonic_block_polys(2, 1, 0)) == 3 == dim_hpq(2, 1, 0)
        assert len(harmonic_block_polys(2, 1, 1)) == 8 == dim_hpq(2, 1, 1)
        assert len(harmonic_block_polys(2, 2, 1)) == 15 == dim_hpq(2, 2, 1)

    def test_full_gram_is_identity(self, basis8):
        assert_gram_is_identity(basis8)

    @pytest.mark.parametrize("n,N", [(2, 5), (3, 4)])
    def test_full_gram_is_identity_higher_dimensions(self, bases_small, basis_n3_N4, n, N):
        assert_gram_is_identity(bases_small[2] if n == 2 else basis_n3_N4)

    def test_cross_block_orthogonality(self, basis8):
        pairs = [((1, 0), (2, 1)), ((1, 1), (0, 0)), ((2, 0), (0, 2)), ((3, 1), (1, 3))]
        for (b1, b2) in pairs:
            for e1 in basis8.blocks[b1]:
                for e2 in basis8.blocks[b2]:
                    assert inner_sphere(e1.poly, e2.poly, 1) == QI(0)

    def test_elements_are_harmonic_and_bigraded(self, basis8):
        for (p, q) in basis8.block_order:
            for el in basis8.blocks[(p, q)]:
                assert amb_laplacian(el.poly).is_zero()
                for (a, b, g) in el.poly.terms:
                    assert (sum(b), sum(g)) == (p, q)

    def test_conjugation_symmetry(self, basis8):
        for (p, q) in basis8.block_order:
            for e1, e2 in zip(basis8.blocks[(p, q)], basis8.blocks[(q, p)]):
                assert e1.poly.conj_fn() == e2.poly
                assert e1.norm2 == e2.norm2

    def test_diagonal_blocks_real_valued(self, basis8):
        for (p, q) in basis8.block_order:
            if p == q:
                for el in basis8.blocks[(p, q)]:
                    assert el.poly.conj_fn() == el.poly

    @pytest.mark.parametrize("n,N", [(2, 5), (3, 4)])
    def test_real_frame_pairing_in_higher_dimensions(self, bases_small, basis_n3_N4, n, N):
        # what galerkin.RealFrame rests on, beyond n = 1 (the two tests
        # above): each (q, p) element is the exact conjugate of its (p, q)
        # partner with the same norm, and every (p, p) element is real valued
        basis = bases_small[2] if n == 2 else basis_n3_N4
        assert basis.N == N
        for (p, q), els in basis.blocks.items():
            for i, el in enumerate(els):
                partner = basis.blocks[(q, p)][i]
                assert partner.poly == el.poly.conj_fn(), (p, q, i)
                assert partner.norm2 == el.norm2

    def test_total_dimension_n1(self, basis8):
        assert basis8.total_dim == sum((d + 1) ** 2 for d in range(9))

    def test_n2_basis(self):
        basis = HarmonicBasis.build(2, 3)
        assert basis.total_dim == sum(
            dim_hpq(2, p, d - p) for d in range(4) for p in range(d + 1)
        )
        for (p, q) in basis.block_order:
            for el in basis.blocks[(p, q)]:
                assert amb_laplacian(el.poly).is_zero()

    def test_block_dimension_checked_against_the_formula(self, monkeypatch):
        # a block whose nullspace lost an element is refused, not built short
        from crsphere import harmonics

        polys = harmonics.harmonic_block_polys
        monkeypatch.setattr(harmonics, "harmonic_block_polys",
                            lambda n, p, q: polys(n, p, q)[:-1] if (p, q) == (2, 1) else polys(n, p, q))
        with pytest.raises(ConfigError, match=r"block \(2,1\) dimension 3 != formula"):
            HarmonicBasis.build(1, 3)

    def test_cap_guard(self):
        with pytest.raises(CapExceededError):
            HarmonicBasis.build(1, 16, cap=100)

    def test_restrict(self, basis16):
        small = basis16.restrict(4)
        assert small.N == 4
        assert small.total_dim == sum((d + 1) ** 2 for d in range(5))
        with pytest.raises(ConfigError):
            small.restrict(6)


class TestCache:
    def test_round_trip(self, tmp_path, basis8):
        small = basis8.restrict(3)
        path = small.save(tmp_path)
        loaded = HarmonicBasis.load(path)
        assert loaded.total_dim == small.total_dim
        for (p, q) in small.block_order:
            for e1, e2 in zip(small.blocks[(p, q)], loaded.blocks[(p, q)]):
                assert e1.poly == e2.poly
                assert e1.norm2 == e2.norm2

    def test_load_shares_equal_coefficients(self, tmp_path, basis8):
        # each distinct coefficient string is parsed once: equal values are one object
        loaded = HarmonicBasis.load(basis8.save(tmp_path))
        coeffs = [c for els in loaded.blocks.values() for el in els
                  for c in el.poly.terms.values()]
        by_text = {}
        for c in coeffs:
            assert by_text.setdefault(str(c), c) is c
        assert len(by_text) < len(coeffs)

    def test_load_or_build_hits_cache(self, tmp_path):
        b1, hit1 = HarmonicBasis.load_or_build(1, 2, cache_dir=str(tmp_path))
        b2, hit2 = HarmonicBasis.load_or_build(1, 2, cache_dir=str(tmp_path))
        assert not hit1 and hit2
        assert b1.total_dim == b2.total_dim

    def test_version_mismatch_rejected(self, tmp_path):
        import json

        b, _ = HarmonicBasis.load_or_build(1, 1, cache_dir=str(tmp_path))
        path = tmp_path / HarmonicBasis.cache_filename(1, 1)
        payload = json.loads(path.read_text())
        payload["version"] = -1
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError):
            HarmonicBasis.load(str(path))


class TestHarmonicDecomposition:
    def test_norm_squared_splits(self):
        # |z1|^2 = 1/2 + harmonic(1,1) part on the sphere
        g = Poly.var_z(2, 0) * Poly.var_zbar(2, 0)
        comps = sphere_reduce(g)
        assert set(comps) == {(0, 0), (1, 1)}
        assert sphere_integral(comps[(0, 0)], 1) == QI(Fraction(1, 2))
        assert amb_laplacian(comps[(1, 1)]).is_zero()

    def test_decomposition_reconstructs(self):
        rng = random.Random(37)
        r2 = Poly.var_z(2, 0) * Poly.var_zbar(2, 0) + Poly.var_z(2, 1) * Poly.var_zbar(2, 1)
        for _ in range(5):
            terms = {
                (
                    0,
                    tuple(rng.randint(0, 2) for _ in range(2)),
                    tuple(rng.randint(0, 2) for _ in range(2)),
                ): QI(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                for _ in range(3)
            }
            f = Poly(2, terms)
            for (a, b), comp in bidegree_components(f).items():
                parts = decompose_bihomogeneous(comp, 2, a, b)
                recon = Poly.zero(2)
                for k, h in parts.items():
                    assert amb_laplacian(h).is_zero()
                    recon = recon + (r2**k) * h
                assert recon == comp

    def test_expand_in_basis_round_trip(self, basis8):
        f = (
            Poly.var_z(2, 0) * Poly.var_zbar(2, 1)
            + Poly.var_z(2, 0) * Poly.var_zbar(2, 0) * Poly.var_z(2, 1)
        )
        coeffs = expand_in_basis(f, basis8)
        recon = Poly.zero(2)
        for (p, q), cs in coeffs.items():
            for c, el in zip(cs, basis8.blocks[(p, q)]):
                recon = recon + el.poly.scale(c)
        # equality as sphere functions: the harmonic components must agree
        lhs = sphere_reduce(f)
        rhs = sphere_reduce(recon)
        assert set(lhs) == set(rhs)
        for key in lhs:
            assert (lhs[key] - rhs[key]).is_zero()


def test_degree_zero_basis_is_constants():
    basis = HarmonicBasis.build(1, 0)
    assert basis.total_dim == 1
    assert basis.blocks[(0, 0)][0].poly == Poly.const(2, QI(1))


def test_monomial_enumeration():
    assert monomials_homogeneous(2, 2) == [(0, 2), (1, 1), (2, 0)]
    assert len(monomials_homogeneous(3, 4)) == math.comb(4 + 2, 2)
