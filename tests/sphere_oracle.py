"""Exact sphere integrals and harmonic decomposition of ambient polynomials: a test oracle.

The basis build of crsphere.harmonics needs none of this: the tests hold
the basis and the one exact pairing (inner_sphere) against it.
sphere_integral integrates a polynomial term by term;
decompose_bihomogeneous writes a bidegree-(a, b) polynomial as
sum_k |z|^{2k} h_k with h_k harmonic, and expand_in_basis reads the
components of a restriction to the sphere in the basis.
"""

from fractions import Fraction

from crsphere.errors import ConfigError
from crsphere.harmonics import HarmonicBasis, _integral_equal_exponents, inner_sphere
from crsphere.poly import Poly
from crsphere.scalars import QI, qi


def integral_monomial(n: int, beta: tuple, gamma: tuple) -> Fraction:
    """Exact normalized average of z^beta zbar^gamma over S^{2n+1}."""
    if beta != gamma:
        return Fraction(0)
    return _integral_equal_exponents(n, tuple(beta))


def sphere_integral(f: Poly, n: int):
    """Exact (QI) or floating integral of an ambient polynomial over the sphere.

    Returns QI iff every coefficient is exact, complex otherwise.
    """
    exact = all(isinstance(c, QI) for c in f.terms.values())
    total = QI(0) if exact else 0j
    for (a, b, g), c in f.terms.items():
        if a:
            raise ValueError("sphere integrand must be t-free")
        if b == g:
            w = _integral_equal_exponents(n, tuple(b))
            total = total + (c * qi(w) if exact else complex(c) * float(w))
    return total


def amb_laplacian(f: Poly) -> Poly:
    """Ambient Laplacian sum_j d/dz_j d/dzbar_j (the 1/4 factor is immaterial)."""
    out = Poly.zero(f.m)
    for j in range(f.m):
        out = out + f.diff_z(j).diff_zbar(j)
    return out


def bidegree_components(f: Poly):
    """Split f into bihomogeneous parts, keyed by (|beta|, |gamma|). Requires t-free."""
    out = {}
    for (a, b, g), c in f.terms.items():
        if a:
            raise ValueError("bidegree split requires a t-free polynomial")
        key = (sum(b), sum(g))
        out.setdefault(key, {})[(a, b, g)] = c
    return {key: Poly(f.m, terms) for key, terms in sorted(out.items())}


def _norm_poly(m):
    out = Poly.zero(m)
    for j in range(m):
        out = out + Poly.var_z(m, j) * Poly.var_zbar(m, j)
    return out


def _scalar_like(poly, frac: Fraction):
    for c in poly.terms.values():
        if isinstance(c, QI):
            return qi(frac)
        return complex(float(frac))
    return qi(frac)


def decompose_bihomogeneous(g: Poly, m: int, a: int, b: int):
    """Write a bidegree-(a, b) polynomial as sum_k |z|^{2k} h_k, h_k harmonic.

    Returns {k: h_k}.  Uses Delta(|z|^{2k} h) = k (m + deg h + k - 1) |z|^{2k-2} h
    for harmonic h, so the expansion of Delta g determines h_k for k >= 1 and
    h_0 comes out by subtraction.
    """
    if g.is_zero():
        return {}
    if a == 0 or b == 0:
        return {0: g}
    lap = amb_laplacian(g)
    inner = decompose_bihomogeneous(lap, m, a - 1, b - 1)
    r2 = _norm_poly(m)
    parts = {}
    remainder = g
    for j, w in inner.items():
        k = j + 1
        c = Fraction(k * (m + a + b - k - 1))
        h = w.scale(_scalar_like(w, Fraction(1) / c))
        parts[k] = h
        remainder = remainder - (r2**k) * h
    if not remainder.is_zero():
        parts[0] = remainder
    return parts


def sphere_reduce(f: Poly):
    """Harmonic components of the sphere restriction of f.

    On the sphere |z|^2 = 1, so every |z|^{2k} h_k contributes h_k to the
    block of its own bidegree.  Returns {(p, q): harmonic poly}.
    """
    m = f.m
    out = {}
    for (a, b), comp in bidegree_components(f).items():
        for k, h in decompose_bihomogeneous(comp, m, a, b).items():
            key = (a - k, b - k)
            cur = out.get(key)
            out[key] = h if cur is None else cur + h
    return {k: v for k, v in out.items() if not v.is_zero()}


def expand_in_basis(f: Poly, basis: HarmonicBasis, drop_excess=True):
    """Exact expansion data of f over the basis.

    Returns {(p, q): [coefficient of the unnormalized element v_i]} where the
    coefficient is <h, v_i> / norm2_i; the normalized coefficient is that
    times sqrt(norm2_i).  Blocks beyond the truncation are dropped when
    drop_excess, else reported as an error.
    """
    n = basis.n
    comps = sphere_reduce(f)
    out = {}
    for (p, q), h in comps.items():
        if (p, q) not in basis.blocks:
            if drop_excess:
                continue
            raise ConfigError(f"component ({p},{q}) beyond truncation N={basis.N}")
        coeffs = []
        for el in basis.blocks[(p, q)]:
            val = inner_sphere(h, el.poly, n)
            coeffs.append(val / qi(el.norm2) if isinstance(val, QI) else val / float(el.norm2))
        out[(p, q)] = coeffs
    return out
