"""The frame oracle: honest ambient differential operators on basis polynomials.

The eigentables of crsphere.spectral are closed forms.  This oracle applies
the ambient operators

    iT f     = -2 sum_j (z_j d_j - zbar_j dbar_j) f
    box_b f  = -2 sum_{j<k} Z_jk (Zbar_jk f),  Z_jk = zbar_k d_j - zbar_j d_k

to the basis polynomials in exact arithmetic, so the tables are never
trusted on their own (certify_eigentables).
"""

from crsphere.harmonics import HarmonicBasis
from crsphere.poly import Poly
from crsphere.scalars import QI, qi
from crsphere.spectral import reeb_t, sublaplacian


def _first_order(f: Poly, z_coeffs, zbar_coeffs) -> Poly:
    out = Poly.zero(f.m)
    for j, c in z_coeffs:
        out = out + c * f.diff_z(j)
    for j, c in zbar_coeffs:
        out = out + c * f.diff_zbar(j)
    return out


def apply_reeb_it(f: Poly) -> Poly:
    """iT f = -2 sum_j (z_j d_j - zbar_j dbar_j) f."""
    m = f.m
    z_coeffs = [(j, Poly.var_z(m, j).scale(QI(-2))) for j in range(m)]
    zb_coeffs = [(j, Poly.var_zbar(m, j).scale(QI(2))) for j in range(m)]
    return _first_order(f, z_coeffs, zb_coeffs)


def _apply_tangent(f: Poly, j, k) -> Poly:
    """Z_jk f = (zbar_k d_j - zbar_j d_k) f."""
    m = f.m
    return _first_order(
        f, [(j, Poly.var_zbar(m, k)), (k, Poly.var_zbar(m, j).scale(QI(-1)))], []
    )


def _apply_tangent_bar(f: Poly, j, k) -> Poly:
    m = f.m
    return _first_order(
        f, [], [(j, Poly.var_z(m, k)), (k, Poly.var_z(m, j).scale(QI(-1)))]
    )


def apply_kohn(f: Poly) -> Poly:
    """box_b f = -2 sum_{j<k} Z_jk (Zbar_jk f)."""
    m = f.m
    out = Poly.zero(m)
    for j in range(m):
        for k in range(j + 1, m):
            out = out + _apply_tangent(_apply_tangent_bar(f, j, k), j, k)
    return out.scale(QI(-2))


def apply_kohn_bar(f: Poly) -> Poly:
    m = f.m
    out = Poly.zero(m)
    for j in range(m):
        for k in range(j + 1, m):
            out = out + _apply_tangent_bar(_apply_tangent(f, j, k), j, k)
    return out.scale(QI(-2))


def apply_sublaplacian(f: Poly) -> Poly:
    return apply_kohn(f) + apply_kohn_bar(f)


def certify_eigentables(basis: HarmonicBasis):
    """Frame-oracle certification: the ambient operators act on every basis
    polynomial as multiplication by the tabulated eigenvalue, exactly.

    Returns a list of failure records; empty means certified.
    """
    it_table = reeb_t(basis)
    db_table = sublaplacian(basis)
    failures = []
    for (p, q) in basis.block_order:
        lam_it = qi(it_table.value(p, q))
        lam_db = qi(db_table.value(p, q))
        for i, el in enumerate(basis.blocks[(p, q)]):
            if apply_reeb_it(el.poly) != el.poly.scale(lam_it):
                failures.append(("iT", p, q, i))
            if apply_sublaplacian(el.poly) != el.poly.scale(lam_db):
                failures.append(("delta_b", p, q, i))
    return failures
