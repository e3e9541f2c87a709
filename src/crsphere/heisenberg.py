"""Heisenberg group model: exact group law and left-invariant operator algebra.

The group is R x C^n with

    (t, z) . (t', z') = (t + t' + 2 Im(z . conj z'), z + z'),

parabolic dilations delta_r(t, z) = (r^2 t, r z), and the left-invariant frame

    T = d/dt,   Z_a = d/dz^a + i zbar^a d/dt,   Zbar_a = conj(Z_a).

Operators are elements of the enveloping algebra in PBW normal form
T^a Z^beta Zbar^gamma (T-powers first, then Z's in index order, then Zbar's).
T is central, Z's commute among themselves, Zbar's likewise, so the single
rewriting rule is

    Zbar_b Z_a = Z_a Zbar_b + 2i delta_ab T,

the commutator [Z_a, Zbar_b] = -2i delta_ab T derived once from the frame
(see tests) and hard-coded here.

Model operators, with the Levi form normalized to 2*delta_ab:

    box_b  = -(1/2) sum_a Z_a Zbar_a        (Kohn Laplacian)
    delta_b = box_b + conj(box_b)           (sub-Laplacian)

which satisfy box_b = (1/2) delta_b + (i/2) n T exactly in the algebra.

LeftInvariantOp shares its term storage and linear structure with Poly
(poly.TermDict); apply and weighted_apply share one walk over each PBW
word.  The adjoint oracle's Gaussian pairing is poly.matched_pairing, the
package's one exact pairing, with the Gaussian monomial weight; only
galerkin.pairing_matrix, a vectorized floating path over whole monomial
index sets, computes a pairing of its own.

All arithmetic is exact; floating point appears nowhere in this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatchError
from .poly import Poly, TermDict, accumulate, matched_pairing
from .scalars import ONE, QI, qi

_I = QI(0, 1)
_MINUS_I = QI(0, -1)
_TWO_I = QI(0, 2)


# ---------------------------------------------------------------------------
# group layer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupElement:
    """Point (t, z) of the Heisenberg group, exact coordinates."""

    t: Fraction
    z: tuple

    def __post_init__(self):
        object.__setattr__(self, "t", Fraction(self.t))
        object.__setattr__(self, "z", tuple(qi(c) for c in self.z))

    @property
    def n(self):
        return len(self.z)

    @classmethod
    def identity(cls, n):
        return cls(Fraction(0), (QI(0),) * n)


@dataclass(frozen=True)
class Dilation:
    """Parabolic dilation delta_r, r a positive rational."""

    r: Fraction

    def __post_init__(self):
        object.__setattr__(self, "r", Fraction(self.r))
        if self.r <= 0:
            raise ValueError("dilation factor must be positive")


def group_mul(g: GroupElement, h: GroupElement) -> GroupElement:
    if g.n != h.n:
        raise DimensionMismatchError(f"group elements of dimension {g.n} and {h.n}")
    twist = Fraction(0)
    for a, b in zip(g.z, h.z):
        twist += 2 * (a * b.conjugate()).im
    return GroupElement(g.t + h.t + twist, tuple(a + b for a, b in zip(g.z, h.z)))


def group_inv(g: GroupElement) -> GroupElement:
    return GroupElement(-g.t, tuple(-c for c in g.z))


def dilate(d: Dilation, g: GroupElement) -> GroupElement:
    r = qi(d.r)
    return GroupElement(g.t * d.r * d.r, tuple(r * c for c in g.z))


def translate_poly(f: Poly, g: GroupElement) -> Poly:
    """f composed with left translation by g: (f . l_g)(h) = f(g h)."""
    n = f.m
    if g.n != n:
        raise DimensionMismatchError("polynomial and group element dimensions differ")
    # g.h has t-coordinate t0 + t + sum_a (i zbar0^a z^a - i z0^a zbar^a)
    t_sub = Poly.var_t(n) + Poly.const(n, qi(g.t))
    for a in range(n):
        t_sub = t_sub + Poly.var_z(n, a).scale(_I * g.z[a].conjugate())
        t_sub = t_sub + Poly.var_zbar(n, a).scale(-_I * g.z[a])
    z_subs = [Poly.var_z(n, a) + Poly.const(n, g.z[a]) for a in range(n)]
    zb_subs = [Poly.var_zbar(n, a) + Poly.const(n, g.z[a].conjugate()) for a in range(n)]
    return f.substitute(t_sub, z_subs, zb_subs)


def dilate_poly(f: Poly, d: Dilation) -> Poly:
    """f composed with delta_r: scale each monomial by r^(2a + |beta| + |gamma|)."""
    out = {}
    for (a, b, g), c in f.terms.items():
        w = 2 * a + sum(b) + sum(g)
        out[(a, b, g)] = c * qi(d.r**w)
    return Poly(f.m, out)


# ---------------------------------------------------------------------------
# left-invariant operators in PBW normal form
# ---------------------------------------------------------------------------


class LeftInvariantOp(TermDict):
    """Element of the enveloping algebra, stored in PBW normal form.

    terms maps (a, beta, gamma) -> QI coefficient, meaning the normally
    ordered word T^a Z^beta Zbar^gamma.  The linear structure is TermDict's;
    the dimension is n, the CR dimension of the model.
    """

    __slots__ = ()
    dim_key = "n"
    symbols = ("T", "Z", "Zb")

    @property
    def n(self):
        return self.m

    @classmethod
    def identity(cls, n):
        return cls.const(n, ONE)

    # the frame's names for the generators T, Z_a and Zbar_a
    t_gen = classmethod(TermDict.var_t.__func__)
    z_gen = classmethod(TermDict.var_z.__func__)
    zbar_gen = classmethod(TermDict.var_zbar.__func__)

    # -- normal-ordered multiplication ----------------------------------------

    def _rmul_t(self):
        return LeftInvariantOp(self.n, {(a + 1, b, g): c for (a, b, g), c in self.terms.items()})

    def _rmul_z(self, alpha):
        # T^a Z^beta Zbar^gamma Z_alpha
        #   = T^a Z^(beta+e) Zbar^gamma + 2i gamma_alpha T^(a+1) Z^beta Zbar^(gamma-e)
        out = {}
        for (a, b, g), c in self.terms.items():
            nb = list(b)
            nb[alpha] += 1
            accumulate(out, (a, tuple(nb), g), c)
            if g[alpha]:
                ng = list(g)
                ng[alpha] -= 1
                accumulate(out, (a + 1, b, tuple(ng)), c * _TWO_I * g[alpha])
        return LeftInvariantOp(self.n, out)

    def _rmul_zbar(self, alpha):
        out = {}
        for (a, b, g), c in self.terms.items():
            ng = list(g)
            ng[alpha] += 1
            accumulate(out, (a, b, tuple(ng)), c)
        return LeftInvariantOp(self.n, out)

    # -- operations of the module ----------------------------------------------

    def compose(self, other: "LeftInvariantOp") -> "LeftInvariantOp":
        """Operator product self . other (other acts first), PBW-normalized."""
        self._check(other)
        total = LeftInvariantOp.zero(self.n)
        for (a, b, g), c in other.terms.items():
            cur = self
            for _ in range(a):
                cur = cur._rmul_t()
            for alpha in range(self.n):
                for _ in range(b[alpha]):
                    cur = cur._rmul_z(alpha)
            for alpha in range(self.n):
                for _ in range(g[alpha]):
                    cur = cur._rmul_zbar(alpha)
            total = total + cur.scale(c)
        return total

    def _walk(self, f: Poly, on_t, on_z, on_zbar) -> Poly:
        """sum c * (T^a Z^beta Zbar^gamma)(f), given the generators' actions on f.

        The rightmost factors act first: Zbar^gamma from the last index,
        then Z^beta, then T^a.  on_t(f), on_z(f, a) and on_zbar(f, a) are
        the actions of T, Z_a and Zbar_a.
        """
        if f.m != self.n:
            raise DimensionMismatchError("operator and polynomial dimensions differ")
        n = self.n
        result = Poly.zero(n)
        for (a, b, g), c in self.terms.items():
            cur = f
            for alpha in range(n - 1, -1, -1):
                for _ in range(g[alpha]):
                    cur = on_zbar(cur, alpha)
            for alpha in range(n - 1, -1, -1):
                for _ in range(b[alpha]):
                    cur = on_z(cur, alpha)
            for _ in range(a):
                cur = on_t(cur)
            result = result + cur.scale(c)
        return result

    def apply(self, f: Poly) -> Poly:
        """Apply the differential operator to a polynomial, exactly.

        Z_a = d/dz_a + i zbar_a d/dt and Zbar_a = d/dzbar_a - i z_a d/dt:
        the d/dt part is an exponent shift with one scalar product a term.
        """
        return self._walk(
            f,
            Poly.diff_t,
            lambda cur, a: cur.diff_z(a) + cur.diff_t().times_var("zb", a, _I),
            lambda cur, a: cur.diff_zbar(a) + cur.diff_t().times_var("z", a, _MINUS_I),
        )

    def formal_adjoint(self) -> "LeftInvariantOp":
        """Formal adjoint for the Haar (Lebesgue) measure.

        Generators map as T* = -T, Z_a* = -Zbar_a, Zbar_a* = -Z_a, and the
        adjoint reverses products.  On a PBW word the reversed product is
        already normally ordered because T is central:
          (c T^a Z^beta Zbar^gamma)* = (-1)^(a+|beta|+|gamma|) conj(c)
                                        T^a Z^gamma Zbar^beta.
        """
        out = {}
        for (a, b, g), c in self.terms.items():
            sign = -1 if (a + sum(b) + sum(g)) % 2 else 1
            accumulate(out, (a, g, b), c.conjugate() * sign)
        return LeftInvariantOp(self.n, out)

    def homogeneity_degree(self):
        """Parabolic degree if homogeneous (deg T = 2, deg Z = deg Zbar = 1), else None."""
        degs = {2 * a + sum(b) + sum(g) for (a, b, g) in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None


# ---------------------------------------------------------------------------
# model operators
# ---------------------------------------------------------------------------


def box_b(n: int) -> LeftInvariantOp:
    """Kohn Laplacian on the model: -(1/2) sum_a Z_a Zbar_a.

    The normalization is pinned by the identity
    box_b = (1/2) delta_b + (i/2) n T together with positivity; the factor
    and ordering are forced by [Z_a, Zbar_b] = -2i delta_ab T.
    """
    out = LeftInvariantOp.zero(n)
    for a in range(n):
        out = out + LeftInvariantOp.z_gen(n, a).compose(LeftInvariantOp.zbar_gen(n, a))
    return out.scale(QI(Fraction(-1, 2)))


def box_b_bar(n: int) -> LeftInvariantOp:
    """Conjugate Kohn Laplacian: -(1/2) sum_a Zbar_a Z_a."""
    out = LeftInvariantOp.zero(n)
    for a in range(n):
        out = out + LeftInvariantOp.zbar_gen(n, a).compose(LeftInvariantOp.z_gen(n, a))
    return out.scale(QI(Fraction(-1, 2)))


def sublaplacian_model(n: int) -> LeftInvariantOp:
    """Sub-Laplacian delta_b = box_b + conj(box_b); positive, second order."""
    return box_b(n) + box_b_bar(n)


# ---------------------------------------------------------------------------
# exact exterior calculus for the contact form (Levi normalization check)
# ---------------------------------------------------------------------------

# One-forms are dicts basis -> Poly with basis keys ("t", 0), ("z", j), ("zb", j);
# two-forms are dicts of ordered basis pairs.  Just enough machinery to verify
# theta and its Levi form exactly.


def _frame_vector_fields(n):
    """Coefficient dicts of T, Z_a, Zbar_a in the coordinate frame."""
    t_field = {("t", 0): Poly.const(n, ONE)}
    z_fields = []
    zb_fields = []
    for a in range(n):
        z_fields.append(
            {("z", a): Poly.const(n, ONE), ("t", 0): Poly.var_zbar(n, a).scale(_I)}
        )
        zb_fields.append(
            {("zb", a): Poly.const(n, ONE), ("t", 0): Poly.var_z(n, a).scale(-_I)}
        )
    return t_field, z_fields, zb_fields


def contact_form(n):
    """theta = dt + i sum_a (z^a dzbar^a - zbar^a dz^a), as coefficient dict."""
    theta = {("t", 0): Poly.const(n, ONE)}
    for a in range(n):
        theta[("zb", a)] = Poly.var_z(n, a).scale(_I)
        theta[("z", a)] = Poly.var_zbar(n, a).scale(-_I)
    return theta


def _d_one_form(omega, n):
    """Exterior derivative: d(c dx) = sum_y (dc/dy) dy ^ dx."""
    basis = [("t", 0)] + [("z", j) for j in range(n)] + [("zb", j) for j in range(n)]

    def partial(c, var):
        kind, j = var
        if kind == "t":
            return c.diff_t()
        if kind == "z":
            return c.diff_z(j)
        return c.diff_zbar(j)

    two = {}
    for x, c in omega.items():
        for y in basis:
            dc = partial(c, y)
            if dc.is_zero():
                continue
            if y == x:
                continue
            key, sign = ((y, x), 1) if basis.index(y) < basis.index(x) else ((x, y), -1)
            cur = two.get(key, Poly.zero(n))
            cur = cur + (dc if sign == 1 else -dc)
            if cur.is_zero():
                two.pop(key, None)
            else:
                two[key] = cur
    return two


def _eval_one_form(omega, field, n):
    out = Poly.zero(n)
    for var, c in omega.items():
        v = field.get(var)
        if v is not None:
            out = out + c * v
    return out


def _eval_two_form(two, field1, field2, n):
    out = Poly.zero(n)
    for (x, y), c in two.items():
        v1x = field1.get(x, Poly.zero(n))
        v1y = field1.get(y, Poly.zero(n))
        v2x = field2.get(x, Poly.zero(n))
        v2y = field2.get(y, Poly.zero(n))
        out = out + c * (v1x * v2y - v1y * v2x)
    return out


def levi_matrix(n):
    """Exact Levi form matrix -i dtheta(Z_a, Zbar_b); equals 2 delta_ab."""
    theta = contact_form(n)
    dtheta = _d_one_form(theta, n)
    _, z_fields, zb_fields = _frame_vector_fields(n)
    mat = []
    for a in range(n):
        row = []
        for b in range(n):
            val = _eval_two_form(dtheta, z_fields[a], zb_fields[b], n).scale(-_I)
            row.append(val)
        mat.append(row)
    return mat


def weighted_apply(op: LeftInvariantOp, p: Poly) -> Poly:
    """Apply op to p * exp(-t^2 - |z|^2), returning the polynomial factor.

    Used by the adjoint oracle: the Gaussian factor makes integration by
    parts exact on polynomials.
    """

    def gen_t(f):
        return f.diff_t() + f.times_var("t", c=-2)

    def gen_z(f, a):
        df = f.diff_z(a) + f.times_var("zb", a, -1)
        return df + gen_t(f).times_var("zb", a, _I)

    def gen_zbar(f, a):
        df = f.diff_zbar(a) + f.times_var("z", a, -1)
        return df + gen_t(f).times_var("z", a, _MINUS_I)

    return op._walk(p, gen_t, gen_z, gen_zbar)


def _gaussian_weight(a, exps):
    """<t^a z^e zbar^e> against exp(-2 t^2 - 2 |z|^2), Gaussian volume divided out.

    t^{2k} gives (2k-1)!!/4^k = (2k)!/(k! 8^k), odd powers of t give 0, and
    z^j zbar^j gives j!/2^j per coordinate.
    """
    if a % 2:
        return Fraction(0)
    num, den = math.factorial(a), math.factorial(a // 2) * 8 ** (a // 2)
    for e in exps:
        num *= math.factorial(e)
        den *= 2**e
    return Fraction(num, den)


def gaussian_pairing(p: Poly, q: Poly) -> QI:
    """Exact pairing <p w, q w> with w = exp(-t^2 - |z|^2), normalized.

    The one exponent-matched pairing (poly.matched_pairing) with the
    Gaussian monomial weight.
    """
    return matched_pairing(p, q, _gaussian_weight)


# ---------------------------------------------------------------------------
# model identity suite
# ---------------------------------------------------------------------------


def _random_rational(rng, den=12, num=9):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _random_group_element(rng, n):
    return GroupElement(
        _random_rational(rng),
        tuple(QI(_random_rational(rng), _random_rational(rng)) for _ in range(n)),
    )


def _random_poly(rng, n, max_monomials=4, max_exp=2):
    terms = {}
    for _ in range(max_monomials):
        key = (
            rng.randint(0, max_exp),
            tuple(rng.randint(0, max_exp) for _ in range(n)),
            tuple(rng.randint(0, max_exp) for _ in range(n)),
        )
        terms[key] = QI(_random_rational(rng), _random_rational(rng))
    return Poly(n, terms)


def _random_op(rng, n, max_terms=3):
    return LeftInvariantOp(n, _random_poly(rng, n, max_terms, 1).terms)


def _spanning_monomials(n, weighted_degree):
    """All monomials of parabolic degree <= weighted_degree (deg t = 2)."""
    out = []

    def exps(m, budget):
        if m == 0:
            yield ()
            return
        for e in range(budget + 1):
            for rest in exps(m - 1, budget - e):
                yield (e,) + rest

    for a in range(weighted_degree // 2 + 1):
        rem = weighted_degree - 2 * a
        for b in exps(n, rem):
            left = rem - sum(b)
            for g in exps(n, left):
                out.append(Poly.monomial(n, a, b, g))
    return out


# random draws per sampled identity, and the weighted degree of the monomials
# the commutation relation and PBW soundness are checked on
_SUITE_SAMPLES = 4
_PBW_DEGREE = 3


def model_identity_suite(n, seed=0):
    """Exact verification of the model identities; returns per-check records.

    Covers the group axioms, left invariance of the frame, the commutation
    relation, centrality of the Reeb field, the adjoint rules (including the
    Gaussian-pairing oracle), the Levi normalization, the Kohn-Laplacian
    identity, PBW soundness, and parabolic homogeneity.
    """
    import random

    rng = random.Random(seed)
    records = []

    def record(name, passed, detail=""):
        records.append({"name": name, "passed": bool(passed), "detail": detail})

    # group axioms
    ok = True
    for _ in range(_SUITE_SAMPLES):
        g, h, k = (_random_group_element(rng, n) for _ in range(3))
        e = GroupElement.identity(n)
        ok &= group_mul(group_mul(g, h), k) == group_mul(g, group_mul(h, k))
        ok &= group_mul(e, g) == g and group_mul(g, e) == g
        ok &= group_mul(g, group_inv(g)) == e
        ok &= group_inv(group_inv(g)) == g
    record("group_axioms", ok, f"{_SUITE_SAMPLES} random rational triples")

    # dilations: semigroup law and group homomorphism
    ok = True
    for _ in range(_SUITE_SAMPLES):
        r = Dilation(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        s = Dilation(Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        g, h = _random_group_element(rng, n), _random_group_element(rng, n)
        ok &= dilate(r, dilate(s, g)) == dilate(Dilation(r.r * s.r), g)
        ok &= dilate(r, group_mul(g, h)) == group_mul(dilate(r, g), dilate(r, h))
    record("dilation_homomorphism", ok)

    gens = [LeftInvariantOp.t_gen(n)]
    gens += [LeftInvariantOp.z_gen(n, a) for a in range(n)]
    gens += [LeftInvariantOp.zbar_gen(n, a) for a in range(n)]

    # left invariance of the frame; low-degree polynomials keep the exact
    # substitution cheap without weakening the (linear in f) identity
    ok = True
    for _ in range(max(2, _SUITE_SAMPLES // (1 if n < 3 else 2))):
        g = _random_group_element(rng, n)
        f = _random_poly(rng, n, 3, 1) + Poly.var_t(n) * Poly.var_z(n, 0)
        fg = translate_poly(f, g)
        for L in gens:
            ok &= L.apply(fg) == translate_poly(L.apply(f), g)
    record("left_invariance", ok, "generators on random polynomials")

    # commutation relation, by brute force on spanning monomials and in the algebra
    span = _spanning_monomials(n, _PBW_DEGREE)
    T = LeftInvariantOp.t_gen(n)
    ok = True
    for a in range(n):
        for b in range(n):
            Za = LeftInvariantOp.z_gen(n, a)
            Zb = LeftInvariantOp.zbar_gen(n, b)
            expect = T.scale(QI(0, -2)) if a == b else LeftInvariantOp.zero(n)
            ok &= (Za.compose(Zb) - Zb.compose(Za)) == expect
            for f in span:
                lhs = Za.apply(Zb.apply(f)) - Zb.apply(Za.apply(f))
                ok &= lhs == expect.apply(f)
    record("commutation_relation", ok, "[Z_a, Zbar_b] = -2i delta_ab T")

    # centrality of the Reeb field
    ok = True
    test_ops = gens + [sublaplacian_model(n), box_b(n), _random_op(rng, n)]
    for L in test_ops:
        ok &= T.compose(L) == L.compose(T)
    record("reeb_centrality", ok, "T commutes with every left-invariant operator")

    # adjoint rules with the Gaussian-pairing oracle
    ok = T.formal_adjoint() == T.scale(QI(-1))
    for a in range(n):
        ok &= LeftInvariantOp.z_gen(n, a).formal_adjoint() == LeftInvariantOp.zbar_gen(n, a).scale(QI(-1))
    ok &= sublaplacian_model(n).formal_adjoint() == sublaplacian_model(n)
    for _ in range(_SUITE_SAMPLES):
        L1, L2 = _random_op(rng, n), _random_op(rng, n)
        ok &= L1.formal_adjoint().formal_adjoint() == L1
        ok &= L1.compose(L2).formal_adjoint() == L2.formal_adjoint().compose(L1.formal_adjoint())
        f, g = _random_poly(rng, n, 3, 1), _random_poly(rng, n, 3, 1)
        lhs = gaussian_pairing(weighted_apply(L1, f), g)
        rhs = gaussian_pairing(f, weighted_apply(L1.formal_adjoint(), g))
        ok &= lhs == rhs
    record("adjoint_rules", ok, "generator rules, involution, pairing oracle")

    # Levi normalization and contact frame checks
    M = levi_matrix(n)
    ok = all(
        M[a][b] == (Poly.const(n, QI(2)) if a == b else Poly.zero(n))
        for a in range(n)
        for b in range(n)
    )
    checks = contact_frame_checks(n)
    ok &= checks["theta_of_T_minus_one"].is_zero()
    ok &= all(p.is_zero() for p in checks["theta_of_Z"])
    ok &= all(p.is_zero() for p in checks["reeb_contraction"])
    record("levi_normalization", ok, "Levi form is 2 delta_ab; theta(T)=1; T int dtheta = 0")

    # Kohn-Laplacian identity
    lhs = sublaplacian_model(n).scale(QI(Fraction(1, 2))) + T.scale(QI(0, Fraction(n, 2)))
    record("kohn_identity", lhs == box_b(n), "box_b = delta_b/2 + (i/2) n T")

    # PBW soundness on a spanning set
    ok = True
    pbw_ops = gens + [box_b(n), _random_op(rng, n)]
    applied = [[L.apply(f) for f in span] for L in pbw_ops]
    for i, L1 in enumerate(pbw_ops):
        for L2, L2_span in zip(pbw_ops[i:], applied[i:]):
            C = L1.compose(L2)
            for f, L2f in zip(span, L2_span):
                ok &= C.apply(f) == L1.apply(L2f)
    record("pbw_soundness", ok, f"operator pairs on monomials of weighted degree <= {_PBW_DEGREE}")

    # homogeneity grading and the dilation property
    ok = LeftInvariantOp.z_gen(n, 0).homogeneity_degree() == 1
    ok &= T.homogeneity_degree() == 2
    ok &= sublaplacian_model(n).homogeneity_degree() == 2
    ok &= (sublaplacian_model(n) + LeftInvariantOp.z_gen(n, 0)).homogeneity_degree() is None
    for L in [T, LeftInvariantOp.z_gen(n, 0), sublaplacian_model(n)]:
        m = L.homogeneity_degree()
        for _ in range(2):
            r = Dilation(Fraction(rng.randint(1, 7), rng.randint(1, 7)))
            f = _random_poly(rng, n, 3, 1)
            lhs = L.apply(dilate_poly(f, r))
            rhs = dilate_poly(L.apply(f), r).scale(qi(r.r**m))
            ok &= lhs == rhs
    record("homogeneity", ok, "grading and the dilation covariance")

    return records


def contact_frame_checks(n):
    """Exact checks: theta(T) = 1, theta(Z_a) = 0, T interior product dtheta = 0."""
    theta = contact_form(n)
    dtheta = _d_one_form(theta, n)
    t_field, z_fields, _ = _frame_vector_fields(n)
    pairing_t = _eval_one_form(theta, t_field, n) - Poly.const(n, ONE)
    pairings_z = [_eval_one_form(theta, zf, n) for zf in z_fields]
    # T interior product dtheta evaluated against every coordinate field
    basis = [("t", 0)] + [("z", j) for j in range(n)] + [("zb", j) for j in range(n)]
    contractions = []
    for var in basis:
        probe = {var: Poly.const(n, ONE)}
        contractions.append(_eval_two_form(dtheta, t_field, probe, n))
    return {
        "theta_of_T_minus_one": pairing_t,
        "theta_of_Z": pairings_z,
        "reeb_contraction": contractions,
    }
