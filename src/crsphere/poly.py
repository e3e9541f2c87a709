"""Sparse term algebras over the monomials t^a z^beta zbar^gamma.

A term key is (a, beta, gamma): the t-exponent and the z / zbar exponent
tuples.  Zero coefficients are never stored.  :class:`TermDict` holds the
linear structure shared by the package's two term algebras:

* :class:`Poly` (here): commutative polynomials in t, z_1..z_m,
  zbar_1..zbar_m.  The Heisenberg model uses the full variable set with QI
  coefficients, the sphere modules use ambient polynomials on C^m
  (t-exponent always zero) with QI or complex coefficients.
* ``heisenberg.LeftInvariantOp``: PBW words T^a Z^beta Zbar^gamma, composed
  by the commutation rule instead of by adding exponents.

Coefficient types only need +, *, unary -, conjugation and truthiness, so
exact and floating data move through the same code paths.

:func:`matched_pairing` is the package's one exact pairing: the sphere
inner product (``harmonics.inner_sphere``) and the Gaussian pairing of the
Heisenberg adjoint oracle (``heisenberg.gaussian_pairing``) differ only in
the weight they give a matched monomial.  It is a sum over f's terms of
g's :class:`PairingFunctional`, which ``harmonics.gram_schmidt_exact`` also
keeps for each finished basis element of a block.
``galerkin.pairing_matrix`` stays a separate, vectorized floating path over
whole coefficient arrays.
"""

from __future__ import annotations

from .errors import DimensionMismatchError
from .scalars import ONE, QI, ZERO, conj, parse_qi


def accumulate(out, key, c):
    """out[key] += c, keeping no zero coefficient."""
    s = out.get(key)
    s = c if s is None else s + c
    if s:
        out[key] = s
    elif key in out:
        del out[key]


class TermDict:
    """Sparse map (a, beta, gamma) -> coefficient over m complex variables."""

    __slots__ = ("m", "terms")
    dim_key = "m"  # the dimension's key in to_jsonable
    symbols = ("t", "z", "zb")  # repr names of the t, z and zbar factors

    def __init__(self, m: int, terms=None):
        self.m = m
        self.terms = {}
        if terms:
            for key, c in terms.items():
                if c:
                    self.terms[key] = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, m):
        return cls(m)

    @classmethod
    def const(cls, m, c):
        zero = (0,) * m
        return cls(m, {(0, zero, zero): c})

    @classmethod
    def monomial(cls, m, a, beta, gamma, c=ONE):
        return cls(m, {(a, tuple(beta), tuple(gamma)): c})

    @classmethod
    def var_t(cls, m):
        zero = (0,) * m
        return cls(m, {(1, zero, zero): ONE})

    @classmethod
    def var_z(cls, m, j):
        zero = (0,) * m
        e = tuple(1 if k == j else 0 for k in range(m))
        return cls(m, {(0, e, zero): ONE})

    @classmethod
    def var_zbar(cls, m, j):
        zero = (0,) * m
        e = tuple(1 if k == j else 0 for k in range(m))
        return cls(m, {(0, zero, e): ONE})

    # -- linear structure ----------------------------------------------------

    def _check(self, other):
        if self.m != other.m:
            raise DimensionMismatchError("operands over different dimensions")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            accumulate(out, key, c)
        return type(self)(self.m, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(self.m, {k: -c for k, c in self.terms.items()})

    def scale(self, c):
        if not c:
            return type(self)(self.m)
        return type(self)(self.m, {k: v * c for k, v in self.terms.items()})

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.m == other.m and self.terms == other.terms

    def __hash__(self):
        raise TypeError(f"{type(self).__name__} is not hashable")

    def __repr__(self):
        if not self.terms:
            return f"{type(self).__name__}(0)"
        t_sym, z_sym, zb_sym = self.symbols
        bits = []
        for (a, b, g), c in sorted(self.terms.items()):
            word = []
            if a:
                word.append(f"{t_sym}^{a}" if a > 1 else t_sym)
            for sym, exps in ((z_sym, b), (zb_sym, g)):
                for j, e in enumerate(exps):
                    if e:
                        word.append(f"{sym}{j+1}" + (f"^{e}" if e > 1 else ""))
            bits.append(f"({c})" + ("*" + "*".join(word) if word else ""))
        return " + ".join(bits)

    # -- serialization ---------------------------------------------------------

    def to_jsonable(self):
        items = []
        for (a, b, g), c in sorted(self.terms.items()):
            if not isinstance(c, QI):
                raise TypeError("only exact terms serialize")
            items.append({"t": a, "z": list(b), "zbar": list(g), "coeff": str(c)})
        return {self.dim_key: self.m, "terms": items}

    @classmethod
    def from_jsonable(cls, data, coeffs=None):
        """The inverse of to_jsonable.  A dict ``coeffs`` (string -> QI), shared
        across calls, parses each distinct coefficient string once."""
        coeffs = {} if coeffs is None else coeffs
        terms = {}
        for item in data["terms"]:
            text = item["coeff"]
            c = coeffs.get(text)
            if c is None:
                c = coeffs[text] = parse_qi(text)
            terms[(item["t"], tuple(item["z"]), tuple(item["zbar"]))] = c
        return cls(data[cls.dim_key], terms)


def _sector(beta, gamma):
    return tuple(x - y for x, y in zip(beta, gamma))


def sectors(f: TermDict):
    """The sectors beta - gamma of f's terms: a pairing of f with g is zero
    unless they share one (PairingFunctional)."""
    return {_sector(b, g) for _, b, g in f.terms}


class PairingFunctional:
    """The functional f -> <f, g> of a fixed g under a monomial weight.

    The f-term (a1, beta1, gamma1) times the conjugate of the g-term
    (a2, beta2, gamma2) has exponents (a1 + a2, beta1 + gamma2,
    gamma1 + beta2); they agree exactly when beta1 - gamma1 = beta2 - gamma2.
    So g's terms are bucketed by that sector, no product is formed, and the
    value at one key,

        phi(a1, beta1, gamma1) = sum conj(c2) weight(a1 + a2, beta1 + gamma2)

    over g's terms in the key's sector, is memoized: ``<f, g>`` is
    ``sum c1 phi(key)`` over f's terms.  ``weight(a, exps)`` returns a
    Fraction.  With exact (QI) g the values are QI, with floating g complex.
    """

    __slots__ = ("_sectors", "_weight", "_exact", "_memo")

    def __init__(self, g: TermDict, weight):
        self._weight = weight
        self._exact = all(isinstance(c, QI) for c in g.terms.values())
        self._sectors = {}
        for (a2, b2, g2), c2 in g.terms.items():
            self._sectors.setdefault(_sector(b2, g2), []).append((a2, g2, conj(c2)))
        self._memo = {}

    @property
    def sectors(self):
        """The sectors of g's terms; phi vanishes on an f with none of them."""
        return self._sectors.keys()

    def at(self, key):
        """phi(key): the pairing of the monomial key (coefficient 1) with g."""
        val = self._memo.get(key)
        if val is None:
            a1, b1, g1 = key
            val = ZERO if self._exact else 0j
            for a2, g2, c2 in self._sectors.get(_sector(b1, g1), ()):
                w = self._weight(a1 + a2, tuple(x + y for x, y in zip(b1, g2)))
                if w:
                    val = val + c2 * (w if self._exact else float(w))
            self._memo[key] = val
        return val

    def __call__(self, f: TermDict):
        """<f, g>: QI when every coefficient of f and g is QI, complex otherwise."""
        exact = self._exact and all(isinstance(c, QI) for c in f.terms.values())
        total = ZERO if exact else 0j
        for key, c1 in f.terms.items():
            val = self.at(key)
            if val:
                total = total + c1 * val
        return total


def matched_pairing(f: TermDict, g: TermDict, weight):
    """sum c1 conj(c2) weight(a1 + a2, beta1 + gamma2) over the terms of f conj(g)
    whose z and zbar exponents agree: ``PairingFunctional(g, weight)(f)``.

    The package's one pairing; see :class:`PairingFunctional` for the
    sector rule that keeps it product-free.
    """
    return PairingFunctional(g, weight)(f)


class Poly(TermDict):
    """Commutative polynomial in t, z_1..z_m, zbar_1..zbar_m."""

    __slots__ = ()

    # -- ring operations ---------------------------------------------------

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check(other)
        out = {}
        for (a1, b1, g1), c1 in self.terms.items():
            for (a2, b2, g2), c2 in other.terms.items():
                key = (
                    a1 + a2,
                    tuple(x + y for x, y in zip(b1, b2)),
                    tuple(x + y for x, y in zip(g1, g2)),
                )
                accumulate(out, key, c1 * c2)
        return Poly(self.m, out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        out = Poly.const(self.m, ONE)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- calculus ------------------------------------------------------------

    def diff_t(self):
        out = {}
        for (a, b, g), c in self.terms.items():
            if a:
                out[(a - 1, b, g)] = c * a
        return Poly(self.m, out)

    def diff_z(self, j):
        out = {}
        for (a, b, g), c in self.terms.items():
            if b[j]:
                nb = list(b)
                nb[j] -= 1
                out[(a, tuple(nb), g)] = c * b[j]
        return Poly(self.m, out)

    def diff_zbar(self, j):
        out = {}
        for (a, b, g), c in self.terms.items():
            if g[j]:
                ng = list(g)
                ng[j] -= 1
                out[(a, b, tuple(ng))] = c * g[j]
        return Poly(self.m, out)

    def times_var(self, var, j=0, c=ONE):
        """c * v * self for the variable v = t, z_j or zbar_j (var "t", "z", "zb").

        An exponent shift and one scalar product a term: the shifted keys
        stay distinct, so nothing accumulates.
        """
        out = {}
        for (a, b, g), v in self.terms.items():
            if var == "t":
                key = (a + 1, b, g)
            elif var == "z":
                key = (a, b[:j] + (b[j] + 1,) + b[j + 1:], g)
            else:
                key = (a, b, g[:j] + (g[j] + 1,) + g[j + 1:])
            out[key] = v * c
        return Poly(self.m, out)

    def conj_fn(self):
        """Complex conjugate as a function: swap z and zbar, conjugate coefficients."""
        return Poly(self.m, {(a, g, b): conj(c) for (a, b, g), c in self.terms.items()})

    def substitute(self, t_poly=None, z_polys=None, zbar_polys=None):
        """Substitute polynomials for variables (None keeps the variable)."""
        m = self.m
        t_poly = t_poly if t_poly is not None else Poly.var_t(m)
        z_polys = z_polys if z_polys is not None else [Poly.var_z(m, j) for j in range(m)]
        zbar_polys = zbar_polys if zbar_polys is not None else [Poly.var_zbar(m, j) for j in range(m)]
        out = {}
        pow_cache = {}

        def cached_pow(tag, p, k):
            got = pow_cache.get((tag, k))
            if got is None:
                got = p ** k
                pow_cache[(tag, k)] = got
            return got

        for (a, b, g), c in self.terms.items():
            # the powers of the exponents present; no product with the constant 1
            factors = [cached_pow("t", t_poly, a)] if a else []
            for j in range(m):
                if b[j]:
                    factors.append(cached_pow(("z", j), z_polys[j], b[j]))
                if g[j]:
                    factors.append(cached_pow(("zb", j), zbar_polys[j], g[j]))
            term = factors[0] if factors else Poly.const(m, ONE)
            for factor in factors[1:]:
                term = term * factor
            for key, v in term.terms.items():
                accumulate(out, key, v * c)
        return Poly(m, out)

    # -- queries -------------------------------------------------------------

    def map_coeff(self, fn):
        return Poly(self.m, {k: fn(c) for k, c in self.terms.items()})

    def to_float(self):
        return self.map_coeff(lambda c: complex(c) if isinstance(c, QI) else complex(c))

    def evaluate(self, tval, zvals):
        """Evaluate with zbar = conj(z). zvals may be numpy arrays."""
        total = 0
        for (a, b, g), c in self.terms.items():
            val = complex(c) if isinstance(c, QI) else c
            if a:
                val = val * tval**a
            for j in range(self.m):
                if b[j]:
                    val = val * zvals[j] ** b[j]
                if g[j]:
                    val = val * zvals[j].conjugate() ** g[j]
            total = total + val
        return total
