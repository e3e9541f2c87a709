"""Sparse polynomials in t, z_1..z_m, zbar_1..z_m.

One class serves both halves of the package: the Heisenberg model uses the
full variable set (t, z, zbar) with QI coefficients, the sphere modules use
ambient polynomials on C^m (t-exponent always zero) with QI or complex
coefficients.  Coefficient types only need +, *, unary -, conjugation and
truthiness, so exact and floating data move through the same code paths.

A monomial key is (a, beta, gamma): the t-exponent and the z / zbar
exponent tuples.  Zero coefficients are never stored.
"""

from __future__ import annotations

from .scalars import QI, conj, qi


class Poly:
    __slots__ = ("m", "terms")

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
    def monomial(cls, m, a, beta, gamma, c=QI(1)):
        return cls(m, {(a, tuple(beta), tuple(gamma)): c})

    @classmethod
    def var_t(cls, m):
        zero = (0,) * m
        return cls(m, {(1, zero, zero): QI(1)})

    @classmethod
    def var_z(cls, m, j):
        zero = (0,) * m
        e = tuple(1 if k == j else 0 for k in range(m))
        return cls(m, {(0, e, zero): QI(1)})

    @classmethod
    def var_zbar(cls, m, j):
        zero = (0,) * m
        e = tuple(1 if k == j else 0 for k in range(m))
        return cls(m, {(0, zero, e): QI(1)})

    # -- ring operations ---------------------------------------------------

    def _check(self, other):
        if self.m != other.m:
            raise ValueError("polynomials over different variable counts")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            s = out.get(key)
            s = c if s is None else s + c
            if s:
                out[key] = s
            elif key in out:
                del out[key]
        return Poly(self.m, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly(self.m, {k: -c for k, c in self.terms.items()})

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
                c = c1 * c2
                s = out.get(key)
                s = c if s is None else s + c
                if s:
                    out[key] = s
                elif key in out:
                    del out[key]
        return Poly(self.m, out)

    __rmul__ = __mul__

    def scale(self, c):
        if not c:
            return Poly(self.m)
        return Poly(self.m, {k: v * c for k, v in self.terms.items()})

    def __pow__(self, k: int):
        out = Poly.const(self.m, QI(1))
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

    def conj_fn(self):
        """Complex conjugate as a function: swap z and zbar, conjugate coefficients."""
        return Poly(self.m, {(a, g, b): conj(c) for (a, b, g), c in self.terms.items()})

    def substitute(self, t_poly=None, z_polys=None, zbar_polys=None):
        """Substitute polynomials for variables (None keeps the variable)."""
        m = self.m
        t_poly = t_poly if t_poly is not None else Poly.var_t(m)
        z_polys = z_polys if z_polys is not None else [Poly.var_z(m, j) for j in range(m)]
        zbar_polys = zbar_polys if zbar_polys is not None else [Poly.var_zbar(m, j) for j in range(m)]
        out = Poly(m)
        pow_cache = {}

        def cached_pow(tag, p, k):
            if k == 0:
                return Poly.const(m, QI(1))
            got = pow_cache.get((tag, k))
            if got is None:
                got = p ** k
                pow_cache[(tag, k)] = got
            return got

        for (a, b, g), c in self.terms.items():
            term = cached_pow("t", t_poly, a)
            for j in range(m):
                if b[j]:
                    term = term * cached_pow(("z", j), z_polys[j], b[j])
                if g[j]:
                    term = term * cached_pow(("zb", j), zbar_polys[j], g[j])
            out = out + term.scale(c)
        return out

    # -- queries -------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.m == other.m and self.terms == other.terms

    def __hash__(self):
        raise TypeError("Poly is not hashable")

    def bidegree_components(self):
        """Split into bihomogeneous parts, keyed by (|beta|, |gamma|). Requires t-free."""
        out = {}
        for (a, b, g), c in self.terms.items():
            if a:
                raise ValueError("bidegree split requires a t-free polynomial")
            key = (sum(b), sum(g))
            out.setdefault(key, {})[(a, b, g)] = c
        return {key: Poly(self.m, terms) for key, terms in sorted(out.items())}

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

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for (a, b, g), c in sorted(self.terms.items()):
            mono = []
            if a:
                mono.append(f"t^{a}" if a > 1 else "t")
            for j, e in enumerate(b):
                if e:
                    mono.append(f"z{j+1}" + (f"^{e}" if e > 1 else ""))
            for j, e in enumerate(g):
                if e:
                    mono.append(f"zb{j+1}" + (f"^{e}" if e > 1 else ""))
            body = "*".join(mono) if mono else "1"
            bits.append(f"({c})*{body}")
        return " + ".join(bits)

    # -- serialization ---------------------------------------------------------

    def to_jsonable(self):
        items = []
        for (a, b, g), c in sorted(self.terms.items()):
            if not isinstance(c, QI):
                raise TypeError("only exact polynomials serialize")
            items.append({"t": a, "z": list(b), "zbar": list(g), "coeff": str(c)})
        return {"m": self.m, "terms": items}

    @classmethod
    def from_jsonable(cls, data):
        from .scalars import parse_qi

        terms = {}
        for item in data["terms"]:
            key = (item["t"], tuple(item["z"]), tuple(item["zbar"]))
            terms[key] = parse_qi(item["coeff"])
        return cls(data["m"], terms)
