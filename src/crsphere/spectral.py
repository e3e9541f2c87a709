"""Eigenvalue tables and spectral functions on the truncated sphere model.

Conventions (pinned so the sphere matches the Heisenberg model):
the contact form is scaled so the Reeb field is T = 2i sum_j (z_j d_j -
zbar_j dbar_j) and the Levi form of the adapted frame is 2*delta.  On the
bigraded block H_{p,q} the resulting exact tables are

    iT       -> 2 (q - p)
    delta_b  -> 4 p q + 2 n (p + q)
    L_mu     -> 2 p q + n (p + q) + mu (q - p)
    P        -> prod_{k=0..n} L_{n-2k}          (order 2n + 2)

with L_n the Kohn Laplacian (kills q = 0) and L_{-n} its conjugate.  The
tests certify the tables against a frame oracle that applies the ambient
differential operators to the basis polynomials in exact arithmetic
(tests/frame_oracle.py), so the closed forms are never trusted on their own.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError, DimensionMismatchError, NumericalError
from .harmonics import HarmonicBasis, dim_hpq
from .poly import Poly
from .scalars import QI, qi


def _trunc(basis_or_pair):
    """Accept a HarmonicBasis or anything with .n and .N."""
    return basis_or_pair.n, basis_or_pair.N


@dataclass(frozen=True)
class Truncation:
    n: int
    N: int


# ---------------------------------------------------------------------------
# diagonal operators
# ---------------------------------------------------------------------------


class DiagonalOperator:
    """Operator diagonal in the (p, q) decomposition: a table of eigenvalues.

    Values are exact Fractions in exact mode or floats otherwise; the
    order_tag is the claimed parabolic (Heisenberg) order.
    """

    __slots__ = ("n", "N", "table", "order_tag", "label")

    def __init__(self, n, N, table, order_tag=None, label=""):
        self.n = n
        self.N = N
        self.table = table
        self.order_tag = order_tag
        self.label = label

    @classmethod
    def from_fn(cls, n, N, fn, order_tag=None, label=""):
        table = {}
        for d in range(N + 1):
            for p in range(d + 1):
                table[(p, d - p)] = fn(p, d - p)
        return cls(n, N, table, order_tag, label)

    @classmethod
    def identity(cls, n, N):
        return cls.from_fn(n, N, lambda p, q: Fraction(1), order_tag=0, label="I")

    def value(self, p, q):
        return self.table[(p, q)]

    def blocks(self):
        return sorted(self.table, key=lambda pq: (pq[0] + pq[1], pq[0]))

    def _check(self, other):
        if (self.n, self.N) != (other.n, other.N):
            raise DimensionMismatchError("diagonal operators on different truncations")

    def compose(self, other, label=""):
        self._check(other)
        tag = None
        if self.order_tag is not None and other.order_tag is not None:
            tag = self.order_tag + other.order_tag
        table = {k: self.table[k] * other.table[k] for k in self.table}
        return DiagonalOperator(self.n, self.N, table, tag, label or f"{self.label}*{other.label}")

    def __add__(self, other):
        self._check(other)
        tag = None
        if self.order_tag is not None and other.order_tag is not None:
            tag = max(self.order_tag, other.order_tag)
        table = {k: self.table[k] + other.table[k] for k in self.table}
        return DiagonalOperator(self.n, self.N, table, tag, f"{self.label}+{other.label}")

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c, label=""):
        return DiagonalOperator(
            self.n, self.N, {k: v * c for k, v in self.table.items()}, self.order_tag, label or self.label
        )

    def partial_inverse(self, order_tag=None, label=""):
        """Reciprocal off the kernel, zero on it."""

        def inv(v):
            if not v:
                return Fraction(0) if isinstance(v, Fraction) else 0.0
            return Fraction(1) / v if isinstance(v, Fraction) else 1.0 / v

        tag = order_tag
        if tag is None and self.order_tag is not None:
            tag = -self.order_tag
        return DiagonalOperator(
            self.n, self.N, {k: inv(v) for k, v in self.table.items()}, tag, label or f"pinv({self.label})"
        )

    def is_zero(self):
        return all(not v for v in self.table.values())

    def equals(self, other):
        self._check(other)
        return all(self.table[k] == other.table[k] for k in self.table)

    @property
    def is_real(self):
        return all(not isinstance(v, complex) or abs(v.imag) == 0 for v in self.table.values())

    def nonzero_blocks(self):
        return [k for k in self.blocks() if self.table[k]]

    def rank(self):
        """Dimension of the range on the truncation (sum of nonzero block dims)."""
        return sum(dim_hpq(self.n, p, q) for (p, q) in self.nonzero_blocks())

    def sup_norm(self):
        return max((abs(v) for v in self.table.values()), default=Fraction(0))

    def to_diag_vector(self, basis: HarmonicBasis):
        if (basis.n, basis.N) != (self.n, self.N):
            raise DimensionMismatchError("basis truncation differs from table")
        out = np.zeros(basis.total_dim, dtype=float)
        for p, q, _, g in basis.index_blocks():
            out[g] = float(self.table[(p, q)])
        return out

    def __repr__(self):
        return f"DiagonalOperator({self.label or 'table'}, n={self.n}, N={self.N}, order={self.order_tag})"


# ---------------------------------------------------------------------------
# the tables
# ---------------------------------------------------------------------------


def reeb_t(basis) -> DiagonalOperator:
    """Table of sqrt(-1) T: 2 (q - p)."""
    n, N = _trunc(basis)
    return DiagonalOperator.from_fn(n, N, lambda p, q: Fraction(2 * (q - p)), order_tag=2, label="iT")


def sublaplacian(basis) -> DiagonalOperator:
    """Table of delta_b: 4 p q + 2 n (p + q)."""
    n, N = _trunc(basis)
    return DiagonalOperator.from_fn(
        n, N, lambda p, q: Fraction(4 * p * q + 2 * n * (p + q)), order_tag=2, label="delta_b"
    )


def l_mu(basis, mu) -> DiagonalOperator:
    """L_mu = (1/2) delta_b + (i/2) mu T: table 2pq + n(p+q) + mu(q-p)."""
    n, N = _trunc(basis)
    mu = Fraction(mu) if not isinstance(mu, float) else mu
    return DiagonalOperator.from_fn(
        n, N, lambda p, q: 2 * p * q + n * (p + q) + mu * (q - p), order_tag=2, label=f"L_{mu}"
    )


def critical_gjms(basis) -> DiagonalOperator:
    """P as the product L_{-n} L_{-n+2} ... L_{n-2} L_n; order 2n + 2.

    Kernel is exactly the pluriharmonic blocks p q = 0: the L_n factor kills
    q = 0, the L_{-n} factor kills p = 0, and every factor is positive when
    p, q >= 1.
    """
    n, N = _trunc(basis)

    def val(p, q):
        out = Fraction(1)
        for k in range(n + 1):
            mu = n - 2 * k
            out *= 2 * p * q + n * (p + q) + mu * (q - p)
        return out

    return DiagonalOperator.from_fn(n, N, val, order_tag=2 * n + 2, label="P")


def gjms_diag_vector(basis):
    """P_d, critical_gjms as float64; NumericalError if some P is not a float64 (n >= 12)."""
    P = critical_gjms(basis)
    if inexact := sorted(b for b, v in P.table.items() if Fraction(float(v)) != v):
        raise NumericalError(f"P is not exact in float64 on the blocks {inexact[:4]}")
    return P.to_diag_vector(basis)


def szego(basis) -> DiagonalOperator:
    """Orthogonal projection onto Ker box_b (the CR holomorphic blocks q = 0)."""
    n, N = _trunc(basis)
    return DiagonalOperator.from_fn(
        n, N, lambda p, q: Fraction(1 if q == 0 else 0), order_tag=0, label="S"
    )


def szego_bar(basis) -> DiagonalOperator:
    n, N = _trunc(basis)
    return DiagonalOperator.from_fn(
        n, N, lambda p, q: Fraction(1 if p == 0 else 0), order_tag=0, label="Sbar"
    )


def pluriharmonic_proj(basis) -> DiagonalOperator:
    """Projection onto the pluriharmonic blocks p q = 0; equals S + Sbar - S Sbar."""
    n, N = _trunc(basis)
    return DiagonalOperator.from_fn(
        n, N, lambda p, q: Fraction(1 if p * q == 0 else 0), order_tag=0, label="pi"
    )


# ---------------------------------------------------------------------------
# spectral functions
# ---------------------------------------------------------------------------


class SpectralFunction:
    """Truncated function given by coefficients over the normalized basis.

    Coefficients are QI (exact) or complex (floating); they refer to the
    normalized elements e_i = v_i / sqrt(norm2_i), so inner products between
    spectral functions are exact sums of coefficient products.
    """

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis: HarmonicBasis, coeffs=None):
        self.basis = basis
        self.coeffs = {}
        if coeffs:
            for key, vals in coeffs.items():
                if any(v for v in vals):
                    self.coeffs[key] = list(vals)

    @classmethod
    def zero(cls, basis):
        return cls(basis)

    @classmethod
    def from_terms(cls, basis, terms):
        """terms: iterable of (p, q, index, coefficient)."""
        coeffs = {}
        for p, q, i, c in terms:
            if (p, q) not in basis.blocks:
                raise ConfigError(f"block ({p},{q}) beyond truncation")
            if not 0 <= i < len(basis.blocks[(p, q)]):
                raise ConfigError(f"index {i} out of range for block ({p},{q})")
            cur = coeffs.setdefault((p, q), [_zero_like(c)] * len(basis.blocks[(p, q)]))
            cur[i] = cur[i] + c
        return cls(basis, coeffs)

    @property
    def is_exact(self):
        return all(isinstance(v, QI) for vals in self.coeffs.values() for v in vals)

    def __add__(self, other):
        if self.basis is not other.basis and (self.basis.n, self.basis.N) != (other.basis.n, other.basis.N):
            raise DimensionMismatchError("spectral functions over different truncations")
        out = {k: list(v) for k, v in self.coeffs.items()}
        for k, vals in other.coeffs.items():
            if k in out:
                out[k] = [_mix_add(a, b) for a, b in zip(out[k], vals)]
            else:
                out[k] = list(vals)
        return SpectralFunction(self.basis, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return SpectralFunction(
            self.basis, {k: [_mix_mul(v, c) for v in vals] for k, vals in self.coeffs.items()}
        )

    def apply_diagonal(self, D: DiagonalOperator):
        out = {}
        for k, vals in self.coeffs.items():
            lam = D.table[k]
            out[k] = [_mix_mul(v, lam) for v in vals]
        return SpectralFunction(self.basis, out)

    def inner(self, other):
        """<self, other> in L2; exact when both sides are exact."""
        total = QI(0) if (self.is_exact and other.is_exact) else 0j
        for k, vals in self.coeffs.items():
            ovals = other.coeffs.get(k)
            if not ovals:
                continue
            for a, b in zip(vals, ovals):
                if isinstance(total, QI):
                    total = total + a * b.conjugate()
                else:
                    total = total + complex(a) * complex(b).conjugate()
        return total

    def norm2(self):
        return self.inner(self)

    def norm(self):
        v = self.norm2()
        return math.sqrt(float(v.re)) if isinstance(v, QI) else math.sqrt(abs(v))

    def conj(self):
        out = {}
        for (p, q), vals in self.coeffs.items():
            out[(q, p)] = [v.conjugate() if isinstance(v, QI) else complex(v).conjugate() for v in vals]
        return SpectralFunction(self.basis, out)

    def is_real(self, tol=0.0):
        diff = self - self.conj()
        if diff.is_exact:
            return all(not v for vals in diff.coeffs.values() for v in vals)
        return diff.norm() <= tol

    def realized(self):
        """(f + conj f)/2: the real part as a spectral function."""
        s = self + self.conj()
        if s.is_exact:
            return s.scale(QI(Fraction(1, 2)))
        return s.scale(0.5)

    def to_vector(self):
        out = np.zeros(self.basis.total_dim, dtype=complex)
        for (p, q), vals in self.coeffs.items():
            off = self.basis.offsets[(p, q)]
            for i, v in enumerate(vals):
                out[off + i] = complex(v)
        return out

    @classmethod
    def from_vector(cls, basis, vec):
        """The function with these coefficients; a block without a nonzero one is not stored."""
        coeffs = {}
        for (p, q) in basis.block_order:
            off = basis.offsets[(p, q)]
            chunk = [complex(vec[off + i]) for i in range(len(basis.blocks[(p, q)]))]
            if any(abs(c) > 0 for c in chunk):
                coeffs[(p, q)] = chunk
        return cls(basis, coeffs)

    def to_poly_float(self) -> Poly:
        """Ambient polynomial (floating coefficients) representing the function."""
        out = Poly.zero(self.basis.m)
        for (p, q), vals in self.coeffs.items():
            for v, el in zip(vals, self.basis.blocks[(p, q)]):
                scale = complex(v) / math.sqrt(float(el.norm2))
                if scale:
                    out = out + el.poly.to_float().scale(scale)
        return out

    def abs_poly_float(self) -> Poly:
        """Termwise absolute value of to_poly_float: sum |c| |v| / sqrt(norm2) over its terms.

        A coefficient of to_poly_float is a sum of such terms; this bounds its
        size before cancellation, which is what its rounding is relative to
        (galerkin.GalerkinContext.assembly_rounding).
        """
        out = {}
        for (p, q), vals in self.coeffs.items():
            for v, el in zip(vals, self.basis.blocks[(p, q)]):
                scale = abs(complex(v)) / math.sqrt(float(el.norm2))
                if scale:
                    for key, c in el.poly.terms.items():
                        out[key] = out.get(key, 0.0) + scale * abs(complex(c))
        return Poly(self.basis.m, out)

    def sup_norm_estimate(self, samples=4096, seed=7):
        """Max |f| over random sphere points: an estimate that can fall below sup|f|.

        The points are normalized Gaussian vectors drawn by the standard
        library's random.Random(seed), so no run imports numpy.random.
        """
        poly = self.to_poly_float()
        if poly.is_zero():
            return 0.0
        gauss = random.Random(seed).gauss
        m = self.basis.m
        z = np.array([gauss(0.0, 1.0) for _ in range(2 * samples * m)]).view(complex)
        z = z.reshape(samples, m)
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        vals = poly.evaluate(0.0, [z[:, j] for j in range(m)])
        return float(np.max(np.abs(vals)))

    def sup_norm_bound(self):
        """Certified sup|f| <= B(f) = sum_{p,q} sqrt(dim H_pq) ||f_pq||.

        On the mass-one sphere the reproducing kernel of H_pq has diagonal
        dim H_pq, so |f_pq(x)| <= sqrt(dim H_pq) ||f_pq|| at every point.
        """
        return float(sum(
            math.sqrt(dim_hpq(self.basis.n, p, q) * sum(abs(complex(v)) ** 2 for v in vals))
            for (p, q), vals in self.coeffs.items()
        ))

    def terms(self):
        for (p, q) in sorted(self.coeffs, key=lambda pq: (pq[0] + pq[1], pq[0])):
            for i, v in enumerate(self.coeffs[(p, q)]):
                if v:
                    yield p, q, i, v


def _zero_like(c):
    return QI(0) if isinstance(c, QI) else 0j


def _mix_mul(v, c):
    """Scalar product keeping exactness when both factors are exact."""
    v_exact = isinstance(v, (QI, int, Fraction))
    c_exact = isinstance(c, (QI, int, Fraction))
    if v_exact and c_exact:
        return qi(v) * qi(c)
    return complex(v) * complex(c)


def _mix_add(a, b):
    """Scalar sum keeping exactness when both terms are exact."""
    if isinstance(a, (QI, int, Fraction)) and isinstance(b, (QI, int, Fraction)):
        return qi(a) + qi(b)
    return complex(a) + complex(b)
