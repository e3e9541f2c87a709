"""Exact scalars: rationals and Gaussian rationals.

The exact layer of the package does all of its arithmetic in QI, the field
of Gaussian rationals.  A QI is three ints (a, b, d) standing for
(a + b i) / d, with d > 0 and gcd(a, b, d) == 1.  The form is canonical, so
``==`` compares the three ints, and identity checks in exact mode are
binary: a residual either is the zero scalar or it is not.

Each ring operation is a few int products and one multi-argument gcd, as
rationals are kept in lowest terms (Knuth, TAOCP vol. 2, 4.5.1).  An
``int`` or ``Fraction`` operand is read as (numerator, 0, denominator),
with no QI built.  The public ``QI(re, im)`` constructor validates its
components (and rejects floats); ``re`` and ``im`` read back as Fractions.

Serialized form is the string "a/b+c/di" (e.g. "1/2-3/4i", "2", "i"),
parsed back by :func:`parse_qi`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

_RATIONAL = (int, Fraction)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        # floats are rejected: exact layer only
        raise TypeError("QI components must be exact (int, Fraction, str)")
    return Fraction(x)


def _new(a: int, b: int, d: int) -> "QI":
    """The QI (a + b i) / d, unchecked: (a, b, d) is already canonical."""
    z = object.__new__(QI)
    z._a, z._b, z._d = a, b, d
    return z


def _canon(a: int, b: int, d: int) -> "QI":
    """The QI (a + b i) / d for d > 0, reduced by one gcd."""
    g = gcd(a, b, d)
    z = object.__new__(QI)
    if g == 1:
        z._a, z._b, z._d = a, b, d
    else:
        z._a, z._b, z._d = a // g, b // g, d // g
    return z


def _parts(x):
    """(a, b, d) of an exact scalar; an int or a Fraction builds no QI."""
    if isinstance(x, QI):
        return x._a, x._b, x._d
    if isinstance(x, _RATIONAL):
        return x.numerator, 0, x.denominator
    return _parts(QI(x))  # validates: floats and complex raise TypeError


def _quotient(a, b, d, c, e, f) -> "QI":
    """((a + b i) / d) / ((c + e i) / f) = (a + b i)(c - e i) f / (d (c^2 + e^2))."""
    if not e:  # a real divisor c / f: (a + b i) f / (d c), no squared norm
        if not c:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _canon(a * f, b * f, d * c) if c > 0 else _canon(-a * f, -b * f, -d * c)
    n2 = c * c + e * e
    return _canon((a * c + b * e) * f, (b * c - a * e) * f, d * n2)


class QI:
    """Gaussian rational (a + b i) / d: three ints in lowest terms, d > 0."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if isinstance(re, _RATIONAL) and type(im) is int and not im:
            # a rational is in lowest terms already
            self._a, self._b, self._d = re.numerator, 0, re.denominator
            return
        re, im = _frac(re), _frac(im)
        d = lcm(re.denominator, im.denominator)
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        a, b, d = self._a, self._b, self._d
        c, e, f = (other._a, other._b, other._d) if type(other) is QI else _parts(other)
        if d == f:
            return _canon(a + c, b + e, d)
        return _canon(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        a, b, d = self._a, self._b, self._d
        c, e, f = (other._a, other._b, other._d) if type(other) is QI else _parts(other)
        if d == f:
            return _canon(a - c, b - e, d)
        return _canon(a * f - c * d, b * f - e * d, d * f)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        a, b, d = self._a, self._b, self._d
        c, e, f = (other._a, other._b, other._d) if type(other) is QI else _parts(other)
        return _canon(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _quotient(self._a, self._b, self._d, *_parts(other))

    def __rtruediv__(self, other):
        return _quotient(*_parts(other), self._a, self._b, self._d)

    def __neg__(self):
        return _new(-self._a, -self._b, self._d)

    def __pow__(self, k: int):
        if k < 0:
            return ONE / self ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- structure -------------------------------------------------------

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def conjugate(self) -> "QI":
        return _new(self._a, -self._b, self._d)

    def norm2(self) -> Fraction:
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    @property
    def is_real(self) -> bool:
        return not self._b

    def __bool__(self):
        return bool(self._a or self._b)

    def __eq__(self, other):
        if isinstance(other, QI):
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, _RATIONAL):
            return not self._b and self._a == other.numerator and self._d == other.denominator
        return NotImplemented

    def __hash__(self):
        if not self._b:
            return hash(Fraction(self._a, self._d))
        return hash((self._a, self._b, self._d))

    def __complex__(self):
        # int true division rounds correctly, as float(Fraction) does
        return complex(self._a / self._d, self._b / self._d)

    # -- formatting --------------------------------------------------------

    def __str__(self):
        re, im = self.re, self.im
        if not im:
            return str(re)
        im_abs = abs(im)
        im_str = "i" if im_abs == 1 else f"{im_abs}i"
        sign = "-" if im < 0 else "+"
        if not re:
            return f"{'-' if im < 0 else ''}{im_str}"
        return f"{re}{sign}{im_str}"

    def __repr__(self):
        return f"QI({self.re!r}, {self.im!r})"


I = QI(0, 1)
ONE = QI(1)
ZERO = QI(0)


def qi(x) -> QI:
    """Coerce an exact scalar to QI."""
    if isinstance(x, QI):
        return x
    return QI(x)


# a denominator is a positive integer: "1/0" does not parse
_QI_RE = re.compile(
    r"^\s*(?P<re>[+-]?\d+(?:/0*[1-9]\d*)?)?\s*"
    r"(?:(?P<sign>[+-])?\s*(?P<im>\d+(?:/0*[1-9]\d*)?)?\s*(?P<unit>i))?\s*$"
)


def parse_qi(s: str) -> QI:
    """Parse "a/b+c/di" (spaces tolerated, pure-real and pure-imaginary ok)."""
    m = _QI_RE.match(s)
    if not m or (m.group("re") is None and m.group("unit") is None):
        raise ValueError(f"cannot parse Gaussian rational: {s!r}")
    re_part = Fraction(0)
    im_part = Fraction(0)
    if m.group("unit"):
        mag = Fraction(m.group("im")) if m.group("im") else Fraction(1)
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("re") is not None and m.group("sign") is None:
            # the numeric part was the imaginary magnitude, as in "3i"
            mag = abs(Fraction(m.group("re"))) * mag
            sign = -1 if Fraction(m.group("re")) < 0 else 1
        elif m.group("re") is not None:
            re_part = Fraction(m.group("re"))
        im_part = sign * mag
    else:
        re_part = Fraction(m.group("re"))
    return QI(re_part, im_part)


def conj(x):
    """Conjugate an exact or floating scalar."""
    if isinstance(x, QI):
        return x.conjugate()
    if isinstance(x, complex):
        return x.conjugate()
    return x
