"""Exact scalars: rationals and Gaussian rationals.

The exact layer of the package does all of its arithmetic in QI, the field
of Gaussian rationals a + b*i with Fraction components.  Identity checks in
exact mode are therefore binary: a residual either is the zero scalar or it
is not.

The ring operations take fast paths that give the same values as the
textbook formulas:

* their results are made by the unchecked constructor :func:`_of`, since
  Fraction arithmetic yields Fractions; the public ``QI(...)`` constructor
  still validates (and rejects floats);
* ``+``, ``-`` and ``*`` skip zero components, so a real times a real costs
  one Fraction product, not four products and two sums;
* a real divisor divides each component once, with no squared norm;
* an ``int`` or ``Fraction`` operand is used as it is, not coerced to QI.

Serialized form is the string "a/b+c/di" (e.g. "1/2-3/4i", "2", "i"),
parsed back by :func:`parse_qi`.
"""

from __future__ import annotations

import re
from fractions import Fraction

_F0 = Fraction(0)
_RATIONAL = (int, Fraction)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        # floats are rejected: exact layer only
        raise TypeError("QI components must be exact (int, Fraction, str)")
    return Fraction(x)


def _of(re: Fraction, im: Fraction) -> "QI":
    """QI from two Fractions, unchecked: for results of Fraction arithmetic."""
    z = object.__new__(QI)
    z.re = re
    z.im = im
    return z


def _sum(x: Fraction, y: Fraction) -> Fraction:
    return y if not x else x if not y else x + y


def _diff(x: Fraction, y: Fraction) -> Fraction:
    return x if not y else -y if not x else x - y


class QI:
    """Gaussian rational re + im*i with exact components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _frac(re)
        self.im = _frac(im)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, _RATIONAL):
            return _of(self.re + other, self.im)
        other = qi(other)
        return _of(_sum(self.re, other.re), _sum(self.im, other.im))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _RATIONAL):
            return _of(self.re - other, self.im)
        other = qi(other)
        return _of(_diff(self.re, other.re), _diff(self.im, other.im))

    def __rsub__(self, other):
        return qi(other) - self

    def __mul__(self, other):
        if isinstance(other, _RATIONAL):
            a, b = self.re, self.im
            return _of(a * other if a else _F0, b * other if b else _F0)
        other = qi(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        if not b:
            return _of(a * c, a * d if d else _F0)
        if not d:
            return _of(a * c if a else _F0, b * c)
        if not a:
            return _of(-(b * d), b * c if c else _F0)
        if not c:
            return _of(-(b * d), a * d)
        return _of(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _RATIONAL):
            c, d = other, 0
        else:
            other = qi(other)
            c, d = other.re, other.im
        if not d:
            if not c:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return _of(self.re / c if self.re else _F0, self.im / c if self.im else _F0)
        n2 = c * c + d * d
        return _of(
            (self.re * c + self.im * d) / n2,
            (self.im * c - self.re * d) / n2,
        )

    def __rtruediv__(self, other):
        return qi(other) / self

    def __neg__(self):
        return _of(-self.re, -self.im)

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

    def conjugate(self) -> "QI":
        return _of(self.re, -self.im)

    def norm2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    @property
    def is_real(self) -> bool:
        return not self.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, QI):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    # -- formatting --------------------------------------------------------

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        im_abs = abs(self.im)
        im_str = "i" if im_abs == 1 else f"{im_abs}i"
        sign = "-" if self.im < 0 else "+"
        if self.re == 0:
            return f"{'-' if self.im < 0 else ''}{im_str}"
        return f"{self.re}{sign}{im_str}"

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
