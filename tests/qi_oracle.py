"""Gaussian rationals as a pair of Fractions: the test oracle of crsphere.scalars.QI.

crsphere.scalars.QI keeps a value as three ints (a + b i) / d in lowest
terms.  The class here is the representation it replaced: two
``fractions.Fraction`` components combined by the textbook formulas, with
the same zero-skipping paths.  Every QI operation is held to it.
"""

from fractions import Fraction

_F0 = Fraction(0)
_RATIONAL = (int, Fraction)


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("FractionQI components must be exact (int, Fraction, str)")
    return Fraction(x)


def _of(re: Fraction, im: Fraction) -> "FractionQI":
    z = object.__new__(FractionQI)
    z.re = re
    z.im = im
    return z


def _sum(x, y):
    return y if not x else x if not y else x + y


def _diff(x, y):
    return x if not y else -y if not x else x - y


def oracle(x) -> "FractionQI":
    """x (a FractionQI, int or Fraction) as a FractionQI."""
    return x if isinstance(x, FractionQI) else FractionQI(x)


class FractionQI:
    """Gaussian rational re + im*i with Fraction components."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _frac(re)
        self.im = _frac(im)

    def __add__(self, other):
        if isinstance(other, _RATIONAL):
            return _of(self.re + other, self.im)
        other = oracle(other)
        return _of(_sum(self.re, other.re), _sum(self.im, other.im))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _RATIONAL):
            return _of(self.re - other, self.im)
        other = oracle(other)
        return _of(_diff(self.re, other.re), _diff(self.im, other.im))

    def __rsub__(self, other):
        return oracle(other) - self

    def __mul__(self, other):
        if isinstance(other, _RATIONAL):
            a, b = self.re, self.im
            return _of(a * other if a else _F0, b * other if b else _F0)
        other = oracle(other)
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
            other = oracle(other)
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
        return oracle(other) / self

    def __neg__(self):
        return _of(-self.re, -self.im)

    def __pow__(self, k: int):
        if k < 0:
            return FractionQI(1) / self ** (-k)
        out = FractionQI(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self):
        return _of(self.re, -self.im)

    def norm2(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    @property
    def is_real(self) -> bool:
        return not self.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, FractionQI):
            return self.re == other.re and self.im == other.im
        if isinstance(other, _RATIONAL):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        im_abs = abs(self.im)
        im_str = "i" if im_abs == 1 else f"{im_abs}i"
        sign = "-" if self.im < 0 else "+"
        if self.re == 0:
            return f"{'-' if self.im < 0 else ''}{im_str}"
        return f"{self.re}{sign}{im_str}"
