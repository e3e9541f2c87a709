import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crsphere.scalars import I, QI, parse_qi, qi
from qi_oracle import FractionQI


def test_field_arithmetic():
    a = QI(Fraction(1, 2), Fraction(-3, 4))
    b = QI(2, 1)
    assert a + b == QI(Fraction(5, 2), Fraction(1, 4))
    assert a - b == QI(Fraction(-3, 2), Fraction(-7, 4))
    assert a * b == QI(Fraction(7, 4), Fraction(-1))
    assert (a / b) * b == a
    assert a * a.conjugate() == QI(a.norm2())
    assert -(-a) == a


def test_powers_and_units():
    i = QI(0, 1)
    assert i**2 == QI(-1)
    assert i**-1 == -i
    assert QI(2) ** 10 == QI(1024)
    assert QI(Fraction(1, 2)) ** -2 == QI(4)


def test_integer_interop_and_equality():
    assert QI(3) == 3
    assert QI(3, 1) != 3
    assert 2 * QI(1, 1) == QI(2, 2)
    assert 1 - QI(0, 1) == QI(1, -1)
    assert hash(QI(5)) == hash(Fraction(5))


def test_zero_division():
    with pytest.raises(ZeroDivisionError):
        QI(1) / QI(0)


def test_floats_rejected():
    with pytest.raises(TypeError):
        QI(0.5)
    with pytest.raises(TypeError):
        qi(1 + 2j)


@pytest.mark.parametrize(
    "text", ["1/2-3/4i", "2", "i", "-i", "3i", "-2/7+i", "0", "-5/3", "1/2 - 3/4 i"]
)
def test_parse_str_round_trip(text):
    v = parse_qi(text)
    assert parse_qi(str(v)) == v


def test_parse_rejects_garbage():
    for bad in ["", "one", "1+2j", "i/2"]:
        with pytest.raises(ValueError):
            parse_qi(bad)


# -- the ring operations against the textbook formulas -------------------------

# components are zero with positive probability, so real, imaginary and
# zero operands of +, -, * and / are all drawn
components = st.one_of(st.just(Fraction(0)), st.integers(-3, 3).map(Fraction),
                       st.fractions(max_denominator=12))
gaussian = st.builds(QI, components, components)
rationals = st.one_of(st.integers(-4, 4), components)


def textbook(op, x, y):
    """(re, im) of x op y by the four-product formulas, both operands QI."""
    a, b, c, d = x.re, x.im, y.re, y.im
    if op == "+":
        return a + c, b + d
    if op == "-":
        return a - c, b - d
    if op == "*":
        return a * c - b * d, a * d + b * c
    n2 = c * c + d * d
    return (a * c + b * d) / n2, (b * c - a * d) / n2


def assert_is(z, parts):
    assert isinstance(z, QI)
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == parts


@given(gaussian, gaussian)
def test_fast_paths_match_textbook(x, y):
    assert_is(x + y, textbook("+", x, y))
    assert_is(x - y, textbook("-", x, y))
    assert_is(x * y, textbook("*", x, y))
    if y.re or y.im:
        assert_is(x / y, textbook("/", x, y))
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    assert_is(-x, (-x.re, -x.im))
    assert_is(x.conjugate(), (x.re, -x.im))
    assert bool(x) == (x.re != 0 or x.im != 0)
    assert x.is_real == (x.im == 0)


@given(gaussian, rationals)
def test_rational_operands_match_textbook(x, r):
    y = QI(r)
    for op, fwd, rev in (("+", x + r, r + x), ("-", x - r, r - x), ("*", x * r, r * x)):
        assert_is(fwd, textbook(op, x, y))
        assert_is(rev, textbook(op, y, x))
    if r:
        assert_is(x / r, textbook("/", x, y))
    else:
        with pytest.raises(ZeroDivisionError):
            x / r
    if x:
        assert_is(r / x, textbook("/", y, x))
    # a real QI equals, and hashes like, its rational
    prod = x.conjugate() * x
    assert prod == prod.re and hash(prod) == hash(prod.re)
    assert (y == r) and hash(y) == hash(Fraction(r))


@given(gaussian)
def test_floats_rejected_by_every_operation(x):
    for fn in (lambda: x + 0.5, lambda: 0.5 + x, lambda: x - 0.5, lambda: 0.5 - x,
               lambda: x * 0.5, lambda: 0.5 * x, lambda: x / 0.5, lambda: x * (1 + 2j)):
        with pytest.raises(TypeError):
            fn()
    if x:
        with pytest.raises(TypeError):
            0.5 / x


def test_zero_division_by_every_zero():
    for zero in (QI(0), 0, Fraction(0), QI(0, 0)):
        with pytest.raises(ZeroDivisionError):
            QI(1, 2) / zero
    with pytest.raises(ZeroDivisionError):
        1 / QI(0)
    with pytest.raises(ZeroDivisionError):
        QI(0) ** -1


# -- the int representation against the Fraction-pair oracle --------------------

# small components draw the zero, unit and equal-denominator cases; wide ones
# carry numerators and denominators past 2**64 for the gcd and complex()
small = st.fractions(min_value=-4, max_value=4, max_denominator=12)
wide = st.builds(Fraction, st.integers(-2**80, 2**80), st.integers(1, 2**70))
parts = st.tuples(st.one_of(small, wide), st.one_of(small, wide))
operands = st.one_of(
    st.tuples(st.just("QI"), parts),
    st.tuples(st.just("int"), st.integers(-9, 9)),
    st.tuples(st.just("Fraction"), st.one_of(small, wide)),
    st.tuples(st.just("i"), st.just(None)),
)


def both(kind, value):
    """An operand of the given kind for QI and for the oracle."""
    if kind == "QI":
        return QI(*value), FractionQI(*value)
    if kind == "i":
        return I, FractionQI(0, 1)
    return value, value


def assert_canonical(z, expect):
    """z is (a + b i) / d in lowest terms, d > 0, and has the oracle's value."""
    assert type(z) is QI
    a, b, d = z._a, z._b, z._d
    assert type(a) is int and type(b) is int and type(d) is int
    assert d > 0 and math.gcd(a, b, d) == 1
    assert (z.re, z.im) == (expect.re, expect.im)


@given(parts, operands)
def test_operations_match_the_fraction_pair_oracle(xp, operand):
    x, ox = QI(*xp), FractionQI(*xp)
    assert_canonical(x, ox)
    y, oy = both(*operand)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for left, right, oleft, oright in ((x, y, ox, oy), (y, x, oy, ox)):
            if op is operator.truediv and not oright:
                with pytest.raises(ZeroDivisionError):
                    op(left, right)
                continue
            assert_canonical(op(left, right), op(oleft, oright))
    assert_canonical(-x, -ox)
    assert_canonical(x.conjugate(), ox.conjugate())
    assert x.norm2() == ox.norm2() and type(x.norm2()) is Fraction
    assert bool(x) == bool(ox) and x.is_real == ox.is_real


@given(st.tuples(small, small), st.integers(-4, 5))
def test_powers_match_the_oracle(xp, k):
    x, ox = QI(*xp), FractionQI(*xp)
    if k < 0 and not ox:
        with pytest.raises(ZeroDivisionError):
            x ** k
    else:
        assert_canonical(x ** k, ox ** k)


@given(parts)
def test_equality_hash_complex_and_text(xp):
    x, ox = QI(*xp), FractionQI(*xp)
    # one value reached by two routes is one canonical form
    y = (x * 3 + QI(0, 2)) / 3 - QI(0, Fraction(2, 3))
    assert y == x and hash(y) == hash(x) and (y._a, y._b, y._d) == (x._a, x._b, x._d)
    re = x.re
    real = QI(re)
    assert real == re and re == real and hash(real) == hash(re)
    assert (x == re) == ox.is_real
    if re.denominator == 1:
        assert real == int(re) and hash(real) == hash(int(re))
    # complex() is float() of each Fraction component, bit for bit
    z = complex(x)
    assert (z.real, z.imag) == (float(ox.re), float(ox.im))
    assert str(x) == str(ox) and parse_qi(str(x)) == x
