from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from crsphere.scalars import QI, parse_qi, qi


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


# -- fast paths against the textbook formulas ----------------------------------

# components are zero with positive probability, so every zero-skipping
# branch of +, -, * and / is drawn
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
