import pytest
from hypothesis import given, strategies as st

from spincas.scalar import (
    ONE,
    ExactScalar,
    Rat,
    format_rat,
    parse_rat,
)

rationals = st.builds(
    Rat,
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=1, max_value=30),
)
scalars = st.builds(ExactScalar, rationals, rationals)
ZERO = ExactScalar(0)
IMAG_UNIT = ExactScalar(0, 1)


def test_format_parse_roundtrip_rational():
    for value in (Rat(0), Rat(5), Rat(-7, 3), Rat(22, 7)):
        assert parse_rat(format_rat(value)) == value


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(scalars)
def test_additive_inverse(z):
    assert z + (-z) == ZERO
    assert z - z == ZERO


@given(scalars)
def test_multiplicative_inverse(z):
    if z == ZERO:
        with pytest.raises(ZeroDivisionError):
            ONE / z
    else:
        assert z * (ONE / z) == ONE


@given(scalars)
def test_conjugation_involution(z):
    assert z.conj().conj() == z
    norm = z * z.conj()
    assert norm.im == 0
    assert norm.re >= 0


@given(scalars, scalars)
def test_conjugation_multiplicative(a, b):
    assert (a * b).conj() == a.conj() * b.conj()


def test_imaginary_unit():
    assert IMAG_UNIT * IMAG_UNIT == -ONE
    assert IMAG_UNIT.conj() == -IMAG_UNIT


def test_scalar_immutability():
    with pytest.raises(AttributeError):
        ONE.re = Rat(2)


def test_integer_powers():
    assert IMAG_UNIT**4 == ONE
    assert ExactScalar(Rat(1, 2)) ** 3 == ExactScalar(Rat(1, 8))
