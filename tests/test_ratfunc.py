"""Integer-coefficient polynomials against a Fraction-coefficient reference.

``ratfunc.Poly`` keeps a polynomial as one positive denominator over integer
coefficients.  The reference below keeps a tuple of Fractions and implements
every operation by its textbook definition.  Each property compares the
Fraction view, the degree, the leading coefficient and the ``repr`` text with
the reference, and checks that the result is in canonical form, so that equal
values are equal as data.
"""

from math import gcd

from hypothesis import assume, given, strategies as st

from spincas.ratfunc import Poly
from spincas.scalar import Rat


class FractionPoly:
    """Dense Fraction coefficient list, constant term first, no trailing zeros."""

    def __init__(self, coeffs=()):
        cs = [Rat(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Rat:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return FractionPoly(out)

    def __neg__(self):
        return FractionPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FractionPoly):
            if self.is_zero() or other.is_zero():
                return FractionPoly()
            out = [Rat(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return FractionPoly(out)
        return FractionPoly([c * Rat(other) for c in self.coeffs])

    def __call__(self, point) -> Rat:
        x = Rat(point)
        acc = Rat(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divmod(self, divisor):
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn = len(divisor.coeffs)
        if len(rem) < dn:
            return FractionPoly(), FractionPoly(rem)
        quot = [Rat(0)] * (len(rem) - dn + 1)
        lead = divisor.leading()
        for i in range(len(quot) - 1, -1, -1):
            q = rem[i + dn - 1] / lead
            quot[i] = q
            if q:
                for j, c in enumerate(divisor.coeffs):
                    rem[i + j] -= q * c
        return FractionPoly(quot), FractionPoly(rem)

    def gcd(self, other):
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        if a.is_zero():
            return a
        return a * (Rat(1) / a.leading())

    def __repr__(self):
        return f"Poly([{', '.join(map(str, self.coeffs))}])"


rationals = st.builds(Rat, st.integers(-40, 40), st.integers(1, 12))
coefficients = st.lists(rationals, max_size=6)  # trailing zeros included
scalars = st.one_of(st.integers(-9, 9), rationals)


def assert_matches(p: Poly, ref: FractionPoly) -> None:
    """p has the reference's value and views, in canonical form."""
    assert p.coeffs == ref.coeffs
    assert all(type(c) is Rat for c in p.coeffs)
    assert p.degree == ref.degree
    assert p.is_zero() == ref.is_zero()
    assert repr(p) == repr(ref)
    if not ref.is_zero():
        assert p.leading() == ref.leading()
    assert p.den > 0 and isinstance(p.ints, tuple)
    assert all(type(c) is int for c in p.ints)
    if p.ints:
        assert p.ints[-1] != 0 and gcd(p.den, *p.ints) == 1
    else:
        assert p.den == 1
    assert p == Poly(ref.coeffs) and hash(p) == hash(Poly(ref.coeffs))


@given(coefficients)
def test_construction_and_views(a):
    p = Poly(a)
    assert_matches(p, FractionPoly(a))
    assert p.coeffs is p.coeffs  # the Fraction view is built once


@given(coefficients, coefficients)
def test_ring_operations(a, b):
    p, q, rp, rq = Poly(a), Poly(b), FractionPoly(a), FractionPoly(b)
    assert_matches(p + q, rp + rq)
    assert_matches(p - q, rp - rq)
    assert_matches(-p, -rp)
    assert_matches(p * q, rp * rq)


@given(coefficients, scalars)
def test_scalar_multiples(a, c):
    p, ref = Poly(a), FractionPoly(a)
    assert_matches(p * c, ref * c)
    assert_matches(c * p, ref * c)


@given(coefficients, rationals)
def test_evaluation(a, x):
    value = Poly(a)(x)
    assert type(value) is Rat and value == FractionPoly(a)(x)


@given(coefficients, coefficients)
def test_division_with_remainder(a, b):
    p, d = Poly(a), Poly(b)
    assume(not d.is_zero())
    quot, rem = p.divmod(d)
    assert quot * d + rem == p
    assert rem.degree < d.degree
    ref_quot, ref_rem = FractionPoly(a).divmod(FractionPoly(b))
    assert_matches(quot, ref_quot)
    assert_matches(rem, ref_rem)


@given(coefficients, coefficients, coefficients)
def test_gcd(a, b, c):
    # a common factor c makes most gcds nontrivial
    p, q = Poly(a) * Poly(c), Poly(b) * Poly(c)
    ref = (FractionPoly(a) * FractionPoly(c)).gcd(FractionPoly(b) * FractionPoly(c))
    g = p.gcd(q)
    assert_matches(g, ref)
    if not g.is_zero():
        assert g.leading() == 1
        assert p.divmod(g)[1].is_zero() and q.divmod(g)[1].is_zero()


@given(coefficients, rationals, rationals)
def test_equal_values_are_equal_data(a, s, t):
    assume(s and t)
    p = Poly(a)
    for other in ((p * s) * (1 / s), (p * s) * t * (1 / (s * t)), (p + p * s) - p * s, Poly(p.coeffs + (0,))):
        assert (other.den, other.ints) == (p.den, p.ints)
        assert other == p and hash(other) == hash(p)


def test_zero_polynomial_is_one_over_nothing():
    for zero in (Poly(), Poly([0, 0]), Poly([Rat(1, 3)]) - Poly([Rat(1, 3)]), Poly([1, 2]) * 0):
        assert (zero.den, zero.ints) == (1, ()) and zero.is_zero() and zero.degree == -1
        assert zero == Poly() and hash(zero) == hash(Poly())
