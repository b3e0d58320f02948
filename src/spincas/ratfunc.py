"""Univariate polynomials over exact rationals.

Used for the spectral-parameter dependence of R-matrix coefficients and for
every polynomial in the split Casimir operator (``linalg.poly_eval``).  A
polynomial is stored as a matrix is: one positive integer denominator
``den`` over a tuple ``ints`` of integer coefficients, constant term first,
with ``gcd(den, *ints) == 1`` and no trailing zero; the zero polynomial is
``(1, ())``.  So two equal polynomials are equal as data, and all
arithmetic runs on Python ints.  The Fraction coefficients are a view,
``coeffs``, built at most once per polynomial.

A rational function of u is a pair (num, den) of polynomials, never
reduced: every denominator here is a product of linear factors, so none is
zero, and for nonzero b and d, a/b = c/d in Q(u) exactly when a d = c b in
Q[u].  So every identity in u is decided by comparing the coefficients of
two polynomials.
"""

from __future__ import annotations

from math import gcd, lcm

from .scalar import Rat


def _canonical(den: int, ints: list) -> tuple[int, tuple]:
    """(den, ints) of ints/den in canonical form, for a nonzero den of
    either sign.
    """
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        return 1, ()
    g = gcd(den, *ints)
    if den < 0:
        g = -g
    if g != 1:
        den //= g
        ints = [c // g for c in ints]
    return den, tuple(ints)


def _poly(den: int, ints: list) -> "Poly":
    out = Poly.__new__(Poly)
    out.den, out.ints = _canonical(den, ints)
    out._coeffs = None
    return out


def _divide(a, b) -> tuple[int, list, list]:
    """(s, q, r) with s a = q b + r and len(r) < len(b) after trailing
    zeros, for integer coefficient lists a and b (b without trailing zero):
    division over Q with its denominators collected in the integer s.
    """
    n, m = len(a), len(b)
    rem, quot, scale, lead = list(a), [0] * max(n - m + 1, 0), 1, b[-1]
    for i in range(n - m, -1, -1):
        t = rem[i + m - 1]
        if not t:
            continue
        g = gcd(t, lead)
        k, w = lead // g, t // g
        if k != 1:
            scale *= k
            rem = [k * c for c in rem]
            quot = [k * c for c in quot]
        quot[i] = w
        for j, c in enumerate(b):
            rem[i + j] -= w * c
    return scale, quot, rem


class Poly:
    """ints/den: integer coefficients, constant term first, over one
    positive denominator, in the canonical form of the module docstring.
    """

    __slots__ = ("den", "ints", "_coeffs")

    def __init__(self, coeffs=()):
        cs = [Rat(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        self.den, self.ints = _canonical(den, [c.numerator * (den // c.denominator) for c in cs])
        self._coeffs = None

    @classmethod
    def const(cls, value) -> "Poly":
        return cls([value])

    @classmethod
    def x(cls) -> "Poly":
        return _poly(1, [0, 1])

    @property
    def coeffs(self) -> tuple[Rat, ...]:
        """The coefficients as Fractions, constant term first."""
        if self._coeffs is None:
            self._coeffs = tuple(Rat(c, self.den) for c in self.ints)
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self.ints) - 1

    def is_zero(self) -> bool:
        return not self.ints

    def leading(self) -> Rat:
        if not self.ints:
            raise ValueError("zero polynomial has no leading coefficient")
        return Rat(self.ints[-1], self.den)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.den == other.den and self.ints == other.ints

    def __hash__(self):
        return hash((self.den, self.ints))

    def _plus(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other."""
        a, b, den = self.ints, other.ints, self.den
        if den != other.den:
            g = gcd(den, other.den)
            ma, mb = other.den // g, den // g
            a, b, den = [c * ma for c in a], [c * mb for c in b], den * ma
        out = list(a) + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] += sign * c
        return _poly(den, out)

    def __add__(self, other: "Poly") -> "Poly":
        return self._plus(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._plus(other, -1)

    def __neg__(self) -> "Poly":
        return _poly(self.den, [-c for c in self.ints])

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            a, b = self.ints, other.ints
            if not a or not b:
                return _poly(1, [])
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        out[i + j] += x * y
            return _poly(self.den * other.den, out)
        if type(other) is int:
            return _poly(self.den, [c * other for c in self.ints])
        c = Rat(other)
        return _poly(self.den * c.denominator, [x * c.numerator for x in self.ints])

    __rmul__ = __mul__

    def __call__(self, point) -> Rat:
        """The value at a rational point p/q, by Horner's rule on
        sum_i ints[i] p^i q^(n-i), over den q^n, for degree n.
        """
        ints = self.ints
        if not ints:
            return Rat(0)
        x = point if type(point) is Rat else Rat(point)
        p, q = x.numerator, x.denominator
        acc, qk = ints[-1], 1
        for c in ints[-2::-1]:
            qk *= q
            acc = acc * p + c * qk
        return Rat(acc, self.den * qk)

    def divmod(self, divisor: "Poly") -> tuple["Poly", "Poly"]:
        """(quotient, remainder) over Q: with s a = q b + r on the integer
        coefficients, self = a/den and divisor = b/d give
        self = (q d / (s den)) divisor + r / (s den).
        """
        if not divisor.ints:
            raise ZeroDivisionError("polynomial division by zero")
        scale, quot, rem = _divide(self.ints, divisor.ints)
        den = scale * self.den
        return _poly(den, [c * divisor.den for c in quot]), _poly(den, rem)

    def gcd(self, other: "Poly") -> "Poly":
        """The monic gcd, by Euclid on primitive integer remainders; the gcd
        of two zero polynomials is zero.
        """
        a, b = list(self.ints), list(other.ints)
        while b:
            rem = _divide(a, b)[2]
            while rem and not rem[-1]:
                rem.pop()
            if rem:
                g = gcd(*rem)
                rem = [c // g for c in rem]
            a, b = b, rem
        return _poly(a[-1] if a else 1, a)

    def __repr__(self):
        return f"Poly([{', '.join(map(str, self.coeffs))}])"  # 3 and 1/2, as Fraction prints them


def poly_from_roots(roots) -> Poly:
    out = Poly.const(1)
    for root in roots:
        out = out * Poly([-Rat(root), 1])
    return out


def rising_factorial(x: Poly, k: int) -> Poly:
    """x (x+1) ... (x+k-1) as a polynomial in the indeterminate of x."""
    out = Poly.const(1)
    for m in range(k):
        out = out * (x + Poly.const(m))
    return out


def limit_at_infinity(num: Poly, den: Poly) -> Rat | None:
    """Exact limit of num/den for u -> infinity, den nonzero; None when the
    ratio diverges.
    """
    if num.is_zero():
        return Rat(0)
    if num.degree > den.degree:
        return None
    if num.degree < den.degree:
        return Rat(0)
    return num.leading() / den.leading()
