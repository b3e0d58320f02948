"""Univariate polynomials over exact rationals.

Used for the spectral-parameter dependence of R-matrix coefficients and for
every polynomial in the split Casimir operator (``linalg.poly_eval``).  A
rational function of u is a pair (num, den) of polynomials, never reduced:
every denominator here is a product of linear factors, so none is zero, and
for nonzero b and d, a/b = c/d in Q(u) exactly when a d = c b in Q[u].  So
every identity in u is decided by comparing the coefficients of two
polynomials.
"""

from __future__ import annotations

from .scalar import Rat


class Poly:
    """Dense coefficient list, constant term first, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Rat(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, value) -> "Poly":
        return cls([Rat(value)])

    @classmethod
    def x(cls) -> "Poly":
        return cls([0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> Rat:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            if self.is_zero() or other.is_zero():
                return Poly()
            out = [Rat(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return Poly(out)
        return Poly([c * Rat(other) for c in self.coeffs])

    __rmul__ = __mul__

    def __call__(self, point) -> Rat:
        x = Rat(point)
        acc = Rat(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def divmod(self, divisor: "Poly") -> tuple["Poly", "Poly"]:
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn = len(divisor.coeffs)
        if len(rem) < dn:
            return Poly(), Poly(rem)
        quot = [Rat(0)] * (len(rem) - dn + 1)
        lead = divisor.leading()
        for i in range(len(quot) - 1, -1, -1):
            q = rem[i + dn - 1] / lead
            quot[i] = q
            if q:
                for j, c in enumerate(divisor.coeffs):
                    rem[i + j] -= q * c
        return Poly(quot), Poly(rem)

    def gcd(self, other: "Poly") -> "Poly":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        if a.is_zero():
            return a
        return a * (Rat(1) / a.leading())

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
