"""Univariate polynomials and rational functions over exact rationals.

Used for the spectral-parameter dependence of R-matrix coefficients and for
every polynomial in the split Casimir operator (``linalg.poly_eval``).  The
normal form keeps the denominator monic, so equality is plain coefficient
comparison.  No floating point, no polynomial gcd surprises: denominators
here are always explicit products of linear factors, and common factors are
removed with exact gcd.
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
        return f"Poly({list(self.coeffs)})"


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


class RationalFunction:
    """Quotient of two polynomials, reduced, with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        den = Poly.const(1) if den is None else den
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num, den = Poly(), Poly.const(1)
        else:
            g = num.gcd(den)
            if g.degree > 0:
                num = num.divmod(g)[0]
                den = den.divmod(g)[0]
            lead = den.leading()
            if lead != 1:
                inv = Rat(1) / lead
                num = num * inv
                den = den * inv
        self.num = num
        self.den = den

    @classmethod
    def const(cls, value) -> "RationalFunction":
        return cls(Poly.const(value))

    @classmethod
    def x(cls) -> "RationalFunction":
        return cls(Poly.x())

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return self + (-other)

    def __mul__(self, other) -> "RationalFunction":
        if isinstance(other, RationalFunction):
            return RationalFunction(self.num * other.num, self.den * other.den)
        return RationalFunction(self.num * Rat(other), self.den)

    __rmul__ = __mul__

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __call__(self, point) -> Rat:
        x = Rat(point)
        d = self.den(x)
        if not d:
            raise ZeroDivisionError(f"evaluation at pole {point}")
        return self.num(x) / d

    def limit_at_infinity(self) -> Rat | None:
        """Exact limit for u -> infinity; None when the function diverges."""
        if self.num.is_zero():
            return Rat(0)
        if self.num.degree > self.den.degree:
            return None
        if self.num.degree < self.den.degree:
            return Rat(0)
        return self.num.leading() / self.den.leading()

    def __repr__(self):
        return f"RationalFunction({self.num!r}, {self.den!r})"
