"""Exact Gaussian-rational scalars.

Every number in the engine is an element of Q(i): a complex number whose real
and imaginary parts are exact rationals (``fractions.Fraction``, kept in
canonical form: positive denominator, gcd 1).  There is no floating point
anywhere.
"""

from __future__ import annotations

from fractions import Fraction as Rat

RAT_ZERO = Rat(0)
RAT_ONE = Rat(1)


def format_rat(value) -> str:
    """Render a rational as ``p/q`` (denominator always shown)."""
    return f"{value.numerator}/{value.denominator}"


def parse_rat(text: str):
    num, _, den = text.partition("/")
    return Rat(int(num), int(den)) if den else Rat(int(num))


class ExactScalar:
    """Immutable element of Q(i), stored as a canonical (re, im) pair."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is Rat else Rat(re))
        object.__setattr__(self, "im", im if type(im) is Rat else Rat(im))

    def __setattr__(self, name, value):
        raise AttributeError("ExactScalar is immutable")

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        return ExactScalar(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        return ExactScalar(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        other = _coerce(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return ExactScalar(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        c, d = other.re, other.im
        norm = c * c + d * d
        if not norm:
            raise ZeroDivisionError("division by zero ExactScalar")
        a, b = self.re, self.im
        return ExactScalar((a * c + b * d) / norm, (b * c - a * d) / norm)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def __neg__(self):
        return ExactScalar(-self.re, -self.im)

    def __pow__(self, exponent: int):
        if exponent < 0:
            return (ONE / self) ** (-exponent)
        result, base = ONE, self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def conj(self):
        return ExactScalar(self.re, -self.im)

    # -- predicates -------------------------------------------------------

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, (int, Rat)):
            return self.re == other and not self.im
        if isinstance(other, ExactScalar):
            return self.re == other.re and self.im == other.im
        return NotImplemented

    def __hash__(self):
        return hash((self.re, self.im))

    # -- text forms -------------------------------------------------------

    def __repr__(self):
        return f"ExactScalar({self})"

    def __str__(self):
        if not self.im:
            return format_rat(self.re)
        return f"{format_rat(self.re)}+i*{format_rat(self.im)}"


def _coerce(value) -> ExactScalar:
    if isinstance(value, ExactScalar):
        return value
    return ExactScalar(value)


ONE = ExactScalar(1)
