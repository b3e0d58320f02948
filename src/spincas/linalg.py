"""Sparse exact matrices and the tensor-product toolkit.

A matrix over Q(i) is stored as one positive rational ``scale`` times a
sparse matrix of Gaussian integers whose real and imaginary parts have gcd 1
(the zero matrix has scale 1 and no rows).  That form is unique, so equality
is a structural comparison, and the kernels in ``_backend`` multiply and add
plain ints.  The public interface speaks Q(i): entries come out as
``ExactScalar`` values with ``Fraction`` parts.

Index convention (fixed project-wide): the leftmost tensor factor is the
slowest index.  For a matrix on V1 (x) V2 with dims (d1, d2), the flat row
index is i1 * d2 + i2.  Legs are numbered from 1, left to right.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Iterator, Sequence

from . import _backend
from .scalar import RAT_ONE, RAT_ZERO, ExactScalar, Rat


def _val(value):
    """Coerce a scalar-like to an (re, im) pair of rationals."""
    if isinstance(value, ExactScalar):
        return (value.re, value.im)
    if isinstance(value, tuple):
        return (Rat(value[0]), Rat(value[1]))
    return (Rat(value), RAT_ZERO)


def _int(value, den: int) -> int:
    """The integer value * den, for a rational whose denominator divides den."""
    return value.numerator * (den // value.denominator)


def _from_rationals(rows) -> tuple:
    """Canonical (scale, integer rows) of rows of nonzero rational pairs."""
    den = lcm(*(x.denominator for row in rows.values() for v in row.values() for x in v))
    int_rows = {
        i: {j: (_int(re, den), _int(im, den)) for j, (re, im) in row.items()}
        for i, row in rows.items()
    }
    return _canonical(Rat(1, den), int_rows)


def _negated(rows) -> dict:
    return {i: {j: (-a, -b) for j, (a, b) in row.items()} for i, row in rows.items()}


class TensorShape:
    """Interpretation of a square matrix as an operator on V1 (x) V2 (x) ..."""

    __slots__ = ("factors",)

    def __init__(self, factors: Sequence[int]):
        factors = tuple(int(f) for f in factors)
        if any(f < 1 for f in factors):
            raise ValueError("tensor factors must be positive")
        self.factors = factors

    @property
    def dim(self) -> int:
        out = 1
        for f in self.factors:
            out *= f
        return out

    def strides(self) -> tuple[int, ...]:
        out, acc = [], 1
        for f in reversed(self.factors):
            out.append(acc)
            acc *= f
        return tuple(reversed(out))

    def split(self, flat: int) -> tuple[int, ...]:
        parts = []
        for stride in self.strides():
            parts.append(flat // stride)
            flat %= stride
        return tuple(parts)

    def __repr__(self):
        return f"TensorShape{self.factors}"


class ExactMatrix:
    """Immutable sparse square matrix over Q(i): ``scale`` times Z[i] rows."""

    __slots__ = ("dim", "scale", "_rows")

    def __init__(self, dim: int, entries=None):
        if dim < 1:
            raise ValueError("dimension must be positive")
        rows: dict = {}
        if entries:
            for (i, j), value in entries.items():
                if not (0 <= i < dim and 0 <= j < dim):
                    raise IndexError(f"entry ({i}, {j}) outside [0, {dim})")
                v = _val(value)
                if v[0] or v[1]:
                    rows.setdefault(i, {})[j] = v
        scale, rows = _from_rationals(rows)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "_rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def _wrap(cls, dim: int, scale, rows: dict) -> "ExactMatrix":
        """Trusted constructor: (scale, rows) must already be canonical."""
        m = cls.__new__(cls)
        object.__setattr__(m, "dim", dim)
        object.__setattr__(m, "scale", scale)
        object.__setattr__(m, "_rows", rows)
        return m

    @classmethod
    def _make(cls, dim: int, scale, rows: dict) -> "ExactMatrix":
        """Canonical matrix from a positive scale and integer rows of any content."""
        return cls._wrap(dim, *_canonical(scale, rows))

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "ExactMatrix":
        return cls._wrap(dim, RAT_ONE, {})

    @classmethod
    def identity(cls, dim: int) -> "ExactMatrix":
        return cls._wrap(dim, RAT_ONE, {i: {i: (1, 0)} for i in range(dim)})

    @classmethod
    def diagonal(cls, values) -> "ExactMatrix":
        rows = {}
        for i, value in enumerate(values):
            v = _val(value)
            if v[0] or v[1]:
                rows[i] = {i: v}
        return cls._wrap(len(values), *_from_rationals(rows))

    # -- queries ----------------------------------------------------------

    def __getitem__(self, key) -> ExactScalar:
        i, j = key
        v = self._rows.get(i, {}).get(j)
        if v is None:
            return ExactScalar(0)
        return ExactScalar(self.scale * v[0], self.scale * v[1])

    def items(self) -> Iterator[tuple[int, int, ExactScalar]]:
        """Nonzero entries in (row, col) order."""
        s = self.scale
        for i in sorted(self._rows):
            row = self._rows[i]
            for j in sorted(row):
                re, im = row[j]
                yield i, j, ExactScalar(s * re, s * im)

    @property
    def nnz(self) -> int:
        return sum(len(row) for row in self._rows.values())

    def is_zero(self) -> bool:
        return not self._rows

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.dim == other.dim and self.scale == other.scale and self._rows == other._rows

    def __bool__(self):
        return bool(self._rows)

    def trace(self) -> ExactScalar:
        re = im = 0
        for i, row in self._rows.items():
            v = row.get(i)
            if v is not None:
                re += v[0]
                im += v[1]
        return ExactScalar(self.scale * re, self.scale * im)

    def ray(self):
        """A hashable key shared by the nonzero complex multiples of this
        matrix; None for the zero matrix.

        Multiplying by the conjugate of the first entry makes that entry a
        positive integer; dividing by the content then fixes the multiple.
        """
        if not self._rows:
            return None
        first = self._rows[min(self._rows)]
        a, b = first[min(first)]
        rows = {
            i: {j: (a * x + b * y, a * y - b * x) for j, (x, y) in row.items()}
            for i, row in self._rows.items()
        }
        g = _backend.content(rows)
        return tuple(
            (i, j, x // g, y // g) for i in sorted(rows) for j, (x, y) in sorted(rows[i].items())
        )

    def rank(self) -> int:
        """Exact rank (fraction-free elimination over Z[i])."""
        return _backend.mat_rank(self._rows, self.dim)

    # -- arithmetic -------------------------------------------------------

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch in matrix product")
        rows = _backend.mat_mul(self._rows, other._rows)
        return ExactMatrix._make(self.dim, self.scale * other.scale, rows)

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return lincomb(self.dim, [(1, self), (1, other)])

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return lincomb(self.dim, [(1, self), (-1, other)])

    def __mul__(self, scalar) -> "ExactMatrix":
        re, im = _val(scalar)
        if im:
            return lincomb(self.dim, [(scalar, self)])
        if not re or not self._rows:
            return ExactMatrix.zero(self.dim)
        if re > 0:
            return ExactMatrix._wrap(self.dim, self.scale * re, self._rows)
        return ExactMatrix._wrap(self.dim, self.scale * -re, _negated(self._rows))

    __rmul__ = __mul__

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix._wrap(self.dim, self.scale, _negated(self._rows))

    def pow(self, exponent: int) -> "ExactMatrix":
        """Binary exponentiation; exponent >= 0."""
        if exponent < 0:
            raise ValueError("negative matrix power")
        result = ExactMatrix.identity(self.dim)
        base = self
        while exponent:
            if exponent & 1:
                result = result @ base
            exponent >>= 1
            if exponent:
                base = base @ base
        return result

    def conj_transpose(self) -> "ExactMatrix":
        rows: dict = {}
        for i, row in self._rows.items():
            for j, (re, im) in row.items():
                rows.setdefault(j, {})[i] = (re, -im)
        return ExactMatrix._wrap(self.dim, self.scale, rows)

    def transpose(self) -> "ExactMatrix":
        rows: dict = {}
        for i, row in self._rows.items():
            for j, v in row.items():
                rows.setdefault(j, {})[i] = v
        return ExactMatrix._wrap(self.dim, self.scale, rows)

    # -- subspace embedding ------------------------------------------------

    def restrict(self, indices: Sequence[int]) -> "ExactMatrix":
        """Compress to the subspace spanned by the given coordinate indices."""
        pos = {g: k for k, g in enumerate(indices)}
        rows: dict = {}
        for i, row in self._rows.items():
            pi = pos.get(i)
            if pi is None:
                continue
            new_row = {pos[j]: v for j, v in row.items() if j in pos}
            if new_row:
                rows[pi] = new_row
        return ExactMatrix._make(len(indices), self.scale, rows)

    def embed(self, indices: Sequence[int], dim: int) -> "ExactMatrix":
        """Inverse of ``restrict``: place this block at the given coordinates."""
        rows: dict = {}
        for i, row in self._rows.items():
            rows[indices[i]] = {indices[j]: v for j, v in row.items()}
        return ExactMatrix._wrap(dim, self.scale, rows)

    def row_slice(self, stop: int) -> "ExactMatrix":
        """The rows i < stop; every other row becomes zero."""
        rows = {i: row for i, row in self._rows.items() if i < stop}
        return ExactMatrix._make(self.dim, self.scale, rows)

    def __repr__(self):
        return f"ExactMatrix(dim={self.dim}, nnz={self.nnz})"


def _canonical(scale, rows: dict) -> tuple:
    """Divide integer rows by their content and fold it into the scale."""
    g = _backend.content(rows)
    if g == 0:
        return RAT_ONE, {}
    if g == 1:
        return scale, rows
    rows = {i: {j: (a // g, b // g) for j, (a, b) in row.items()} for i, row in rows.items()}
    return scale * g, rows


def lincomb(dim: int, terms) -> ExactMatrix:
    """sum of c * m over (scalar, matrix) pairs, as one kernel call.

    The coefficients times the matrix scales are brought to one common
    denominator, so the kernel adds integer matrices.
    """
    scaled = []
    for c, m in terms:
        if m.dim != dim:
            raise ValueError("dimension mismatch in linear combination")
        re, im = _val(c)
        if m._rows and (re or im):
            scaled.append((re * m.scale, im * m.scale, m._rows))
    if not scaled:
        return ExactMatrix.zero(dim)
    den = lcm(*(x.denominator for re, im, _ in scaled for x in (re, im)))
    int_terms = [((_int(re, den), _int(im, den)), rows) for re, im, rows in scaled]
    return ExactMatrix._make(dim, Rat(1, den), _backend.mat_lincomb(int_terms))


# -- tensor toolkit --------------------------------------------------------


def kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Kronecker product; a acts on the leading (slow) leg."""
    rows = _backend.mat_kron(a._rows, b._rows, b.dim)
    return ExactMatrix._make(a.dim * b.dim, a.scale * b.scale, rows)


def sum_at_scale(dim: int, matrices: Iterable[ExactMatrix], den: int) -> ExactMatrix:
    """The sum of matrices whose scales are integer multiples of 1/den, as
    one kernel call that adds each matrix as the iterable yields it, so at
    most one of them is held at a time.
    """

    def terms():
        for m in matrices:
            c = m.scale * den
            if m.dim != dim or c.denominator != 1:
                raise ValueError(f"cannot add a dim-{m.dim} matrix of scale {m.scale} at scale 1/{den}")
            yield (c.numerator, 0), m._rows

    return ExactMatrix._make(dim, Rat(1, den), _backend.mat_lincomb(terms()))


def sum_of_kron_squares(factors: Sequence[ExactMatrix]) -> ExactMatrix:
    """sum of kron(g, g) over the factors, as one kernel call.

    The Kronecker squares are built one at a time while the kernel adds
    them, so no more than one of them is held at once.
    """
    dim = factors[0].dim
    # kron(g, g) is an integer matrix over the square of the scale of g
    den = lcm(*((g.scale * g.scale).denominator for g in factors))
    return sum_at_scale(dim * dim, (kron(g, g) for g in factors), den)


def elementary_products(factors: Sequence[ExactMatrix]) -> tuple[ExactMatrix, ...]:
    """e_0 .. e_n of the ordered products of n factors.

    e_k is the sum over i_1 < ... < i_k of factors[i_1] @ ... @ factors[i_k],
    so e_0 is the identity.  The factors are brought to one common
    denominator D and the recurrence e_k += e_(k-1) @ factor runs on integer
    rows; every term of e_k then carries the scale 1/D^k.  Multiplying on the
    right keeps each product in ascending order, so the factors need not
    commute.
    """
    dim = factors[0].dim
    den = lcm(*(g.scale.denominator for g in factors))
    sums = [ExactMatrix.identity(dim)._rows] + [{} for _ in factors]
    for n, g in enumerate(factors, start=1):
        c = _int(g.scale, den)
        g_rows = {i: {j: (c * a, c * b) for j, (a, b) in row.items()} for i, row in g._rows.items()}
        for k in range(n, 0, -1):
            step = _backend.mat_mul(sums[k - 1], g_rows)
            sums[k] = _backend.mat_lincomb([((1, 0), sums[k]), ((1, 0), step)])
    return tuple(ExactMatrix._make(dim, Rat(1, den**k), rows) for k, rows in enumerate(sums))


def kron_all(factors: Iterable[ExactMatrix]) -> ExactMatrix:
    out = None
    for f in factors:
        out = f if out is None else kron(out, f)
    if out is None:
        raise ValueError("empty Kronecker product")
    return out


def partial_trace(m: ExactMatrix, shape: TensorShape, leg: int) -> ExactMatrix:
    """Trace out one leg (1-based, leftmost = 1) of a tensor-product operator."""
    if shape.dim != m.dim:
        raise ValueError(f"shape {shape.factors} does not match dim {m.dim}")
    if not 1 <= leg <= len(shape.factors):
        raise ValueError(f"leg {leg} out of range for {shape}")
    t = leg - 1
    strides = shape.strides()
    kept = [k for k in range(len(shape.factors)) if k != t]
    out_dim = 1
    for k in kept:
        out_dim *= shape.factors[k]
    out_strides = []
    acc = 1
    for k in reversed(kept):
        out_strides.append(acc)
        acc *= shape.factors[k]
    out_strides = list(reversed(out_strides))

    rows: dict = {}
    for i, row in m._rows.items():
        iparts = shape.split(i)
        i_out = sum(iparts[k] * s for k, s in zip(kept, out_strides))
        for j, v in row.items():
            jparts = shape.split(j)
            if jparts[t] != iparts[t]:
                continue
            j_out = sum(jparts[k] * s for k, s in zip(kept, out_strides))
            out_row = rows.setdefault(i_out, {})
            cur = out_row.get(j_out)
            out_row[j_out] = v if cur is None else (cur[0] + v[0], cur[1] + v[1])
    clean = {}
    for i, row in rows.items():
        row = {j: v for j, v in row.items() if v[0] or v[1]}
        if row:
            clean[i] = row
    return ExactMatrix._make(out_dim, m.scale, clean)


def permutation_operator(d: int) -> ExactMatrix:
    """P(v (x) w) = w (x) v on dimension d^2."""
    rows = {}
    for a in range(d):
        for b in range(d):
            rows[a * d + b] = {b * d + a: (1, 0)}
    return ExactMatrix._wrap(d * d, RAT_ONE, rows)


def poly_eval(coeffs: Sequence, m: ExactMatrix) -> ExactMatrix:
    """Horner evaluation of sum coeffs[j] * m^j (coeffs[0] is the constant)."""
    if not coeffs:
        return ExactMatrix.zero(m.dim)
    ident = ExactMatrix.identity(m.dim)
    result = ident * coeffs[-1]
    for c in reversed(coeffs[:-1]):
        result = result @ m + ident * c
    return result


def mat_vec(m: ExactMatrix, vec: dict) -> dict:
    """Apply to a sparse column vector {index: (re, im)} of rationals;
    canonical result with rational parts.
    """
    scale, ivec = _from_rationals({0: vec})
    scale *= m.scale
    ivec = ivec.get(0, {})
    out: dict = {}
    for i, row in m._rows.items():
        re = im = 0
        for j, (a0, a1) in row.items():
            v = ivec.get(j)
            if v is None:
                continue
            re += a0 * v[0] - a1 * v[1]
            im += a0 * v[1] + a1 * v[0]
        if re or im:
            out[i] = (scale * re, scale * im)
    return out


def trace_of_product(a: ExactMatrix, b: ExactMatrix) -> ExactScalar:
    """tr(a @ b) = sum of a[i, j] b[j, i], without forming the product."""
    if a.dim != b.dim:
        raise ValueError("dimension mismatch in trace of product")
    re = im = 0
    b_rows = b._rows
    for i, row in a._rows.items():
        for j, (a0, a1) in row.items():
            brow = b_rows.get(j)
            if brow is None:
                continue
            v = brow.get(i)
            if v is not None:
                re += a0 * v[0] - a1 * v[1]
                im += a0 * v[1] + a1 * v[0]
    scale = a.scale * b.scale
    return ExactScalar(scale * re, scale * im)


def first_difference(a: ExactMatrix, b: ExactMatrix):
    """First (row, col) where two matrices differ, or None if equal."""
    if a.dim != b.dim:
        return (-1, -1, None, None)
    keys = set()
    for i, row in a._rows.items():
        keys.update((i, j) for j in row)
    for i, row in b._rows.items():
        keys.update((i, j) for j in row)
    for i, j in sorted(keys):
        va, vb = a[i, j], b[i, j]
        if va != vb:
            return (i, j, va, vb)
    return None
