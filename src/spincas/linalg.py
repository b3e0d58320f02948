"""Sparse exact matrices and the tensor-product toolkit.

A matrix over Q(i) is stored as one positive rational ``scale`` times
``re + i*im``, where the real part ``re`` and the imaginary part ``im`` are
sparse matrices of Python ints: rows dicts ``{i: {j: v}}`` with no zero
entry and no empty row.  The gcd of all entries of both parts is 1, and the
zero matrix has scale 1 and two empty parts.  That form is unique, so
equality is a structural comparison.  The kernels in ``_backend`` multiply
and add real integer matrices; ``_part_terms`` splits every complex product
here into one kernel term per pair of nonzero parts, so a zero part costs
nothing.  Every sum of matrices and of matrix products is formed in the
one complex accumulator, ``ScaledSum``; a Kronecker sum is one ``mat_kron``
call per part, which sets each entry of that part once.  The public
interface speaks Q(i): entries come out as ``ExactScalar`` values with
``Fraction`` parts.

A polynomial in an operator is a ``ratfunc.Poly`` evaluated from the
operator's ``PowerTable``, which keeps the powers base^0, base^1, ... once
made; ``poly_eval`` is one linear combination of them, so any number of
polynomials in one operator share its products.  There is no kernel for
a vector or for a trace of a product: a vector is a matrix with one nonzero
row, and the trace of a product is read from the product.

Index convention (fixed project-wide): the leftmost tensor factor is the
slowest index.  For a matrix on V1 (x) V2 with dims (d1, d2), the flat row
index is i1 * d2 + i2.  Legs are numbered from 1, left to right.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Iterator, Sequence

from . import _backend
from .ratfunc import Poly
from .scalar import RAT_ONE, RAT_ZERO, ExactScalar, Rat

_NO_ROW: dict = {}


def _val(value):
    """Coerce a scalar-like to an (re, im) pair of rationals."""
    if isinstance(value, ExactScalar):
        return (value.re, value.im)
    return (Rat(value), RAT_ZERO)


def _int(value, den: int) -> int:
    """The integer value * den, for a rational whose denominator divides den."""
    return value.numerator * (den // value.denominator)


def _from_rationals(entries) -> tuple:
    """Canonical (scale, re, im) of a dict {(i, j): (re, im)} of rationals."""
    den = lcm(*(x.denominator for v in entries.values() for x in v))
    re: dict = {}
    im: dict = {}
    for (i, j), (a, b) in entries.items():
        if a:
            re.setdefault(i, {})[j] = _int(a, den)
        if b:
            im.setdefault(i, {})[j] = _int(b, den)
    return _canonical(Rat(1, den), re, im)


def _canonical(scale, re: dict, im: dict) -> tuple:
    """Divide both integer parts by their content and fold it into the scale."""
    g = _backend.content(re, im)
    if g == 0:
        return RAT_ONE, {}, {}
    if g == 1:
        return scale, re, im
    return scale * g, _divided(re, g), _divided(im, g)


def _divided(rows: dict, g: int) -> dict:
    return {i: {j: v // g for j, v in row.items()} for i, row in rows.items()}


def _times(rows: dict, c: int) -> dict:
    return {i: {j: c * v for j, v in row.items()} for i, row in rows.items()} if rows else rows


def _transpose(rows: dict) -> dict:
    out: dict = {}
    for i, row in rows.items():
        for j, v in row.items():
            out.setdefault(j, {})[i] = v
    return out


def _entries(re: dict, im: dict) -> Iterator[tuple[int, int, int, int]]:
    """(i, j, re, im) of every nonzero entry of re + i*im, in (row, col) order."""
    for i in sorted(re.keys() | im.keys()):
        x, y = re.get(i, _NO_ROW), im.get(i, _NO_ROW)
        for j in sorted(x.keys() | y.keys()):
            yield i, j, x.get(j, 0), y.get(j, 0)


def _part_terms(terms) -> tuple[list, list]:
    """The real and the imaginary part of a sum of c * x * y over the terms
    (c, x, y), with x and y integer parts (re, im) and * a real bilinear
    kernel, as two lists of kernel terms (k, x_part, y_part); a product with
    an empty part is left out.  This is the one place where a complex
    product is split into real ones: matrix products and Kronecker sums both
    go through it.
    """
    re_terms: list = []
    im_terms: list = []
    for c, (xr, xi), (yr, yi) in terms:
        # (xr + i xi)(yr + i yi) = (xr yr - xi yi) + i (xr yi + xi yr)
        products = ((re_terms, c, xr, yr), (re_terms, -c, xi, yi), (im_terms, c, xr, yi), (im_terms, c, xi, yr))
        for out, k, x, y in products:
            if x and y:
                out.append((k, x, y))
    return re_terms, im_terms


class NotABasisMap(ValueError):
    """A column of a matrix is not a nonzero multiple of one basis vector."""

    def __init__(self, column: int):
        super().__init__(f"does not send e_{column} to a nonzero multiple of one basis vector")
        self.column = column


class ExactMatrix:
    """Immutable sparse square matrix over Q(i): ``scale`` times integer
    parts ``re + i*im``.
    """

    __slots__ = ("dim", "scale", "_re", "_im")

    def __init__(self, dim: int, entries=None):
        if dim < 1:
            raise ValueError("dimension must be positive")
        values = {}
        for (i, j), value in (entries or {}).items():
            if not (0 <= i < dim and 0 <= j < dim):
                raise IndexError(f"entry ({i}, {j}) outside [0, {dim})")
            values[i, j] = _val(value)
        for name, value in zip(self.__slots__, (dim, *_from_rationals(values))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("ExactMatrix is immutable")

    @classmethod
    def _wrap(cls, dim: int, scale, re: dict, im: dict) -> "ExactMatrix":
        """Trusted constructor: (scale, re, im) must already be canonical."""
        m = cls.__new__(cls)
        object.__setattr__(m, "dim", dim)
        object.__setattr__(m, "scale", scale)
        object.__setattr__(m, "_re", re)
        object.__setattr__(m, "_im", im)
        return m

    @classmethod
    def _make(cls, dim: int, scale, re: dict, im: dict) -> "ExactMatrix":
        """Canonical matrix from a positive scale and integer parts of any content."""
        return cls._wrap(dim, *_canonical(scale, re, im))

    def _map(self, f, dim: int | None = None) -> "ExactMatrix":
        """f, which keeps the content, applied to both parts."""
        return ExactMatrix._wrap(self.dim if dim is None else dim, self.scale, f(self._re), f(self._im))

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "ExactMatrix":
        return cls._wrap(dim, RAT_ONE, {}, {})

    @classmethod
    def identity(cls, dim: int) -> "ExactMatrix":
        return cls._wrap(dim, RAT_ONE, {i: {i: 1} for i in range(dim)}, {})

    # -- queries ----------------------------------------------------------

    def __getitem__(self, key) -> ExactScalar:
        i, j = key
        x = self._re.get(i, _NO_ROW).get(j, 0)
        y = self._im.get(i, _NO_ROW).get(j, 0)
        return ExactScalar(self.scale * x, self.scale * y)

    def items(self) -> Iterator[tuple[int, int, ExactScalar]]:
        """Nonzero entries in (row, col) order."""
        s = self.scale
        for i, j, x, y in _entries(self._re, self._im):
            yield i, j, ExactScalar(s * x, s * y)

    def support(self) -> Iterator[tuple[int, int]]:
        """(row, col) of the nonzero entries in (row, col) order; no entry
        value is built.
        """
        for i, j, _, _ in _entries(self._re, self._im):
            yield i, j

    @property
    def nnz(self) -> int:
        return sum(1 for _ in _entries(self._re, self._im))

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.scale == other.scale
            and self._re == other._re
            and self._im == other._im
        )

    def __bool__(self):
        return bool(self._re or self._im)

    def trace(self) -> ExactScalar:
        x, y = (sum(row.get(i, 0) for i, row in part.items()) for part in (self._re, self._im))
        return ExactScalar(self.scale * x, self.scale * y)

    def basis_map(self) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
        """(images, phases) of a matrix that sends each basis vector e_j to
        a nonzero multiple of one basis vector: e_j goes to scale * (x + i*y)
        e_images[j] with the Gaussian integer (x, y) = phases[j].  Otherwise
        ``NotABasisMap`` names the first column that is not such a multiple.
        """
        re, im = self._re, self._im
        image: dict = {}
        spread = set()  # columns with entries in more than one row
        for part in (re, im):
            for i, row in part.items():
                for j in row:
                    if image.setdefault(j, i) != i:
                        spread.add(j)
        for j in range(self.dim):
            if j not in image or j in spread:
                raise NotABasisMap(j)
        images = tuple(image[j] for j in range(self.dim))
        phases = tuple(
            (re.get(i, _NO_ROW).get(j, 0), im.get(i, _NO_ROW).get(j, 0)) for j, i in enumerate(images)
        )
        return images, phases

    def rank(self) -> int:
        """Exact rank, by fraction-free elimination over Z: of the nonzero
        part when the other is zero, otherwise half the rank of the real
        form [[re, -im], [im, re]].
        """
        re, im = self._re, self._im
        if not (re and im):
            return _backend.mat_rank(re or im)
        n = self.dim
        real_form = {}
        for offset, left, right, sign in ((0, re, im, -1), (n, im, re, 1)):
            for i in left.keys() | right.keys():
                row = dict(left.get(i, _NO_ROW))
                row.update((n + j, sign * v) for j, v in right.get(i, _NO_ROW).items())
                real_form[offset + i] = row
        return _backend.mat_rank(real_form) // 2

    # -- arithmetic -------------------------------------------------------

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.dim != other.dim:
            raise ValueError("dimension mismatch in matrix product")
        total = ScaledSum(self.dim, self.scale * other.scale)  # at the product's scale: coefficient 1
        total.add_terms([(1, (self._re, self._im), (other._re, other._im))])
        return total.matrix()

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        return lincomb(self.dim, [(1, self), (1, other)])

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return lincomb(self.dim, [(1, self), (-1, other)])

    def __mul__(self, scalar) -> "ExactMatrix":
        re, im = _val(scalar)
        if re and im:
            return lincomb(self.dim, [(scalar, self)])
        q = re or im
        if not q or not (self._re or self._im):
            return ExactMatrix.zero(self.dim)
        x, y = self._re, self._im
        if im:  # i q (x + i y) = q (-y + i x)
            x, y = _times(y, -1), x
        if q < 0:
            x, y, q = _times(x, -1), _times(y, -1), -q
        return ExactMatrix._wrap(self.dim, self.scale * q, x, y)

    __rmul__ = __mul__

    def __neg__(self) -> "ExactMatrix":
        return self._map(lambda rows: _times(rows, -1))

    def conj_transpose(self) -> "ExactMatrix":
        return ExactMatrix._wrap(self.dim, self.scale, _transpose(self._re), _times(_transpose(self._im), -1))

    # -- subspace embedding ------------------------------------------------

    def restrict(self, indices: Sequence[int]) -> "ExactMatrix":
        """Compress to the subspace spanned by the given coordinate indices."""
        pos = {g: k for k, g in enumerate(indices)}

        def block(rows):
            out = {}
            for i, row in rows.items():
                pi = pos.get(i)
                if pi is not None:
                    new_row = {pos[j]: v for j, v in row.items() if j in pos}
                    if new_row:
                        out[pi] = new_row
            return out

        return ExactMatrix._make(len(indices), self.scale, block(self._re), block(self._im))

    def embed(self, indices: Sequence[int], dim: int) -> "ExactMatrix":
        """Inverse of ``restrict``: place this block at the given coordinates."""

        def place(rows):
            return {indices[i]: {indices[j]: v for j, v in row.items()} for i, row in rows.items()}

        return self._map(place, dim=dim)

    def __repr__(self):
        return f"ExactMatrix(dim={self.dim}, nnz={self.nnz})"


def lincomb(dim: int, terms) -> ExactMatrix:
    """sum of c * m over (scalar, matrix) pairs, as one ``ScaledSum``.

    The coefficients times the matrix scales are brought to one common
    denominator, so the integer parts are added with int coefficients.
    """
    scaled = []
    for c, m in terms:
        if m.dim != dim:
            raise ValueError("dimension mismatch in linear combination")
        re, im = _val(c)
        if m and (re or im):
            scaled.append((re and re * m.scale, im and im * m.scale, m))
    if not scaled:
        return ExactMatrix.zero(dim)
    den = lcm(*(x.denominator for re, im, _ in scaled for x in (re, im)))
    total = ScaledSum(dim, Rat(1, den))
    for re, im, m in scaled:
        total.add(_int(re, den), _int(im, den), (m._re, m._im))
    return total.matrix()


class ScaledSum:
    """The one complex accumulator: a sum over Q(i) at one positive rational
    scale, held as integer accumulators of the real and the imaginary part.
    Each term is added in place as it comes, so no term need be held after
    it is added and no product is formed apart from the sum; ``parts`` may
    be read between additions, and ``matrix`` makes the sum canonical once,
    at the end.
    """

    __slots__ = ("dim", "scale", "_re", "_im")

    def __init__(self, dim: int, scale: Rat):
        self.dim, self.scale = dim, scale
        self._re, self._im = _backend.RowsSum(), _backend.RowsSum()

    def add(self, c0: int, c1: int, parts: tuple) -> None:
        """Add (c0 + i c1)(re + i im) for integer parts (re, im)."""
        # (c0 + i c1)(re + i im) = (c0 re - c1 im) + i (c1 re + c0 im)
        re, im = parts
        self._re.add(c0, re)
        self._re.add(-c1, im)
        self._im.add(c1, re)
        self._im.add(c0, im)

    def add_terms(self, terms) -> None:
        """Add the sum of c * x @ y over the terms (c, x, y), c an int and x,
        y integer parts (re, im), one kernel product per real term of
        ``_part_terms``.
        """
        for total, part in zip((self._re, self._im), _part_terms(terms)):
            for k, x, y in part:
                total.add_product(k, x, y)

    def add_product(self, a: ExactMatrix, b: ExactMatrix) -> None:
        """Add a @ b, whose scale must be an integer multiple of this sum's,
        without forming it: each product row is added as it is formed.
        """
        c = a.scale * b.scale / self.scale
        if a.dim != self.dim or b.dim != self.dim or c.denominator != 1:
            raise ValueError(
                f"cannot add a product of dim-{a.dim} and dim-{b.dim} matrices"
                f" of scale {a.scale * b.scale} at dim {self.dim}, scale {self.scale}"
            )
        self.add_terms([(c.numerator, (a._re, a._im), (b._re, b._im))])

    def parts(self) -> tuple[dict, dict]:
        """Integer parts (re, im) of the sum so far, over its scale; more may
        be added afterwards, which changes them in place.
        """
        return self._re.rows(), self._im.rows()

    def matrix(self) -> ExactMatrix:
        """The sum; nothing may be added after this."""
        return ExactMatrix._make(self.dim, self.scale, *self.parts())


# -- tensor toolkit --------------------------------------------------------


def kron(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Kronecker product; a acts on the leading (slow) leg."""
    return kron_sum([(1, a, b)])


def kron_sum(terms) -> ExactMatrix:
    """sum of c * a (x) b over the terms (c, a, b), c rational and a acting
    on the leading (slow) leg.

    The coefficients times the scales of a and b are brought to one common
    denominator; each nonzero part of the sum is then one kernel call over
    all the terms, which forms no Kronecker matrix per term and sets each
    entry of the part once, so the products that cancel cost nothing.
    """
    terms = [(Rat(c) * a.scale * b.scale, a, b) for c, a, b in terms]
    a_dims, b_dims = {a.dim for _, a, _ in terms}, {b.dim for _, _, b in terms}
    if len(a_dims) != 1 or len(b_dims) != 1:
        raise ValueError("dimension mismatch in Kronecker sum")
    (a_dim,), (b_dim,) = a_dims, b_dims
    terms = [(s, a, b) for s, a, b in terms if s and a and b]
    if not terms:
        return ExactMatrix.zero(a_dim * b_dim)
    den = lcm(*(s.denominator for s, _, _ in terms))
    g = gcd(*(s.numerator for s, _, _ in terms))  # kept in the scale, out of the kernel
    parts = _part_terms((_int(s, den) // g, (a._re, a._im), (b._re, b._im)) for s, a, b in terms)
    re, im = (_backend.mat_kron(t, b_dim) if t else {} for t in parts)
    return ExactMatrix._make(a_dim * b_dim, Rat(g, den), re, im)


def diagonal_action(g: ExactMatrix) -> ExactMatrix:
    """g (x) 1 + 1 (x) g: how a Lie algebra element g acts on the tensor
    square of its space.
    """
    ident = ExactMatrix.identity(g.dim)
    return kron_sum([(1, g, ident), (1, ident, g)])


def elementary_products(factors: Sequence[ExactMatrix]) -> tuple[ExactMatrix, ...]:
    """e_0 .. e_n of the ordered products of n factors.

    e_k is the sum over i_1 < ... < i_k of factors[i_1] @ ... @ factors[i_k],
    so e_0 is the identity.  The factors are brought to one common
    denominator D and the recurrence e_k += e_(k-1) @ factor runs on one
    ``ScaledSum`` per e_k, at the scale 1/D^k, each product row added into
    e_k as it is formed.  Running k downwards reads each e_(k-1) before this
    factor is added into it.  Multiplying on the right keeps each product in
    ascending order, so the factors need not commute.
    """
    dim = factors[0].dim
    den = lcm(*(g.scale.denominator for g in factors))
    sums = [ScaledSum(dim, Rat(1, den**k)) for k in range(len(factors) + 1)]
    sums[0].add(1, 0, ({i: {i: 1} for i in range(dim)}, {}))
    for n, g in enumerate(factors, start=1):
        c, g_parts = _int(g.scale, den), (g._re, g._im)
        for k in range(n, 0, -1):
            sums[k].add_terms([(c, sums[k - 1].parts(), g_parts)])
    return tuple(total.matrix() for total in sums)


def partial_trace(m: ExactMatrix, inner: int) -> ExactMatrix:
    """Trace out the fast (rightmost) leg, of dimension ``inner``, of an
    operator on V (x) W with dim W = inner.
    """
    if inner < 1 or m.dim % inner:
        raise ValueError(f"a leg of dimension {inner} does not divide dim {m.dim}")
    legs = [({}, {}) for _ in range(inner)]  # leg index -> parts {output row: traced row}
    for p, part in enumerate((m._re, m._im)):
        for i, row in part.items():
            i_out, i_leg = divmod(i, inner)
            traced_row = {j // inner: v for j, v in row.items() if j % inner == i_leg}
            if traced_row:
                legs[i_leg][p][i_out] = traced_row
    total = ScaledSum(m.dim // inner, m.scale)
    for parts in legs:
        total.add(1, 0, parts)
    return total.matrix()


def permutation_operator(d: int) -> ExactMatrix:
    """P(v (x) w) = w (x) v on dimension d^2."""
    rows = {}
    for a in range(d):
        for b in range(d):
            rows[a * d + b] = {b * d + a: 1}
    return ExactMatrix._wrap(d * d, RAT_ONE, rows, {})


class PowerTable:
    """The powers base^0, base^1, ... of one square matrix.

    A power is made when a caller first needs it, as one product of the
    last kept power with the base, and then kept: reaching degree d costs
    d - 1 products in all, however many callers share the table.
    """

    __slots__ = ("base", "_powers")

    def __init__(self, base: ExactMatrix):
        self.base = base
        self._powers = [ExactMatrix.identity(base.dim), base]

    def upto(self, degree: int) -> list[ExactMatrix]:
        """base^0 .. base^degree."""
        powers = self._powers
        while len(powers) <= degree:
            powers.append(powers[-1] @ self.base)
        return powers[: degree + 1]

    def power(self, degree: int) -> ExactMatrix:
        """base^degree.  A power beyond the kept ones is made from the last
        kept power, one product per degree, and is not kept, so a one-off
        high power does not grow the table.
        """
        powers = self._powers
        m = powers[min(degree, len(powers) - 1)]
        for _ in range(len(powers) - 1, degree):
            m = m @ self.base
        return m


def poly_eval(p: Poly, table: PowerTable) -> ExactMatrix:
    """p(base), the sum of p.coeffs[j] * base^j, as one linear combination
    of the table's powers up to p.degree; the zero polynomial gives zero.
    """
    return lincomb(table.base.dim, zip(p.coeffs, table.upto(p.degree)))


def first_difference(a: ExactMatrix, b: ExactMatrix):
    """First (row, col) where two matrices of one dimension differ, or None."""
    keys = set(a.support()) | set(b.support())
    for i, j in sorted(keys):
        va, vb = a[i, j], b[i, j]
        if va != vb:
            return (i, j, va, vb)
    return None
