"""Sparse exact matrices against a naive dense reference over Q(i).

The reference keeps a matrix as a list of rows of ``ExactScalar`` values and
implements every operation by its textbook definition.  Each property checks
exact equality twice: entrywise against the reference, and as ``==`` with a
matrix rebuilt from the reference entries, which holds only if both sides
reached the same canonical (scale, integer rows) form.
"""

from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from spincas import _backend
from spincas.clifford import rotation_generators
from spincas.linalg import (
    ExactMatrix,
    ScaledSum,
    elementary_products,
    kron,
    kron_sum,
    lincomb,
    partial_trace,
)
from spincas.scalar import ExactScalar, Rat

ZERO = ExactScalar(0)

# -- the dense reference ----------------------------------------------------


def dense(m: ExactMatrix) -> list[list[ExactScalar]]:
    return [[m[i, j] for j in range(m.dim)] for i in range(m.dim)]


def from_dense(rows) -> ExactMatrix:
    return ExactMatrix(len(rows), {(i, j): v for i, row in enumerate(rows) for j, v in enumerate(row)})


def ref_add(a, b, sign=1):
    return [[x + y * sign for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def ref_scale(a, c):
    return [[x * c for x in row] for row in a]


def ref_mul(a, b):
    n = len(a)
    return [[sum((a[i][k] * b[k][j] for k in range(n)), ZERO) for j in range(n)] for i in range(n)]


def ref_kron(a, b):
    p = len(b)
    n = len(a) * p
    return [[a[i // p][j // p] * b[i % p][j % p] for j in range(n)] for i in range(n)]


def ref_trace(a):
    return sum((a[i][i] for i in range(len(a))), ZERO)


def ref_rank(a):
    rows = [list(row) for row in a]
    rank, col, n = 0, 0, len(rows)
    while rank < n and col < n:
        pivot = next((r for r in range(rank, n) if rows[r][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, n):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def ref_restrict(a, indices):
    return [[a[i][j] for j in indices] for i in indices]


def ref_embed(a, indices, dim):
    out = [[ZERO] * dim for _ in range(dim)]
    for p, i in enumerate(indices):
        for q, j in enumerate(indices):
            out[i][j] = a[p][q]
    return out


def ref_partial_trace(a, d1, d2):
    """Trace over the second (fast) leg of a matrix on a (d1, d2) product."""
    return [[sum((a[i * d2 + t][j * d2 + t] for t in range(d2)), ZERO) for j in range(d1)] for i in range(d1)]


def assert_matches(m: ExactMatrix, ref) -> None:
    """Entrywise equal to the reference, and in the one canonical form."""
    assert dense(m) == ref
    assert m == from_dense(ref)
    assert m.scale > 0
    parts = [x for rows in (m._re, m._im) for row in rows.values() for x in row.values()]
    assert all(row for rows in (m._re, m._im) for row in rows.values())
    assert all(x != 0 for x in parts)
    assert all(type(x) is int for x in parts)
    if parts:
        assert gcd(*parts) == 1
    else:
        assert m.scale == 1


# -- strategies --------------------------------------------------------------

rationals = st.builds(Rat, st.integers(-6, 6), st.sampled_from([1, 1, 2, 3, 4, 6]))
scalars = st.builds(ExactScalar, rationals, st.one_of(st.just(Rat(0)), rationals))


def matrices(dim):
    entries = st.dictionaries(
        st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)), scalars, max_size=dim * dim
    )
    return entries.map(lambda e: ExactMatrix(dim, e))


dims = st.integers(1, 4)
pairs = dims.flatmap(lambda d: st.tuples(matrices(d), matrices(d)))

# -- properties ---------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(pairs)
def test_sum_difference_product(ab):
    a, b = ab
    da, db = dense(a), dense(b)
    assert_matches(a + b, ref_add(da, db))
    assert_matches(a - b, ref_add(da, db, -1))
    assert_matches(a @ b, ref_mul(da, db))
    assert_matches(a - a, ref_add(da, da, -1))


@settings(max_examples=60, deadline=None)
@given(dims.flatmap(matrices), st.one_of(scalars, st.integers(-3, 3), rationals))
def test_scalar_multiple(a, c):
    c_ref = c if isinstance(c, ExactScalar) else ExactScalar(c)
    assert_matches(a * c, ref_scale(dense(a), c_ref))
    assert_matches(-a, ref_scale(dense(a), ExactScalar(-1)))


@settings(max_examples=40, deadline=None)
@given(dims.flatmap(matrices), dims.flatmap(matrices))
def test_kron(a, b):
    assert_matches(kron(a, b), ref_kron(dense(a), dense(b)))


@settings(max_examples=60, deadline=None)
@given(dims.flatmap(matrices))
def test_rank_and_trace(a):
    assert a.rank() == ref_rank(dense(a))
    assert a.trace() == ref_trace(dense(a))


@settings(max_examples=40, deadline=None)
@given(pairs)
def test_rank_of_low_rank_product(ab):
    # products of a thin factor have deficient rank, which stresses elimination
    a, b = ab
    thin = a @ ExactMatrix(a.dim, {(0, 0): 1}) @ b
    assert thin.rank() == ref_rank(dense(thin))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 5).flatmap(
        lambda d: st.tuples(
            matrices(d),
            st.lists(st.integers(0, d - 1), min_size=1, max_size=d, unique=True),
        )
    )
)
def test_restrict_and_embed(case):
    a, indices = case
    block = a.restrict(indices)
    ref_block = ref_restrict(dense(a), indices)
    assert_matches(block, ref_block)
    assert_matches(block.embed(indices, a.dim), ref_embed(ref_block, indices, a.dim))


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
        lambda d: st.tuples(st.just(d), matrices(d[0] * d[1]))
    )
)
def test_partial_trace(case):
    (d1, d2), a = case
    assert_matches(partial_trace(a, d2), ref_partial_trace(dense(a), d1, d2))


def test_partial_trace_refuses_a_leg_that_does_not_divide():
    a = ExactMatrix.identity(6)
    for inner in (0, -2, 4, 5, 12):
        with pytest.raises(ValueError):
            partial_trace(a, inner)


def ref_elementary_products(factors):
    """e_k as the sum over i_1 < ... < i_k of the ordered dense products."""
    n = len(factors[0])
    identity = [[ExactScalar(int(i == j)) for j in range(n)] for i in range(n)]
    out = []
    for k in range(len(factors) + 1):
        total = [[ZERO] * n for _ in range(n)]
        for idx in combinations(range(len(factors)), k):
            product = identity
            for i in idx:
                product = ref_mul(product, factors[i])
            total = ref_add(total, product)
        out.append(total)
    return out


def _commute(a, b):
    return a @ b == b @ a


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 3).flatmap(lambda d: st.lists(matrices(d), min_size=2, max_size=4)))
def test_elementary_products(factors):
    # non-commuting factors whose scales are not 1: the order of each
    # product and the common denominator both matter
    assume(all(m.scale != 1 for m in factors))
    assume(any(not _commute(a, b) for a, b in combinations(factors, 2)))
    got = elementary_products(factors)
    ref = ref_elementary_products([dense(m) for m in factors])
    assert len(got) == len(factors) + 1
    for m, r in zip(got, ref):
        assert_matches(m, r)


def test_gaussian_content_is_divided_out():
    # (1+i)(1-i) = 2: a product of primitive Gaussian matrices need not be primitive
    a = ExactMatrix(1, {(0, 0): ExactScalar(1, 1)})
    b = ExactMatrix(1, {(0, 0): ExactScalar(1, -1)})
    assert_matches(a @ b, [[ExactScalar(2)]])
    assert_matches(kron(a, b), [[ExactScalar(2)]])
    assert (a @ b)._re == {0: {0: 1}} and (a @ b)._im == {} and (a @ b).scale == 2


# -- real, imaginary and mixed parts ------------------------------------------
#
# Nearly all matrices of the verifier are real or purely imaginary, so these
# draws make each of the parts zero on purpose, and also draw matrices and
# coefficients with both parts nonzero, whose paths only tests exercise.

nonzero_rationals = rationals.filter(bool)
KINDS = {
    "real": st.builds(ExactScalar, nonzero_rationals),
    "imaginary": st.builds(lambda y: ExactScalar(0, y), nonzero_rationals),
    "mixed": st.builds(ExactScalar, nonzero_rationals, nonzero_rationals),
}
kinds = st.sampled_from(sorted(KINDS))
coefficients = kinds.flatmap(lambda k: KINDS[k])


def kind_matrices(dim, kind):
    entry = KINDS[kind] if kind != "mixed" else st.one_of(*KINDS.values())
    entries = st.dictionaries(
        st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)), entry, max_size=dim * dim
    )
    return entries.map(lambda e: ExactMatrix(dim, e))


def part_matrices(dim):
    return kinds.flatmap(lambda k: kind_matrices(dim, k))


part_pairs = dims.flatmap(lambda d: st.tuples(part_matrices(d), part_matrices(d)))


def ref_conj_transpose(a):
    return [[a[j][i].conj() for j in range(len(a))] for i in range(len(a))]


@settings(max_examples=80, deadline=None)
@given(part_pairs, coefficients)
def test_parts_product_sum_and_multiple(ab, c):
    a, b = ab
    da, db = dense(a), dense(b)
    assert_matches(a @ b, ref_mul(da, db))
    assert_matches(a + b, ref_add(da, db))
    assert_matches(a - b, ref_add(da, db, -1))
    assert_matches(a * c, ref_scale(da, c))
    assert_matches(a.conj_transpose(), ref_conj_transpose(da))


@settings(max_examples=60, deadline=None)
@given(dims.flatmap(part_matrices), dims.flatmap(part_matrices))
def test_parts_kron(a, b):
    assert_matches(kron(a, b), ref_kron(dense(a), dense(b)))


def ref_kron_sum(terms, b_dim):
    """sum of c * a (x) b over the terms (c, a, b), each product built entry
    by entry; zero sums are left out.
    """
    total = {}
    for c, a, b in terms:
        for i1, arow in a.items():
            for j1, x in arow.items():
                for i2, brow in b.items():
                    for j2, y in brow.items():
                        key = (i1 * b_dim + i2, j1 * b_dim + j2)
                        total[key] = total.get(key, 0) + c * x * y
    rows = {}
    for (i, j), v in total.items():
        if v:
            rows.setdefault(i, {})[j] = v
    return rows


@st.composite
def kron_cases(draw):
    """(terms, a_rows, b_dim, cancelled row): one to three terms (c, a, b)
    of sparse int rows, a with at most a_rows rows, and when drawn a last
    term that cancels the product of the first in one row, a row of a that
    no other term has, so that row of the sum vanishes.
    """
    a_dim, b_dim = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    ints = st.integers(-3, 3)

    def rows(dim):
        row = st.dictionaries(st.integers(0, dim - 1), ints, max_size=dim)
        drawn = draw(st.dictionaries(st.integers(0, dim - 1), row))
        return {i: r for i, row in drawn.items() if (r := {j: v for j, v in row.items() if v})}

    terms = [(draw(ints.filter(bool)), rows(a_dim), rows(b_dim)) for _ in range(draw(st.integers(1, 3)))]
    cancelled = None
    if draw(st.booleans()):
        c, a, b = terms[0]
        i1, i2 = a_dim, draw(st.integers(0, b_dim - 1))
        a[i1] = {draw(st.integers(0, a_dim - 1)): draw(ints.filter(bool))}
        b[i2] = b.get(i2) or {draw(st.integers(0, b_dim - 1)): draw(ints.filter(bool))}
        terms.append((-c, {i1: a[i1]}, {i2: b[i2]}))
        cancelled = i1 * b_dim + i2
    return terms, a_dim + 1, b_dim, cancelled


@settings(max_examples=150, deadline=None)
@given(kron_cases())
def test_kron_kernel_matches_the_sum_of_single_products(case):
    terms, _, b_dim, cancelled = case
    got = _backend.mat_kron(terms, b_dim)
    assert got == ref_kron_sum(terms, b_dim)
    assert all(row and all(type(v) is int and v for v in row.values()) for row in got.values())
    if cancelled is not None:
        assert cancelled not in got
    for c, a, b in terms:
        assert _backend.mat_kron([(c, a, b)], b_dim) == ref_kron_sum([(c, a, b)], b_dim)


@settings(max_examples=60, deadline=None)
@given(kron_cases())
def test_kron_kernel_cancels_a_sum_completely(case):
    terms, _, b_dim, _ = case
    c, a, b = terms[0]
    assert _backend.mat_kron([(c, a, b), (-c, a, b)], b_dim) == {}
    assert _backend.mat_kron([(c, a, b), (-c, a, b)] + terms, b_dim) == ref_kron_sum(terms, b_dim)


@settings(max_examples=100, deadline=None)
@given(kron_cases())
def test_kron_kernel_on_squares_and_other_terms(case):
    # a sum of Kronecker squares, like C, groups one set of positions for
    # both sides; a term that is not a square needs the right side's own
    terms, _, b_dim, _ = case
    squares = [(c, b, b) for c, _, b in terms]
    assert _backend.mat_kron(squares, b_dim) == ref_kron_sum(squares, b_dim)
    mixed = squares + terms[:1]
    assert _backend.mat_kron(mixed, b_dim) == ref_kron_sum(mixed, b_dim)


@st.composite
def proportional_factors(draw):
    """(factors, dim): dim-square matrices, one per term, whose every
    nonzero position carries a multiple of one vector p over the terms.  p
    has a negative first value, and every multiple is divisible by g = 2 or
    3, so each position's vector has a gcd above 1.
    """
    dim = draw(st.integers(1, 3))
    p = [-draw(st.integers(1, 3))] + draw(st.lists(st.integers(-3, 3).filter(bool), min_size=0, max_size=2))
    cells = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1))
    g = draw(st.integers(2, 3))
    multiples = draw(st.dictionaries(cells, st.integers(-2, 2).filter(bool).map(lambda m: g * m), min_size=1))
    factors = [{} for _ in p]
    for (i, j), m in multiples.items():
        for rows, v in zip(factors, p):
            rows.setdefault(i, {})[j] = m * v
    return factors, dim


@settings(max_examples=100, deadline=None)
@given(proportional_factors(), proportional_factors(), st.data())
def test_kron_kernel_groups_proportional_positions(left, right, data):
    # all positions of the left factors share one bucket, whatever their
    # multiple, and so do those of the right factors
    (a_factors, _), (b_factors, b_dim) = left, right
    n = min(len(a_factors), len(b_factors))
    coeffs = data.draw(st.lists(st.integers(-3, 3).filter(bool), min_size=n, max_size=n))
    terms = list(zip(coeffs, a_factors, b_factors))
    assert _backend.mat_kron(terms, b_dim) == ref_kron_sum(terms, b_dim)
    for factors in (a_factors[:n], b_factors[:n]):
        assert len(_backend._buckets(factors)) == 1


def test_kron_kernel_reads_a_proportional_pair_once():
    # (0, 0) and (0, 1) of a carry (-2, 4) and (3, -6), both (1, -2) up to
    # their multiples -2 and 3, so they share a bucket
    a0, a1 = {0: {0: -2, 1: 3}}, {0: {0: 4, 1: -6}}
    b0, b1 = {0: {0: 1}}, {0: {0: 1}}
    terms = [(5, a0, b0), (1, a1, b1)]  # K = 5 * 1 * 1 + 1 * -2 * 1 = 3
    assert _backend._buckets([a0, a1]) == {(0, 1, 1, -2): [(0, 0, -2), (0, 1, 3)]}
    assert _backend.mat_kron(terms, 1) == {0: {0: -6, 1: 9}} == ref_kron_sum(terms, 1)


@settings(max_examples=60, deadline=None)
@given(kron_cases(), st.data())
def test_kron_kernel_skips_a_zero_coefficient_and_an_empty_factor(case, data):
    terms, _, b_dim, _ = case
    c, a, b = terms[0]
    idle = [(0, a, b), (c, {}, b), (c, a, {})]
    mixed = list(terms)
    for term in data.draw(st.lists(st.sampled_from(idle), min_size=1, max_size=3)):
        mixed.insert(data.draw(st.integers(0, len(mixed))), term)
    assert _backend.mat_kron(mixed, b_dim) == ref_kron_sum(terms, b_dim)
    assert _backend.mat_kron(idle, b_dim) == {}


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_kron_kernel_builds_the_split_casimir_sum(r, monkeypatch):
    # the r(2r-1) terms g (x) g of C: positions shared by several generators
    # fall in common buckets, and most products cancel
    generators = rotation_generators(r)
    real, calls = _backend.mat_kron, []

    def recorded(terms, b_dim):
        calls.append((terms, b_dim, real(terms, b_dim)))
        return calls[-1][2]

    monkeypatch.setattr(_backend, "mat_kron", recorded)
    total = kron_sum([(1, g, g) for g in generators])
    assert [len(terms) for terms, _, _ in calls] == [len(generators)]
    for terms, b_dim, got in calls:
        assert got == ref_kron_sum(terms, b_dim)
    assert total == lincomb(total.dim, [(1, kron(g, g)) for g in generators])


def int_dense(rows, dim):
    return dense(ExactMatrix(dim, {(i, j): v for i, row in rows.items() for j, v in row.items()}))


# dense integer grids, rectangular where a factor has rows beyond its columns


def grid(rows, n_rows, n_cols):
    return [[rows.get(i, {}).get(j, 0) for j in range(n_cols)] for i in range(n_rows)]


def grid_rows(g):
    """The sparse rows of a dense grid: no zero entry, no empty row."""
    return {i: r for i, row in enumerate(g) if (r := {j: v for j, v in enumerate(row) if v})}


def grid_add(a, b, c=1):
    return [[x + c * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def grid_mul(a, b):
    return [[sum(x * b[k][j] for k, x in enumerate(ra)) for j in range(len(b[0]))] for ra in a]


def grid_kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def assert_clean(rows):
    assert all(row and all(type(v) is int and v for v in row.values()) for row in rows.values())


@settings(max_examples=150, deadline=None)
@given(kron_cases())
def test_kron_kernel_matches_the_dense_kron(case):
    # every prefix of the terms is one kernel call against the dense sum
    terms, a_rows, b_dim, cancelled = case
    expected = [[0] * (a_rows * b_dim) for _ in range(a_rows * b_dim)]
    for n, (c, a, b) in enumerate(terms, start=1):
        product = grid_kron(grid(a, a_rows, a_rows), grid(b, b_dim, b_dim))
        expected = grid_add(expected, product, c)
        got = _backend.mat_kron(terms[:n], b_dim)
        assert_clean(got)
        assert got == grid_rows(expected)
    if cancelled is not None:
        assert cancelled not in got


@st.composite
def product_cases(draw):
    """(dim, terms): one to three terms (c, a, b) of sparse int rows, in
    which a row of a or of b may be missing, and when drawn a last term that
    takes the first product back out of some of its rows, so those rows of
    the sum cancel to zero unless another term reaches them.
    """
    dim = draw(st.integers(1, 4))
    ints = st.integers(-3, 3)

    def rows():
        row = st.dictionaries(st.integers(0, dim - 1), ints, max_size=dim)
        drawn = draw(st.dictionaries(st.integers(0, dim - 1), row))
        return {i: r for i, row in drawn.items() if (r := {j: v for j, v in row.items() if v})}

    terms = [(draw(ints), rows(), rows()) for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        c, a, b = terms[0]
        kept = draw(st.sets(st.sampled_from(sorted(a)))) if a else set()
        terms.append((-c, {i: a[i] for i in kept}, b))
    return dim, terms


@settings(max_examples=150, deadline=None)
@given(product_cases())
def test_add_product_matches_the_dense_products(case):
    # the sum is read after every term and is then added to again, as the
    # recurrence of elementary_products reads e_(k-1)
    dim, terms = case
    total = _backend.RowsSum()
    expected = [[ZERO] * dim for _ in range(dim)]
    for c, a, b in terms:
        total.add_product(c, a, b)
        product = ref_mul(int_dense(a, dim), int_dense(b, dim))
        expected = ref_add(expected, ref_scale(product, ExactScalar(c)))
        got = total.rows()
        assert all(row and all(type(v) is int and v for v in row.values()) for row in got.values())
        assert int_dense(got, dim) == expected
    c, a, b = terms[0]
    assert int_dense(_backend.mat_mul(a, b), dim) == ref_mul(int_dense(a, dim), int_dense(b, dim))


@settings(max_examples=60, deadline=None)
@given(
    dims.flatmap(lambda d: st.lists(st.tuples(part_matrices(d), part_matrices(d)), min_size=1, max_size=3)),
    st.booleans(),
)
def test_scaled_sum_adds_complex_products(pairs, cancel):
    # real, imaginary and mixed factors; a last product -a @ b of the first
    # pair, when drawn, cancels it
    if cancel:
        a, b = pairs[0]
        pairs = [*pairs, (-a, b)]
    dim = pairs[0][0].dim
    total = ScaledSum(dim, Rat(1, lcm(*((a.scale * b.scale).denominator for a, b in pairs))))
    expected = [[ZERO] * dim for _ in range(dim)]
    for a, b in pairs:
        total.add_product(a, b)
        expected = ref_add(expected, ref_mul(dense(a), dense(b)))
    assert_matches(total.matrix(), expected)


def identity_rows(dim):
    return {i: {i: 1} for i in range(dim)}


@st.composite
def mixed_sums(draw):
    """(dim, terms, cancel): terms (kind, c, args) of both kinds of
    ``RowsSum`` on one space of dimension dim, the first a multiple of a
    nonzero matrix.  ``cancel``, when drawn, is the kind of a last term that
    takes back the sum's row at the lowest row index of the first term, so
    that row empties.
    """
    dim = draw(st.integers(1, 9))
    ints = st.integers(-3, 3)

    def rows(count, width):
        row = st.dictionaries(st.integers(0, width - 1), ints, max_size=width)
        drawn = draw(st.dictionaries(st.integers(0, count - 1), row))
        return {i: r for i, row in drawn.items() if (r := {j: v for j, v in row.items() if v})}

    def nonempty(count, width):
        i, j = draw(st.integers(0, count - 1)), draw(st.integers(0, width - 1))
        return {**rows(count, width), i: {j: draw(ints.filter(bool))}}

    terms = [("add", draw(ints.filter(bool)), (nonempty(dim, dim),))]
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["add", "product"]))
        args = (rows(dim, dim),) if kind == "add" else (rows(dim, dim), rows(dim, dim))
        terms.append((kind, draw(ints), args))
    cancel = draw(st.sampled_from([None, "add", "product"]))
    return dim, terms, cancel


def mixed_term(total, dim, kind, c, args):
    """Add c times one term of the given kind into a RowsSum, and return
    the term's dense grid, without c.
    """
    if kind == "add":
        (a,) = args
        total.add(c, a)
        return grid(a, dim, dim)
    a, b = args
    total.add_product(c, a, b)
    return grid_mul(grid(a, dim, dim), grid(b, dim, dim))


@settings(max_examples=200, deadline=None)
@given(mixed_sums(), st.booleans())
def test_one_rows_sum_takes_every_kind_of_term(case, read_between):
    # each kind of term lands in rows that other kinds formed; the sum is
    # clean whether or not it was read between additions
    dim, terms, cancel = case
    total = _backend.RowsSum()
    expected = [[0] * dim for _ in range(dim)]
    for kind, c, args in terms:
        expected = grid_add(expected, mixed_term(total, dim, kind, c, args), c)
        if read_between:
            got = total.rows()
            assert_clean(got)
            assert got == grid_rows(expected)
    (_, _, (a,)) = terms[0]
    emptied = min(a)
    row = grid_rows(expected).get(emptied)
    if cancel is not None and row:
        back = {"add": ({emptied: row},), "product": ({emptied: row}, identity_rows(dim))}
        expected = grid_add(expected, mixed_term(total, dim, cancel, -1, back[cancel]), -1)
        assert not any(expected[emptied])
    got = total.rows()
    assert_clean(got)
    assert got == grid_rows(expected)
    if cancel is not None:
        assert emptied not in got


@settings(max_examples=80, deadline=None)
@given(part_pairs)
def test_parts_rank_and_trace(ab):
    a, b = ab
    assert a.rank() == ref_rank(dense(a))
    assert a.trace() == ref_trace(dense(a))
    thin = a @ ExactMatrix(a.dim, {(0, 0): 1}) @ b
    assert thin.rank() == ref_rank(dense(thin))


def test_rank_of_a_mixed_matrix_is_its_complex_rank():
    # both parts have rank 2, the matrix has rank 1: row 1 is i times row 0
    m = ExactMatrix(2, {(0, 0): 1, (0, 1): ExactScalar(0, 1), (1, 0): ExactScalar(0, 1), (1, 1): -1})
    assert m.rank() == 1
    assert (m + ExactMatrix.identity(2)).rank() == 2


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
        lambda d: st.tuples(st.just(d), part_matrices(d[0] * d[1]))
    )
)
def test_parts_partial_trace(case):
    (d1, d2), a = case
    assert_matches(partial_trace(a, d2), ref_partial_trace(dense(a), d1, d2))


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 3).flatmap(lambda d: st.lists(part_matrices(d), min_size=2, max_size=4)))
def test_parts_elementary_products(factors):
    got = elementary_products(factors)
    ref = ref_elementary_products([dense(m) for m in factors])
    for m, r in zip(got, ref):
        assert_matches(m, r)


@settings(max_examples=40, deadline=None)
@given(dims.flatmap(part_matrices))
def test_support_reads_the_parts(a):
    entries = {(i, j): v for i, j, v in a.items()}
    assert list(a.support()) == list(entries)


def test_imaginary_content_is_divided_out():
    # content is taken over both parts: 2 + 4i over 6 is (1 + 2i) / 3
    m = ExactMatrix(2, {(0, 0): ExactScalar(Rat(1, 3)), (1, 1): ExactScalar(0, Rat(2, 3))})
    assert m._re == {0: {0: 1}} and m._im == {1: {1: 2}} and m.scale == Rat(1, 3)
    assert_matches(m * 6, [[ExactScalar(2), ZERO], [ZERO, ExactScalar(0, 4)]])
