"""Sparse exact matrices against a naive dense reference over Q(i).

The reference keeps a matrix as a list of rows of ``ExactScalar`` values and
implements every operation by its textbook definition.  Each property checks
exact equality twice: entrywise against the reference, and as ``==`` with a
matrix rebuilt from the reference entries, which holds only if both sides
reached the same canonical (scale, integer rows) form.
"""

from itertools import combinations
from math import gcd

from hypothesis import assume, given, settings, strategies as st

from spincas.linalg import (
    ExactMatrix,
    TensorShape,
    elementary_products,
    kron,
    partial_trace,
    trace_of_product,
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


def ref_partial_trace(a, d1, d2, leg):
    if leg == 2:
        return [
            [sum((a[i * d2 + t][j * d2 + t] for t in range(d2)), ZERO) for j in range(d1)]
            for i in range(d1)
        ]
    return [
        [sum((a[t * d2 + i][t * d2 + j] for t in range(d1)), ZERO) for j in range(d2)]
        for i in range(d2)
    ]


def assert_matches(m: ExactMatrix, ref) -> None:
    """Entrywise equal to the reference, and in the one canonical form."""
    assert dense(m) == ref
    assert m == from_dense(ref)
    assert m.scale > 0
    parts = [x for row in m._rows.values() for v in row.values() for x in v]
    assert all(row for row in m._rows.values())
    assert all(v != (0, 0) for row in m._rows.values() for v in row.values())
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
    thin = a @ ExactMatrix.diagonal([1] + [0] * (a.dim - 1)) @ b
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
        lambda d: st.tuples(st.just(d), matrices(d[0] * d[1]), st.sampled_from([1, 2]))
    )
)
def test_partial_trace(case):
    (d1, d2), a, leg = case
    got = partial_trace(a, TensorShape([d1, d2]), leg)
    assert_matches(got, ref_partial_trace(dense(a), d1, d2, leg))


@settings(max_examples=40, deadline=None)
@given(pairs)
def test_trace_of_product(ab):
    a, b = ab
    assert trace_of_product(a, b) == (a @ b).trace()
    assert trace_of_product(a, b) == ref_trace(ref_mul(dense(a), dense(b)))


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
    assert (a @ b)._rows == {0: {0: (1, 0)}} and (a @ b).scale == 2
