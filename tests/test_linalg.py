from operator import matmul

import pytest
from hypothesis import given, settings, strategies as st

from spincas import _backend
from spincas.linalg import (
    ExactMatrix,
    PowerTable,
    ScaledSum,
    first_difference,
    kron,
    partial_trace,
    permutation_operator,
    poly_eval,
)
from spincas.ratfunc import Poly
from spincas.scalar import ExactScalar, Rat


def small_matrix(dim=3):
    entries = st.dictionaries(
        st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1)),
        st.builds(
            ExactScalar,
            st.integers(-5, 5).map(Rat),
            st.integers(-5, 5).map(Rat),
        ),
        max_size=6,
    )
    return entries.map(lambda e: ExactMatrix(dim, e))


def test_constructors():
    ident = ExactMatrix.identity(4)
    assert ident.trace() == ExactScalar(4)
    assert ExactMatrix.zero(4).is_zero()


def test_entries_are_canonical():
    m = ExactMatrix(2, {(0, 1): ExactScalar(0), (1, 0): 3})
    assert m.nnz == 1
    assert m == ExactMatrix(2, {(1, 0): 3})


def test_out_of_range_entry_rejected():
    with pytest.raises(IndexError):
        ExactMatrix(2, {(0, 5): 1})


def test_immutability():
    m = ExactMatrix.identity(2)
    with pytest.raises(AttributeError):
        m.dim = 3


@settings(max_examples=40)
@given(small_matrix(), small_matrix(), small_matrix())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a @ (b + c) == a @ b + a @ c
    assert (a @ b) @ c == a @ (b @ c)
    assert a - a == ExactMatrix.zero(3)


@settings(max_examples=40)
@given(small_matrix(), small_matrix())
def test_transpose_product(a, b):
    assert (a @ b).transpose() == b.transpose() @ a.transpose()
    assert (a @ b).conj_transpose() == b.conj_transpose() @ a.conj_transpose()


@settings(max_examples=30)
@given(small_matrix(), st.integers(0, 4))
def test_power_table_matches_iterated_product(m, k):
    expected = ExactMatrix.identity(3)
    for _ in range(k):
        expected = expected @ m
    assert PowerTable(m).upto(k)[k] == expected


def test_rank():
    assert ExactMatrix.identity(5).rank() == 5
    assert ExactMatrix.zero(5).rank() == 0
    m = ExactMatrix(3, {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 4})
    assert m.rank() == 1


def test_kron_mixed_product():
    a = ExactMatrix(2, {(0, 1): ExactScalar(0, 1), (1, 0): 2})
    b = ExactMatrix(2, {(0, 0): 1, (1, 1): -1})
    c = ExactMatrix(2, {(0, 1): 3})
    d = ExactMatrix(2, {(1, 0): Rat(1, 2)})
    assert kron(a, b) @ kron(c, d) == kron(a @ c, b @ d)


def test_partial_trace_of_kron():
    a = ExactMatrix(3, {(0, 0): 2, (1, 2): ExactScalar(0, 1)})
    b = ExactMatrix(2, {(0, 0): 1, (1, 1): 3})
    # tracing the fast leg of a product state leaves the slow one scaled by a trace
    assert partial_trace(kron(a, b), 2) == a * b.trace()
    assert partial_trace(kron(b, a), 3) == b * a.trace()


def test_partial_trace_preserves_full_trace():
    m = ExactMatrix(6, {(i, i): i + 1 for i in range(6)})
    for inner in (1, 2, 3, 6):
        assert partial_trace(m, inner).trace() == m.trace()


def test_permutation_operator():
    p = permutation_operator(3)
    assert p @ p == ExactMatrix.identity(9)
    a = ExactMatrix(3, {(0, 1): 2})
    b = ExactMatrix(3, {(2, 0): 5})
    assert p @ kron(a, b) @ p == kron(b, a)


def test_poly_eval():
    m = ExactMatrix(2, {(0, 0): 1, (1, 1): 2})
    # x^2 - 3x + 2 annihilates diag(1, 2)
    assert poly_eval(Poly([2, -3, 1]), PowerTable(m)).is_zero()
    assert poly_eval(Poly(), PowerTable(m)).is_zero()


def test_restrict_embed_roundtrip():
    m = ExactMatrix(4, {(1, 1): 5, (1, 3): 2, (3, 3): -1})
    block = m.restrict([1, 3])
    assert block == ExactMatrix(2, {(0, 0): 5, (0, 1): 2, (1, 1): -1})
    assert block.embed([1, 3], 4) == m


def test_first_difference():
    a = ExactMatrix(2, {(0, 0): 1})
    b = ExactMatrix(2, {(0, 0): 1, (1, 1): 2})
    assert first_difference(a, a) is None
    i, j, left, right = first_difference(a, b)
    assert (i, j) == (1, 1)
    assert left == ExactScalar(0) and right == ExactScalar(2)



def test_scaled_sum_adds_products_at_its_scale():
    a = ExactMatrix(2, {(0, 1): Rat(1, 2), (1, 1): 1})
    b = ExactMatrix(2, {(0, 1): Rat(-1, 2), (1, 0): Rat(3, 4)})
    total = ScaledSum(2, Rat(1, 8))
    total.add_product(a, a)
    total.add_product(b, ExactMatrix.identity(2))
    assert total.matrix() == a @ a + b
    with pytest.raises(ValueError):
        ScaledSum(2, Rat(1, 2)).add_product(b, ExactMatrix.identity(2))  # 3/4 is not a multiple of 1/2
    with pytest.raises(ValueError):
        ScaledSum(3, Rat(1, 4)).add_product(a, a)
    with pytest.raises(ValueError):
        ScaledSum(2, Rat(1, 4)).add_product(a, ExactMatrix.identity(3))


def test_scaled_sum_at_a_scale_above_a_unit_fraction():
    # at scale 3/4, three @ half (scale 3/4) is once the scale and
    # three @ three (scale 9/4) three times; the parts are read between
    three = ExactMatrix(2, {(0, 0): 3, (0, 1): Rat(3, 2), (1, 1): ExactScalar(0, 3)})  # 3/2 [[2, 1], [0, 2i]]
    half = ExactMatrix(2, {(0, 1): Rat(1, 2), (1, 0): Rat(1, 2)})
    total = ScaledSum(2, Rat(3, 4))
    total.add_product(three, half)
    assert total.parts() == ({0: {0: 1, 1: 2}}, {1: {0: 2}})  # [[1, 2], [2i, 0]]
    total.add_product(three, three)
    # plus 3 [[4, 2 + 2i], [0, -4]]
    assert total.parts() == ({0: {0: 13, 1: 8}, 1: {1: -12}}, {0: {1: 6}, 1: {0: 2}})
    assert total.matrix() == three @ half + three @ three
    for a, b in ((three, half * Rat(1, 2)), (half, half)):  # scales 3/8 and 1/4
        with pytest.raises(ValueError):
            ScaledSum(2, Rat(3, 4)).add_product(a, b)


def test_products_make_one_kernel_call_per_pair_of_nonzero_parts(monkeypatch):
    # a real or an imaginary factor meets each nonzero part of the other once,
    # and -im @ im is added into the accumulator rather than negating a copy
    # of its left factor; two complex factors make four products, added per
    # part into one accumulator; no product is a mat_mul call and none makes
    # a product matrix or a mat_lincomb
    real = ExactMatrix(3, {(0, 1): 2, (1, 2): Rat(1, 3), (2, 0): -1})
    imaginary = ExactMatrix(3, {(0, 0): ExactScalar(0, 5), (2, 1): ExactScalar(0, -1)})
    both = real + imaginary
    calls = []
    for owner, name in ((_backend, "mat_mul"), (_backend, "mat_lincomb"), (_backend.RowsSum, "add_product")):

        def counted(*args, _name=name, _kernel=getattr(owner, name)):
            calls.append(_name)
            return _kernel(*args)

        monkeypatch.setattr(owner, name, counted)

    def kernel_calls(product, a, b):
        calls.clear()
        product(a, b)
        return calls.count("mat_mul"), calls.count("add_product"), calls.count("mat_lincomb")

    assert kernel_calls(matmul, real, real) == (0, 1, 0)
    assert kernel_calls(matmul, real, imaginary) == (0, 1, 0)
    assert kernel_calls(matmul, imaginary, imaginary) == (0, 1, 0)
    assert kernel_calls(matmul, both, both) == (0, 4, 0)
    assert imaginary @ imaginary == ExactMatrix(3, {(0, 0): -25})
