"""Split Casimir operator on the spinor tensor square and the invariants I_k.

The operator lives on the 4^r-dimensional space of the tensor square of the
full 2^r-dimensional spinor space.  With the grading element diagonal, it is
block diagonal over the four chirality sectors; each sector block is kept as
a compressed matrix on its own coordinate set.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, lcm

from .clifford import (
    build_gamma,
    chain_generators,
    chain_pairs,
    chirality_indices,
    closure_failures,
    rotation_generators,
)
from .linalg import (
    ExactMatrix,
    PowerTable,
    ScaledSum,
    diagonal_action,
    elementary_products,
    kron,
    kron_sum,
    lincomb,
    poly_eval,
)
from .oracles import c2_closed_form, casimir_contraction, inverse_metric_diagonal
from .ratfunc import Poly
from .records import VerificationRecord, mismatch
from .scalar import Rat

SECTORS = ("++", "+-", "-+", "--")


class SplitCasimir:
    __slots__ = ("r", "matrix")

    def __init__(self, r: int, matrix: ExactMatrix):
        self.r, self.matrix = r, matrix


@lru_cache(maxsize=None)
def split_casimir_rho(r: int) -> SplitCasimir:
    """-1/(2(N-2)) sum_{i<j} rho(M_ij) (x) rho(M_ij) with N = 2r."""
    if r < 2:
        raise ValueError("rank must be at least 2")
    factor = inverse_metric_diagonal(2 * r)
    return SplitCasimir(r=r, matrix=kron_sum([(factor, g, g) for g in rotation_generators(r)]))


def casimir_powers(r: int) -> PowerTable:
    """A fresh power table of the split Casimir operator, for the polynomials
    of one record on the full space; it lives as long as that record holds it.
    """
    return PowerTable(split_casimir_rho(r).matrix)


def invariant_I(r: int, k: int) -> ExactMatrix:
    """I_k = k! sum over increasing multi-indices of G_[idx] (x) G_[idx]."""
    if k < 0:
        raise ValueError("negative invariant index")
    dim = 4**r
    if k == 0:
        return ExactMatrix.identity(dim)
    if k > 2 * r:
        return ExactMatrix.zero(dim)
    return _elementary_invariants(r)[k] * factorial(k)


@lru_cache(maxsize=None)
def _elementary_invariants(r: int) -> tuple[ExactMatrix, ...]:
    """I_k / k! for k = 0..2r, all from the 2r matrices g_a = G_a (x) G_a.

    For increasing a_1 < ... < a_k the mixed-product rule gives
    G_[a_1..a_k] (x) G_[a_1..a_k] = g_(a_1) ... g_(a_k), so I_k / k! is the
    k-th elementary sum of ordered products of the g_a.
    """
    return elementary_products([kron(g, g) for g in build_gamma(r).gammas])


def verify_recurrences(r: int) -> VerificationRecord:
    """Both product recurrences of the invariants, entrywise."""
    record = VerificationRecord(name=f"invariant-recurrences r={r}")
    i1 = invariant_I(r, 1)
    for k in range(1, 2 * r + 1):
        lhs = invariant_I(r, k) @ i1
        rhs = invariant_I(r, k + 1) - invariant_I(r, k - 1) * (k * (k - 1 - 2 * r))
        record.add_equal(f"product-with-I1-k{k}", lhs, rhs)
    i2 = invariant_I(r, 2)
    for k in range(1, r + 1):
        lhs = invariant_I(r, 2 * k) @ i2
        rhs = (
            invariant_I(r, 2 * k + 2)
            + invariant_I(r, 2 * k) * (8 * k * (r - k))
            + invariant_I(r, 2 * k - 2)
            * (4 * k * (2 * k - 1) * (r + 1 - k) * (2 * r + 1 - 2 * k))
        )
        record.add_equal(f"product-with-I2-k{k}", lhs, rhs)
    return record


def i2k_polynomial(r: int, k: int) -> Poly:
    """I_{2k} as a degree-k polynomial in the split Casimir operator C,
    generated by the even recurrence
    p_{m+1} = p_m * I_2 + a_m p_m + b_m p_{m-1}, with p_m the polynomial of
    I_{2m}, from p_0 = 1 and the polynomial of I_2 = -32(r-1) C.
    """
    if k < 0:
        raise ValueError("negative invariant index")
    i2 = Poly([0, -32 * (r - 1)])
    polys = [Poly.const(1), i2]
    for m in range(1, k):
        a = -8 * m * (r - m)
        b = -4 * m * (2 * m - 1) * (r + 1 - m) * (2 * r + 1 - 2 * m)
        polys.append(polys[m] * i2 + polys[m] * a + polys[m - 1] * b)
    return polys[k]


def reference_even_polynomial(r: int, k: int) -> Poly:
    """Closed-form coefficient tables for I_4 .. I_12, independent of the
    recurrence generator; used to cross-check i2k_polynomial.
    """
    R = Rat(r)
    if k == 2:
        return Poly([
            -4 * R * (2 * R - 1),
            Rat(256) * (R - 1) ** 2,
            Rat(1024) * (R - 1) ** 2,
        ])
    if k == 3:
        return Poly([
            64 * R * (R - 2) * (2 * R - 1),
            -128 * (R - 1) * (18 * R**2 - 65 * R + 46),
            -8192 * (R - 1) ** 2 * (3 * R - 5),
            Rat(-32768) * (R - 1) ** 3,
        ])
    if k == 4:
        return Poly([
            -48 * R * (R - 2) * (2 * R - 1) * (22 * R - 71),
            2**11 * (R - 1) * (10 * R**3 - 91 * R**2 + 217 * R - 132),
            2**13 * (R - 1) ** 2 * (66 * R**2 - 301 * R + 308),
            2**19 * (R - 1) ** 3 * (3 * R - 7),
            2**20 * (R - 1) ** 4,
        ])
    if k == 5:
        return Poly([
            2**9 * (R - 2) * R * (2 * R - 9) * (2 * R - 1) * (19 * R - 62),
            -(2**9) * (R - 1)
            * (140 * R**4 - 5820 * R**3 + 36351 * R**2 - 72610 * R + 40536),
            -(2**16) * (R - 1) ** 2 * (190 * R**3 - 1665 * R**2 + 4473 * R - 3590),
            -(2**18) * (R - 1) ** 3 * (230 * R**2 - 1335 * R + 1806),
            -(2**24) * 5 * (R - 1) ** 4 * (R - 3),
            -(2**25) * (R - 1) ** 5,
        ])
    if k == 6:
        return Poly([
            -320 * R * (R - 2) * (2 * R - 9) * (2 * R - 1)
            * (622 * R**2 - 5755 * R + 12172),
            -(2**12) * (R - 1)
            * (
                1404 * R**5
                - 2200 * R**4
                - 105897 * R**3
                + 607695 * R**2
                - 1108426 * R
                + 585720
            ),
            2**14 * (R - 1) ** 2
            * (
                18660 * R**4
                - 269060 * R**3
                + 1354221 * R**2
                - 2778930 * R
                + 1914616
            ),
            2**21 * (R - 1) ** 3 * (1070 * R**3 - 11165 * R**2 + 36663 * R - 37400),
            2**22 * (R - 1) ** 4 * (1170 * R**2 - 8305 * R + 13992),
            2**28 * 5 * (R - 1) ** 5 * (3 * R - 11),
            2**30 * (R - 1) ** 6,
        ])
    raise ValueError("reference table covers k = 2..6 only")


def casimir_power_trace_closed_form(r: int, m: int) -> Rat:
    """Closed forms for the trace of the m-th power, m = 2..5, times 4^r."""
    tr_i0 = Rat(4**r)
    if m == 2:
        return Rat(r * (2 * r - 1), 256 * (r - 1) ** 2) * tr_i0
    if m == 3:
        return -Rat(r * (2 * r - 1), 1024 * (r - 1) ** 2) * tr_i0
    if m == 4:
        return Rat(r * (2 * r - 1) * (30 * r**2 - 63 * r + 34), 2**16 * (r - 1) ** 4) * tr_i0
    if m == 5:
        return -Rat(r * (2 * r - 1) * (34 * r**2 - 89 * r + 62), 2**17 * (r - 1) ** 4) * tr_i0
    raise ValueError("closed forms cover m = 2..5 only")


# -- chirality sectors ------------------------------------------------------


def sector_indices(r: int, sector: str) -> tuple[int, ...]:
    """Flat coordinates of the sector block; leg 1 is the slow index."""
    if sector not in SECTORS:
        raise ValueError(f"sector must be one of {SECTORS}")
    first, second = (chirality_indices(r, eps) for eps in sector)
    return tuple(i1 * 2**r + i2 for i1 in first for i2 in second)


@lru_cache(maxsize=None)
def sector_casimir(r: int, sector: str) -> ExactMatrix:
    """The sector block, compressed to the coordinates of ``sector_indices``;
    a bad sector name is refused before the operator is built.
    """
    indices = sector_indices(r, sector)
    return split_casimir_rho(r).matrix.restrict(indices)


def block_structure_check(r: int) -> VerificationRecord:
    """Every nonzero entry of the split Casimir operator stays inside one
    chirality sector, and the four embedded blocks reassemble it exactly.
    """
    record = VerificationRecord(name=f"casimir-block-structure r={r}")
    c = split_casimir_rho(r).matrix
    sector_of = {i: s for s in SECTORS for i in sector_indices(r, s)}
    crossing = (
        f"entry ({i}, {j}) joins sector {sector_of[i]} to sector {sector_of[j]}"
        for i, j in c.support()
        if sector_of[i] != sector_of[j]
    )
    record.add_first_failure("no-cross-sector-entries", crossing)
    blocks = [sector_casimir(r, s).embed(sector_indices(r, s), 4**r) for s in SECTORS]
    total = lincomb(4**r, [(1, block) for block in blocks])
    record.add_equal("sector-blocks-sum-to-operator", total, c)
    return record


def ad_invariance_check(r: int) -> VerificationRecord:
    """The split Casimir operator commutes with the diagonal algebra action.

    It is decided on the 2r-1 chain generators L_(i,i+1), after checking
    that their iterated commutators reach every rotation generator, so that
    they generate the algebra.
    """
    record = VerificationRecord(name=f"casimir-ad-invariance r={r}")
    c = split_casimir_rho(r).matrix
    chain = chain_generators(r)

    def failures():
        yield from closure_failures(r, chain)
        for pair, g in zip(chain_pairs(r), chain):
            action = diagonal_action(g)
            if witness := mismatch(c @ action, action @ c):
                yield f"C does not commute with L_{pair}: {witness}"

    record.add_first_failure("commutes-with-diagonal-action", failures())
    return record


def coproduct_consistency(r: int) -> VerificationRecord:
    """The quadratic Casimir of the diagonal action splits as
    C2 (x) I + I (x) C2 + 2 C-hat, both sides built independently.
    """
    record = VerificationRecord(name=f"casimir-coproduct r={r}")
    n = 2 * r
    gens = rotation_generators(r)
    dim = 2**r
    ident = ExactMatrix.identity(dim)
    coeff = inverse_metric_diagonal(n)
    c2_single = casimir_contraction(gens, n)
    # d = g (x) 1 + 1 (x) g has integer entries over the scale of g, so every
    # d @ d is an integer matrix over the square of that scale
    den = lcm(*((g.scale * g.scale).denominator for g in gens))
    total = ScaledSum(dim * dim, Rat(1, den))
    for g in gens:
        d = diagonal_action(g)
        total.add_product(d, d)
    c2_diag = total.matrix() * coeff
    rhs = diagonal_action(c2_single) + split_casimir_rho(r).matrix * 2
    record.add_equal("coproduct-split", c2_diag, rhs)
    spinor_c2 = c2_closed_form("Delta_plus", r)
    record.add_equal("single-space-casimir-scalar", c2_single, ident * spinor_c2)
    return record


def lemma_duality_sweep(r: int) -> VerificationRecord:
    """(I (x) grading) I_k / k! = (-1)^r (grading (x) I) I_{2r-k} / (2r-k)!."""
    record = VerificationRecord(name=f"invariant-grading-duality r={r}")
    rep = build_gamma(r)
    dim = 2**r
    ident = ExactMatrix.identity(dim)
    left_op = kron(ident, rep.chirality)
    right_op = kron(rep.chirality, ident) * ((-1) ** r)
    for k in range(2 * r + 1):
        lhs = (left_op @ invariant_I(r, k)) * Rat(1, factorial(k))
        rhs = (right_op @ invariant_I(r, 2 * r - k)) * Rat(1, factorial(2 * r - k))
        record.add_equal(f"duality-k{k}", lhs, rhs)
    return record


def polynomial_consistency(r: int) -> VerificationRecord:
    """The generated coefficients, evaluated on the power table of the
    operator, reproduce each even invariant.

    Includes the first vanishing case 2k = 2r + 2, i.e. the characteristic
    identity of the operator in polynomial form.
    """
    record = VerificationRecord(name=f"even-invariant-polynomials r={r}")
    powers = casimir_powers(r)
    for k in range(r + 2):
        expected = invariant_I(r, 2 * k)
        got = poly_eval(i2k_polynomial(r, k), powers)
        record.add_equal(f"polynomial-matches-invariant-k{k}", got, expected)
    return record
