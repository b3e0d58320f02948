import re
from itertools import combinations, permutations
from math import factorial

import pytest

from spincas import casimir, clifford, oracles, spectra, ybe
from spincas.clifford import (
    antisym_gamma,
    build_gamma,
    chain_generators,
    chain_pairs,
    chirality_indices,
    closure_failures,
    integrity_report,
    rotation_generators,
)
from spincas.linalg import ExactMatrix
from spincas.records import FAIL
from spincas.scalar import ExactScalar, Rat

from failing import failing_checks, replace
from spinor_legs import half_spinor_blocks

CHIRALITY_INDICES = chirality_indices


@pytest.mark.parametrize("r", [2, 3, 4])
def test_integrity(r):
    record = integrity_report(build_gamma(r))
    assert record.ok, [c.check_id for c in failing_checks(record)]


@pytest.mark.parametrize("r, where", [(1, "(0, 1)"), (2, "(0, 3)")])
def test_a_generator_entry_outside_the_units_is_refused(monkeypatch, r, where):
    # a Pauli matrix with entry 2: the first generator built from it, G_2,
    # is named with the entry; the uncached build leaves the cache as it was
    monkeypatch.setattr(clifford, "PAULI_Y", ExactMatrix(2, {(0, 1): 2, (1, 0): ExactScalar(0, 1)}))
    with pytest.raises(ValueError, match=re.escape(f"generator G_2 has entry 2/1 at {where},")):
        build_gamma.__wrapped__(r)


def test_integrity_witnesses_name_the_first_differing_entry():
    # i G_1 is anti-hermitian, and 1 + chirality neither squares to the
    # identity nor anticommutes with any generator
    rep = build_gamma(2)
    skewed = replace(
        rep,
        gammas=(rep.gammas[0] * ExactScalar(0, 1), *rep.gammas[1:]),
        chirality=rep.chirality + ExactMatrix.identity(rep.dim),
    )
    failed = {c.check_id: c.witness for c in failing_checks(integrity_report(skewed))}
    expected = ["hermitian-1", "grading-squares-to-identity", *(f"grading-anticommutes-{i}" for i in range(1, 5))]
    for check_id in expected:
        assert failed[check_id].startswith("first differing entry"), check_id


def test_a_grading_with_two_entries_swapped_fails_the_layout():
    # +1 and -1 exchanged between the first and the last basis vector: still
    # diagonal, +-1 and traceless, but not +1 on the first half
    rep = build_gamma(2)
    last = rep.dim - 1
    swapped = rep.chirality + ExactMatrix(rep.dim, {(0, 0): -2, (last, last): 2})
    failed = {c.check_id: c.witness for c in failing_checks(integrity_report(replace(rep, chirality=swapped)))}
    assert failed["grading-diagonal-pm1"] == "first differing entry (0, 0): -1/1 != 1/1"
    assert "grading-traceless" not in failed


def test_a_grading_with_a_nonzero_trace_fails_with_the_trace():
    rep = build_gamma(2)
    shifted = rep.chirality + ExactMatrix(rep.dim, {(0, 0): 1})
    failed = {c.check_id: c.witness for c in failing_checks(integrity_report(replace(rep, chirality=shifted)))}
    assert failed["grading-traceless"] == "1/1 != 0"
    assert failed["grading-diagonal-pm1"] == "first differing entry (0, 0): 2/1 != 1/1"


def test_dimensions():
    rep = build_gamma(3)
    assert rep.dim == 8
    assert len(rep.gammas) == 6


def permutation_sign(sequence) -> int:
    """Sign of the permutation that sorts a sequence of distinct items."""
    inversions = sum(a > b for a, b in combinations(sequence, 2))
    return -1 if inversions % 2 else 1


def product(rep, indices):
    out = ExactMatrix.identity(rep.dim)
    for i in indices:
        out = out @ rep.gammas[i - 1]
    return out


@pytest.mark.parametrize("r", [2, 3])
def test_antisym_gamma_alternating(r):
    # the ordered product of increasing indices is the alternating sum
    # (1/k!) sum_s sign(s) G_s(1) ... G_s(k) over the permutations s
    rep = build_gamma(r)
    for k in (2, 3):
        for indices in combinations(range(1, 2 * r + 1), k):
            terms = [product(rep, p) * permutation_sign(p) for p in permutations(indices)]
            alternating = sum(terms[1:], terms[0]) * Rat(1, factorial(k))
            assert antisym_gamma(rep, indices) == alternating


def test_antisym_gamma_equals_plain_product_when_ordered():
    rep = build_gamma(3)
    direct = rep.gammas[0] @ rep.gammas[2] @ rep.gammas[4]
    assert antisym_gamma(rep, (1, 3, 5)) == direct
    assert antisym_gamma(rep, ()) == ExactMatrix.identity(8)


def test_antisym_gamma_range_check():
    rep = build_gamma(2)
    for indices in ((1, 5), (0, 1), (2, 1), (1, 3, 2), (1, 1), (2, 2, 3)):
        with pytest.raises(ValueError):
            antisym_gamma(rep, indices)


@pytest.mark.parametrize("r", [2, 3])
def test_duality_sweep(r):
    """The grading element times the product on an increasing index set is
    (-i)^r (-1)^[k/2] eps times the product on its complement, eps the sign
    of the index set followed by its complement.
    """
    rep = build_gamma(r)
    every = range(1, 2 * r + 1)
    for k in range(2 * r + 1):
        for indices in combinations(every, k):
            complement = tuple(i for i in every if i not in indices)
            coeff = ExactScalar(0, -1) ** r * (-1) ** (k // 2) * permutation_sign(indices + complement)
            assert product(rep, indices) @ rep.chirality == product(rep, complement) * coeff, indices


@pytest.mark.parametrize("r", [2, 3])
def test_rotation_generators_realize_commutators(r):
    """The generators (1/2) antisymmetrized gamma pairs satisfy the canonical
    commutator table computed independently from the delta formula.
    """
    n = 2 * r
    gens = dict(zip(oracles.basis_pairs(n), rotation_generators(r)))
    table = oracles.commutator_table(n)
    for a in oracles.basis_pairs(n):
        for b in oracles.basis_pairs(n):
            lhs = gens[a] @ gens[b] - gens[b] @ gens[a]
            rhs = ExactMatrix.zero(2**r)
            for c, coeff in table[(a, b)].items():
                rhs = rhs + gens[c] * coeff
            assert lhs == rhs, (a, b)


def test_rotation_generators_antihermitian():
    for g in rotation_generators(3):
        assert g.conj_transpose() == -g


@pytest.mark.parametrize("r", [2, 3])
def test_half_spinor_blocks_realize_commutators(r):
    n = 2 * r
    table = oracles.commutator_table(n)
    for eps in "+-":
        gens = dict(zip(oracles.basis_pairs(n), half_spinor_blocks(r, eps)))
        for a in oracles.basis_pairs(n):
            for b in oracles.basis_pairs(n):
                lhs = gens[a] @ gens[b] - gens[b] @ gens[a]
                rhs = ExactMatrix.zero(2 ** (r - 1))
                for c, coeff in table[(a, b)].items():
                    rhs = rhs + gens[c] * coeff
                assert lhs == rhs


@pytest.mark.parametrize("r", [2, 3, 4])
def test_spinor_casimir_value(r):
    """Quadratic Casimir of the half-spinor blocks equals the closed form."""
    closed = Rat(r * (2 * r - 1), 16 * (r - 1))
    for eps in "+-":
        blocks = half_spinor_blocks(r, eps)
        assert oracles.casimir_contraction(blocks, 2 * r) == ExactMatrix.identity(2 ** (r - 1)) * closed


def test_half_spinor_blocks_restrict_to_the_chirality_layout():
    # Delta_+ is the +1 eigenspace of the grading element, Delta_- the -1 one
    r = 3
    chirality = build_gamma(r).chirality
    for eps, sign in (("+", 1), ("-", -1)):
        indices = chirality_indices(r, eps)
        assert len(indices) == 2 ** (r - 1)
        assert chirality.restrict(indices) == ExactMatrix.identity(len(indices)) * sign
        assert half_spinor_blocks(r, eps) == tuple(g.restrict(indices) for g in rotation_generators(r))


@pytest.mark.parametrize("eps", ["", "0", "++", "plus"])
def test_bad_eps_is_refused(eps):
    # every refusal comes before the split Casimir operator is built, so
    # none misses its emptied cache
    casimir.split_casimir_rho.cache_clear()
    for call in (chirality_indices, half_spinor_blocks):
        with pytest.raises(ValueError, match="eps must be"):
            call(3, eps)
    for sector in ("+" + eps, eps + "-", eps + eps):
        for call in (casimir.sector_indices, casimir.sector_casimir):
            with pytest.raises(ValueError, match="sector must be"):
                call(3, sector)
    for call in (ybe.sector_r_matrix, spectra.permutation_symmetry):
        with pytest.raises(ValueError, match="sector must be"):
            call(3, eps)
    assert casimir.split_casimir_rho.cache_info().misses == 0


def test_patched_layout_reaches_every_user(monkeypatch):
    # with Delta_- first, the grading check fails, and the sector coordinates
    # and the half-spinor leg follow the patched layout; casimir binds the
    # name by import, so it is patched there too
    r = 3
    half = 2 ** (r - 1)
    minus = range(half, 2 * half)

    def minus_first(rank, eps):
        return CHIRALITY_INDICES(rank, "-" if eps == "+" else "+")

    for module in (clifford, casimir):
        monkeypatch.setattr(module, "chirality_indices", minus_first)
    [check] = failing_checks(integrity_report(build_gamma(r)))
    assert check.check_id == "grading-diagonal-pm1"
    assert check.witness == "first differing entry (0, 0): 1/1 != -1/1"
    assert casimir.sector_indices(r, "++") == tuple(i * 2 * half + j for i in minus for j in minus)
    assert half_spinor_blocks(r, "+") == tuple(g.restrict(minus) for g in rotation_generators(r))


def test_entry_alphabet():
    rep = build_gamma(4)
    allowed = {
        ExactScalar(1),
        ExactScalar(-1),
        ExactScalar(0, 1),
        ExactScalar(0, -1),
    }
    for g in rep.gammas:
        for _, _, value in g.items():
            assert value in allowed


@pytest.mark.parametrize("r", [2, 3, 4])
def test_chain_generators_generate_the_algebra(r):
    chain = chain_generators(r)
    assert len(chain) == len(chain_pairs(r)) == 2 * r - 1
    assert list(closure_failures(r, chain)) == []


@pytest.mark.parametrize("drop", [0, 2, -1])
def test_closure_fails_without_one_chain_generator(drop):
    r = 3
    chain = list(chain_generators(r))
    del chain[drop]
    reached, missed = {0: (10, "(1, 2)"), 2: (6, "(1, 4)"), -1: (10, "(1, 6)")}[drop]
    witnesses = list(closure_failures(r, chain))
    assert witnesses == [
        f"iterated commutators of 4 chain generators reach {reached} of 15 rotation generators; "
        f"L_{missed} is missed"
    ]


def test_closure_fails_on_a_chain_matrix_that_is_no_basis_map(monkeypatch):
    # the commutators of the other four still reach every generator, so only
    # the basis-map premise catches a sum of two chain generators
    r = 3
    chain = list(chain_generators(r))
    chain[0] = chain[0] + chain[1]
    witness = "chain generator 1 of 5 does not send e_0 to a nonzero multiple of one basis vector"
    assert list(closure_failures(r, chain)) == [witness]
    monkeypatch.setattr(casimir, "chain_generators", lambda rank: tuple(chain))
    record = casimir.ad_invariance_check(r)
    assert [(c.status, c.witness) for c in record.checks] == [(FAIL, witness)]


@pytest.mark.parametrize("factor", [ExactScalar(0, 1), ExactScalar(3), ExactScalar(Rat(-1, 2), 1)])
@pytest.mark.parametrize("k", [0, 3])
def test_closure_holds_for_a_chain_generator_times_a_scalar(monkeypatch, factor, k):
    r = 3
    chain = list(chain_generators(r))
    chain[k] = chain[k] * factor
    assert list(closure_failures(r, chain)) == []
    monkeypatch.setattr(casimir, "chain_generators", lambda rank: tuple(chain))
    assert casimir.ad_invariance_check(r).ok


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_every_gamma_product_is_traceless(r):
    assert list(clifford.product_trace_failures(build_gamma(r))) == []


def test_a_repeated_generator_fails_the_trace_premise():
    # G_1 G_1 = 1 has trace 4 at r = 2
    rep = build_gamma(2)
    twice = replace(rep, gammas=(rep.gammas[0], *rep.gammas[:1], *rep.gammas[2:]))
    assert list(clifford.product_trace_failures(twice)) == ["tr G_[1, 2] = 4/1, not 0"]
    scaled = replace(rep, gammas=(rep.gammas[0], rep.gammas[0] * Rat(1, 2), *rep.gammas[2:]))
    assert list(clifford.product_trace_failures(scaled)) == ["tr G_[1, 2] = 2/1, not 0"]


def test_a_generator_that_is_no_basis_map_fails_the_trace_premise():
    rep = build_gamma(2)
    mixed = replace(rep, gammas=(rep.gammas[0] + rep.gammas[2], *rep.gammas[1:]))
    assert list(clifford.product_trace_failures(mixed)) == [
        "G_1 does not send e_0 to a nonzero multiple of one basis vector"
    ]
