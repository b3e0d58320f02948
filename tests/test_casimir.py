from itertools import combinations
from math import factorial

import pytest

from spincas import _backend, casimir, linalg, report
from spincas.clifford import antisym_gamma, build_gamma, chain_generators, rotation_generators

CHAIN_GENERATORS = chain_generators
from spincas.linalg import ExactMatrix, kron, kron_sum
from spincas.ratfunc import Poly
from spincas.scalar import Rat

from failing import failing_checks, replace


def test_split_casimir_shape_and_trace():
    c = casimir.split_casimir_rho(2)
    assert c.matrix.dim == 16
    assert c.matrix.trace() == 0
    assert c.matrix.conj_transpose() == c.matrix


def test_scalar_relation_to_quadratic_invariant():
    # I_2 = -32(r-1) C on the tensor square
    for r in (2, 3):
        lhs = casimir.invariant_I(r, 2)
        rhs = casimir.split_casimir_rho(r).matrix * Rat(-32 * (r - 1))
        assert lhs == rhs


def test_invariant_vanishes_beyond_top_degree():
    assert casimir.invariant_I(2, 5).is_zero()
    assert casimir.invariant_I(3, 7).is_zero()


@pytest.mark.parametrize("r", [2, 3, 4])
def test_recurrences(r):
    record = casimir.verify_recurrences(r)
    assert record.ok, [c.check_id for c in failing_checks(record)]


@pytest.mark.parametrize("r", [2, 3, 4])
def test_polynomial_consistency(r):
    record = casimir.polynomial_consistency(r)
    assert record.ok, [c.check_id for c in failing_checks(record)]


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_polynomial_generator_matches_reference_tables(r):
    for k in range(2, 7):
        assert casimir.i2k_polynomial(r, k) == casimir.reference_even_polynomial(r, k)


def test_a_wrong_reference_table_fails_with_both_polynomials(monkeypatch):
    real = casimir.reference_even_polynomial
    monkeypatch.setattr(casimir, "reference_even_polynomial", lambda r, k: real(r, k) + Poly.const(int(k == 3)))
    (reference,) = [record for record in report.invariants_suite(2) if record.name.startswith("reference-")]
    failed = {c.check_id: c.witness for c in failing_checks(reference)}
    assert failed == {"table-k3": f"{casimir.i2k_polynomial(2, 3)} != {real(2, 3) + Poly.const(1)}"}


@pytest.mark.parametrize("r", [2, 3])
def test_power_traces_match_closed_forms_directly(r):
    c = casimir.split_casimir_rho(r).matrix
    power = c @ c
    for m in range(2, 6):
        value = power.trace()
        assert value.im == 0
        assert value.re == casimir.casimir_power_trace_closed_form(r, m)
        power = power @ c


@pytest.mark.parametrize("r", [2, 3, 4])
def test_block_structure(r):
    record = casimir.block_structure_check(r)
    assert record.ok, [c.check_id for c in failing_checks(record)]


@pytest.mark.parametrize("r", [2, 3])
def test_a_cross_sector_entry_fails_with_the_entry(monkeypatch, r):
    # row 0 is e_0 (x) e_0, in ++; the last column is in --.  A sector block
    # restricts C to its sector, which drops the entry, so a block cached
    # here is the real one
    real = casimir.split_casimir_rho(r)
    last = 4**r - 1
    crossed = casimir.SplitCasimir(r=r, matrix=real.matrix + ExactMatrix(4**r, {(0, last): 1}))
    monkeypatch.setattr(casimir, "split_casimir_rho", lambda rank: crossed)
    failed = {c.check_id: c.witness for c in failing_checks(casimir.block_structure_check(r))}
    assert failed["no-cross-sector-entries"] == f"entry (0, {last}) joins sector ++ to sector --"
    assert failed["sector-blocks-sum-to-operator"] == f"first differing entry (0, {last}): 0/1 != 1/1"


@pytest.mark.parametrize("r", [2, 3])
def test_ad_invariance(r):
    assert casimir.ad_invariance_check(r).ok


def test_ad_invariance_fails_without_one_chain_generator(monkeypatch):
    r = 3
    monkeypatch.setattr(casimir, "chain_generators", lambda rank: CHAIN_GENERATORS(rank)[1:])
    record = casimir.ad_invariance_check(r)
    assert [c.check_id for c in record.checks] == ["commutes-with-diagonal-action"]
    assert not record.ok
    assert "chain generators reach" in record.checks[0].witness


def test_ad_invariance_witness_names_the_first_differing_entry(monkeypatch):
    r = 2
    c = casimir.split_casimir_rho(r)
    perturbed = replace(c, matrix=c.matrix + ExactMatrix(c.matrix.dim, {(0, 1): 1}))
    monkeypatch.setattr(casimir, "split_casimir_rho", lambda rank: perturbed)
    record = casimir.ad_invariance_check(r)
    witness = record.checks[0].witness
    assert not record.ok
    assert witness.startswith("C does not commute with L_(") and "first differing entry (" in witness


def test_kronecker_sums_make_one_kernel_call_per_nonzero_part(monkeypatch):
    # each g = rho(M_ij) is real or imaginary, so g (x) g is real: C is one
    # call over all r(2r-1) generators, and g (x) 1 + 1 (x) g and
    # C2 (x) 1 + 1 (x) C2 are one call each over their two terms
    real = _backend.mat_kron
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    for r in (3, 4):
        rotation_generators(r)  # built before the count
    casimir.split_casimir_rho.cache_clear()
    monkeypatch.setattr(_backend, "mat_kron", counted)
    try:
        casimir.split_casimir_rho(4)
        assert len(calls) == 1
        assert [len(terms) for terms, _ in calls] == [28]
        casimir.split_casimir_rho(3)
        calls.clear()
        assert casimir.coproduct_consistency(3).ok
        assert len(calls) == 16
        assert [len(terms) for terms, _ in calls] == [2] * 16
    finally:
        casimir.split_casimir_rho.cache_clear()


def test_a_wrong_spinor_casimir_fails_with_a_witness(monkeypatch):
    real = casimir.c2_closed_form
    monkeypatch.setattr(casimir, "c2_closed_form", lambda *args: real(*args) + 1)
    failed = {c.check_id: c.witness for c in failing_checks(casimir.coproduct_consistency(2))}
    assert list(failed) == ["single-space-casimir-scalar"]
    assert failed["single-space-casimir-scalar"].startswith("first differing entry (0, 0)")


def test_a_diagonal_action_missing_a_term_fails_the_split(monkeypatch):
    # d_g = g (x) 1 for one generator: the left side loses that generator's
    # 1 (x) g terms, while the single-space Casimir does not read d_g
    r = 2
    first = rotation_generators(r)[0]
    real = casimir.diagonal_action

    def perturbed(g):
        return kron(g, ExactMatrix.identity(g.dim)) if g is first else real(g)

    monkeypatch.setattr(casimir, "diagonal_action", perturbed)
    record = casimir.coproduct_consistency(r)
    assert [c.check_id for c in record.checks] == ["coproduct-split", "single-space-casimir-scalar"]
    failed = {c.check_id: c.witness for c in failing_checks(record)}
    assert list(failed) == ["coproduct-split"]
    assert failed["coproduct-split"].startswith("first differing entry (")


@pytest.mark.parametrize("r", [2, 3])
def test_coproduct_consistency(r):
    assert casimir.coproduct_consistency(r).ok


@pytest.mark.parametrize("r", [2, 3])
def test_duality_sweep(r):
    assert casimir.lemma_duality_sweep(r).ok


def test_sector_indices_partition():
    r = 3
    seen = []
    for sector in casimir.SECTORS:
        indices = casimir.sector_indices(r, sector)
        assert len(indices) == 4 ** (r - 1)
        seen.extend(indices)
    assert sorted(seen) == list(range(4**r))


def test_sector_restrict_embed_roundtrip():
    r = 2
    c = casimir.split_casimir_rho(r).matrix
    total = ExactMatrix.zero(c.dim)
    for sector in casimir.SECTORS:
        indices = casimir.sector_indices(r, sector)
        total = total + c.restrict(indices).embed(indices, 4**r)
    assert total == c


def _old_invariant_I(r, k):
    """The former definition: k! times the sum of Kronecker squares of the
    antisymmetrized gamma products over increasing multi-indices."""
    rep = build_gamma(r)
    gammas = [antisym_gamma(rep, idx) for idx in combinations(range(1, 2 * r + 1), k)]
    if not gammas:
        return ExactMatrix.zero(4**r)
    return kron_sum([(1, g, g) for g in gammas]) * factorial(k)


@pytest.mark.parametrize("r", [2, 3, 4])
def test_invariants_match_sum_of_kron_squares(r):
    for k in range(2 * r + 2):
        assert casimir.invariant_I(r, k) == _old_invariant_I(r, k), k


@pytest.mark.parametrize("r", [2, 3, 4])
def test_split_casimir_does_not_use_the_invariants(r, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("split_casimir_rho went through the invariants")

    monkeypatch.setattr(casimir, "invariant_I", refuse)
    monkeypatch.setattr(casimir, "_elementary_invariants", refuse)
    monkeypatch.setattr(casimir, "elementary_products", refuse)
    monkeypatch.setattr(linalg, "elementary_products", refuse)
    rebuilt = casimir.split_casimir_rho.__wrapped__(r)
    assert rebuilt.matrix == casimir.split_casimir_rho(r).matrix


@pytest.fixture
def cold_invariant_caches():
    """The invariant cache empty before and after the test, so no perturbed
    build outlives it."""
    casimir._elementary_invariants.cache_clear()
    yield
    casimir._elementary_invariants.cache_clear()


@pytest.mark.parametrize("r", [2, 3])
def test_recurrences_fail_on_a_perturbed_gamma(r, monkeypatch, cold_invariant_caches):
    rep = build_gamma(r)
    first = rep.gammas[0]
    entries = {(i, j): value for i, j, value in first.items()}
    i, j = next(iter(entries))
    entries[(i, j)] = entries[(i, j)] * 2
    perturbed = replace(rep, gammas=(ExactMatrix(first.dim, entries),) + rep.gammas[1:])
    monkeypatch.setattr(casimir, "build_gamma", lambda rank: perturbed if rank == r else build_gamma(rank))
    record = casimir.verify_recurrences(r)
    assert not record.ok
    assert failing_checks(record) and all(check.witness for check in failing_checks(record))
    assert build_gamma(r).gammas[0] == first
