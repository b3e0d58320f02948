"""Power tables: each power is one product, made once and shared, and every
check that reads a table fails, with a witness, when a kept power is wrong.

The mutation tests serve a perturbed copy of a cached table and leave the
cached table itself as it was.
"""

import pytest

from spincas import _backend, casimir, colour, spectra
from spincas.linalg import ExactMatrix, PowerTable, poly_eval
from spincas.ratfunc import Poly
from spincas.scalar import Rat

from failing import failing_checks, replace


def perturbed_copy(table: PowerTable, n: int, degree: int) -> PowerTable:
    """A copy of the table's powers 0..degree with 1 added at (0, 0) of the
    n-th; the table itself is not changed.
    """
    copy = PowerTable(table.base)
    copy._powers = table.upto(degree)
    copy._powers[n] = copy._powers[n] + ExactMatrix(table.base.dim, {(0, 0): 1})
    return copy


@pytest.fixture
def mat_mul_calls(monkeypatch):
    """One entry per real product of integer parts: every product of exact
    matrices is added through ``RowsSum.add_product``, one call per pair of
    nonzero parts, so a product of real matrices is one call.
    """
    calls = []
    real = _backend.RowsSum.add_product

    def counted(total, c, a, b):
        calls.append(1)
        return real(total, c, a, b)

    monkeypatch.setattr(_backend.RowsSum, "add_product", counted)
    return calls


def test_a_table_makes_each_power_once(mat_mul_calls):
    # a real matrix, so that each product is one kernel call
    base = ExactMatrix(4, {(0, 1): 1, (1, 2): 2, (2, 3): 3, (3, 0): Rat(1, 2), (2, 2): -1})
    table = PowerTable(base)
    powers = table.upto(5)
    assert len(mat_mul_calls) == 4
    mat_mul_calls.clear()
    # a second caller, at this degree or below, costs no product
    assert poly_eval(Poly([1, 2, 3, 4, 5, 6]), table) == sum(
        (p * c for c, p in zip(range(2, 7), powers[1:])), ExactMatrix.identity(4)
    )
    assert poly_eval(Poly.x(), table) == base
    assert table.upto(3) == powers[:4]
    assert table.upto(5)[5] is powers[5]
    assert not mat_mul_calls
    # going further costs one product per new power
    table.upto(7)
    assert len(mat_mul_calls) == 2
    expected = [ExactMatrix.identity(4)]
    for _ in range(7):
        expected.append(expected[-1] @ base)
    assert expected == table.upto(7)


def test_a_power_beyond_the_table_is_not_kept(mat_mul_calls):
    base = ExactMatrix(3, {(0, 1): 1, (1, 2): Rat(1, 2), (2, 0): 3, (1, 1): -1})
    table = PowerTable(base)
    kept = table.upto(2)
    mat_mul_calls.clear()
    assert table.power(2) is kept[2]
    assert not mat_mul_calls
    expected = kept[2] @ base @ base @ base
    mat_mul_calls.clear()
    assert table.power(5) == expected
    assert len(mat_mul_calls) == 3  # one product per degree past the table
    assert table.upto(2) == kept and len(table._powers) == 3


def test_colour_report_leaves_the_sector_table_as_it_was():
    table = spectra.sector_spectral(2, "++").powers
    kept = list(table._powers)
    report = colour.colour_report(colour.LadderSpec(r=2, L=colour.MAX_RUNGS, sector="++"))
    assert report["record"]["ok"]
    assert table._powers == kept


def test_empty_polynomial_is_zero_without_products(mat_mul_calls):
    assert poly_eval(Poly(), PowerTable(ExactMatrix.identity(3))).is_zero()
    assert not mat_mul_calls


@pytest.mark.parametrize("r", [2, 3])
def test_sector_records_share_the_sector_tables(r, mat_mul_calls):
    assert spectra.char_identity_rho(r).ok  # reaches degree r + 1 on each block
    colour.ladder_consistency(r)  # reaches degree 6
    mat_mul_calls.clear()
    assert spectra.sector_minimal_identities(r).ok
    assert spectra.duality_pair_identities(r).ok
    assert spectra.power_trace_check(r).ok
    assert not mat_mul_calls


def test_power_traces_read_the_powers_the_characteristic_identity_made(monkeypatch, mat_mul_calls):
    # from rank 4 on, char_identity_rho takes every block to degree r + 1 >= 5,
    # the top power the traces read, so in suite order they make no product;
    # fresh tables, so that no other record has grown them first
    r = 4
    real = spectra.sector_spectral
    fresh = {s: replace(real(r, s), powers=PowerTable(real(r, s).block)) for s in casimir.SECTORS}
    monkeypatch.setattr(spectra, "sector_spectral", lambda rank, s: fresh[s] if rank == r else real(rank, s))
    assert spectra.char_identity_rho(r).ok
    mat_mul_calls.clear()
    assert spectra.power_trace_check(r).ok
    assert not mat_mul_calls


def test_full_table_is_shared(mat_mul_calls):
    # the polynomials of one record share one table: r products reach
    # degree r + 1; the table is not kept, so the next record pays again
    r = 2
    assert casimir.polynomial_consistency(r).ok
    mat_mul_calls.clear()
    for _ in range(2):
        assert casimir.polynomial_consistency(r).ok
        assert len(mat_mul_calls) == r
        mat_mul_calls.clear()
    assert casimir.casimir_powers(r) is not casimir.casimir_powers(r)


@pytest.mark.parametrize("r", [2, 3])
def test_polynomials_fail_on_a_perturbed_full_power(r, monkeypatch):
    table = casimir.casimir_powers(r)
    kept = table.upto(r + 1)
    monkeypatch.setattr(casimir, "casimir_powers", lambda rank: perturbed_copy(table, 2, r + 1))
    record = casimir.polynomial_consistency(r)
    failed = [c.check_id for c in failing_checks(record)]
    # I_0 and I_2 are polynomials of degree 0 and 1; every later one reads C^2
    assert failed == [f"polynomial-matches-invariant-k{k}" for k in range(2, r + 2)]
    assert all(c.witness.startswith("first differing entry") for c in failing_checks(record))
    assert all(a is b for a, b in zip(table.upto(r + 1), kept))
    monkeypatch.undo()
    assert casimir.polynomial_consistency(r).ok


@pytest.mark.parametrize("r", [2, 3, 4])
def test_ladders_fail_on_a_perturbed_block_power(r, monkeypatch):
    real = spectra.sector_spectral
    table = real(r, "++").powers
    kept = table.upto(6)
    copy = perturbed_copy(table, 3, 6)

    def served(rank, sector):
        data = real(rank, sector)
        return replace(data, powers=copy) if (rank, sector) == (r, "++") else data

    monkeypatch.setattr(colour, "sector_spectral", served)
    record = colour.ladder_consistency(r)
    failed = {c.check_id: c.witness for c in failing_checks(record)}
    assert failed["spectral-equals-direct-++-L3"].startswith("first differing entry (0, 0)")
    assert not any(check_id.startswith("spectral-equals-direct") and check_id.endswith(("L2", "L4"))
                   for check_id in failed)
    assert all("-++-" in check_id for check_id in failed)
    assert all(a is b for a, b in zip(table.upto(6), kept))
    monkeypatch.undo()
    assert colour.ladder_consistency(r).ok


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_minimal_identities_fail_on_a_perturbed_block_power(r, monkeypatch):
    real = spectra.sector_spectral
    # the top power each identity reads: r/2 + 1 on the equal-chirality
    # blocks at even rank, (r + 1)/2 on every block at odd rank
    degree = (r + 1) // 2 if r % 2 else r // 2 + 1
    sector = "--"
    table = real(r, sector).powers
    kept = table.upto(degree)
    copy = perturbed_copy(table, degree, degree)

    def served(rank, s):
        data = real(rank, s)
        return replace(data, powers=copy) if (rank, s) == (r, sector) else data

    monkeypatch.setattr(spectra, "sector_spectral", served)
    record = spectra.sector_minimal_identities(r)
    check_id = f"equal-chirality-{sector}" if r % 2 == 0 else f"degree-{degree}-{sector}"
    assert [c.check_id for c in failing_checks(record)] == [check_id]
    assert failing_checks(record)[0].witness.startswith("first differing entry (0, 0)")
    assert all(a is b for a, b in zip(table.upto(degree), kept))
    monkeypatch.undo()
    assert spectra.sector_minimal_identities(r).ok


@pytest.mark.parametrize("r", [2, 3, 4])
def test_characteristic_identities_fail_on_a_perturbed_block_power(r, monkeypatch):
    # both identities are polynomials of degree r + 1 in the block
    real = spectra.sector_spectral
    sector = "+-"
    table = real(r, sector).powers
    kept = table.upto(r + 1)
    copy = perturbed_copy(table, r + 1, r + 1)

    def served(rank, s):
        data = real(rank, s)
        return replace(data, powers=copy) if (rank, s) == (r, sector) else data

    monkeypatch.setattr(spectra, "sector_spectral", served)
    record = spectra.char_identity_rho(r)
    failed = {c.check_id: c.witness for c in failing_checks(record)}
    assert sorted(failed) == [f"factorized-identity-{sector}", f"top-invariant-vanishes-{sector}"]
    assert all(witness.startswith("first differing entry (0, 0)") for witness in failed.values())
    assert all(a is b for a, b in zip(table.upto(r + 1), kept))
    monkeypatch.undo()
    assert spectra.char_identity_rho(r).ok
