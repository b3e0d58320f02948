"""Acceptance gate: the ten top-level guarantees, all exact (tolerance 0).

Each criterion prints one PASS/FAIL line on the real terminal (bypassing
pytest capture) and asserts the same condition.
"""

import pytest

from spincas import casimir, clifford, colour, oracles, report, spectra, ybe
from spincas.linalg import ExactMatrix
from spincas.scalar import Rat


@pytest.fixture
def announce(capfd):
    def _announce(number, title, ok):
        with capfd.disabled():
            print(f"acceptance {number:02d} {title}: {'PASS' if ok else 'FAIL'}")
        return ok

    return _announce


def test_criterion_01_clifford_integrity(announce):
    """Anticommutators, Hermiticity, and chirality, ranks 2 through 6."""
    ok = all(clifford.integrity_report(clifford.build_gamma(r)).ok for r in range(2, 7))
    assert announce(1, "clifford integrity r=2..6", ok)


def test_criterion_02_characteristic_identity(announce):
    """Top invariant and eigenvalue-product annihilation with minimality,
    ranks 2 through 5.
    """
    ok = all(spectra.char_identity_rho(r).ok for r in range(2, 6))
    assert announce(2, "characteristic identity r=2..5", ok)


EXPECTED_TABLES = {
    2: [
        ("mm", 0, "-3/8", 1), ("mm", 2, "1/8", 3),
        ("mp", 1, "0", 4),
        ("pm", 1, "0", 4),
        ("pp", 0, "-3/8", 1), ("pp", 2, "1/8", 3),
        ("rho", 0, "-3/8", 2), ("rho", 1, "0", 8), ("rho", 2, "1/8", 6),
    ],
    3: [
        ("mm", 1, "-5/32", 6), ("mm", 3, "3/32", 10),
        ("mp", 0, "-15/32", 1), ("mp", 2, "1/32", 15),
        ("pm", 0, "-15/32", 1), ("pm", 2, "1/32", 15),
        ("pp", 1, "-5/32", 6), ("pp", 3, "3/32", 10),
        ("rho", 0, "-15/32", 2), ("rho", 1, "-5/32", 12),
        ("rho", 2, "1/32", 30), ("rho", 3, "3/32", 20),
    ],
    4: [
        ("mm", 0, "-7/12", 1), ("mm", 2, "-1/12", 28), ("mm", 4, "1/12", 35),
        ("mp", 1, "-7/24", 8), ("mp", 3, "1/24", 56),
        ("pm", 1, "-7/24", 8), ("pm", 3, "1/24", 56),
        ("pp", 0, "-7/12", 1), ("pp", 2, "-1/12", 28), ("pp", 4, "1/12", 35),
        ("rho", 0, "-7/12", 2), ("rho", 1, "-7/24", 16), ("rho", 2, "-1/12", 56),
        ("rho", 3, "1/24", 112), ("rho", 4, "1/12", 70),
    ],
    5: [
        ("mm", 1, "-27/64", 10), ("mm", 3, "-3/64", 120), ("mm", 5, "5/64", 126),
        ("mp", 0, "-45/64", 1), ("mp", 2, "-13/64", 45), ("mp", 4, "3/64", 210),
        ("pm", 0, "-45/64", 1), ("pm", 2, "-13/64", 45), ("pm", 4, "3/64", 210),
        ("pp", 1, "-27/64", 10), ("pp", 3, "-3/64", 120), ("pp", 5, "5/64", 126),
        ("rho", 0, "-45/64", 2), ("rho", 1, "-27/64", 20), ("rho", 2, "-13/64", 90),
        ("rho", 3, "-3/64", 240), ("rho", 4, "3/64", 420), ("rho", 5, "5/64", 252),
    ],
}


def test_criterion_03_tables_reproduced(announce):
    """Eigenvalue/multiplicity listings for ranks 2..5 match exactly, with
    the odd-rank sector assignment from the matrix ground truth and the
    exchanged printed variant flagged as a documented discrepancy.
    """
    ok = True
    for r, expected in EXPECTED_TABLES.items():
        lines = ["sector,k,eigenvalue,multiplicity"]
        lines += [f"{s},{k},{ev},{mult}" for s, k, ev, mult in expected]
        tables, witness = report.emit_tables(r)
        if tables != "\n".join(lines) + "\n" or witness != "":
            ok = False
    for r in (3, 5):
        record = spectra.duality_pair_identities(r)
        notes = [c for c in record.checks if c.status == "documented-discrepancy"]
        if not record.ok or not notes:
            ok = False
    assert announce(3, "eigenvalue tables r=2..5 (odd-rank swap as note)", ok)


def test_criterion_04_trace_closed_forms(announce):
    """Traces of powers 2..5 equal their closed forms, ranks 2..5."""
    ok = all(spectra.power_trace_check(r).ok for r in range(2, 6))
    # independent direct-matrix confirmation at the two smallest ranks
    for r in (2, 3):
        c = casimir.split_casimir_rho(r).matrix
        power = c @ c
        for m in range(2, 6):
            if power.trace() != casimir.casimir_power_trace_closed_form(r, m):
                ok = False
            power = power @ c
    assert announce(4, "power-trace closed forms r=2..5", ok)


def test_criterion_05_projector_axioms(announce):
    ok = all(
        spectra.projector_axioms(r, sector).ok
        for r in range(2, 6)
        for sector in casimir.SECTORS
    )
    assert announce(5, "projector axioms all sectors r=2..5", ok)


def test_criterion_06_duality_and_recurrences(announce):
    ok = all(
        casimir.lemma_duality_sweep(r).ok and casimir.verify_recurrences(r).ok
        for r in range(2, 5)
    )
    assert announce(6, "duality lemma and recurrences r=2..4", ok)


def test_criterion_07_colour_factors(announce):
    ok = all(colour.ladder_consistency(r).ok for r in range(2, 5))
    ok = ok and colour.worked_values().ok
    ok = ok and colour.ladder_full_trace(
        colour.LadderSpec(r=2, L=2, sector="++")
    ) == Rat(3, 16)
    coefficient, traced = colour.ladder_partial_trace(colour.LadderSpec(r=2, L=2, sector="++"))
    ok = ok and coefficient == Rat(3, 32) and traced == ExactMatrix.identity(2) * coefficient
    assert announce(7, "ladder colour factors r=2..4, L=0..6", ok)


def test_criterion_08_yang_baxter(announce):
    ok = all(ybe.ybe_check(r, "+").ok for r in (2, 3, 4))
    ok = ok and all(ybe.full_ybe_check(r).ok for r in (2, 3))
    for r in (2, 3, 4):
        ok = ok and ybe.unitarity_check(r, "+").ok
        ok = ok and ybe.symmetry_check(r, "+").ok
        ok = ok and all(ybe.swap_relation_check(r, eps).ok for eps in ("+", "-"))
        ok = ok and ybe.plain_ybe_spot_check(r, "+", ybe.grid_points(r)).ok
    assert announce(8, "yang-baxter grids, unitarity, swap symmetry, swap relation, plain form", ok)


def test_criterion_09_factorization_and_lemmas(announce):
    ok = all(ybe.symmetric_part_factorization(r).ok for r in (2, 3, 4))
    ok = ok and all(ybe.top_projector_relations(r).ok for r in (2, 3, 4))
    ok = ok and ybe.rising_factorial_identity().ok
    assert announce(9, "symmetric-part factorization and lemmas", ok)


def test_criterion_10_oracle_consistency(announce):
    """Weight-based Casimir values, closed forms, and matrix contractions
    agree on the half-spinor and defining representations, ranks 2..5.
    """
    ok = True
    for r in range(2, 6):
        n = 2 * r
        for rep, weight_sel in (("Delta_plus", "Delta_plus"), ("Delta_minus", "Delta_minus")):
            closed = oracles.c2_closed_form(rep, r)
            from_weight = oracles.c2_from_weight(oracles.highest_weight(weight_sel, r), n)
            if closed != from_weight:
                ok = False
        half = ExactMatrix.identity(2 ** (r - 1))
        for eps, rep in (("+", "Delta_plus"), ("-", "Delta_minus")):
            blocks = clifford.half_spinor_blocks(r, eps)
            if oracles.casimir_contraction(blocks, n) != half * oracles.c2_closed_form(rep, r):
                ok = False
        closed_f = oracles.c2_closed_form("T_f", r)
        if closed_f != oracles.c2_from_weight(oracles.highest_weight("T_k", r, 1), n):
            ok = False
        if oracles.casimir_contraction(oracles.defining_generators(n), n) != ExactMatrix.identity(n) * closed_f:
            ok = False
    assert announce(10, "oracle consistency weights/closed forms/matrices", ok)
