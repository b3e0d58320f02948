import pytest

from spincas import colour
from spincas.casimir import SECTORS, sector_casimir
from spincas.linalg import ExactMatrix
from spincas.scalar import ExactScalar, Rat

from failing import failing_checks


def test_spec_validation():
    with pytest.raises(ValueError):
        colour.LadderSpec(r=1, L=1, sector="++")
    with pytest.raises(ValueError):
        colour.LadderSpec(r=2, L=-1, sector="++")
    with pytest.raises(ValueError):
        colour.LadderSpec(r=2, L=colour.MAX_RUNGS + 1, sector="++")
    with pytest.raises(ValueError):
        colour.LadderSpec(r=2, L=1, sector="xx")
    with pytest.raises(ValueError):
        colour.LadderSpec(r=2, L=1, sector="++", closure="sideways")


def test_zero_rungs_is_identity():
    for sector in SECTORS:
        op = colour.ladder_operator(colour.LadderSpec(r=3, L=0, sector=sector))
        assert op == ExactMatrix.identity(op.dim)


def test_one_rung_is_sector_casimir():
    for sector in SECTORS:
        op = colour.ladder_operator(colour.LadderSpec(r=3, L=1, sector=sector))
        assert op == sector_casimir(3, sector)


def test_opposite_chirality_vanishes_at_minimal_rank():
    # both eigenvalues in the (+,-) block are zero at rank 2
    for L in range(1, 6):
        op = colour.ladder_operator(colour.LadderSpec(r=2, L=L, sector="+-"))
        assert op.is_zero()


@pytest.mark.parametrize("r", [2, 3, 4])
def test_ladder_consistency(r):
    record = colour.ladder_consistency(r)
    assert record.ok, [c.check_id for c in failing_checks(record)]


def test_worked_values():
    record = colour.worked_values()
    assert record.ok, [c.check_id for c in failing_checks(record)]


def test_full_trace_values():
    assert colour.ladder_full_trace(colour.LadderSpec(r=2, L=2, sector="++")) == Rat(3, 16)
    assert colour.ladder_full_trace(colour.LadderSpec(r=4, L=2, sector="++")) == Rat(7, 9)
    for r in (2, 3, 4, 5):
        for sector in SECTORS:
            assert colour.ladder_full_trace(colour.LadderSpec(r=r, L=1, sector=sector)) == 0


def test_partial_trace_values():
    coeff, scalar = colour.ladder_partial_trace(colour.LadderSpec(r=2, L=2, sector="++"))
    assert scalar and coeff == Rat(3, 32)
    coeff, _ = colour.ladder_partial_trace(colour.LadderSpec(r=2, L=1, sector="++"))
    assert coeff == 0
    coeff, _ = colour.ladder_partial_trace(colour.LadderSpec(r=4, L=0, sector="--"))
    assert coeff == 2 ** (4 - 1)


def test_report_schema():
    spec = colour.LadderSpec(r=3, L=3, sector="--", closure="partial_trace")
    report = colour.colour_report(spec)
    assert report["spec"] == {"r": 3, "L": 3, "sector": "--", "closure": "partial_trace"}
    assert report["cross_check"] is True
    assert report["is_identity_multiple"] is True
    labels = [term["k"] for term in report["per_k"]]
    assert labels == [1, 3]
    assert "normalization_power" in report["metadata"]


def test_non_scalar_partial_trace_fails_with_witness(monkeypatch):
    def lopsided(spec):
        # e_00 on the sector block: its partial trace is not scalar
        return ExactMatrix(4 ** (spec.r - 1), {(0, 0): 1})

    monkeypatch.setattr(colour, "ladder_operator", lopsided)
    coeff, scalar = colour.ladder_partial_trace(colour.LadderSpec(r=2, L=2, sector="++"))
    assert coeff == Rat(3, 32) and scalar is False
    record = colour.ladder_consistency(2)
    failed = {c.check_id: c.witness for c in failing_checks(record)}
    assert failed["partial-trace-scalar-++-L1"] == "partial trace is not 0 times the identity"
    report = colour.colour_report(colour.LadderSpec(r=2, L=2, sector="++", closure="partial_trace"))
    assert report["is_identity_multiple"] is False


def test_a_wrong_full_trace_fails_with_both_values(monkeypatch):
    real = colour.ladder_full_trace
    monkeypatch.setattr(colour, "ladder_full_trace", lambda spec: real(spec) + 1)
    failed = {c.check_id: c.witness for c in failing_checks(colour.ladder_consistency(2))}
    for sector in SECTORS:
        assert failed[f"traceless-L1-{sector}"] == "1 != 0"
        for L in range(7):
            due = real(colour.LadderSpec(r=2, L=L, sector=sector))
            assert failed[f"full-trace-matches-matrix-{sector}-L{L}"] == f"{due + 1} != {ExactScalar(due)}"


def test_wrong_worked_values_fail_with_both_values(monkeypatch):
    # every full trace one too large, and so every partial trace 1/2^(r-1)
    # too large; the opposite ladders of r = 2 made the identity
    real_trace, real_ladder = colour.ladder_full_trace, colour.ladder_operator
    monkeypatch.setattr(colour, "ladder_full_trace", lambda spec: real_trace(spec) + 1)

    def ladder(spec):
        return ExactMatrix.identity(4 ** (spec.r - 1)) if spec.sector == "+-" else real_ladder(spec)

    monkeypatch.setattr(colour, "ladder_operator", ladder)
    failed = {c.check_id: c.witness for c in failing_checks(colour.worked_values())}
    assert failed == {
        "full-trace-r2-pp-L2": "19/16 != 3/16",
        "partial-trace-r2-pp-L2": "19/32 != 3/32",
        "partial-trace-r2-pp-L1-vanishes": "1/2 != 0",
        "full-trace-r4-pp-L2": "16/9 != 7/9",
        "full-trace-r5-pp-L1-vanishes": "1 != 0",
        "opposite-sector-vanishes-r2": "the L=1 ladder of sector +- is nonzero",
        "L0-partial-trace-counts-dimension-r3": "17/4 != 4",
    }
