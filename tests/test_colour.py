import pytest

from spincas import __version__, colour
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
    with pytest.raises(TypeError):  # a spec names no closure: both are always made
        colour.LadderSpec(r=2, L=1, sector="++", closure="open")


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
        assert not op


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
    coeff, traced = colour.ladder_partial_trace(colour.LadderSpec(r=2, L=2, sector="++"))
    assert coeff == Rat(3, 32) and traced == ExactMatrix.identity(2) * coeff
    coeff, _ = colour.ladder_partial_trace(colour.LadderSpec(r=2, L=1, sector="++"))
    assert coeff == 0
    coeff, _ = colour.ladder_partial_trace(colour.LadderSpec(r=4, L=0, sector="--"))
    assert coeff == 2 ** (4 - 1)


def test_report_schema():
    spec = colour.LadderSpec(r=3, L=3, sector="--")
    report = colour.colour_report(spec)
    assert list(report) == ["engine_version", "spec", "per_k", "full_trace", "partial_trace", "metadata", "record"]
    assert report["engine_version"] == __version__
    assert report["spec"] == {"r": 3, "L": 3, "sector": "--"}
    labels = [term["k"] for term in report["per_k"]]
    assert labels == [1, 3]
    assert report["full_trace"] == str(colour.ladder_full_trace(spec))
    assert report["partial_trace"] == str(colour.ladder_full_trace(spec) / 4)
    assert "normalization_power" in report["metadata"]
    # the record's checks are the suite's checks of this ladder, in its order
    ids = ["spectral-equals-direct----L3", "full-trace-matches-matrix----L3", "partial-trace-scalar----L3"]
    suite = colour.ladder_consistency(3).as_dict()["checks"]
    assert report["record"] == {
        "name": "ladder-colour-factor r=3 sector=-- L=3",
        "ok": True,
        "checks": [c for c in suite if c["id"] in ids],
    }
    assert [c["id"] for c in report["record"]["checks"]] == ids


def test_non_scalar_partial_trace_fails_with_witness(monkeypatch):
    def lopsided(spec):
        # e_00 on the sector block: its partial trace is not scalar
        return ExactMatrix(4 ** (spec.r - 1), {(0, 0): 1})

    monkeypatch.setattr(colour, "ladder_operator", lopsided)
    coeff, traced = colour.ladder_partial_trace(colour.LadderSpec(r=2, L=2, sector="++"))
    assert coeff == Rat(3, 32) and traced == ExactMatrix(2, {(0, 0): 1})
    record = colour.ladder_consistency(2)
    failed = {c.check_id: c.witness for c in failing_checks(record)}
    # the witness is the first entry where the trace leaves coefficient * 1
    assert failed["partial-trace-scalar-++-L1"] == "first differing entry (0, 0): 1/1 != 0/1"
    assert failed["partial-trace-scalar-++-L2"] == "first differing entry (0, 0): 1/1 != 3/32"
    report = colour.colour_report(colour.LadderSpec(r=2, L=2, sector="++"))
    assert report["record"]["ok"] is False
    checks = {c["id"]: c for c in report["record"]["checks"]}
    assert checks["partial-trace-scalar-++-L2"] == {
        "id": "partial-trace-scalar-++-L2",
        "status": "fail",
        "witness": "first differing entry (0, 0): 1/1 != 3/32",
    }


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
        "opposite-sector-vanishes-r2": (
            "the L=1 ladder of sector +- is nonzero: first differing entry (0, 0): 1/1 != 0/1"
        ),
        "L0-partial-trace-counts-dimension-r3": "17/4 != 4",
    }
