import pytest

from spincas import records
from spincas.linalg import ExactMatrix
from spincas.ratfunc import Poly
from spincas.records import FAIL, PASS, VerificationRecord
from spincas.scalar import ExactScalar, Rat

from failing import failing_checks


def test_add_equal_failure_keeps_the_witness_text():
    record = VerificationRecord(name="witness")
    a = ExactMatrix(2, {(0, 0): 1, (1, 0): Rat(1, 3)})
    b = ExactMatrix(2, {(0, 0): 1, (1, 0): ExactScalar(Rat(1, 3), -2)})
    check = record.add_equal("differ", a, b)
    assert check.status == FAIL
    assert check.witness == "first differing entry (1, 0): 1/3 != 1/3+i*-2/1"
    assert failing_checks(record) == [check]


def test_add_equal_pass_does_not_look_for_a_witness(monkeypatch):
    def refuse(a, b):
        raise AssertionError("witness computed for a passing check")

    monkeypatch.setattr(records, "first_difference", refuse)
    record = VerificationRecord(name="equal")
    m = ExactMatrix(2, {(0, 1): Rat(-5, 7)})
    check = record.add_equal("same", m, m * 2 * Rat(1, 2))
    assert check.status == PASS and check.witness == ""
    with pytest.raises(AssertionError):
        record.add_equal("differ", m, ExactMatrix.zero(2))


def test_add_first_failure_stops_at_the_first_witness():
    record = VerificationRecord(name="first")
    seen = []

    def failures(items):
        for item in items:
            seen.append(item)
            if item < 0:
                yield f"negative {item}"

    assert record.add_first_failure("none", failures([1, 2])).status == PASS
    check = record.add_first_failure("some", failures([3, -4, -5, 6]))
    assert check.status == FAIL and check.witness == "negative -4"
    assert seen == [1, 2, 3, -4]


def test_a_failure_without_a_witness_is_refused():
    record = VerificationRecord(name="bare")
    with pytest.raises(ValueError, match="bare-failure"):
        record.add("bare-failure", False)
    with pytest.raises(ValueError, match="empty-witness"):
        record.add_first_failure("empty-witness", iter([""]))
    assert record.checks == []


def test_mismatch_is_empty_on_equal_values_and_shows_both_otherwise():
    m = ExactMatrix(2, {(0, 1): Rat(-5, 7)})
    p = Poly([1, Rat(1, 2)])
    f = (Poly([1, 1]), Poly([-1, 1]))  # a rational function as (num, den)
    doubled = (f[0] * 2, f[1])
    for value in (m, ExactScalar(Rat(1, 3), -2), Rat(3, 4), 7, p, f):
        assert records.mismatch(value, value) == ""
    assert records.mismatch(ExactScalar(2), 2) == ""
    assert records.mismatch(m, ExactMatrix.zero(2)) == "first differing entry (0, 1): -5/7 != 0/1"
    assert records.mismatch(m, ExactMatrix.zero(3)) == "ExactMatrix(dim=2, nnz=1) != ExactMatrix(dim=3, nnz=0)"
    assert records.mismatch(ExactScalar(Rat(1, 3), -2), Rat(1, 3)) == "1/3+i*-2/1 != 1/3"
    assert records.mismatch(6, 7) == "6 != 7"
    assert records.mismatch(p, Poly([1])) == f"{p} != {Poly([1])}"
    assert records.mismatch(f, doubled) == f"{f} != {doubled}"


def test_polynomial_witnesses_render_coefficients_as_fractions():
    p = Poly([1, Rat(-1, 2)])
    f = (Poly([1, 1]), Poly([-1, 1]))
    assert records.mismatch(p, Poly([1])) == "Poly([1, -1/2]) != Poly([1])"
    for witness in (records.mismatch(p, Poly([1])), records.mismatch(f, (f[0] * 2, f[1]))):
        assert "Fraction(" not in witness


def test_add_equal_takes_scalars_and_polynomials():
    record = VerificationRecord(name="values")
    assert record.add_equal("scalar", Rat(1, 2), ExactScalar(Rat(1, 2))).status == PASS
    check = record.add_equal("polynomial", Poly([0, 1]), Poly([1]))
    assert check.status == FAIL and check.witness == f"{Poly([0, 1])} != {Poly([1])}"
