import pytest

from spincas import records
from spincas.linalg import ExactMatrix
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
