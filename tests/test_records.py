import pytest

from spincas import records
from spincas.linalg import ExactMatrix
from spincas.records import FAIL, PASS, VerificationRecord
from spincas.scalar import ExactScalar, Rat


def test_add_equal_failure_keeps_the_witness_text():
    record = VerificationRecord(name="witness")
    a = ExactMatrix(2, {(0, 0): 1, (1, 0): Rat(1, 3)})
    b = ExactMatrix(2, {(0, 0): 1, (1, 0): ExactScalar(Rat(1, 3), -2)})
    check = record.add_equal("differ", a, b)
    assert check.status == FAIL
    assert check.witness == "first differing entry (1, 0): 1/3 != 1/3+i*-2/1"
    assert record.failures == [check]


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
