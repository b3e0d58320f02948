"""Structured pass/fail records shared by all verification routines."""

from __future__ import annotations

from dataclasses import dataclass, field

from .linalg import first_difference

PASS = "pass"
FAIL = "fail"
NOTE = "documented-discrepancy"


@dataclass(frozen=True)
class CheckResult:
    """One verified statement: identity, trace value, spectrum entry, ..."""

    check_id: str
    status: str
    witness: str = ""

    @property
    def ok(self) -> bool:
        return self.status in (PASS, NOTE)


@dataclass
class VerificationRecord:
    """Ordered collection of check results for one verification sweep."""

    name: str
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, check_id: str, passed: bool, witness: str = "") -> CheckResult:
        result = CheckResult(check_id, PASS if passed else FAIL, witness if not passed else "")
        self.checks.append(result)
        return result

    def add_equal(self, check_id: str, lhs, rhs) -> CheckResult:
        """Pass when two matrices are equal; a failure's witness is their
        first differing entry, computed only then.
        """
        if lhs == rhs:
            return self.add(check_id, True)
        return self.add(check_id, False, diff_witness(first_difference(lhs, rhs)))

    def add_first_failure(self, check_id: str, failures) -> CheckResult:
        """Pass when `failures` yields nothing; otherwise fail with the first
        witness it yields.  It is consumed only up to that witness.
        """
        witness = next(iter(failures), None)
        return self.add(check_id, witness is None, witness or "")

    def note(self, check_id: str, witness: str = "") -> CheckResult:
        result = CheckResult(check_id, NOTE, witness)
        self.checks.append(result)
        return result

    def extend(self, other: "VerificationRecord") -> None:
        self.checks.extend(other.checks)

    @property
    def ok(self) -> bool:
        """No check failed."""
        return all(c.ok for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "checks": [
                {"id": c.check_id, "status": c.status, **({"witness": c.witness} if c.witness else {})}
                for c in self.checks
            ],
        }


def diff_witness(difference) -> str:
    """Render the output of linalg.first_difference for a failure report."""
    if difference is None:
        return ""
    i, j, left, right = difference
    return f"first differing entry ({i}, {j}): {left} != {right}"
