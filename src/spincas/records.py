"""Structured pass/fail records shared by all verification routines.

Every failing check carries a witness.  An equality is stated through
``add_equal``, whose witness is the first differing entry of two matrices,
or ``got != want`` for any other values; ``add`` refuses a failure without
one.
"""

from __future__ import annotations

from .linalg import ExactMatrix, first_difference

PASS = "pass"
FAIL = "fail"
NOTE = "documented-discrepancy"


class CheckResult:
    """One verified statement: identity, trace value, spectrum entry, ..."""

    __slots__ = ("check_id", "status", "witness")

    def __init__(self, check_id: str, status: str, witness: str = ""):
        self.check_id, self.status, self.witness = check_id, status, witness

    @property
    def ok(self) -> bool:
        return self.status in (PASS, NOTE)


class VerificationRecord:
    """Ordered collection of check results for one verification sweep."""

    __slots__ = ("name", "checks")

    def __init__(self, name: str, checks: list[CheckResult] | None = None):
        self.name = name
        self.checks = [] if checks is None else checks

    def add(self, check_id: str, passed: bool, witness: str = "") -> CheckResult:
        """Record one check; a failing check must carry a witness."""
        if not passed and not witness:
            raise ValueError(f"check {check_id} fails with no witness")
        result = CheckResult(check_id, PASS if passed else FAIL, witness if not passed else "")
        self.checks.append(result)
        return result

    def add_equal(self, check_id: str, got, want) -> CheckResult:
        """Pass when got == want; a failure's witness is their ``mismatch``."""
        witness = mismatch(got, want)
        return self.add(check_id, not witness, witness)

    def add_first_failure(self, check_id: str, failures) -> CheckResult:
        """Pass when `failures` yields nothing; otherwise fail with the first
        witness it yields.  It is consumed only up to that witness.
        """
        for witness in failures:
            return self.add(check_id, False, witness)
        return self.add(check_id, True)

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


def mismatch(got, want) -> str:
    """The witness that got and want differ, or the empty string when
    got == want.  It is computed only on a difference: the first differing
    entry of two matrices of one dimension, and ``got != want`` for any
    other values.
    """
    if got == want:
        return ""
    if isinstance(got, ExactMatrix) and isinstance(want, ExactMatrix) and got.dim == want.dim:
        i, j, left, right = first_difference(got, want)
        return f"first differing entry ({i}, {j}): {left} != {right}"
    return f"{got} != {want}"
