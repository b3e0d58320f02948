"""The failing checks of a verification record, for the tests' assertions."""

from spincas.records import FAIL


def failing_checks(record) -> list:
    """The checks of ``record`` whose status is ``fail``, in order."""
    return [c for c in record.checks if c.status == FAIL]
