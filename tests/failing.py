"""Helpers for the tests' assertions: the failing checks of a verification
record, and perturbed copies of the package's record types.
"""

from spincas.records import FAIL


def failing_checks(record) -> list:
    """The checks of ``record`` whose status is ``fail``, in order."""
    return [c for c in record.checks if c.status == FAIL]


def replace(obj, **changes):
    """A new object of ``obj``'s type, built through its ``__init__`` from the
    values of ``obj``'s fields (its ``__slots__``), with ``changes`` in place
    of the old values of the fields they name.
    """
    fields = {name: getattr(obj, name) for name in type(obj).__slots__}
    return type(obj)(**{**fields, **changes})
