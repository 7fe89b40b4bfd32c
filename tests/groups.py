"""Test helper: the stage functions take a ``DecisionGroup``."""

from evidential_magdm.linguistic import DecisionGroup


def group_of(matrices):
    """The checked group of a list of ``DecisionMatrix`` records."""
    return DecisionGroup.from_matrices(list(matrices))
