"""The count rule over the contract table of test_contract.

Each count of the table is set in turn to 2.5, nan, +-inf, -1, True,
False or 10**400: the call must raise a ValueError that says
``name must`` or ``name=``, and emit no warning.  The signature scan
fails when an export's int argument is missing from the table.
"""

import math

import pytest

from dpaudit import estimator
from test_contract import accepts_typical, faults, typical_entries, unprobed


@pytest.mark.parametrize("entry", typical_entries(int))
def test_typical_arguments_are_accepted(entry):
    assert accepts_typical(entry)


def test_bad_count_is_a_value_error_naming_it():
    assert list(filter(None, faults("check_counts"))) == []


def test_fuzz_needs_the_integer_test(rebind):
    # with the rule's integer test removed, a 2.5 probe must get through
    def bound_only(low=-math.inf, **counts):
        for name, value in counts.items():
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")

    rebind(estimator, "check_counts", bound_only)
    found = faults("check_counts", lambda entry, bad: 2.5 in bad.values())
    assert any(f and "returned without an error" in f for f in found)


def test_every_exported_count_is_probed():
    assert unprobed({"int"}) == []
