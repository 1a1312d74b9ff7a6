"""The real rule over the contract table of test_contract.

Each real of the table is set in turn to 0, -1, nan, +-inf, 1e-300 or
1e300: the call must return a value in its documented range (finite unless
its docstring says otherwise) or raise a ValueError that names that
argument, and emit no warning.  A nan, an eps outside [0, inf] or a
delta outside [0, 1] must raise.  The signature scan fails when an
export's float argument is missing from the table.
"""

import math

import pytest

from dpaudit import dpsgd, estimator
from test_contract import accepts_typical, faults, typical_entries, unprobed

# The exported records, whose constructors only check their fields.
RECORDS = ("MechanismAdapter", "TrainerConfig")


@pytest.mark.parametrize("entry", typical_entries(float))
def test_typical_reals_are_accepted(entry):
    assert accepts_typical(entry)


def test_bad_real_is_in_range_or_a_value_error_naming_it():
    assert list(filter(None, faults("check_reals"))) == []


def test_fuzz_needs_the_real_rule(rebind):
    # with the rule switched off, every record takes nan and reports it
    rebind(estimator, "check_reals", lambda *args, **values: None)
    found = faults("check_reals", lambda entry, bad: entry in RECORDS and any(
        value is math.nan for value in bad.values()))
    assert found and all(f and "outside its range" in f for f in found)


def test_every_exported_real_is_probed():
    assert unprobed({"float", "float | None"}) == []


def test_trainer_real_rows_name_real_intervals():
    for field, kind, interval in dpsgd.TRAINER_KEYS.values():
        assert interval in estimator.REAL_INTERVALS, field
