"""Every exported count argument goes through the one count rule.

A count (m, n, r, v, a guess budget, a step count or a dimension) must be
an integer at least its lower bound; a bool is not an integer here.  Set
one count at a time to 2.5, nan, +-inf, -1, True or False: each exported
callable must raise a ValueError that names that argument, and emit no
warning.  A second test reads the signature of every export, so a new
count argument cannot skip the table.
"""

import inspect
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dpaudit
from dpaudit import estimator

P = dpaudit.PrivacyParams(1.0, 1e-5)
# a score-output adapter, so audit_run reads its guess budget
SCORES = dpaudit.adapter_gaussian_report(dpaudit.GaussianReportConfig(1.0))
MODEL = dpaudit.LossModel.synthetic("logistic", 5, 3,
                                    np.random.default_rng(0))
Y = np.arange(20.0)
S = np.where(np.arange(20) % 2 == 0, 1, -1)

# entry -> (call, typical keyword arguments; the counts are those the
# signature names COUNT_NAMES, or for k_sweep the budget of its grid)
CASES = {
    "GuessSummary": (dpaudit.GuessSummary,
                     dict(m=10, k_plus=3, k_minus=3, v=4)),
    "eps_lower_bound": (
        lambda m, r, v: dpaudit.eps_lower_bound(m, r, v, 1e-5, 0.05),
        dict(m=10, r=6, v=4)),
    "dual_alpha": (
        lambda v, m: dpaudit.dual_alpha(
            dpaudit.DominatingDistribution.from_binomial(6, 0.7), v, m),
        dict(v=4, m=10)),
    "DominatingDistribution.from_binomial": (
        lambda n: dpaudit.DominatingDistribution.from_binomial(n, 0.7),
        dict(n=6)),
    "p_value_general_p": (
        lambda m, k_plus, k_minus, v: dpaudit.p_value_general_p(
            m, k_plus, k_minus, v, P, dpaudit.GeneralPParams(0.3)),
        dict(m=10, k_plus=3, k_minus=3, v=4)),
    "hoeffding_p_value": (
        lambda m: dpaudit.hoeffding_p_value(m, 10.0, 3.0, 5.0, P), dict(m=10)),
    "adaptive_bound": (
        lambda m, r_observed: dpaudit.adaptive_bound(m, r_observed, P,
                                                     0.05, 1.0),
        dict(m=10, r_observed=5)),
    "generalization_bound": (
        lambda n: dpaudit.generalization_bound(n, P, 0.4, 0.1), dict(n=100)),
    "optimize_generalization_width": (
        lambda n: dpaudit.optimize_generalization_width(
            n, dpaudit.PrivacyParams(1.0, 1e-4), 1e-3, 0.1),
        dict(n=500)),
    "mi_bound": (lambda n: dpaudit.mi_bound(n, P, 0.5), dict(n=5)),
    "PathologicalConfig": (
        lambda m, r: dpaudit.PathologicalConfig(m, r, 1.0, 1e-4, 0.05),
        dict(m=100, r=10)),
    "expected_correct_gaussian": (
        lambda m, r: dpaudit.expected_correct_gaussian(m, r, 1.0),
        dict(m=100, r=10)),
    "sample_selection": (
        lambda m: dpaudit.sample_selection(m, np.random.default_rng(0)),
        dict(m=20)),
    "make_guesses": (lambda k_plus, k_minus: dpaudit.make_guesses(
        Y, k_plus, k_minus), dict(k_plus=3, k_minus=3)),
    "audit_run": (
        lambda m, k_plus, k_minus: dpaudit.audit_run(
            SCORES, m, k_plus, k_minus, 1e-5, [0.95], 0),
        dict(m=20, k_plus=3, k_minus=3)),
    "run_mechanism": (lambda m: dpaudit.run_mechanism(SCORES, m, 0),
                      dict(m=20)),
    "k_sweep": (
        lambda k_plus, k_minus: dpaudit.k_sweep(
            Y, S, [(k_plus, k_minus)], 1e-5, 0.95),
        dict(k_plus=3, k_minus=3)),
    "dirac_canaries": (
        lambda m, d: dpaudit.dirac_canaries(m, d, np.random.default_rng(0)),
        dict(m=3, d=10)),
    "LossModel.synthetic": (
        lambda n, d: dpaudit.LossModel.synthetic(
            "logistic", n, d, np.random.default_rng(0)),
        dict(n=5, d=3)),
    "LossModel.canary_only": (dpaudit.LossModel.canary_only, dict(d=3)),
    "mislabeled_canaries": (
        lambda m: dpaudit.mislabeled_canaries(MODEL, m,
                                              np.random.default_rng(0)),
        dict(m=4)),
    "TrainerConfig": (
        lambda ell, dim: dpaudit.TrainerConfig(ell, 1.0, 1.0, 0.5, 0.1, dim),
        dict(ell=10, dim=4)),
}

# Counts that may be any integer: dual_alpha's threshold v (S(w) = 1 for
# w <= 0), so -1 is a valid value there.
SIGNED = {("dual_alpha", "v")}
BAD_COUNTS = (2.5, math.nan, math.inf, -math.inf, -1, True, False)
PROBES = [(entry, name, bad) for entry, (_, typical) in CASES.items()
          for name in typical for bad in BAD_COUNTS
          if not (bad == -1 and (entry, name) in SIGNED)]

# The argument names that hold a count wherever an export takes them.
COUNT_NAMES = {"m", "n", "r", "v", "k_plus", "k_minus", "r_observed", "ell",
               "dim", "d"}
# Real-valued parameters that share a count's name: the Hoeffding bound's
# threshold v, and the baseline's slack d beside its slack c.
REAL_VALUED = {("hoeffding_p_value", "v"), ("prior_generalization_bound", "d")}


def count_fault(entry: str, name: str, bad) -> str | None:
    """None if the call with count ``name`` set to ``bad`` raises a
    ValueError that names it, with no warning; else what went wrong."""
    call, typical = CASES[entry]
    probe = f"{entry}({name}={bad!r})"
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            call(**dict(typical, **{name: bad}))
    except ValueError as exc:
        if re.search(rf"(?<!\w){name}( must|=)", str(exc)):
            return None
        return f"{probe}: the ValueError does not name {name}: {exc}"
    except Exception as exc:  # noqa: BLE001 - any other type breaks the rule
        return f"{probe} raised {type(exc).__name__}: {exc}"
    return f"{probe} returned without an error"


@pytest.mark.parametrize("entry", sorted(CASES))
def test_typical_arguments_are_accepted(entry):
    # the fuzz sets one count at a time; every other argument must be valid
    call, typical = CASES[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        call(**typical)


@settings(max_examples=200, deadline=None)
@given(probe=st.sampled_from(PROBES))
def test_bad_count_is_a_value_error_naming_it(probe):
    assert count_fault(*probe) is None


def test_fuzz_needs_the_integer_test(monkeypatch):
    # with the rule's integer test removed, the non-integer probes must fail
    def bound_only(low=-math.inf, **counts):
        for name, value in counts.items():
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")

    rule = estimator.check_counts
    for key, module in list(sys.modules.items()):
        if (key.startswith("dpaudit")
                and getattr(module, "check_counts", None) is rule):
            monkeypatch.setattr(module, "check_counts", bound_only)
    faults = [count_fault(*probe) for probe in PROBES if probe[2] == 2.5]
    assert any(fault and "returned without an error" in fault
               for fault in faults)


def exported_signatures():
    """(qualified name, signature) of each exported callable and of each
    public classmethod of an exported class."""
    for name in sorted(dir(dpaudit)):
        obj = getattr(dpaudit, name)
        if name.startswith("_") or not callable(obj):
            continue
        yield name, inspect.signature(obj)
        if inspect.isclass(obj):
            for attr, member in sorted(vars(obj).items()):
                if isinstance(member, classmethod) and not attr.startswith("_"):
                    yield f"{name}.{attr}", inspect.signature(getattr(obj,
                                                                      attr))


def test_every_exported_count_is_probed():
    missing = [(qualname, param) for qualname, sig in exported_signatures()
               for param in sig.parameters
               if param in COUNT_NAMES and (qualname, param) not in REAL_VALUED
               and param not in CASES.get(qualname, (None, {}))[1]]
    assert missing == []
    assert all(param in inspect.signature(getattr(dpaudit, name)).parameters
               for name, param in REAL_VALUED)
