"""Every exported real-valued argument goes through the one real rule.

Set one real argument at a time to 0, -1, nan, +-inf, 1e-300 or 1e300:
each exported callable and dataclass must either return a value in its
documented range (finite unless its docstring says otherwise) or raise a
ValueError that names that argument, and emit no warning.  A second test
reads the signature of every export, so a new real argument cannot skip
the table.
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
from dpaudit import dpsgd, estimator

P = dpaudit.PrivacyParams(1.0, 1e-5)
# a score-output adapter, so audit_run reads its guess budget
SCORES = dpaudit.adapter_gaussian_report(dpaudit.GaussianReportConfig(1.0))
MODEL = dpaudit.LossModel.synthetic("logistic", 5, 3,
                                    np.random.default_rng(0))
Y = np.arange(20.0)
S = np.where(np.arange(20) % 2 == 0, 1, -1)
TRAINER = dict(ell=2, clip=1.0, noise_multiplier=1.0, sample_prob=0.5,
               learning_rate=0.1, dim=3)


def rng():
    return np.random.default_rng(0)


def prob(x) -> bool:
    return 0.0 <= x <= 1.0


def finite(*xs) -> bool:
    return all(np.all(np.isfinite(x)) for x in xs)


def bound(x) -> bool:
    """A finite nonnegative epsilon."""
    return 0.0 <= x < math.inf


def adapter_ok(a) -> bool:
    """A declared guarantee: eps None or in [0, inf], delta in [0, 1]."""
    return (a.eps is None or a.eps >= 0) and prob(a.delta)


def report_ok(report) -> bool:
    return (all(bound(lb) for lb in report.eps_lb.values())
            and all(prob(p) for p in report.p_values.values()))


# entry -> (call, typical keyword arguments, whether a returned value is in
# the documented range).  The reals are those the signature annotates as
# float; audit_run's list of confidences is probed by its one element.
CASES = {
    "rr_accuracy": (dpaudit.rr_accuracy, dict(eps=1.0),
                    lambda q: 0.5 <= q <= 1.0),
    # eps = inf is the null with no privacy guarantee
    "PrivacyParams": (dpaudit.PrivacyParams, dict(eps=1.0, delta=1e-5),
                      lambda p: p.eps >= 0 and prob(p.delta)),
    "DominatingDistribution.from_binomial": (
        lambda q: dpaudit.DominatingDistribution.from_binomial(6, q),
        dict(q=0.7),
        lambda dist: all(prob(s) for s in dist.survival_table)),
    "eps_lower_bound": (
        lambda delta, beta: dpaudit.eps_lower_bound(10, 6, 4, delta, beta),
        dict(delta=1e-5, beta=0.05), bound),
    "GeneralPParams": (dpaudit.GeneralPParams, dict(p_incl=0.3),
                       lambda g: 0 < g.p_incl < 1),
    "hoeffding_p_value": (
        lambda r1, r2, v: dpaudit.hoeffding_p_value(10, r1, r2, v, P),
        dict(r1=10.0, r2=3.0, v=5.0), prob),
    "adaptive_bound": (
        lambda gamma, tau: dpaudit.adaptive_bound(10, 5, P, gamma, tau),
        dict(gamma=0.05, tau=1.0),
        lambda out: finite(out[0]) and prob(out[1])),
    "generalization_bound": (
        lambda gamma, eta: dpaudit.generalization_bound(100, P, gamma, eta),
        dict(gamma=0.4, eta=0.1), prob),
    # the error is infinite where c or d is
    "prior_generalization_bound": (
        lambda alpha_acc, beta_acc, c, d: dpaudit.prior_generalization_bound(
            alpha_acc, beta_acc, P, c, d),
        dict(alpha_acc=0.0, beta_acc=0.01, c=0.1, d=0.1),
        lambda out: out[0] >= 0 and 0 <= out[1] < math.inf),
    "optimize_generalization_width": (
        lambda beta_acc, target_failure: dpaudit.optimize_generalization_width(
            50, dpaudit.PrivacyParams(1.0, 1e-4), beta_acc, target_failure),
        dict(beta_acc=1e-3, target_failure=0.5),
        lambda out: finite(*out) and prob(out[2])),
    "optimize_prior_width": (
        lambda beta_acc, target_failure: dpaudit.optimize_prior_width(
            P, beta_acc, target_failure),
        dict(beta_acc=1e-5, target_failure=0.05), lambda out: finite(*out)),
    "mi_bound": (lambda p_incl: dpaudit.mi_bound(10, P, p_incl),
                 dict(p_incl=0.5), bound),
    "GaussianReportConfig": (dpaudit.GaussianReportConfig,
                             dict(sigma=1.0, sensitivity=2.0),
                             lambda cfg: 0 < cfg.rho < math.inf),
    "PathologicalConfig": (
        lambda eps, delta, beta: dpaudit.PathologicalConfig(
            100, 10, eps, delta, beta),
        dict(eps=1.0, delta=1e-4, beta=0.05),
        lambda cfg: prob(cfg.branch_accuracy(True))),
    "ZcdpParams": (dpaudit.ZcdpParams, dict(rho=1.0),
                   lambda rec: bound(rec.rho)),
    # order = inf is the max-divergence order
    "RdpParams": (dpaudit.RdpParams, dict(order=2.0, eps_check=1.0),
                  lambda rec: rec.order > 1 and bound(rec.eps_check)),
    "randomized_response": (
        lambda eps: dpaudit.randomized_response(S, eps, rng()),
        dict(eps=1.0), lambda t: np.all(np.abs(t) == 1)),
    "gaussian_dp_delta": (dpaudit.gaussian_dp_delta, dict(rho=1.0, eps=1.0),
                          prob),
    "gaussian_dp_eps": (dpaudit.gaussian_dp_eps, dict(rho=1.0, delta=1e-5),
                        bound),
    "rdp_membership_accuracy": (dpaudit.rdp_membership_accuracy,
                                dict(eps_check=1.0),
                                lambda acc: 0.5 <= acc <= 1.0),
    "expected_correct_gaussian": (
        lambda sigma: dpaudit.expected_correct_gaussian(100, 10, sigma),
        dict(sigma=1.0), lambda out: finite(out[0]) and 0 <= out[1] <= 10),
    "MechanismAdapter": (
        lambda eps, delta: dpaudit.MechanismAdapter(
            "probe", lambda s, g: s, "guesses", eps, delta),
        dict(eps=1.0, delta=0.0), adapter_ok),
    "adapter_randomized_response": (dpaudit.adapter_randomized_response,
                                    dict(eps=1.0), adapter_ok),
    "adapter_gaussian_report": (
        lambda delta: dpaudit.adapter_gaussian_report(
            dpaudit.GaussianReportConfig(1.0), delta),
        dict(delta=1e-5),
        lambda a: adapter_ok(a) and (a.eps is None or bound(a.eps))),
    "audit_run": (
        lambda delta, confidence: dpaudit.audit_run(
            SCORES, 20, 3, 3, delta, [confidence], 0),
        dict(delta=1e-5, confidence=0.95), report_ok),
    "k_sweep": (
        lambda delta, confidence: dpaudit.k_sweep(
            Y, S, [(3, 3)], delta, confidence),
        dict(delta=1e-5, confidence=0.95),
        lambda sweep: all(bound(row.eps_lb) for row in sweep.rows)),
    # noise_multiplier = inf is a configuration that privacy_accounting
    # rejects
    "TrainerConfig": (
        lambda **reals: dpaudit.TrainerConfig(**dict(TRAINER, **reals)),
        {key: TRAINER[key] for key in ("clip", "noise_multiplier",
                                       "sample_prob", "learning_rate")},
        lambda cfg: finite(cfg.clip, cfg.learning_rate)
        and 0 < cfg.sample_prob <= 1 and cfg.noise_multiplier >= 0),
    "LossModel.synthetic": (
        lambda label_noise: dpaudit.LossModel.synthetic(
            "logistic", 5, 3, rng(), label_noise),
        dict(label_noise=0.0),
        lambda model: finite(model.features, model.labels)),
    "theoretical_eps_upper": (
        lambda delta: dpaudit.theoretical_eps_upper(
            dpaudit.TrainerConfig(**TRAINER), delta),
        dict(delta=1e-5), bound),
    "audit_adapter": (
        lambda delta: dpaudit.audit_adapter(
            MODEL, np.arange(3), dpaudit.TrainerConfig(**TRAINER), delta),
        dict(delta=1e-5), lambda a: adapter_ok(a) and bound(a.eps)),
}

BAD_REALS = (0.0, -1.0, math.nan, math.inf, -math.inf, 1e-300, 1e300)
PROBES = [(entry, name, bad) for entry, (_, typical, _) in CASES.items()
          for name in typical for bad in BAD_REALS]


def real_fault(entry: str, name: str, bad) -> str | None:
    """None if the call with real ``name`` set to ``bad`` returns a value in
    its documented range or raises a ValueError that names ``name``, with no
    warning; else what went wrong."""
    call, typical, in_range = CASES[entry]
    probe = f"{entry}({name}={bad!r})"
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = call(**dict(typical, **{name: bad}))
    except ValueError as exc:
        if re.search(rf"(?<![\w.]){name}(?!\w)", str(exc)):
            return None
        return f"{probe}: the ValueError does not name {name}: {exc}"
    except Exception as exc:  # noqa: BLE001 - any other type breaks the rule
        return f"{probe} raised {type(exc).__name__}: {exc}"
    if not in_range(out):
        return f"{probe} returned a value outside its range: {out!r}"
    return None


@pytest.mark.parametrize("entry", sorted(CASES))
def test_typical_reals_are_accepted(entry):
    # the fuzz sets one real at a time; every other argument must be valid
    call, typical, in_range = CASES[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert in_range(call(**typical))


@settings(max_examples=200, deadline=None)
@given(probe=st.sampled_from(PROBES))
def test_bad_real_is_in_range_or_a_value_error_naming_it(probe):
    assert real_fault(*probe) is None


def test_fuzz_needs_the_real_rule(monkeypatch):
    # with the rule switched off, the records take nan and report it
    rule = estimator.check_reals
    for key, module in list(sys.modules.items()):
        if (key.startswith("dpaudit")
                and getattr(module, "check_reals", None) is rule):
            monkeypatch.setattr(module, "check_reals", lambda *a, **k: None)
    records = ("PrivacyParams", "GeneralPParams", "ZcdpParams", "RdpParams",
               "MechanismAdapter", "TrainerConfig")
    faults = [real_fault(*probe) for probe in PROBES
              if probe[0] in records and probe[2] is math.nan]
    assert all(fault and "outside its range" in fault for fault in faults)


# The annotations of a real-valued parameter.
FLOAT_ANNOTATIONS = {"float", "float | None"}


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


def test_every_exported_real_is_probed():
    missing = [(qualname, param) for qualname, sig in exported_signatures()
               for param, spec in sig.parameters.items()
               if spec.annotation in FLOAT_ANNOTATIONS
               and param not in CASES.get(qualname, (None, {}, None))[1]]
    assert missing == []


def test_trainer_real_rows_name_real_intervals():
    for field, kind, interval in dpsgd.TRAINER_KEYS.values():
        assert interval in estimator.REAL_INTERVALS, field
