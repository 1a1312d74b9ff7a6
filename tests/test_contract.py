"""The contract table: every exported argument goes through one of the
three argument rules.

A count (m, n, r, v, a guess budget, a step count or a dimension) is an
integer, not a bool, at least its lower bound and at most the largest
float (``estimator.check_counts``); a real lies in its interval of
``estimator.REAL_INTERVALS`` (``estimator.check_reals``); arguments with
an order between them, such as v <= r <= m, do not decrease in that order
(``estimator.check_order``).

One table holds each exported callable, its typical arguments, the
range of what it returns and the interval of each real argument.  A probe
sets one count to 2.5, nan, +-inf, -1, True, False or 10**400, one real
to 0, -1, nan, +-inf, 1e-300, 1e300, the largest float or the smallest
subnormal, or breaks one order rule.  The call must raise a ValueError
that names every argument the probe set (a real probe inside that real's
interval may instead return a value in range), and emit no warning.
Every probe runs on every run.  The order rule's tests are here;
test_count_contract and test_real_contract hold those of the other two
rules, each with its signature scan and switch-off check.
"""

import inspect
import math
import re
import sys
import warnings

import numpy as np

import dpaudit
from dpaudit import dpsgd, estimator

# a score-output adapter, so audit_run reads its guess budget
SCORES = dpaudit.adapter_gaussian_report(1.0)
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
# the documented range, each real argument's interval: its key in
# estimator.REAL_INTERVALS).  An int typical value is a count, a float a
# real; audit_run's list of confidences is probed by its one element.
NULL = dict(eps="[0, inf]", delta="[0, 1]")  # of the (eps, delta) null
CASES = {
    "rr_accuracy": (dpaudit.rr_accuracy, dict(eps=1.0),
                    lambda q: 0.5 <= q <= 1.0, dict(eps="[0, inf]")),
    "DominatingDistribution.from_binomial": (
        dpaudit.DominatingDistribution.from_binomial, dict(n=6, q=0.7),
        lambda dist: all(prob(s) for s in dist.survival_table),
        dict(q="[0, 1]")),
    "dual_alpha": (
        lambda v, m: dpaudit.dual_alpha(
            dpaudit.DominatingDistribution.from_binomial(6, 0.7), v, m),
        dict(v=4, m=10), bound, {}),
    "p_value_audit": (dpaudit.p_value_audit,
                      dict(m=10, r=6, v=4, eps=1.0, delta=1e-5), prob, NULL),
    "eps_lower_bound": (dpaudit.eps_lower_bound,
                        dict(m=10, r=6, v=4, delta=1e-5, beta=0.05), bound,
                        dict(delta="[0, 1]", beta="(0, 1)")),
    "p_value_general_p": (
        dpaudit.p_value_general_p,
        dict(m=10, k_plus=3, k_minus=3, v=4, eps=1.0, delta=1e-5,
             p_incl=0.3), prob, dict(NULL, p_incl="(0, 1)")),
    "hoeffding_p_value": (
        dpaudit.hoeffding_p_value,
        dict(m=10, r1=10.0, r2=3.0, v=5.0, eps=1.0, delta=1e-5), prob,
        dict(NULL, r1="(0, inf)", r2="(0, inf)", v="finite")),
    "adaptive_bound": (
        dpaudit.adaptive_bound,
        dict(m=10, r_observed=5, eps=1.0, delta=1e-5, gamma=0.05, tau=1.0),
        lambda out: finite(out[0]) and prob(out[1]),
        dict(NULL, gamma="[0, 1]", tau="(0, inf)")),
    "generalization_bound": (
        dpaudit.generalization_bound,
        dict(n=100, eps=1.0, delta=1e-5, gamma=0.4, eta=0.1), prob,
        dict(NULL, gamma="[0, inf)", eta="[0, inf)")),
    # the error is infinite where c or d is; c, d > 0 lie in (0, inf], which
    # no key names, so the probes take the key one point wider
    "prior_generalization_bound": (
        dpaudit.prior_generalization_bound,
        dict(alpha_acc=0.0, beta_acc=0.01, eps=1.0, delta=1e-5, c=0.1,
             d=0.1),
        lambda out: out[0] >= 0 and 0 <= out[1] < math.inf,
        dict(NULL, alpha_acc="[0, inf)", beta_acc="[0, 1]", c="[0, inf]",
             d="[0, inf]")),
    "optimize_generalization_width": (
        dpaudit.optimize_generalization_width,
        dict(n=50, eps=1.0, delta=1e-4, beta_acc=1e-3, target_failure=0.5),
        lambda out: finite(*out) and prob(out[2]),
        dict(NULL, beta_acc="[0, 1]", target_failure="[0, 1]")),
    "optimize_prior_width": (
        dpaudit.optimize_prior_width,
        dict(eps=1.0, delta=1e-5, beta_acc=1e-5, target_failure=0.05),
        lambda out: finite(*out),
        dict(NULL, beta_acc="[0, 1]", target_failure="[0, 1]")),
    "mi_bound": (dpaudit.mi_bound,
                 dict(n=10, eps=1.0, delta=1e-5, p_incl=0.5), bound,
                 dict(NULL, p_incl="(0, 1)")),
    "PathologicalConfig": (
        dpaudit.PathologicalConfig,
        dict(m=100, r=10, eps=1.0, delta=1e-4, beta=0.05),
        lambda cfg: prob(cfg.branch_accuracy(True)),
        dict(NULL, beta="[0, 1]")),
    "randomized_response": (
        lambda eps: dpaudit.randomized_response(S, eps, rng()),
        dict(eps=1.0), lambda t: np.all(np.abs(t) == 1),
        dict(eps="[0, inf]")),
    "gaussian_report": (
        lambda sigma: dpaudit.gaussian_report(S, sigma, rng()),
        dict(sigma=1.0), finite, dict(sigma="(0, inf)")),
    "gaussian_dp_delta": (dpaudit.gaussian_dp_delta, dict(rho=1.0, eps=1.0),
                          prob, dict(rho="(0, inf)", eps="[0, inf]")),
    "gaussian_dp_eps": (dpaudit.gaussian_dp_eps, dict(rho=1.0, delta=1e-5),
                        bound, dict(rho="(0, inf)", delta="(0, 1)")),
    "rdp_membership_accuracy": (dpaudit.rdp_membership_accuracy,
                                dict(eps_check=1.0),
                                lambda acc: 0.5 <= acc <= 1.0,
                                dict(eps_check="[0, inf]")),
    "expected_correct_gaussian": (
        dpaudit.expected_correct_gaussian, dict(m=100, r=10, sigma=1.0),
        lambda out: finite(out[0]) and 0 <= out[1] <= 10,
        dict(sigma="(0, inf)")),
    "sample_selection": (lambda m: dpaudit.sample_selection(m, rng()),
                         dict(m=20), lambda s: np.all(np.abs(s) == 1), {}),
    "make_guesses": (
        lambda k_plus, k_minus: dpaudit.make_guesses(Y, k_plus, k_minus),
        dict(k_plus=3, k_minus=3), lambda t: np.abs(t).sum() == 6, {}),
    "MechanismAdapter": (
        lambda eps, delta: dpaudit.MechanismAdapter(
            "probe", lambda s, g: s, "guesses", eps, delta),
        dict(eps=1.0, delta=0.0), adapter_ok, NULL),
    "adapter_randomized_response": (dpaudit.adapter_randomized_response,
                                    dict(eps=1.0), adapter_ok,
                                    dict(eps="[0, inf]")),
    "adapter_gaussian_report": (
        dpaudit.adapter_gaussian_report, dict(sigma=1.0, delta=1e-5),
        lambda a: adapter_ok(a) and (a.eps is None or bound(a.eps)),
        dict(sigma="(0, inf)", delta="[0, 1]")),
    "run_mechanism": (lambda m: dpaudit.run_mechanism(SCORES, m, 0),
                      dict(m=20), lambda out: finite(*out), {}),
    "audit_run": (
        lambda m, k_plus, k_minus, delta, confidence: dpaudit.audit_run(
            SCORES, m, k_plus, k_minus, delta, [confidence], 0),
        dict(m=20, k_plus=3, k_minus=3, delta=1e-5, confidence=0.95),
        report_ok, dict(delta="[0, 1]", confidence="confidence")),
    "k_sweep": (
        lambda k_plus, k_minus, delta, confidence: dpaudit.k_sweep(
            Y, S, [(k_plus, k_minus)], delta, confidence),
        dict(k_plus=3, k_minus=3, delta=1e-5, confidence=0.95),
        lambda rows: all(bound(row.eps_lb) for row in rows),
        dict(delta="[0, 1]", confidence="confidence")),
    # noise_multiplier = inf is a configuration that privacy_accounting
    # rejects
    "TrainerConfig": (
        dpaudit.TrainerConfig, TRAINER,
        lambda cfg: finite(cfg.clip, cfg.learning_rate)
        and 0 < cfg.sample_prob <= 1 and cfg.noise_multiplier >= 0,
        {field: interval for field, kind, interval
         in dpsgd.TRAINER_KEYS.values() if kind is float}),
    "dirac_canaries": (lambda m, d: dpaudit.dirac_canaries(m, d, rng()),
                       dict(m=3, d=10), lambda idx: len(set(idx)) == 3, {}),
    "LossModel.canary_only": (dpaudit.LossModel.canary_only, dict(d=3),
                              lambda model: model.features.shape == (0, 3),
                              {}),
    "LossModel.synthetic": (
        lambda n, d, label_noise: dpaudit.LossModel.synthetic(
            "logistic", n, d, rng(), label_noise),
        dict(n=5, d=3, label_noise=0.0),
        lambda model: finite(model.features, model.labels),
        dict(label_noise="finite")),
    "mislabeled_canaries": (
        lambda m: dpaudit.mislabeled_canaries(MODEL, m, rng()),
        dict(m=4), lambda canaries: canaries.n_examples == 4, {}),
    "theoretical_eps_upper": (
        lambda delta: dpaudit.theoretical_eps_upper(
            dpaudit.TrainerConfig(**TRAINER), delta),
        dict(delta=1e-5), bound, dict(delta="(0, 1)")),
    "audit_adapter": (
        lambda delta: dpaudit.audit_adapter(
            MODEL, np.arange(3), dpaudit.TrainerConfig(**TRAINER), delta),
        dict(delta=1e-5), lambda a: adapter_ok(a) and bound(a.eps),
        dict(delta="(0, 1)")),
}

# 10**400 is above the largest float, which the bounds compute with
BAD_COUNTS = (2.5, math.nan, math.inf, -math.inf, -1, True, False, 10**400)
# the largest float and the smallest subnormal are the float extremes
BAD_REALS = (0.0, -1.0, math.nan, math.inf, -math.inf, 1e-300, 1e300,
             sys.float_info.max, 5e-324)
# dual_alpha's threshold v may be any integer (S(w) = 1 for w <= 0)
SIGNED = {("dual_alpha", "v")}

# rule -> probes (entry, the arguments set); one order probe per rule site
PROBES = {
    "check_counts": [
        (entry, {name: bad}) for entry, (_, typical, *_) in CASES.items()
        for name, value in typical.items() if type(value) is int
        for bad in BAD_COUNTS if not (bad == -1 and (entry, name) in SIGNED)],
    "check_reals": [
        (entry, {name: bad}) for entry, (_, typical, *_) in CASES.items()
        for name, value in typical.items() if type(value) is float
        for bad in BAD_REALS],
    "check_order": [
        ("p_value_audit", dict(r=11, m=10)),
        ("p_value_audit", dict(v=7, r=6)),
        ("eps_lower_bound", dict(r=11, m=10)),
        ("eps_lower_bound", dict(v=7, r=6)),
        ("adaptive_bound", dict(r_observed=11, m=10)),
        ("generalization_bound", dict(gamma=0.1, eta=0.2)),
        ("PathologicalConfig", dict(r=101, m=100)),
        ("PathologicalConfig", dict(m=100, delta=0.01, r=10, beta=0.05)),
        ("expected_correct_gaussian", dict(r=101, m=100)),
        ("make_guesses", dict(k_plus=15, k_minus=6)),
        ("dirac_canaries", dict(m=11, d=10)),
    ],
}


# rule -> how a ValueError names an argument: a count as "name must" or
# "name=", a real or an order's term as a word (an order names terms such
# as "k_plus + k_minus")
NAMING = {"check_counts": r"(?<![\w.]){}( must|=)",
          "check_reals": r"(?<![\w.]){}(?!\w)",
          "check_order": r"(?<![\w.]){}(?!\w)"}


def must_raise(entry: str, bad: dict) -> bool:
    """Whether a real probe must raise: it sets an argument outside the
    entry's interval for it (nan lies in no interval), which no documented
    range can show."""
    intervals = CASES[entry][3]
    return any(not estimator.REAL_INTERVALS[intervals[name]][0](value)
               for name, value in bad.items())


def fault(rule: str, entry: str, bad: dict) -> str | None:
    """None if the call with the arguments in ``bad`` raises a ValueError
    that names each of them, or for a real probe that need not raise
    (:func:`must_raise`) returns a value in its documented range, with no
    warning; else what went wrong."""
    call, typical, in_range, _ = CASES[entry]
    probe = f"{entry}({', '.join(f'{k}={v!r}' for k, v in bad.items())})"
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = call(**dict(typical, **bad))
    except ValueError as exc:
        unnamed = [name for name in bad
                   if not re.search(NAMING[rule].format(name), str(exc))]
        return f"{probe}: the ValueError does not name {unnamed}: {exc}" \
            if unnamed else None
    except Exception as exc:  # noqa: BLE001 - any other type breaks the rule
        return f"{probe} raised {type(exc).__name__}: {exc}"
    if rule == "check_reals" and not in_range(out):
        return f"{probe} returned a value outside its range: {out!r}"
    if rule != "check_reals" or must_raise(entry, bad):
        return f"{probe} returned without an error"
    return None


def faults(rule: str, keep=lambda entry, bad: True) -> list[str | None]:
    """fault() of each of a rule's probes that ``keep`` selects."""
    return [fault(rule, entry, bad) for entry, bad in PROBES[rule]
            if keep(entry, bad)]


def typical_entries(kind: type) -> list[str]:
    """The entries with an argument of the kind (int for a count, float for
    a real), whose probes need every other argument valid."""
    return sorted(entry for entry, (_, typical, *_) in CASES.items()
                  if kind in map(type, typical.values()))


def accepts_typical(entry: str) -> bool:
    call, typical, in_range, _ = CASES[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return in_range(call(**typical))


def test_broken_order_is_a_value_error_naming_it():
    assert list(filter(None, faults("check_order"))) == []


def test_probes_need_the_order_rule(rebind):
    # only the records: with a rule off, a computation may run without end
    rebind(estimator, "check_order", lambda **values: None)
    found = faults("check_order",
                   lambda entry, bad: inspect.isclass(CASES[entry][0]))
    assert found and all(f and "returned without an error" in f
                         for f in found)


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


# The int arguments no rule checks: a seed takes whatever numpy's
# generator does.
UNCHECKED = {"seed"}
# The exported record the library returns, built from counts it has
# computed: its fields are results, not arguments a caller passes.
RESULTS = {"AuditReport"}


def unprobed(annotations: set[str]) -> list[tuple[str, str]]:
    """(export, argument) of each exported argument with one of the
    annotations that the table does not probe."""
    return [(qualname, param) for qualname, sig in exported_signatures()
            if qualname not in RESULTS
            for param, spec in sig.parameters.items()
            if spec.annotation in annotations and param not in UNCHECKED
            and param not in CASES.get(qualname, (None, {}))[1]]
