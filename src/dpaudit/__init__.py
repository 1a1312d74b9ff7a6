"""Single-run differential privacy auditing.

Turn the correct-guess count of one membership-inference experiment into a
statistically valid p-value and epsilon lower bound, simulate the idealized
mechanisms those bounds are tight for, and audit a desk-scale DP-SGD
trainer end to end.
"""

from .estimator import (
    DominatingDistribution,
    GeneralPParams,
    GuessSummary,
    PrivacyParams,
    adaptive_bound,
    binomial_sf,
    dual_alpha,
    eps_lower_bound,
    generalization_bound,
    hoeffding_p_value,
    mi_bound,
    optimize_generalization_width,
    optimize_prior_width,
    p_value_audit,
    p_value_general_p,
    prior_generalization_bound,
    rr_accuracy,
)
from .mechanisms import (
    GaussianReportConfig,
    PathologicalConfig,
    RdpParams,
    ZcdpParams,
    dpsgd_rdp_eps,
    expected_correct_gaussian,
    gaussian_dp_delta,
    gaussian_dp_eps,
    gaussian_report,
    pathological,
    randomized_response,
    rdp_membership_accuracy,
)
from .pipeline import (
    AuditReport,
    CanaryPairSet,
    KSweepResult,
    MechanismAdapter,
    adapter_gaussian_report,
    adapter_pathological,
    adapter_randomized_response,
    audit_run,
    count_correct,
    k_sweep,
    make_guesses,
    partition,
    replacement_selection,
    run_mechanism,
    sample_selection,
)
from .dpsgd import (
    ExampleCanarySet,
    LossModel,
    TrainerConfig,
    adapter_dpsgd_audit,
    audit_adapter,
    dirac_canaries,
    dpsgd_train,
    mislabeled_canaries,
    theoretical_eps_upper,
    whitebox_scores,
)

__version__ = "0.1.0"
