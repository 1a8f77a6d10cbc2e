"""Exact and floating-point checks for hyperbolic group geometry.

The package is organised around group presentations (`groups`), metric
structures and four-point scans (`metrics`), difference cocycles and
their lp norms (`cocycles`), the boundary model with its measure
(`boundary`), the step-function crossed product with its flow and
equilibrium checks (`crossed`), and the command line harness
(`suites`, `cli`, `serialize`).
"""

from .errors import (
    HyperlabError,
    InputError,
    InvariantViolation,
    NumericError,
    ResourceLimitError,
    UnsupportedElementError,
)
from .groups import (
    Ball,
    GroupElement,
    GroupPresentation,
    cyclically_reduce,
    enumerate_ball,
    free_group,
    load_presentation,
    modular_group,
    parse_presentation,
    preset,
    surface_group,
)
from .metrics import (
    FOURPOINT_TOLERANCE,
    FourPointReport,
    GreenData,
    MetricStructure,
    check_strong_hyperbolicity,
    four_point_min_rule_margin,
    green_metric,
    solve_green,
    word_metric,
)
from .cocycles import (
    CertificateBlock,
    LpNormReport,
    PairBand,
    build_pair_band,
    cocycle_identity_scan,
    cocycle_norms,
    critical_exponent_scan,
    free_norm_count,
    haagerup_value,
    lp_norms,
    properness_certificates,
)
from .boundary import (
    BoundaryMeasure,
    BoundaryPoint,
    action_law_scan,
    boundary_point,
    busemann_on_word,
    conformal_identity_scan,
    conformality_scan,
    fixed_points,
    reduced_words,
    seeded_family,
    visual_distances,
)
from .crossed import (
    CrossedElement,
    StepFunction,
    apply_flow,
    busemann_step,
    kms_check,
    kms_monomial_scan,
    nonvanishing_certificate,
    state_omega,
)
from .suites import ScenarioConfig, SuiteReport, run_scenario

__version__ = "0.1.0"

__all__ = [
    "HyperlabError", "InputError", "InvariantViolation", "NumericError",
    "ResourceLimitError", "UnsupportedElementError",
    "Ball", "GroupElement", "GroupPresentation", "cyclically_reduce",
    "enumerate_ball", "free_group", "load_presentation", "modular_group",
    "parse_presentation", "preset", "surface_group",
    "FOURPOINT_TOLERANCE", "FourPointReport", "GreenData", "MetricStructure",
    "check_strong_hyperbolicity", "four_point_min_rule_margin",
    "green_metric", "solve_green", "word_metric",
    "CertificateBlock", "LpNormReport", "PairBand", "build_pair_band",
    "cocycle_identity_scan", "cocycle_norms", "critical_exponent_scan",
    "free_norm_count", "haagerup_value", "lp_norms", "properness_certificates",
    "BoundaryMeasure", "BoundaryPoint", "action_law_scan",
    "boundary_point", "busemann_on_word", "conformal_identity_scan",
    "conformality_scan", "fixed_points", "reduced_words", "seeded_family",
    "visual_distances",
    "CrossedElement", "StepFunction", "apply_flow",
    "busemann_step", "kms_check", "kms_monomial_scan",
    "nonvanishing_certificate", "state_omega",
    "ScenarioConfig", "SuiteReport", "run_scenario",
    "__version__",
]
