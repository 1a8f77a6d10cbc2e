"""Exact and floating-point checks for hyperbolic group geometry.

The package is organised around group presentations (`groups`), metric
structures and four-point scans (`metrics`), difference cocycles and
proper affine actions (`cocycles`), the boundary model with its measure
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
    growth_exponent,
    solve_green,
    tree_metric,
    word_metric,
)
from .cocycles import (
    AffineActionReport,
    LpNormReport,
    PairBand,
    PropernessCertificate,
    affine_action_check,
    build_pair_band,
    busemann_group,
    cocycle_identity_scan,
    critical_exponent_scan,
    haagerup_value,
    lp_norm,
    properness_check,
)
from .boundary import (
    BoundaryMeasure,
    BoundaryPoint,
    Cylinder,
    boundary_gromov,
    boundary_point,
    busemann_boundary,
    busemann_on_word,
    conformal_identity_check,
    conformality_check,
    cylinder,
    fixed_points,
    parse_boundary_point,
    reduced_words,
    seeded_family,
    visual_distance,
)
from .crossed import (
    CrossedElement,
    FlowParameter,
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
    "green_metric", "growth_exponent", "solve_green", "tree_metric",
    "word_metric",
    "AffineActionReport", "LpNormReport", "PairBand", "PropernessCertificate",
    "affine_action_check", "build_pair_band", "busemann_group",
    "cocycle_identity_scan", "critical_exponent_scan", "haagerup_value",
    "lp_norm", "properness_check",
    "BoundaryMeasure", "BoundaryPoint", "Cylinder", "boundary_gromov",
    "boundary_point", "busemann_boundary", "busemann_on_word",
    "conformal_identity_check", "conformality_check", "cylinder",
    "fixed_points",
    "parse_boundary_point", "reduced_words", "seeded_family",
    "visual_distance",
    "CrossedElement", "FlowParameter", "StepFunction", "apply_flow",
    "busemann_step", "kms_check", "kms_monomial_scan",
    "nonvanishing_certificate", "state_omega",
    "ScenarioConfig", "SuiteReport", "run_scenario",
    "__version__",
]
