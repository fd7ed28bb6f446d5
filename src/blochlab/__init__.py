"""Composition and integral-type operators on disk function spaces.

The package evaluates boundedness/compactness criteria for commutators of a
composition operator with Volterra-type integral operators, estimates the
relevant seminorms, and packages the whole thing behind a CLI
(``python -m blochlab`` or the ``blochlab`` console script).

Layering, bottom up: :mod:`blochlab.series` (truncated Taylor series),
:mod:`blochlab.exprdsl` (a tiny analytic-expression DSL), :mod:`blochlab.diskgeom`
(boundary-shell grids and self-map validation), :mod:`blochlab.criteria`
(the samples and criterion fields of a pair, and statement classification),
:mod:`blochlab.operators` (operators, quadrature, norms), :mod:`blochlab.testfns`
(extremal test families), :mod:`blochlab.harness` (panels, experiment runs,
reports), and :mod:`blochlab.verify` (named verification checks).
"""

from .config import Config, ConfigError, load_config
from .criteria import (
    Conclusion,
    CriterionKind,
    CriterionReport,
    Membership,
    OperatorKind,
    PreconditionFailed,
    THEOREMS,
    Thresholds,
    Verdict,
    classify,
    criterion_value,
    evaluate_criterion,
    little_bloch_membership,
)
from .diskgeom import (
    DiskGrid,
    NotASelfMap,
    NotFiniteOnGrid,
    SelfMap,
    make_grid,
    pseudo_hyperbolic,
    schwarz_pick_modulus_bound,
    validate_self_map,
)
from .exprdsl import (
    AnalyticFn,
    ExprError,
    ROUNDTRIP_CORPUS,
    analytic,
    evaluate,
    parse,
    print_expr,
)
from .harness import (
    AUTOMORPHISM_PANEL,
    BLOCH_F_CORPUS,
    G_CORPUS,
    HINF_F_CORPUS,
    POLYNOMIAL_G_CORPUS,
    ROTATION_PANEL,
    SHRINKER_PANEL,
    TEN_MAP_PANEL,
    CaseResult,
    ExperimentSpec,
    SuiteReport,
    run_classification,
    to_csv,
    to_json,
)
from .operators import (
    QuadratureError,
    SupEstimate,
    apply_Ig,
    apply_Jg,
    bloch_norm,
    bloch_seminorm,
    commutator_derivative,
    commutator_seminorm,
    commutator_seminorms,
    commutator_value,
    hinf_norm,
)
from .series import TaylorSeries, coeffs_from_samples, recovery_count
from .testfns import (
    InterpolationFamily,
    LogFw,
    MobiusAlpha,
    PeakH,
    ProductF,
    build_interpolation_family,
    make_test_fn,
    select_separated_subsequence,
)
from .verify import CheckResult, available_checks, run_suite

__version__ = "0.1.0"

__all__ = [
    "AUTOMORPHISM_PANEL",
    "AnalyticFn",
    "BLOCH_F_CORPUS",
    "CaseResult",
    "CheckResult",
    "Conclusion",
    "Config",
    "ConfigError",
    "CriterionKind",
    "CriterionReport",
    "DiskGrid",
    "ExperimentSpec",
    "ExprError",
    "G_CORPUS",
    "HINF_F_CORPUS",
    "InterpolationFamily",
    "LogFw",
    "Membership",
    "MobiusAlpha",
    "NotASelfMap",
    "NotFiniteOnGrid",
    "OperatorKind",
    "POLYNOMIAL_G_CORPUS",
    "PeakH",
    "PreconditionFailed",
    "ProductF",
    "QuadratureError",
    "ROTATION_PANEL",
    "ROUNDTRIP_CORPUS",
    "SHRINKER_PANEL",
    "SelfMap",
    "SuiteReport",
    "SupEstimate",
    "TEN_MAP_PANEL",
    "THEOREMS",
    "TaylorSeries",
    "Thresholds",
    "Verdict",
    "__version__",
    "analytic",
    "apply_Ig",
    "apply_Jg",
    "available_checks",
    "bloch_norm",
    "bloch_seminorm",
    "build_interpolation_family",
    "classify",
    "coeffs_from_samples",
    "commutator_derivative",
    "commutator_seminorm",
    "commutator_seminorms",
    "commutator_value",
    "criterion_value",
    "evaluate",
    "evaluate_criterion",
    "hinf_norm",
    "little_bloch_membership",
    "load_config",
    "make_grid",
    "make_test_fn",
    "parse",
    "print_expr",
    "pseudo_hyperbolic",
    "recovery_count",
    "run_classification",
    "run_suite",
    "schwarz_pick_modulus_bound",
    "select_separated_subsequence",
    "to_csv",
    "to_json",
    "validate_self_map",
]
