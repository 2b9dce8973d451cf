"""Uniform evaluation of a binomial-type endpoint oscillatory integral.

The integral under study,

    J_B(t; lambda) = integral over z near the endpoint z = 1 of
                     (1-z)^(-1/2) z^(sigma-1/2) e^(i t F(z; lambda)),
    F(z; lambda) = (1-z) ln(1-z) + z ln z + z ln lambda,

is evaluated three independent ways: direct adaptive contour quadrature
(the oracle), a leading-order uniform approximation built on the Fresnel
tail function, and an all-orders split-contour expansion driven by
integration by parts.  A verification harness cross-checks the routes
and measures empirical error decay.
"""

from .errors import (
    AssumptionViolated,
    BranchViolation,
    DegenerateData,
    EndpointUniformError,
    InvalidParam,
    InvalidSplit,
    NegativeArgument,
    NewtonDivergence,
    NonConvergence,
    NumericalError,
    OrderViolation,
    OutOfRange,
    ParameterError,
    RegimeMismatch,
    SigmaUnsupported,
    SingularPoint,
    SplitOutOfRange,
    ZeroArgument,
)
from .params import (
    DerivedParams,
    ProblemParams,
    Split,
    admissible_lambda_range,
    choose_split,
    critical_lambda,
    default_split_exponent,
    derive,
    from_offset,
    from_omega,
    select_phi,
    split_from_a,
)
from .phase import (
    amp_g,
    big_f,
    d_f,
    d_f1,
    endpoint_prefactor,
    f0,
    f1,
)
from .fresnel import (
    FT_FULL_LINE,
    FT_ZERO,
    fresnel_segment,
    fresnel_tail,
    fresnel_tail_asymptotic,
    fresnel_tail_general,
)
from .quadrature import (
    PANEL_CAP,
    QuadratureResult,
    RayContour,
    integrate_ray,
    integrate_segment,
    jb1_oracle,
    jb2_oracle,
    jb_oracle,
    jtilde_oracle,
    phi_oracle,
    ray_truncation,
)
from .substitution import (
    amp_F,
    decomposition_residual,
    dzeta_du,
    phi_closed,
    u_of_zeta,
    zeta_of_u,
)
from .ibp import (
    CoefficientTable,
    ExpansionTerm,
    amn_table,
    apply_ibp_operator,
    double_factorial,
    jb2_series,
    rn_bound,
    t_term,
)
from .asymptotics import (
    OMEGA_THRESHOLD_DEFAULT,
    Approximation,
    Method,
    Regime,
    all_orders,
    classify_regime,
    corollary_leading,
    exponent_identity_residual,
    jb1_main,
    leading_order,
    leading_order_large_omega,
    phase_difference_residual,
)
from .harness import (
    CSV_HEADER,
    SUITES,
    ComparisonRow,
    SweepConfig,
    fit_error_slope,
    property_scan,
    rows_to_csv,
    run_all_scans,
    run_sweep,
    sweep_config_from_dict,
    write_csv,
)

__version__ = "1.0.0"
