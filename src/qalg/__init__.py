"""qalg: high-precision q-products, theta/eta quantities, elliptic-modular
values and algebraic-number recognition."""

from .precision import HPReal, PrecisionContext
from .errors import (
    BranchError,
    ConvergenceError,
    DegenerateBasis,
    DomainError,
    InsufficientData,
    InsufficientPrecision,
    OrderError,
    QalgError,
    SingularError,
)
from .series import FormalSeries, exponent_product
from .qengine import (
    AgileSpec,
    Nome,
    ThetaSpec,
    agile,
    agile_qexpansion,
    agile_star,
    agile_via_triangular,
    eta_paper,
    eta_qexpansion,
    make_nome,
    star_exponent,
    tau_star,
    theta2,
    theta3,
    theta_general,
    theta_powersum,
    theta_qexpansion,
)
from .elliptic import (
    elliptic_alpha,
    ellint_E,
    ellint_K,
    inverse_singular_modulus,
    j_invariant,
    multiplier,
    singular_modulus,
)
from .moebius import (
    JacobiCharacter,
    PeriodicCoeffs,
    TaylorInput,
    detect_period,
    extract_X,
    lambert_series,
    logderiv_representation,
    normalized_value,
    represent_product,
    represent_theta,
    square_character_eta_identity,
)
from .modular import (
    Residual,
    incomplete_beta,
    klein_j_from_R,
    modular5_check,
    ramanujan_modular5_check,
    rrcf,
    sextic_theta,
    sextic_Y_check,
    solve_sextic,
    theorem3_check,
    eq43_derivative_check,
    theorem4_check,
)
from .recognize import (
    IntegerPolynomial,
    RecognitionResult,
    lattice_reduce,
    recognize,
    recognize_expression,
)

__version__ = "0.1.0"
