"""Bell-diagonal two-qubit dynamics under local non-Markovian Pauli noise."""

from .channels import (
    LocalChannel,
    apply_local_channel,
    correlation_multipliers,
    scale_coefficients,
)
from .correlations import (
    CorrelationLedger,
    CorrelationReport,
    classical_correlation_bruteforce,
    closest_classical_state,
    conditional_entropy,
    correlation_ledger,
    discord,
    relative_entropy_discord,
)
from .errors import (
    AccuracyError,
    InvalidStateError,
    NonCPTPError,
    RootNotFoundError,
    SupportViolationError,
)
from .kernel import (
    DampingRegime,
    KernelParams,
    damping_regime,
    decay_factor,
    decay_factor_convolution,
    decay_factor_ode,
    markovian_decay_factor,
    omega0_squared,
    solve_decay_time,
)
from .scenarios import (
    Evolution,
    InitialFamily,
    characteristic_time,
    closed_form_characteristic_time,
    detect_kink,
    evolve,
    figure_data,
    make_family_state,
)
from .states import (
    BellCoefficients,
    bell_eigenvalues,
    bell_to_density,
    density_to_bell,
    partial_trace,
    random_bell_coefficients,
    relative_entropy,
    validate_state,
    von_neumann_entropy,
)

__version__ = "0.1.0"
