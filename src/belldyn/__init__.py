"""Bell-diagonal two-qubit dynamics under local non-Markovian Pauli noise."""

from .channels import apply_local_channel, correlation_multipliers
from .correlations import (
    CorrelationLedger,
    CorrelationReport,
    classical_correlation_bruteforce,
    correlation_ledger,
    discord,
    relative_entropy_discord,
)
from .errors import (
    AccuracyError,
    InvalidStateError,
    NonCPTPError,
    SupportViolationError,
)
from .kernel import (
    KernelParams,
    damping_regime,
    decay_factor,
    decay_factor_convolution,
    decay_factor_ode,
    markovian_decay_factor,
    solve_decay_time,
)
from .scenarios import (
    Evolution,
    InitialFamily,
    characteristic_time,
    closed_form_characteristic_time,
    evolve,
    make_family_state,
    switch_brackets,
)
from .states import (
    BellCoefficients,
    bell_eigenvalues,
    bell_to_density,
    density_to_bell,
    random_bell_coefficients,
    relative_entropy,
)

__version__ = "0.1.0"
