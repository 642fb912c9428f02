"""Quantum pricing engine for single-asset autocallable options.

Exact statevector simulation of the pricing circuit, iterative amplitude
estimation on top of it, four classical reference models, and a T-depth
resource model.
"""

from .circuit import (
    AmplitudeMapping,
    PricingCircuit,
    QuantizedModel,
    RegisterLayout,
    build_pricing_circuit,
    fit_format,
    log_return_increment,
    post_process,
)
from .contracts import AutocallableContract, BinaryOption, FixedPointFormat
from .errors import (
    CapacityError,
    ConfigError,
    MappingError,
    NumericalError,
    PreconditionError,
    QAutocallError,
    StructuralError,
)
from .estimation import (
    EstimateResult,
    IqaeConfig,
    build_grover,
    exact_amplitude,
    iqae_estimate,
)
from .loading import (
    GaussianGridSpec,
    exp_angles,
    gaussian_amplitudes,
    integration_amplitude,
    partial_exponential_prep_ops,
)
from .oracles import (
    McResult,
    closed_form_discretized,
    closed_form_quantized,
    mc_price,
    mc_price_discretized,
)
from .resources import (
    QSP_BASELINE_T_DEPTH,
    ResourceParams,
    TDepthReport,
    d_amplitude_loading,
    d_arith,
    d_gaussian,
    d_total,
    solve_truncation,
)
from .simulator import (
    Add,
    Condition,
    PhaseOracle,
    QubitRegister,
    Ry,
    Statevector,
    X,
    allocate,
    injection_ops,
    invert,
    probability,
)

__version__ = "0.1.0"
