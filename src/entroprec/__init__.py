"""Entropy-production simulation and reconstruction for unital open quantum systems."""

from .core import (
    DegenerateSupportWarning,
    DensityMatrix,
    Observable,
    SpectralDecomposition,
    partial_trace,
    relative_entropy,
    spectral_decomposition,
    tensor_product,
    von_neumann_entropy,
)
from .channels import (
    IntegratorAccuracyError,
    LindbladModel,
    NonCompletelyPositiveError,
    QuantumChannel,
    TimeReversal,
    apply_channel,
    kraus_from_lindblad_endpoints,
    lindblad_propagate,
    ms_gate,
    time_reversed,
)
from .protocol import (
    AbsoluteIrreversibilityWarning,
    EntropyDistribution,
    JointOutcomeTable,
    ThermoReport,
    TwoTimeProtocol,
    backward_joint,
    bipartite_distributions,
    convolve_distributions,
    correlation_witness,
    crooks_check,
    entropy_samples,
    forward_joint,
    ift_deviation,
    mean_entropy,
    second_law_report,
    conditional_equality_deviation,
    entropy_bound_check,
)
from .charfunc import (
    char_function,
    measurement_budget,
    moment_generating,
    simulate_measurement_path,
)
from .reconstruct import (
    MomentVector,
    ParameterGrid,
    ReconstructionError,
    ReconstructionResult,
    chebyshev_nodes,
    fourier_reconstruct,
    moments_via_newton,
    moments_via_vandermonde,
    pseudoinverse_reconstruct,
    rmse_moments,
    rmse_probs,
)
from .experiments import (
    PRESETS,
    ConfigRecord,
    SweepReport,
    TwoIonConfig,
    build_channel,
    build_protocol,
    preset,
    run_config,
    sweep_gamma,
    sweep_moment_count,
    sweep_phase,
    two_ion_model,
)

__version__ = "0.1.0"
