"""Post-selected open-quantum-system dynamics on superposed interferometer paths.

A qubit is sent through an N-arm interferometer so that it interacts with its
environment in a coherent superposition of trajectories; projecting the path
register afterwards reshapes the reduced dynamics. This package provides the
exact post-selected dynamics for dissipative and pure-dephasing spin-boson
models, the associated spectral filter functions and overlap-integral decay
factors, a collective-decay (indefinite-position) scenario, perturbative
second-order machinery for arbitrary couplings, and non-Markovianity /
CP-divisibility diagnostics, plus a CLI for reproducible data generation.
"""

from .core import (
    GaussianPeak,
    InterferometerConfig,
    Lorentzian,
    Ohmic,
    PathBlockMatrix,
    QubitState,
    SpectralDensity,
    Tabulated,
    binary_phases,
    normalize,
    phase_pair_sum,
    phase_weights,
    postselect_general,
    r_factor,
    superpose_identical,
    trace_distance,
)
from .dephasing import (
    DephasingFactors,
    DephasingParams,
    dephasing_exponent,
    dephasing_factors,
    modified_dephasing,
    postselected_state_deph,
    single_path_factor,
)
from .dicke import (
    CollectiveRateMatrix,
    ControlQubitState,
    Geometry,
    build_master_generator,
    dicke_rates_two_atom,
    evolve_collective,
    excited_population_analytic,
    excited_population_numeric,
    qd_for_collective_factor,
    superposed_initial_state,
)
from .dissipative import (
    DecayAmplitude,
    MemoryKernel,
    decay_amplitude,
    decay_amplitude_auto,
    decay_amplitude_closed_series,
    decay_amplitude_lorentzian_closed,
    decay_factor,
    is_cp_divisible,
    lorentzian_kernel_closed,
    memory_kernel,
    postselected_state_diss,
    survival_probability_diss,
    trace_distance_diss,
)
from .errors import (
    ConfigError,
    NullOutcome,
    NumericError,
    QuadratureError,
    ZenoTrajError,
)
from .filters import (
    FilterSpec,
    decay_factor_overlap,
    filter_deph,
    filter_diss,
    filter_traditional_zeno,
    fwhm,
    perturbative_consistency,
    sinc,
)
from .numerics import (
    ComplexSeries,
    TimeGrid,
    integrate_adaptive,
    integrate_matrix_ode,
    min_eigenvalue_hermitian,
    solve_volterra,
)
from .perturbation import (
    CouplingModel,
    dephasing_coupling_model,
    dissipative_coupling_model,
    general_decay_factor,
    general_filter,
    second_order_block,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # shared domain types and post-selection algebra
    "SpectralDensity",
    "Lorentzian",
    "Ohmic",
    "GaussianPeak",
    "Tabulated",
    "InterferometerConfig",
    "QubitState",
    "PathBlockMatrix",
    "r_factor",
    "binary_phases",
    "phase_weights",
    "phase_pair_sum",
    "postselect_general",
    "superpose_identical",
    "normalize",
    "trace_distance",
    # errors
    "ZenoTrajError",
    "ConfigError",
    "NumericError",
    "QuadratureError",
    "NullOutcome",
    # numerics
    "TimeGrid",
    "ComplexSeries",
    "integrate_adaptive",
    "solve_volterra",
    "integrate_matrix_ode",
    "min_eigenvalue_hermitian",
    # dissipative model
    "DecayAmplitude",
    "MemoryKernel",
    "memory_kernel",
    "lorentzian_kernel_closed",
    "decay_amplitude",
    "decay_amplitude_lorentzian_closed",
    "decay_amplitude_closed_series",
    "decay_amplitude_auto",
    "postselected_state_diss",
    "survival_probability_diss",
    "decay_factor",
    "trace_distance_diss",
    "is_cp_divisible",
    # dephasing model
    "DephasingParams",
    "DephasingFactors",
    "dephasing_exponent",
    "single_path_factor",
    "modified_dephasing",
    "postselected_state_deph",
    "dephasing_factors",
    # filters and overlap integrals
    "FilterSpec",
    "filter_diss",
    "filter_deph",
    "filter_traditional_zeno",
    "decay_factor_overlap",
    "perturbative_consistency",
    "fwhm",
    "sinc",
    # collective decay
    "Geometry",
    "CollectiveRateMatrix",
    "ControlQubitState",
    "qd_for_collective_factor",
    "dicke_rates_two_atom",
    "build_master_generator",
    "evolve_collective",
    "excited_population_analytic",
    "excited_population_numeric",
    "superposed_initial_state",
    # general perturbative engine
    "CouplingModel",
    "dissipative_coupling_model",
    "dephasing_coupling_model",
    "second_order_block",
    "general_filter",
    "general_decay_factor",
]
