"""Autonomous stabilization of two-qubit entangled states: simulation toolkit.

Composite qubit-resonator Hilbert space utilities, rotating-frame
Hamiltonian builders for the sideband drive combinations, Lindblad time
evolution and steady states, the analytic rate model, simulated state
tomography, device calibration formulas, and a config-driven scenario
runner with a CLI (`stabsim`).
"""

__version__ = "0.1.0"

from .hilbert import (
    ComplexOperator,
    DensityMatrix,
    EigenSystem,
    SpaceLayout,
    annihilation,
    eigendecompose,
    expectation,
    partial_trace,
)
from .builders import (
    EnergyMatchingError,
    LindbladProblem,
    NoiseSpec,
    RabiDrive,
    SidebandDrive,
    StabilizationPlan,
    build_color_variant,
    build_even_parity_system,
    build_from_plan,
    build_lindblad,
    build_odd_parity_system,
    build_qubit_block,
    plan_stabilization,
)
from .targets import (
    StabilizationTarget,
    bell_phi_minus,
    bell_psi_minus,
    blending_angle,
    delta_for_blending_angle,
    dressed_parity_state,
    dressing_angle,
    fidelity,
    parity_signature,
    phi_theta,
    product_state,
    psi_theta,
    purity,
    rabi_dressed_state,
)
from .ratemodel import (
    RateModel,
    optimal_kappa,
    rate_matrix_steady_state,
    rate_model,
    refilling_rate,
    steady_fidelity,
    steady_populations,
    transition_rates,
)
from .dynamics import (
    DriveSchedule,
    ScheduleSegment,
    Trajectory,
    evolve,
    evolve_schedule,
    fit_time_constant,
    steady_state,
)
from .calibration import (
    CircuitParams,
    DeviceTable,
    kappa_from_resonator_t1,
    load_device_table,
    qq_sideband_rate,
    qr_blue_rate,
    static_couplings,
)
from .tomography import (
    CountsTable,
    TomographySettings,
    pauli_estimates,
    reconstruct,
    reconstruct_from_frequencies,
    simulate_tomography,
)
from .scenarios import (
    SweepResult,
    compare_analytic,
    default_config,
    run_scenario,
    validate_config,
    write_result,
)
