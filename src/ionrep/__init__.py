"""Capacity planning for chains of dual-species trapped-ion quantum repeaters."""

from .model import (
    C_VACUUM_KM_S,
    ChainLayout,
    DerivedTiming,
    HardwareProfile,
    ModelDomainWarning,
    NoiseParams,
    OpticalParams,
    TimingParams,
    WernerState,
    apply_swap_gate_noise,
    compose_gate_errors,
    derive_timing,
    end_to_end_Q,
    end_to_end_fidelity,
    fiber_transmissivity,
    heralding_time,
    intra_node_success_prob,
    link_success_prob,
    swap_survival_factor,
    werner_rci,
)
from .rates import (
    InfeasibleError,
    RateReport,
    Regime,
    block_success_prob,
    classify_regime,
    classification_path,
    evaluate_rate,
    plob_bound,
    reference_rates,
)
from .optimize import (
    Constraints,
    OptimizationResult,
    SearchBounds,
    SweepRow,
    crossover_distance,
    optimize_rate,
    sweep_distance,
)
from .mcsim import (
    SimConfig,
    SimStats,
    ValidationVerdict,
    run_protocol_sim,
    sample_end_to_end_Q,
    validate_against_analytic,
)

__version__ = "0.1.0"
