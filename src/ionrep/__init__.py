"""Capacity planning for chains of dual-species trapped-ion quantum repeaters.

The public names resolve on first access (PEP 562), so `import ionrep`
loads no submodule, and a caller loads only the modules whose names it
reads: `ionrep.evaluate_rate` loads the model and the rates, not the
optimizer or the simulator. The first access copies the name from its
submodule into this namespace, as `from .rates import evaluate_rate`
would, and later reads cost what any module attribute costs.
"""

import importlib

_EXPORTS = {
    "model": (
        "C_VACUUM_KM_S",
        "ChainLayout",
        "DerivedTiming",
        "HardwareProfile",
        "NoiseParams",
        "OpticalParams",
        "TimingParams",
        "WernerState",
        "apply_swap_gate_noise",
        "compose_gate_errors",
        "derive_timing",
        "end_to_end_Q",
        "end_to_end_fidelity",
        "fiber_transmissivity",
        "heralding_time",
        "intra_node_success_prob",
        "link_success_prob",
        "swap_survival_factor",
        "werner_rci",
        "Constraints",
    ),
    "rates": (
        "InfeasibleError",
        "RateReport",
        "Regime",
        "block_success_prob",
        "classify_regime",
        "classification_path",
        "evaluate_rate",
        "plob_bound",
        "reference_rates",
    ),
    "optimize": (
        "OptimizationResult",
        "SearchBounds",
        "SweepRow",
        "crossover_distance",
        "optimize_rate",
        "sweep_distance",
    ),
    "mcsim": (
        "SimConfig",
        "SimStats",
        "ValidationVerdict",
        "run_protocol_sim",
        "sample_end_to_end_Q",
        "validate_against_analytic",
    ),
}
# public name -> the submodule that defines it
_MODULE_OF = {name: f"{__name__}.{module}"
              for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(importlib.import_module(module), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
