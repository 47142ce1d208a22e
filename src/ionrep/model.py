"""Physical parameters, their checks and the timing-regime walk for
dual-species trapped-ion repeater chains; this module imports no numpy.

It holds the constants, the parameter dataclasses, the sweep's
distance_grid, the heralding time T = l0 / c_fiber, the Werner-state noise
maps, the regime walk (classify_regime, classification_path) and the errors
StepCountError and InfeasibleError, so classify, the help pages and every
config error but a bad bounds.* run without numpy. The formulas that
compute with numpy are in ionrep.rates.
Units are kilometers and seconds; dB enters only through the fiber
attenuation coefficient.

ChainLayout's fields may be numpy arrays, a grid of chains. Each parameter
dataclass checks its fields when it is built (dataclasses.replace and
HardwareProfile.updated included), so the formulas check only their plain
arguments. ChainLayout._unchecked, for the optimizer's rows, built from
inputs it has checked, is the one layout that skips its checks.
Every field check, here (the optimizer's Constraints included) and in
SearchBounds and SimConfig, goes through _check, which rejects NaN and names
an array's first bad entry and its flat index, on one line, calling numpy
only for an array. Every count, those fields' and the n and trials of
rates.end_to_end_Q and mcsim.sample_end_to_end_Q, goes through _check_count,
in one message form. A scalar count that passes is stored as an int by
_store_int, so 4.0 and np.int64(4) give 4.
The one rule over two noise fields, a swap survival factor x >= 0 (where
the closed-form Q(n) holds), is swap_survival_factor's alone: every caller
raises its one-line ValueError, and no check warns instead of raising.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Optional

# Vacuum speed of light, km/s.
C_VACUUM_KM_S = 299792.458
# Largest repeater count, mode count or block length: 2 M m stays in int64.
MAX_COUNT = 2 ** 30
MAX_L_POINTS = 10_000  # distances in a sweep grid: 200x the default grid's 50
# Largest step count tau_g/tau or T/tau: 2 (M k + j) stays in int64 for M <= MAX_COUNT.
MAX_STEPS = 2 ** 31


class StepCountError(ValueError):
    """A step count tau_g/tau or T/tau is past MAX_STEPS, or, in the
    simulator, rounds to 0 whole steps.

    fields names the inputs to blame: ("tau",) for tau_g/tau,
    ("total_distance_km",) when the chain's heralding time T is not finite
    by itself, and both for T/tau.
    """

    def __init__(self, fields: tuple, message: str):
        super().__init__(message)
        self.fields = fields


class InfeasibleError(Exception):
    """No operating point satisfies the constraints; binding names them."""

    def __init__(self, binding: list[str], message: str):
        super().__init__(message)
        self.binding = binding


def _check(ok, name: str, rule: str, value) -> None:
    # ok is the test a good value passes, which NaN fails; the message is
    # formatted only on failure
    if not (ok if isinstance(ok, bool) else ok.all()):
        where = ""
        if getattr(value, "ndim", 0):  # an array, so numpy is loaded already
            import numpy as np
            first = np.flatnonzero(~np.asarray(ok))[0]
            value, where = np.ravel(value)[first], f" at flat index {first}"
        raise ValueError(f"{name} must be {rule}, got {value}{where}")


def _check_count(name: str, v, low: int, high: Optional[int] = MAX_COUNT) -> None:
    """v, a number or an array, must be an integer in [low, high], where a
    high of None sets no upper bound: "<name> must be a positive integer
    <= <high>, got <v>", or nonnegative where low is 0."""
    top = "" if high is None else f" <= {high}"
    _check((v % 1 == 0) & (v >= low) & (high is None or v <= high), name,
           f"a {'nonnegative' if low == 0 else 'positive'} integer{top}", v)


def _store_int(obj, name: str) -> None:
    """Store obj's field name, a count its checks passed, as an int where it
    is a scalar of another type (4.0, np.int64(4)); an array stays as it is."""
    v = getattr(obj, name)
    if type(v) is not int and getattr(v, "ndim", 0) == 0:
        object.__setattr__(obj, name, int(v))


@dataclass(frozen=True)
class OpticalParams:
    """Photon collection, detection, and fiber properties."""

    eta_c: float = 0.3
    eta_d: float = 0.8
    alpha_db_per_km: float = 0.2
    refractive_index: float = 1.47

    def __post_init__(self) -> None:
        _check(0.0 < self.eta_c <= 1.0, "eta_c", "in (0, 1]", self.eta_c)
        _check(0.0 < self.eta_d <= 1.0, "eta_d", "in (0, 1]", self.eta_d)
        _check(self.alpha_db_per_km >= 0.0, "alpha_db_per_km", ">= 0", self.alpha_db_per_km)
        _check(self.refractive_index >= 1.0, "refractive_index", ">= 1",
               self.refractive_index)


@dataclass(frozen=True)
class TimingParams:
    """Clock, gate, and ion-lifetime durations in seconds.

    tau is the entanglement-generation clock cycle, tau_g the two-ion gate plus
    measurement time, tau_o the communication-ion coherence time, and tau_m the
    memory-ion coherence time. A communication ion must survive at least one
    gate, so tau_o > tau_g is required.
    """

    tau: float = 1e-6
    tau_g: float = 1e-6
    tau_o: float = 50e-6
    tau_m: float = 60.0

    def __post_init__(self) -> None:
        for name in ("tau", "tau_g", "tau_o", "tau_m"):
            _check(getattr(self, name) > 0.0, name, "positive", getattr(self, name))
        if not self.tau_o > self.tau_g:
            raise ValueError(f"tau_o must exceed tau_g, got tau_o={self.tau_o}, "
                             f"tau_g={self.tau_g}")


@dataclass(frozen=True)
class NoiseParams:
    """Elementary-link Werner fidelity f0 and two-qubit gate error eps_g."""

    f0: float = 0.9999
    eps_g: float = 1e-4

    def __post_init__(self) -> None:
        _check(0.25 <= self.f0 <= 1.0, "f0", "in [0.25, 1]", self.f0)
        _check(0.0 <= self.eps_g <= 1.0, "eps_g", "in [0, 1]", self.eps_g)


@dataclass(frozen=True)
class WernerState:
    """Bell-diagonal state (F, (1-F)/3, (1-F)/3, (1-F)/3); F may be an array."""

    fidelity: float

    def __post_init__(self) -> None:
        f = self.fidelity
        _check((f >= 0.0) & (f <= 1.0), "fidelity", "in [0, 1]", f)


@dataclass(frozen=True)
class HardwareProfile:
    """Full hardware description; defaults are the baseline operating point."""

    optical: OpticalParams = field(default_factory=OpticalParams)
    timing: TimingParams = field(default_factory=TimingParams)
    noise: NoiseParams = field(default_factory=NoiseParams)
    # Memory feasibility demands tau_m >= memory_margin * block duration.
    memory_margin: float = 10.0

    def __post_init__(self) -> None:
        swap_survival_factor(self.noise)  # its x >= 0 check
        _check(self.memory_margin >= 1.0, "memory_margin", ">= 1", self.memory_margin)

    def updated(self, **kwargs: float) -> "HardwareProfile":
        """Return a copy with flat field overrides routed to the right group.

        Accepts any field of OpticalParams, TimingParams, or NoiseParams by
        name, plus memory_margin.
        """
        groups = {"optical": self.optical, "timing": self.timing, "noise": self.noise}
        pending = dict(kwargs)
        out = {}
        for gname, gval in groups.items():
            hits = {k: pending.pop(k) for k in list(pending)
                    if k in gval.__dataclass_fields__}
            out[gname] = replace(gval, **hits) if hits else gval
        margin = pending.pop("memory_margin", self.memory_margin)
        if pending:
            raise ValueError(f"unknown hardware fields: {sorted(pending)}")
        return HardwareProfile(optical=out["optical"], timing=out["timing"],
                               noise=out["noise"], memory_margin=margin)


@dataclass(frozen=True)
class ChainLayout:
    """A chain of n_repeaters equally spaced nodes spanning total_distance_km.

    spatial_mux (M) counts parallel fiber modes per link per clock cycle;
    time_mux (m) is the number of clock cycles pooled into one swap block.
    total_distance_km may be a float column, and n_repeaters and time_mux
    integer rows or columns; they broadcast against each other, which
    describes a grid of chains, one distance per row.
    """

    total_distance_km: float
    n_repeaters: int
    spatial_mux: int = 1
    time_mux: int = 1

    def __post_init__(self) -> None:
        _check(self.total_distance_km > 0.0, "total_distance_km", "positive",
               self.total_distance_km)
        for name, low in (("n_repeaters", 0), ("spatial_mux", 1), ("time_mux", 1)):
            _check_count(name, getattr(self, name), low)
            _store_int(self, name)

    @classmethod
    def _unchecked(cls, total_distance_km, n_repeaters, spatial_mux) -> "ChainLayout":
        """A layout at time_mux 1 built without __post_init__'s checks, for
        fields its caller has checked: the optimizer's thousands of rows."""
        layout = object.__new__(cls)
        layout.__dict__.update(total_distance_km=total_distance_km,
                               n_repeaters=n_repeaters, spatial_mux=spatial_mux, time_mux=1)
        return layout

    @property
    def n_links(self) -> int:
        return self.n_repeaters + 1

    @property
    def link_length_km(self) -> float:
        return self.total_distance_km / self.n_links


@dataclass(frozen=True)
class Constraints:
    """The optimizer's limits on a chain: ion caps per node, a pinned spacing
    or repeater count, and a shortest clock cycle tau_min in seconds. It
    lives here, with the other config dataclasses, so that the figure table
    builds curves without loading the optimizer."""

    n_o_max: Optional[int] = None
    n_m_max: Optional[int] = None
    fixed_l0_km: Optional[float] = None
    fixed_n: Optional[int] = None
    tau_min: Optional[float] = None

    def __post_init__(self) -> None:
        if self.fixed_l0_km is not None and self.fixed_n is not None:
            raise ValueError("at most one of fixed_l0_km and fixed_n may be set")
        for name, low in (("n_o_max", 1), ("n_m_max", 1), ("fixed_n", 0)):
            if getattr(self, name) is not None:
                _check_count(name, getattr(self, name), low)
                _store_int(self, name)
        if self.fixed_l0_km is not None:
            _check(self.fixed_l0_km > 0, "fixed_l0_km", "positive", self.fixed_l0_km)
        if self.tau_min is not None:
            _check(self.tau_min > 0, "tau_min", "positive", self.tau_min)

    @property
    def pinned(self) -> bool:
        """True when fixed_n or fixed_l0_km pins the repeater count."""
        return self.fixed_n is not None or self.fixed_l0_km is not None


def distance_grid(l_min_km: float, l_max_km: float, l_step_km: float) -> list[float]:
    """l_min_km + i * l_step_km for i = 0, 1, ... while within l_max_km (to 1e-12).

    Raises ValueError naming the parameter at fault, l_step_km when the grid
    would have more than MAX_L_POINTS distances.
    """
    for name, v in (("l_min_km", l_min_km), ("l_max_km", l_max_km),
                    ("l_step_km", l_step_km)):
        _check(0.0 < v < math.inf, name, "positive and finite", v)
    if l_max_km < l_min_km:
        raise ValueError(f"l_max_km must be >= l_min_km, got {l_max_km} < {l_min_km}")
    grid: list[float] = []
    while len(grid) <= MAX_L_POINTS:
        l_km = l_min_km + len(grid) * l_step_km
        if l_km > l_max_km * (1 + 1e-12):
            return grid
        grid.append(l_km)
    raise ValueError(f"l_step_km={l_step_km:g} is too small: the grid would have "
                     f"more than {MAX_L_POINTS} distances")


@dataclass(frozen=True)
class DerivedTiming:
    """Timing quantities implied by a layout: heralding latency and step ratios.

    j_steps = tau_g/tau and k_steps = T/tau are kept real valued; integer
    quantization is the simulator's job, not the analytic model's.
    """

    heralding_time_s: float
    j_steps: float
    k_steps: float


def heralding_time(l0_km: float, refractive_index: float) -> float:
    """One-way classical latency T = l0 / c_fiber in seconds."""
    _check(l0_km >= 0.0, "l0_km", ">= 0", l0_km)
    _check(refractive_index >= 1.0, "refractive_index", ">= 1", refractive_index)
    return _latency(l0_km, refractive_index)


def _latency(l_km, refractive_index):  # heralding_time on inputs checked already
    return l_km * refractive_index / C_VACUUM_KM_S


def apply_swap_gate_noise(state: WernerState, eps_g: float) -> WernerState:
    """Depolarize a Werner state through one noisy swap gate.

    The gate leaves the state untouched with probability 1 - eps_g and
    replaces it with the maximally mixed state otherwise, so the fidelity
    map is affine: F -> (1 - eps_g) F + eps_g/4.
    """
    _check(0.0 <= eps_g <= 1.0, "eps_g", "in [0, 1]", eps_g)
    return WernerState((1.0 - eps_g) * state.fidelity + eps_g / 4.0)


def compose_gate_errors(eps_1: float, eps_2: float) -> float:
    """Error parameter of two noisy gates in sequence."""
    return 1.0 - (1.0 - eps_1) * (1.0 - eps_2)


def swap_survival_factor(noise: NoiseParams) -> float:
    """Per-swap survival factor x = 1 - 2 eps_g - (4/3)(1 - f0).

    The polarization (1 - 2Q) of the end-to-end error flag shrinks by x at
    every swap. The closed form Q(n) = (1 - x^n)/2 holds only for x >= 0, so
    x < 0 raises a ValueError here, and HardwareProfile, rates.end_to_end_Q,
    rates.end_to_end_fidelity and mcsim.sample_end_to_end_Q raise it by
    calling this. x <= 1 follows from NoiseParams' rules on eps_g and f0.
    """
    x = 1.0 - 2.0 * noise.eps_g - (4.0 / 3.0) * (1.0 - noise.f0)
    if x < 0.0:
        raise ValueError(f"swap survival factor 1 - 2 eps_g - (4/3)(1 - f0) is below 0 "
                         f"at eps_g={noise.eps_g}, f0={noise.f0}")
    return x


class Regime(enum.Enum):
    A = "A"
    B1 = "B1"
    B2 = "B2"
    C1 = "C1"
    C2 = "C2"


def _regime_tests(t, tau_g: float, tau_o: float):
    """The comparisons behind every regime label, in decision order, on t as
    given: a float gives Python bools, an array boolean arrays."""
    return t >= tau_o, t >= tau_g, tau_o >= t + tau_g


def _decision_walk(timing: TimingParams, t: float):
    """The regime of t and the (label, lhs, rhs, outcome) branches taken."""
    past_o, past_g, fits = _regime_tests(t, timing.tau_g, timing.tau_o)
    steps = [("T >= tau_o", t, timing.tau_o, past_o)]
    if past_o:
        return Regime.A, steps
    steps += [("T >= tau_g", t, timing.tau_g, past_g),
              ("tau_o >= T + tau_g", timing.tau_o, t + timing.tau_g, fits)]
    return Regime(("B" if past_g else "C") + ("2" if fits else "1")), steps


def classify_regime(timing: TimingParams, heralding_time_s: float) -> Regime:
    return _decision_walk(timing, heralding_time_s)[0]


def classification_path(timing: TimingParams, heralding_time_s: float) -> list[str]:
    """The branch conditions evaluated on the way to a regime label."""
    regime, steps = _decision_walk(timing, heralding_time_s)
    return [f"{label} ({lhs:.9g} >= {rhs:.9g}): {'yes' if ok else 'no'}"
            for label, lhs, rhs, ok in steps] + [f"regime {regime.value}"]
