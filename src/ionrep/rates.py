"""Timing-regime classification and entanglement distribution rates.

A block of m clock cycles accumulates heralded link-level entanglement which
is swapped end to end once per block. How the block's wall time and the per
node ion budgets come out depends on the ordering of three time scales: the
heralding latency T, the communication-ion lifetime tau_o, and the gate time
tau_g. The five orderings are labeled A, B1, B2, C1, C2; B1 shares A's
formulas and C2 shares B2's.

Each formula is written once, here or in ionrep.model, and broadcasts over
numpy arrays: the regime comparisons (_regime_tests, behind the decision walk
and the formula_groups masks), block_denominator, ion_budgets and
block_success_prob. rate_grid combines them over distances, repeater counts
and block lengths. evaluate_rate reports its 1 x 1 call through
grid_reports; the optimizer argmaxes it and reports its optima the same way;
mcsim.SimConfig reads formula_groups and block_denominator at integer steps.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields

import numpy as np

from .model import (
    ChainLayout,
    DerivedTiming,
    HardwareProfile,
    TimingParams,
    derive_timing,
    end_to_end_fidelity,
    link_success_prob,
    werner_rci,
)


class FeasibilityError(Exception):
    """A timing or resource constraint rules out the requested operating point."""

    def __init__(self, constraint: str, message: str):
        super().__init__(message)
        self.constraint = constraint


class Regime(enum.Enum):
    A = "A"
    B1 = "B1"
    B2 = "B2"
    C1 = "C1"
    C2 = "C2"

    @property
    def waits_for_herald(self) -> bool:
        """True when comm ions live long enough to gate only heralded modes."""
        return self in (Regime.B2, Regime.C2)

    @property
    def formula_group(self) -> "Regime":
        """Representative regime whose rate and ion formulas apply."""
        return {Regime.B1: Regime.A, Regime.C2: Regime.B2}.get(self, self)


def _regime_tests(t, tau_g: float, tau_o: float):
    """The comparisons behind every regime label, in decision order."""
    t = np.asarray(t)
    return t >= tau_o, t >= tau_g, tau_o >= t + tau_g


def formula_groups(t, tau_g: float, tau_o: float):
    """Masks (waits, uses_k) of T in groups B2/C2 and A/B1; the rest is C1."""
    past_o, past_g, fits = _regime_tests(t, tau_g, tau_o)
    waits = ~past_o & fits
    return waits, past_g & ~waits


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
    timing.validate()
    return _decision_walk(timing, heralding_time_s)[0]


def classification_path(timing: TimingParams, heralding_time_s: float) -> list[str]:
    """The branch conditions evaluated on the way to a regime label."""
    regime, steps = _decision_walk(timing, heralding_time_s)
    return [f"{label} ({lhs:.9g} >= {rhs:.9g}): {'yes' if ok else 'no'}"
            for label, lhs, rhs, ok in steps] + [f"regime {regime.value}"]


def block_denominator(waits, uses_k, k_steps, m, j_steps):
    """Block wall time in steps: k + 2j (A, B1), k + 3j (B2, C2) or 3j (C1), + m - 1."""
    base = np.where(uses_k, k_steps + 2.0 * j_steps,
                    np.where(waits, k_steps + 3.0 * j_steps, 3.0 * j_steps))
    return base + (m - 1.0)  # exact for m = 1, where base may be below one ulp of m


def denominator_steps(regime: Regime, k_steps: float, m: int, j_steps: float) -> float:
    """Block wall time in units of tau for the given regime."""
    return block_denominator(regime.waits_for_herald,
                             regime.formula_group is Regime.A, k_steps, m, j_steps)


def ceil_tol(v):
    """Integer ceiling that ignores float noise pushing an exact integer up."""
    return np.ceil(v - 1e-9).astype(np.int64)


def ion_budgets(waits, k_steps, j_steps, spatial_mux, m):
    """Per-node (n_o, n_m) ion budgets for the wait-for-herald mask.

    Blind gating (A, B1, C1) cycles 2jM comm ions and may touch up to 2mM
    memories, an upper bound on the occupancy. Waiting for the herald (B2,
    C2) parks attempts for k steps, needing 2(Mk + j) comm ions, but loads
    one memory pair per link per cycle, exactly 2m memories.
    """
    n_o = ceil_tol(np.where(waits, 2.0 * (spatial_mux * k_steps + j_steps),
                              2.0 * spatial_mux * j_steps))
    return n_o, np.where(waits, 2, 2 * spatial_mux) * m


@dataclass(frozen=True)
class IonRequirements:
    n_o: int
    n_m: int
    n_m_is_upper_bound: bool


def ion_requirements(layout: ChainLayout, timing: DerivedTiming,
                     regime: Regime) -> IonRequirements:
    """Per-node ion budgets sufficient for the protocol in the given regime."""
    waits = regime.waits_for_herald
    n_o, n_m = ion_budgets(waits, timing.k_steps, timing.j_steps,
                           layout.spatial_mux, layout.time_mux)
    return IonRequirements(n_o=int(n_o), n_m=int(n_m), n_m_is_upper_bound=not waits)


def block_success_prob(p, spatial_mux, time_mux, n_repeaters):
    """Probability that all n+1 links herald at least one pair in one block."""
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError(f"p must be in [0, 1], got {p}")
    # p = 0 and p = 1 come out exactly as 0 and 1 through the infinities
    with np.errstate(divide="ignore"):
        per_link = -np.expm1(spatial_mux * time_mux * np.log1p(-p))
        return np.exp((n_repeaters + 1.0) * np.log(per_link))


def plob_bound(eta: float, spatial_mux: int, tau_s: float) -> float:
    """Repeaterless capacity of M parallel pure-loss channels, in ebits/s."""
    if not 0.0 < eta < 1.0:
        raise ValueError(f"transmissivity must be in (0, 1), got {eta}")
    return -spatial_mux / tau_s * math.log1p(-eta) / math.log(2.0)


def reference_rates(n: int, m: int, spatial_mux: int, p: float, q: float,
                    tau_s: float) -> tuple[float, float, float, float]:
    """Rates of the non-blocked reference schemes, (R0, R1, R2, R).

    R0 demands every link succeed in a single shot, R1 adds spatial modes,
    R2 pools m cycles, and R combines both poolings. q is the memory-swap
    success probability per node (1 for deterministic ion-ion gates).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    qn = q ** n
    r0 = p ** (n + 1) * qn / tau_s
    r1 = block_success_prob(p, spatial_mux, 1, n) * qn / tau_s
    r2 = block_success_prob(p, 1, m, n) * qn / (m * tau_s)
    r = block_success_prob(p, spatial_mux, m, n) * qn / (m * tau_s)
    return r0, r1, r2, r


@dataclass(frozen=True)
class RateReport:
    """Everything evaluate_rate knows about one operating point."""

    regime: Regime
    p: float
    timing: DerivedTiming
    denominator_steps: float
    denominator_s: float
    block_success: float
    ideal_rate: float
    f_end: float
    rci: float
    noisy_rate: float
    n_o: int
    n_m: int
    n_m_is_upper_bound: bool

    def to_dict(self) -> dict:
        """Flat field dict: the regime as its label, timing spliced in."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out.update(vars(value) if f.name == "timing" else
                       {f.name: value.value if f.name == "regime" else value})
        return out


@dataclass(frozen=True)
class RateGrid:
    """rate_grid's output; each field broadcasts to n_repeaters x time_mux."""

    timing: DerivedTiming
    waits: np.ndarray  # formula group B2/C2, the rest blind
    den_steps: np.ndarray
    mem_ok: np.ndarray  # tau_m covers memory_margin x the block duration
    n_o: np.ndarray
    n_m: np.ndarray
    p: np.ndarray
    block: np.ndarray
    f_end: np.ndarray
    rci: np.ndarray
    rate: np.ndarray  # noisy rate: block / block duration x max(0, rci)


def memory_covers(hw: HardwareProfile, den_steps):
    """True where tau_m covers memory_margin x a block of den_steps clock cycles."""
    return hw.memory_margin * den_steps * hw.timing.tau <= hw.timing.tau_m


def rate_grid(layout: ChainLayout, hw: HardwareProfile) -> RateGrid:
    """The rate model over a layout with array n_repeaters (a column),
    time_mux (a row or column) and, optionally, total_distance_km (a
    column); blocks that outlive the memory are flagged in mem_ok."""
    timing = derive_timing(layout, hw)
    tm = hw.timing
    k, j, m = timing.k_steps, timing.j_steps, layout.time_mux
    waits, uses_k = formula_groups(timing.heralding_time_s, tm.tau_g, tm.tau_o)
    den_steps = block_denominator(waits, uses_k, k, m, j)
    n_o, n_m = ion_budgets(waits, k, j, layout.spatial_mux, m)
    p = link_success_prob(hw.optical, layout.link_length_km)
    block = block_success_prob(p, layout.spatial_mux, m, layout.n_repeaters)
    f_end = end_to_end_fidelity(layout.n_repeaters, hw.noise)
    rci = werner_rci(f_end)
    return RateGrid(
        timing=timing, waits=waits, den_steps=den_steps,
        mem_ok=memory_covers(hw, den_steps),
        n_o=n_o, n_m=n_m, p=p, block=block, f_end=f_end.fidelity, rci=rci,
        rate=block / (den_steps * tm.tau) * np.maximum(0.0, rci),
    )


def grid_reports(grid: RateGrid, hw: HardwareProfile) -> list[RateReport]:
    """One report per cell of a rate_grid whose fields all have the cells'
    shape: evaluate_rate's 1 x 1, or the optimizer's column of optima.

    Raises FeasibilityError at the first cell whose block outlives the
    memory (tau_m must be at least memory_margin times the block duration).
    """
    t = grid.timing
    reports = []
    for i in range(grid.rate.size):
        den_steps, block = grid.den_steps.item(i), grid.block.item(i)
        den_s = den_steps * hw.timing.tau  # the grid's rate is block / den_s x max(0, rci)
        if not grid.mem_ok.item(i):
            raise FeasibilityError(
                "tau_m",
                f"memory lifetime tau_m={hw.timing.tau_m:.6g} s cannot cover the block: "
                f"need at least {hw.memory_margin * den_s:.6g} s "
                f"({hw.memory_margin:g} x {den_s:.6g} s)",
            )
        timing = DerivedTiming(t.heralding_time_s.item(i), t.j_steps, t.k_steps.item(i))
        reports.append(RateReport(
            regime=classify_regime(hw.timing, timing.heralding_time_s),
            p=grid.p.item(i),
            timing=timing,
            denominator_steps=den_steps,
            denominator_s=den_s,
            block_success=block,
            ideal_rate=block / den_s,
            f_end=grid.f_end.item(i),
            rci=grid.rci.item(i),
            noisy_rate=grid.rate.item(i),
            n_o=grid.n_o.item(i),
            n_m=grid.n_m.item(i),
            n_m_is_upper_bound=not grid.waits.item(i),
        ))
    return reports


def evaluate_rate(layout: ChainLayout, hw: HardwareProfile) -> RateReport:
    """Rate and resource report for one operating point, rate_grid's 1 x 1 call.

    Raises FeasibilityError when the memory lifetime cannot cover the block.
    """
    layout.validate()
    grid = rate_grid(ChainLayout(layout.total_distance_km, np.array([layout.n_repeaters]),
                                 layout.spatial_mux, np.array([layout.time_mux])), hw)
    return grid_reports(grid, hw)[0]
