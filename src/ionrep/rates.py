"""Timing-regime classification and entanglement distribution rates.

A block of m clock cycles accumulates heralded link-level entanglement which
is swapped end to end once per block. How the block's wall time and the per
node ion budgets come out depends on the ordering of three time scales: the
heralding latency T, the communication-ion lifetime tau_o, and the gate time
tau_g. The five orderings are labeled A, B1, B2, C1, C2, but the formulas
split only two ways: comm ions wait for the herald (B2, C2) or gate into
memory blind (A, B1, C1). waits_for_herald is that split, and the labels,
from the decision walk, are for reports.

A block's schedule is written once, in slot_events: each slot starts at its
offset and has two later events, the herald and the gate into memory, whose
order and spacing depend on the split. block_denominator is the last slot's
last event plus the swap and the readout, and mcsim replays the same events
at integer steps.

Each formula is written once, here or in ionrep.model, and broadcasts over
numpy arrays: waits_for_herald, slot_events, block_denominator, ion_budgets
and block_success_prob. rate_grid combines them over distances, repeater
counts and block lengths in two stages:

- the row stage, rate_rows, computes what does not depend on the block
  length m: the timing, the waits_for_herald mask, p, the comm ions n_o,
  and the noise fields f_end and rci (noise_tail);
- the block stage, rate_blocks, takes a row state and the block lengths and
  computes den_steps, mem_ok, the memory ions n_m, the block success, the
  ideal rate and the noisy rate (noisy_rate).

rate_grid is the row stage followed by the block stage. A RateGrid is a
RowState with the block fields added, so the block stage also takes a
RateGrid as its row state: the optimizer computes one grid at m = 1 per
pass and applies the block stage to it at its candidate columns. Noise
enters a grid only through f_end, rci and the rate, so the optimizer
re-noises one grid for each noise level instead of building another.
grid_reports reads reports straight from a grid's fields at flat cell
indices, a one-column row field by the cell's row: evaluate_rate passes
the one cell of rate_grid on the caller's own layout, which runs a grid
cell's numpy loops, and the optimizer the cells of its optima.
mcsim.SimConfig reads waits_for_herald, slot_events and block_denominator
at integer steps.
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


class InfeasibleError(Exception):
    """No operating point satisfies the constraints; binding names them."""

    def __init__(self, binding: list[str], message: str):
        super().__init__(message)
        self.binding = binding


class Regime(enum.Enum):
    A = "A"
    B1 = "B1"
    B2 = "B2"
    C1 = "C1"
    C2 = "C2"


def _regime_tests(t, tau_g: float, tau_o: float):
    """The comparisons behind every regime label, in decision order."""
    t = np.asarray(t)
    return t >= tau_o, t >= tau_g, tau_o >= t + tau_g


def waits_for_herald(t, tau_g: float, tau_o: float):
    """True where T lets comm ions wait for the herald (B2, C2); A, B1 and
    C1 gate blind. This mask is the only way a regime reaches a formula."""
    past_o, _, fits = _regime_tests(t, tau_g, tau_o)
    return ~past_o & fits


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


def slot_events(waits, k_steps, j_steps):
    """A slot's two events, in steps after the slot starts.

    Waiting for the herald, the herald arrives at k and the one heralded
    mode is gated into memory by k + j. Gating blind, every attempt is in
    memory at j and the herald's verdict is in hand at max(j, k), which is
    k in A and B1 and j in C1, where the herald lands inside the gate.
    """
    return (np.where(waits, k_steps, j_steps),
            np.where(waits, k_steps + j_steps, np.maximum(j_steps, k_steps)))


def block_denominator(waits, k_steps, m, j_steps):
    """Block wall time in steps: the last slot, m - 1, and its second event
    from slot_events, then one j for the end-to-end swap and one for the
    readout.

    That is k + 3j in B2 and C2 (herald k, comm-to-memory gate, swap,
    readout), max(j, k) + 2j = k + 2j in A and B1, where T >= tau_g gives
    k >= j (the gate runs inside the herald wait, then swap and readout),
    and 3j in C1 (the herald lands inside the gate). The k + 3j assumes the
    swap waits for the last slot's comm-to-memory gate; whether the two may
    overlap is ROADMAP item 3's open question. The waiting sum is taken as
    k + 3.0 j: (k + j) + 2j differs from it in the last bit on some float
    cells.
    """
    base = np.where(waits, k_steps + 3.0 * j_steps,
                    np.maximum(j_steps, k_steps) + 2.0 * j_steps)
    return base + (m - 1.0)  # exact for m = 1, where base may be below one ulp of m


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
    return _comm_ions(waits, k_steps, j_steps, spatial_mux), _memory_ions(waits, spatial_mux, m)


def _comm_ions(waits, k_steps, j_steps, spatial_mux):  # ion_budgets' n_o, free of m
    return ceil_tol(np.where(waits, 2.0 * (spatial_mux * k_steps + j_steps),
                             2.0 * spatial_mux * j_steps))


def _memory_ions(waits, spatial_mux, m):  # ion_budgets' n_m
    return np.where(waits, 2, 2 * spatial_mux) * m


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


# RowState and RateGrid are plain dataclasses: evaluate_rate builds one of
# each per call, and a frozen one's __init__ takes about twice as long
@dataclass
class RowState:
    """rate_rows' output: the fields that do not depend on the block length;
    each broadcasts to the layout's rows, n_repeaters against
    total_distance_km."""

    timing: DerivedTiming
    waits: np.ndarray  # formula group B2/C2, the rest blind
    n_o: np.ndarray
    p: np.ndarray
    f_end: np.ndarray
    rci: np.ndarray


@dataclass
class RateGrid(RowState):
    """rate_grid's output, a row state with the block fields added; each field
    broadcasts to n_repeaters x time_mux."""

    den_steps: np.ndarray
    mem_ok: np.ndarray  # tau_m covers memory_margin x the block duration
    n_m: np.ndarray
    block: np.ndarray
    ideal: np.ndarray  # block / block duration
    rate: np.ndarray  # noisy rate: ideal x max(0, rci)


def memory_covers(hw: HardwareProfile, den_steps):
    """True where tau_m covers memory_margin x a block of den_steps clock cycles."""
    return hw.memory_margin * den_steps * hw.timing.tau <= hw.timing.tau_m


def rate_grid(layout: ChainLayout, hw: HardwareProfile) -> RateGrid:
    """The rate model over a layout whose n_repeaters is an int or a column,
    time_mux an int, a row or a column and total_distance_km a float or a
    column; blocks that outlive the memory are flagged in mem_ok."""
    return rate_blocks(rate_rows(layout, hw), layout, layout.time_mux, hw)


def rate_rows(layout: ChainLayout, hw: HardwareProfile) -> RowState:
    """The row stage: rate_grid's fields that do not depend on time_mux,
    which this stage ignores."""
    timing = derive_timing(layout, hw)
    tm = hw.timing
    waits = waits_for_herald(timing.heralding_time_s, tm.tau_g, tm.tau_o)
    return RowState(
        timing=timing, waits=waits,
        n_o=_comm_ions(waits, timing.k_steps, timing.j_steps, layout.spatial_mux),
        p=link_success_prob(hw.optical, layout.link_length_km),
        **noise_tail(layout.n_repeaters, hw),
    )


def rate_blocks(rows: RowState, layout: ChainLayout, time_mux,
                hw: HardwareProfile) -> RateGrid:
    """The block stage: rows (a RowState, or a RateGrid at other block
    lengths) of layout's n_repeaters and spatial_mux, at block lengths
    time_mux, which broadcast against the rows as rate_grid's would."""
    timing = rows.timing
    den_steps = block_denominator(rows.waits, timing.k_steps, time_mux, timing.j_steps)
    block = block_success_prob(rows.p, layout.spatial_mux, time_mux, layout.n_repeaters)
    ideal = block / (den_steps * hw.timing.tau)
    return RateGrid(
        timing=timing, waits=rows.waits, n_o=rows.n_o, p=rows.p, f_end=rows.f_end,
        rci=rows.rci, den_steps=den_steps, mem_ok=memory_covers(hw, den_steps),
        n_m=_memory_ions(rows.waits, layout.spatial_mux, time_mux), block=block,
        ideal=ideal, rate=noisy_rate(ideal, rows.rci),
    )


def noise_tail(n_repeaters, hw: HardwareProfile) -> dict:
    """The row fields hw.noise enters, f_end and rci; with noisy_rate, a grid
    at other noise is the grid with these and its rate replaced."""
    f_end = end_to_end_fidelity(n_repeaters, hw.noise)
    return {"f_end": f_end.fidelity, "rci": werner_rci(f_end)}


def noisy_rate(ideal, rci):
    """The noisy rate ideal x max(0, rci), the one block field noise enters."""
    return ideal * np.maximum(0.0, rci)


def grid_reports(grid: RateGrid, hw: HardwareProfile, cells) -> list[RateReport]:
    """One report per flat index in cells, an index into the shape of
    grid.rate: evaluate_rate's one cell, or the optimizer's optima. Each
    block field has that shape; each row field, the timing's included, has
    one column, or is a scalar (a Python float too), and is read by the
    cell's row.

    Raises InfeasibleError, binding ["tau_m"], at the first cell whose block
    outlives the memory (tau_m must be at least memory_margin times the
    block duration).
    """
    t = grid.timing
    herald, k_steps = np.asarray(t.heralding_time_s), np.asarray(t.k_steps)
    width = grid.rate.shape[-1] if grid.rate.ndim else 1
    reports = []
    for i in cells:
        row = i // width
        den_steps = grid.den_steps.item(i)
        den_s = den_steps * hw.timing.tau
        if not grid.mem_ok.item(i):
            raise InfeasibleError(
                ["tau_m"],
                f"memory lifetime tau_m={hw.timing.tau_m:.6g} s cannot cover the block: "
                f"need at least {hw.memory_margin * den_s:.6g} s "
                f"({hw.memory_margin:g} x {den_s:.6g} s)",
            )
        timing = DerivedTiming(herald.item(row), t.j_steps, k_steps.item(row))
        reports.append(RateReport(
            regime=classify_regime(hw.timing, timing.heralding_time_s),
            p=grid.p.item(row),
            timing=timing,
            denominator_steps=den_steps,
            denominator_s=den_s,
            block_success=grid.block.item(i),
            ideal_rate=grid.ideal.item(i),
            f_end=grid.f_end.item(row),
            rci=grid.rci.item(row),
            noisy_rate=grid.rate.item(i),
            n_o=grid.n_o.item(row),
            n_m=grid.n_m.item(i),
            n_m_is_upper_bound=not grid.waits.item(row),
        ))
    return reports


def evaluate_rate(layout: ChainLayout, hw: HardwareProfile) -> RateReport:
    """Rate and resource report for one operating point: rate_grid's one cell.

    Raises InfeasibleError, binding ["tau_m"], when the memory lifetime
    cannot cover the block.
    """
    return grid_reports(rate_grid(layout, hw), hw, [0])[0]
