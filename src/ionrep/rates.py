"""Entanglement distribution rates: every formula that computes with numpy.

A block of m clock cycles accumulates heralded link-level entanglement which
is swapped end to end once per block. How the block's wall time and the per
node ion budgets come out depends on the ordering of three time scales: the
heralding latency T, the communication-ion lifetime tau_o, and the gate time
tau_g. The five orderings are labeled A, B1, B2, C1, C2, but the formulas
split only two ways: comm ions wait for the herald (B2, C2) or gate into
memory blind (A, B1, C1). waits_for_herald is that split, and the labels,
from ionrep.model's decision walk, are for reports.

The pointwise formulas are here too, from fiber_transmissivity to
werner_rci. Their powers are np.power calls, x ** 2 as pow at any shape,
so a point runs a grid cell's numpy loops; fiber_transmissivity,
link_success_prob and end_to_end_Q return an np.float64, a float subclass,
for Python inputs.

A block's schedule is written once, in slot_events: each slot starts at its
offset and has two later events, the herald and the gate into memory, whose
order and spacing depend on the split. block_denominator is the last slot's
last event plus the swap and the readout, and mcsim replays the same events
at integer steps.

Each formula is written once, here or in ionrep.model, and broadcasts over
numpy arrays: waits_for_herald, slot_events, block_denominator, ion_budgets
(whose inverse is ion_caps) and block_success_prob. rate_grid combines them
over distances, repeater counts and block lengths in two stages:

- the row stage, rate_rows, computes what does not depend on the block
  length m: the timing, the waits_for_herald mask, p and log1m_p =
  log1p(-p), the noise fields f_end and rci (noise_tail, or the caller's
  own), and the block's m = 1 parts: ion_budgets at m = 1, the comm ions
  n_o and the memory ions n_m1, and den1, block_denominator at m = 1;
- the block stage, rate_blocks, takes a row state and the block lengths and
  extends den1 and n_m1 to den_steps = den1 + (m - 1.0), which is
  block_denominator's own rounding, and n_m = n_m1 m, then computes mem_ok,
  the block success, the ideal rate and the noisy rate (noisy_rate).

The block success is one formula, _block_success, on log1p(-p). The public
block_success_prob checks that p is in [0, 1] and applies it; the block
stage applies it to the row state's log1m_p unchecked, since p comes from
link_success_prob, and the optimizer derives its lam = -M log1p(-p) from
the same log1m_p.

rate_grid is the row stage followed by the block stage. A RateGrid is a
RowState with the block fields added. The optimizer runs the row stage once
per pass, with the noise fields it computed once per distinct repeater
count, and redoes only ion_budgets for each further spatial_mux; it reads
its memory cap and its search's c from den1 and its ion caps from
ion_caps, and applies the block stage only at its candidate columns.
Noise enters a grid only through f_end, rci and the rate, so the optimizer
re-noises one grid for each noise level instead of building another.
grid_reports reads reports straight from a grid's fields at flat cell
indices, a one-column row field by the cell's row: evaluate_rate passes
the one cell of rate_grid on the caller's own layout, which runs a grid
cell's numpy loops, and the optimizer the cells of its optima.
mcsim.SimConfig reads waits_for_herald, slot_events and block_denominator
at integer steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .model import (MAX_STEPS, ChainLayout, DerivedTiming, HardwareProfile, InfeasibleError,
                    NoiseParams, OpticalParams, Regime, StepCountError, WernerState, _check,
                    _latency, _regime_tests, classify_regime, swap_survival_factor)


def fiber_transmissivity(alpha_db_per_km: float, length_km: float) -> float:
    """Power transmissivity of a fiber span, 10^(-alpha*length/10)."""
    return np.power(10.0, -alpha_db_per_km * length_km / 10.0)


def link_success_prob(optical: OpticalParams, l0_km: float) -> float:
    """Probability that one link-level heralding attempt over l0_km succeeds.

    One of the two photonic Bell states is distinguishable in linear optics,
    hence the factor 1/2; both photons must be collected and detected.
    """
    _check(l0_km >= 0.0, "l0_km", ">= 0", l0_km)
    eta = fiber_transmissivity(optical.alpha_db_per_km, l0_km)
    return 0.5 * optical.eta_c ** 2 * optical.eta_d ** 2 * eta


def intra_node_success_prob(optical: OpticalParams) -> float:
    """Photonic swap success with no fiber in the path (the l0 = 0 limit)."""
    return link_success_prob(optical, 0.0)


def derive_timing(layout: ChainLayout, hw: HardwareProfile, l0_km=None) -> DerivedTiming:
    """The layout's timing on hw's clock; l0_km is layout.link_length_km,
    computed here when None."""
    tau = hw.timing.tau
    j_steps = hw.timing.tau_g / tau
    if not j_steps <= MAX_STEPS:
        raise StepCountError(("tau",), f"tau={tau:.6g} s is too short: the step count "
                                       f"tau_g/tau={j_steps:.6g} must be at most 2**31")

    # the longest chain bounds every link's T/tau, on Python floats, where an
    # overflow is inf, unwarned; past it, the error names the shortest chain beyond
    n_ref, l_km = hw.optical.refractive_index, layout.total_distance_km
    l_max = float(l_km.max() if isinstance(l_km, np.ndarray) else l_km)
    if not _latency(l_max, n_ref) / tau <= MAX_STEPS:
        l_bad = min(l for l in np.ravel(l_km).tolist()
                    if not _latency(l, n_ref) / tau <= MAX_STEPS)
        if not math.isfinite(_latency(l_bad, n_ref)):  # the layout's doing, not the clock's
            raise StepCountError(("total_distance_km",),
                                 f"total_distance_km={l_bad:.6g} km is too long: its "
                                 "heralding time T is not finite")
        raise StepCountError(("total_distance_km", "tau"),
                             f"tau={tau:.6g} s is too short for total_distance_km="
                             f"{l_bad:.6g} km: the step count T/tau="
                             f"{_latency(l_bad, n_ref) / tau:.6g} must be at most 2**31")
    t = _latency(layout.link_length_km if l0_km is None else l0_km, n_ref)
    return DerivedTiming(heralding_time_s=t, j_steps=j_steps, k_steps=t / tau)


def end_to_end_Q(n: int, noise: NoiseParams) -> float:
    """Error-flag probability Q(n) = (1 - x^n)/2 after n swaps in a chain.

    Noise with x < 0 raises swap_survival_factor's ValueError.
    """
    _check(n >= 0, "n", ">= 0", n)
    x = swap_survival_factor(noise)
    # numpy's power loop takes x ** 2 as x * x for an exponent of stride 0 (a
    # scalar, or one integer in 2-d) and as pow otherwise, a last bit apart
    return 0.5 * (1.0 - np.where(n == 2, np.power(x, (2.0, 2.0))[0], np.power(x, n)))


def end_to_end_fidelity(n: int, noise: NoiseParams) -> WernerState:
    """Werner state shared across a chain with n repeaters, F = 1 - (3/2) Q(n)."""
    return WernerState(1.0 - 1.5 * end_to_end_Q(n, noise))


def werner_rci(state: WernerState) -> float:
    """Reverse coherent information of a Werner state, in ebits per pair.

    I_R = H(B) - H(AB) = 1 - (-F log2 F - (1-F) log2((1-F)/3)), with
    0 log 0 = 0. Negative values are meaningful (no distillable entanglement
    is certified); clamping is left to the caller.
    """
    f = state.fidelity
    with np.errstate(divide="ignore", invalid="ignore"):
        h = (-np.where(f > 0.0, f * np.log2(f), 0.0)
             - (1.0 - f) * np.log2((1.0 - f) / 3.0))
    return np.where(f >= 1.0, 1.0, 1.0 - h)[()]


def waits_for_herald(t, tau_g: float, tau_o: float):
    """True where T lets comm ions wait for the herald (B2, C2); A, B1 and
    C1 gate blind. This mask is the only way a regime reaches a formula."""
    past_o, _, fits = _regime_tests(np.asarray(t), tau_g, tau_o)
    return ~past_o & fits


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
    n_o = ceil_tol(np.where(waits, 2.0 * (spatial_mux * k_steps + j_steps),
                            2.0 * spatial_mux * j_steps))
    return n_o, np.where(waits, 2, 2 * spatial_mux) * m


def ion_caps(rows: RowState, m_max: int, n_o_max, n_m_max) -> dict:
    """Per cap set (not None), by its name, each row's largest m in [1, m_max]
    whose ion_budgets fit it, or 0 where none does, from the row state's n_o
    and n_m1: n_o_max keeps all of a row or none, and n_m_max divides."""
    caps = {}
    if n_o_max is not None:
        caps["n_o_max"] = np.where(rows.n_o <= n_o_max, m_max, 0)
    if n_m_max is not None:
        caps["n_m_max"] = np.minimum(n_m_max // rows.n_m1, m_max)
    return caps


def block_success_prob(p, spatial_mux, time_mux, n_repeaters):
    """Probability that all n+1 links herald at least one pair in one block.

    Raises ValueError naming the first p outside [0, 1] (NaN included).
    """
    _check((p >= 0.0) & (p <= 1.0), "p", "in [0, 1]", p)
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf
        return _block_success(np.log1p(-p), spatial_mux, time_mux, n_repeaters)


def _block_success(log1m_p, spatial_mux, time_mux, n_repeaters):
    """block_success_prob from log1m_p = log1p(-p), p in [0, 1]: the rate
    model's block stage takes log1m_p from its row state unchecked."""
    # p = 0 and p = 1 come out exactly as 0 and 1 through the infinities
    with np.errstate(divide="ignore"):
        per_link = -np.expm1(spatial_mux * time_mux * log1m_p)
        return np.exp((n_repeaters + 1.0) * np.log(per_link))


def plob_bound(eta: float, spatial_mux: int, tau_s: float) -> float:
    """Repeaterless capacity of M parallel pure-loss channels, in ebits/s."""
    _check(0.0 < eta < 1.0, "transmissivity", "in (0, 1)", eta)
    return -spatial_mux / tau_s * math.log1p(-eta) / math.log(2.0)


def reference_rates(n: int, m: int, spatial_mux: int, p: float, q: float,
                    tau_s: float) -> tuple[float, float, float, float]:
    """Rates of the non-blocked reference schemes, (R0, R1, R2, R).

    R0 demands every link succeed in a single shot, R1 adds spatial modes,
    R2 pools m cycles, and R combines both poolings. q is the memory-swap
    success probability per node (1 for deterministic ion-ion gates).
    """
    _check(0.0 <= q <= 1.0, "q", "in [0, 1]", q)
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
    log1m_p: np.ndarray  # log1p(-p)
    f_end: np.ndarray
    rci: np.ndarray
    den1: np.ndarray  # den_steps at m = 1; den_steps(m) = den1 + (m - 1.0)
    n_m1: np.ndarray  # n_m at m = 1; n_m(m) = n_m1 m


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


def rate_rows(layout: ChainLayout, hw: HardwareProfile, tail=None) -> RowState:
    """The row stage: rate_grid's fields that do not depend on time_mux,
    which this stage ignores. tail is noise_tail(layout.n_repeaters, hw),
    computed here when None."""
    l0_km = layout.link_length_km  # one division over the rows, for T and p
    timing = derive_timing(layout, hw, l0_km)
    tm = hw.timing
    waits = waits_for_herald(timing.heralding_time_s, tm.tau_g, tm.tau_o)
    p = link_success_prob(hw.optical, l0_km)
    n_o, n_m1 = ion_budgets(waits, timing.k_steps, timing.j_steps, layout.spatial_mux, 1)
    return RowState(
        timing=timing, waits=waits, n_o=n_o, p=p, log1m_p=np.log1p(-p),
        **(noise_tail(layout.n_repeaters, hw) if tail is None else tail),
        den1=block_denominator(waits, timing.k_steps, 1, timing.j_steps), n_m1=n_m1,
    )


def rate_blocks(rows: RowState, layout: ChainLayout, time_mux,
                hw: HardwareProfile) -> RateGrid:
    """The block stage: rows, a RowState of layout's n_repeaters and
    spatial_mux, at block lengths time_mux, which broadcast against the
    rows as rate_grid's would."""
    den_steps = rows.den1 + (time_mux - 1.0)  # block_denominator's rounding
    block = _block_success(rows.log1m_p, layout.spatial_mux, time_mux, layout.n_repeaters)
    ideal = block / (den_steps * hw.timing.tau)
    return RateGrid(
        **vars(rows), den_steps=den_steps, mem_ok=memory_covers(hw, den_steps),
        n_m=rows.n_m1 * time_mux, block=block, ideal=ideal,
        rate=noisy_rate(ideal, rows.rci),
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
