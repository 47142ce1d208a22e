"""Grid search for the best repeater count and time-multiplexing block.

The objective (noisy rate) is cheap to evaluate and not provably unimodal,
so the search is an exhaustive scan over n x m, vectorized over the whole
grid. Ties are broken toward smaller n, then smaller m, which a row-major
argmax gives for free; that also makes the result independent of any
parallel evaluation order.

No formula lives here: rates.rate_grid evaluates the model over the grid,
and this module adds the search bounds, the constraint masks and the argmax.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import MAX_COUNT, ChainLayout, HardwareProfile, fiber_transmissivity
from .rates import RateReport, evaluate_rate, plob_bound, rate_grid

MAX_L_POINTS = 10_000  # distances in a sweep grid: 200x the default grid's 50


class InfeasibleError(Exception):
    """No grid point satisfies the constraint set."""

    def __init__(self, binding: list[str], message: str):
        super().__init__(message)
        self.binding = binding


@dataclass(frozen=True)
class SearchBounds:
    n_max: int = 600
    m_max: int = 2000

    def validate(self) -> None:
        if self.n_max < 0 or self.m_max < 1:
            raise ValueError(
                f"bounds must allow n >= 0 and m >= 1, got {self}")


@dataclass(frozen=True)
class Constraints:
    n_o_max: Optional[int] = None
    n_m_max: Optional[int] = None
    fixed_l0_km: Optional[float] = None
    fixed_n: Optional[int] = None
    tau_min: Optional[float] = None

    def validate(self) -> None:
        if self.fixed_l0_km is not None and self.fixed_n is not None:
            raise ValueError("at most one of fixed_l0_km and fixed_n may be set")
        for name in ("n_o_max", "n_m_max"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ValueError(f"{name} must be positive, got {v}")
        if self.fixed_l0_km is not None and self.fixed_l0_km <= 0:
            raise ValueError(f"fixed_l0_km must be positive, got {self.fixed_l0_km}")
        if self.fixed_n is not None and not 0 <= self.fixed_n <= MAX_COUNT:
            raise ValueError(f"fixed_n must be in [0, {MAX_COUNT}], got {self.fixed_n}")
        if self.tau_min is not None and self.tau_min <= 0:
            raise ValueError(f"tau_min must be positive, got {self.tau_min}")


@dataclass(frozen=True)
class OptimizationResult:
    n_opt: int
    m_opt: int
    report: RateReport
    boundary_hit_n: bool
    boundary_hit_m: bool
    evaluations: int


def _candidate_ns(l_km: float, bounds: SearchBounds,
                  constraints: Constraints) -> np.ndarray:
    if constraints.fixed_n is not None:
        return np.array([constraints.fixed_n], dtype=np.int64)
    if constraints.fixed_l0_km is not None:
        links = l_km / constraints.fixed_l0_km
        if links > MAX_COUNT:
            raise ValueError(f"fixed_l0_km={constraints.fixed_l0_km} gives {links:.6g} "
                             f"links over {l_km} km, more than {MAX_COUNT}")
        return np.array([max(0, round(links) - 1)], dtype=np.int64)
    return np.arange(0, bounds.n_max + 1, dtype=np.int64)


def optimize_rate(l_km: float, spatial_mux: int, hw: HardwareProfile,
                  bounds: Optional[SearchBounds] = None,
                  constraints: Optional[Constraints] = None) -> OptimizationResult:
    """Exhaustive argmax of the noisy rate over the (n, m) grid.

    Constraint handling: n_o_max and n_m_max compare against the regime's
    ion requirements at each grid point, tau_min requires the clock to be at
    least that long, fixed_l0_km / fixed_n pin the repeater count, and the
    memory-lifetime check prunes blocks that outlive tau_m. An empty feasible
    set raises InfeasibleError naming the constraints that removed points.
    """
    bounds = bounds or SearchBounds()
    constraints = constraints or Constraints()
    bounds.validate()
    constraints.validate()
    hw.validate()
    if not 0.0 < l_km < math.inf:
        raise ValueError(f"l_km must be positive and finite, got {l_km}")

    if constraints.tau_min is not None and hw.timing.tau < constraints.tau_min:
        raise InfeasibleError(
            ["tau_min"],
            f"clock cycle {hw.timing.tau:.6g} s is below tau_min "
            f"{constraints.tau_min:.6g} s; no grid point is feasible",
        )

    ns = _candidate_ns(l_km, bounds, constraints)
    ms = np.arange(1, bounds.m_max + 1, dtype=np.int64)
    grid = rate_grid(ChainLayout(l_km, ns[:, None], spatial_mux, ms[None, :]), hw)
    checks = {"tau_m": grid.mem_ok}
    if constraints.n_o_max is not None:
        checks["n_o_max"] = grid.n_o <= constraints.n_o_max
    if constraints.n_m_max is not None:
        checks["n_m_max"] = grid.n_m <= constraints.n_m_max
    feasible = np.ones((ns.size, ms.size), dtype=bool)
    binding: dict[str, int] = {}
    for name, ok in checks.items():
        removed = feasible.size - int(np.count_nonzero(np.broadcast_to(ok, feasible.shape)))
        if removed:
            binding[name] = removed
        feasible &= ok

    evaluations = int(feasible.sum())
    if evaluations == 0:
        names = sorted(binding) or ["(empty grid)"]
        detail = ", ".join(f"{name} removed {binding.get(name, 0)} points"
                           for name in names)
        raise InfeasibleError(names, f"no feasible (n, m) grid point: {detail}")

    rate = grid.rate  # this call's own array: mask it in place
    np.copyto(rate, -1.0, where=~feasible)
    flat = int(np.argmax(rate))  # row-major: smallest n, then smallest m, on ties
    ni, mi = divmod(flat, ms.size)
    n_opt = int(ns[ni])
    m_opt = int(ms[mi])
    report = evaluate_rate(
        ChainLayout(total_distance_km=l_km, n_repeaters=n_opt,
                    spatial_mux=spatial_mux, time_mux=m_opt), hw)
    pinned = constraints.fixed_n is not None or constraints.fixed_l0_km is not None
    return OptimizationResult(
        n_opt=n_opt,
        m_opt=m_opt,
        report=report,
        boundary_hit_n=(not pinned) and n_opt == bounds.n_max,
        boundary_hit_m=m_opt == bounds.m_max,
        evaluations=evaluations,
    )


@dataclass(frozen=True)
class SweepRow:
    l_km: float
    result: Optional[OptimizationResult]
    plob: float
    infeasible_reason: Optional[str] = None


def _sweep_point(l_km: float, spatial_mux: int, hw: HardwareProfile,
                 bounds: Optional[SearchBounds],
                 constraints: Optional[Constraints]) -> SweepRow:
    eta = fiber_transmissivity(hw.optical.alpha_db_per_km, l_km)
    plob = plob_bound(eta, spatial_mux, hw.timing.tau) if eta < 1.0 else math.inf
    try:
        res = optimize_rate(l_km, spatial_mux, hw, bounds, constraints)
    except InfeasibleError as err:
        return SweepRow(l_km=l_km, result=None, plob=plob,
                        infeasible_reason=str(err))
    return SweepRow(l_km=l_km, result=res, plob=plob)


def sweep_distance(l_list: Sequence[float], spatial_mux: int, hw: HardwareProfile,
                   bounds: Optional[SearchBounds] = None,
                   constraints: Optional[Constraints] = None) -> list[SweepRow]:
    """Optimize at each distance; infeasible points become flagged rows.

    Points run on one thread per core this process may run on, at most one
    per point, and on the calling thread when that is one: a worker thread's
    own malloc arena raised a one-core figure run's peak RSS from 80 to 107 MB.
    """
    ls = list(l_list)
    if not ls:
        raise ValueError("l_list must be nonempty")
    if any(b <= a for a, b in zip(ls, ls[1:])):
        raise ValueError("l_list must be strictly increasing")
    width = min(len(ls), len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
    if width == 1:
        return [_sweep_point(l, spatial_mux, hw, bounds, constraints) for l in ls]
    with ThreadPoolExecutor(max_workers=width) as pool:
        return list(pool.map(
            lambda l: _sweep_point(l, spatial_mux, hw, bounds, constraints), ls))


def crossover_distance(spatial_mux: int, hw: HardwareProfile,
                       bounds: Optional[SearchBounds] = None,
                       l_min_km: float = 10.0, l_max_km: float = 500.0,
                       l_step_km: float = 1.0) -> Optional[float]:
    """Smallest grid distance where the optimized rate beats the PLOB bound.

    The advantage sets in at long distances and persists, so a bisection over
    the grid suffices; the step below the reported distance is re-checked to
    guard against a non-monotone edge. Returns None when no grid point wins.
    """
    for name, v in (("l_min_km", l_min_km), ("l_max_km", l_max_km),
                    ("l_step_km", l_step_km)):
        if not 0.0 < v < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {v}")
    if l_max_km < l_min_km:
        raise ValueError(f"l_max_km must be >= l_min_km, got {l_max_km} < {l_min_km}")
    stop = l_max_km + 0.5 * l_step_km
    # np.arange makes ceil((stop - start) / step) points
    if (stop - l_min_km) / l_step_km > MAX_L_POINTS:
        raise ValueError(f"l_step_km={l_step_km:g} is too small: the grid would have "
                         f"more than {MAX_L_POINTS} distances")
    grid = np.arange(l_min_km, stop, l_step_km)

    def beats(l_km: float) -> bool:
        row = _sweep_point(float(l_km), spatial_mux, hw, bounds, None)
        return row.result is not None and row.result.report.noisy_rate > row.plob

    lo, hi = 0, grid.size - 1
    if not beats(grid[hi]):
        return None
    while lo < hi:
        mid = (lo + hi) // 2
        if beats(grid[mid]):
            hi = mid
        else:
            lo = mid + 1
    while lo > 0 and beats(grid[lo - 1]):
        lo -= 1
    return float(grid[lo])
