"""Exact search for the best repeater count n and time-multiplexing block m.

The argmax is exact over the whole (n, m) grid, but each row n is evaluated
at a few columns only. Fix n and write a = n + 1, lam = -M log1p(-p) and
c = den_steps(m=1) - 1, so a block of m cycles takes c + m steps (c > -1)
and succeeds with probability (1 - e^(-lam m))^a. Then

    rate(m) = (1 - e^(-lam m))^a / (tau (c + m)) * max(0, rci(n))

rises in m exactly where h(m) = (c + m) a lam / expm1(lam m) > 1. With
x = lam m, h' has the sign of u(x) = e^x (1 - x - c lam) - 1, and
u'(x) = -e^x (x + c lam).

- c >= 0: u(0) = -c lam <= 0 and u falls, so h falls. The rate rises while
  h > 1 and falls after: the row's argmax is the last m with h(m) > 1 or
  the next one.
- -1 < c < 0: u(0) > 0, and u rises, then falls for good, so h rises, then
  falls. The rate falls from m = 1 while h <= 1, may rise while h > 1, and
  falls once h drops below 1 again: the row's argmax is m = 1 or the last
  m with h(m) > 1 or the next one.

In both cases P(m) = [h(m) > 1 or u(lam m) > 0] holds on a prefix of the
integers m >= 1. Let lo be the last m in [1, cap] where P holds, cap being
the row's largest feasible m. The row's integer argmax is then one of 1, lo
and lo + 1: where the rate still rises at cap, lo is cap.

Feasibility keeps a prefix of each row. n_o does not depend on m, so n_o_max
removes whole rows; n_m is n_m(1) m, so n_m_max caps m by an integer
division; the block grows with m, so tau_m caps m where
rates.memory_covers stops holding. The rate is computed only by
rates.rate_grid, called twice per search: at m = 1 for the row quantities,
and at the candidate columns, where its own mem_ok must agree with the
memory cap. Cells broadcast elementwise, so a candidate's rate is the bits of
its cell in the full grid. Infeasible and non-finite cells count as -1, and a
row-major argmax over each row's sorted candidates breaks ties toward smaller
n, then smaller m, as a scan of the whole grid would. Memory is O(n_max).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import MAX_COUNT, ChainLayout, HardwareProfile, fiber_transmissivity
from .rates import RateReport, evaluate_rate, memory_covers, plob_bound, rate_grid

MAX_L_POINTS = 10_000  # distances in a sweep grid: 200x the default grid's 50
SEARCH_CELLS = 512  # cells per round of the per-row search


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


def _last_true(pred, hi: np.ndarray) -> np.ndarray:
    """Per row, the largest m in [1, hi] where pred(m) holds, or 0 where it
    holds nowhere; pred must hold on a prefix of the integers m >= 1.

    Each round tests up to SEARCH_CELLS cells, split evenly over the rows:
    a single row (a pinned n) takes one or two rounds, and hundreds of rows
    take a bisection's.
    """
    top = (hi >= 1) & pred(hi)
    lo, up = np.where(top, hi, 0), np.where(top, hi + 1, hi)
    ks = np.arange(1, max(1, SEARCH_CELLS // hi.shape[0]) + 1)
    while np.any(up - lo > 1):
        step = -(-(up - lo) // (ks.size + 1))
        m = np.minimum(lo + step * ks, up - 1)
        ok = pred(m)
        lo = np.max(np.where(ok, m, lo), axis=1, keepdims=True)
        up = np.min(np.where(ok, up, m), axis=1, keepdims=True)
    return lo


def optimize_rate(l_km: float, spatial_mux: int, hw: HardwareProfile,
                  bounds: Optional[SearchBounds] = None,
                  constraints: Optional[Constraints] = None) -> OptimizationResult:
    """Exact argmax of the noisy rate over the (n, m) grid, row by row.

    Constraint handling: n_o_max and n_m_max compare against the regime's
    ion requirements at each grid point, tau_min requires the clock to be at
    least that long, fixed_l0_km / fixed_n pin the repeater count, and the
    memory-lifetime check prunes blocks that outlive tau_m. Cells with a
    non-finite rate are never chosen. An empty feasible set raises
    InfeasibleError naming the constraints that removed points.
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

    ns = _candidate_ns(l_km, bounds, constraints)[:, None]  # one row per n
    m_max = np.full_like(ns, bounds.m_max)
    first = rate_grid(ChainLayout(l_km, ns, spatial_mux, np.ones_like(ns)), hw)
    den1 = first.den_steps  # den_steps(m) = den1 + (m - 1.0), as rate_grid rounds it
    mem_cap = _last_true(lambda m: memory_covers(hw, den1 + (m - 1.0)), m_max)
    removed = {"tau_m": m_max - mem_cap}
    cap = mem_cap
    if constraints.n_o_max is not None:
        n_o_ok = first.n_o <= constraints.n_o_max  # n_o does not depend on m
        removed["n_o_max"] = np.where(n_o_ok, 0, m_max)
        cap = np.where(n_o_ok, cap, 0)
    if constraints.n_m_max is not None:
        n_m_cap = np.minimum(constraints.n_m_max // first.n_m, m_max)  # n_m(m) = n_m(1) m
        removed["n_m_max"] = m_max - n_m_cap
        cap = np.minimum(cap, n_m_cap)

    evaluations = int(cap.sum())
    if evaluations == 0:
        binding = {name: int(r.sum()) for name, r in removed.items() if r.any()}
        names = sorted(binding) or ["(empty grid)"]
        detail = ", ".join(f"{name} removed {binding.get(name, 0)} points"
                           for name in names)
        raise InfeasibleError(names, f"no feasible (n, m) grid point: {detail}")

    # P(m) of the module docstring, with e = expm1(x): h > 1 is
    # (c + m) a lam > e, and u > 0 is e (1 - x - c lam) > x + c lam, tested
    # only where c < 0 (it is false for c >= 0, where rounding near x = 0
    # could make it true)
    c = den1 - 1.0
    lam = -spatial_mux * np.log1p(-first.p)
    a_lam, c_lam, neg = (ns + 1.0) * lam, c * lam, c < 0.0

    def rising(m):
        x = lam * m
        e = np.expm1(x)
        return ((c + m) * a_lam > e) | (neg & (e * (1.0 - x - c_lam) > x + c_lam))

    with np.errstate(all="ignore"):
        lo = _last_true(rising, cap)
    cols = np.sort(np.clip(np.hstack([np.ones_like(ns), lo, lo + 1,
                                      mem_cap - 1, mem_cap, mem_cap + 1]),
                           1, bounds.m_max), axis=1)
    grid = rate_grid(ChainLayout(l_km, ns, spatial_mux, cols), hw)
    assert np.array_equal(grid.mem_ok, cols <= mem_cap), \
        "the memory cap disagrees with rate_grid's mem_ok"
    rate = np.where((cols <= cap) & np.isfinite(grid.rate), grid.rate, -1.0)
    best = int(np.argmax(rate))  # row-major over sorted columns: smallest n, then m
    if rate.flat[best] < 0.0:
        raise InfeasibleError(["rate"], "no feasible (n, m) grid point has a finite rate")
    ni, ci = divmod(best, cols.shape[1])
    n_opt = int(ns[ni, 0])
    m_opt = int(cols[ni, ci])
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
    """Optimize at each distance; infeasible points become flagged rows."""
    ls = list(l_list)
    if not ls:
        raise ValueError("l_list must be nonempty")
    if any(b <= a for a, b in zip(ls, ls[1:])):
        raise ValueError("l_list must be strictly increasing")
    return [_sweep_point(l, spatial_mux, hw, bounds, constraints) for l in ls]


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
