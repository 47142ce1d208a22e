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

A row is a (distance, n) pair: a sweep solves its distances together, a
pass of rows at a time, and optimize_rate is the same search at one
distance. Rows are independent, so a row's answer does not depend on the
rows beside it.

Feasibility keeps a prefix of each row. n_o does not depend on m, so n_o_max
removes whole rows; n_m is n_m(1) m, so n_m_max caps m by an integer
division; the block grows with m, so tau_m caps m where
rates.memory_covers stops holding. The rate is computed only by
rates.rate_grid, called three times per pass: at m = 1 for the row
quantities, at the candidate columns, where its own mem_ok must agree with
the memory cap, and at each distance's optimum for its report. Cells
broadcast elementwise, so a candidate's rate is the bits of its cell in the
full grid. Infeasible and non-finite cells count as -1, and per distance a
row-major argmax over its rows' sorted candidates breaks ties toward smaller
n, then smaller m, as a scan of that distance's whole grid would. A pass
holds at most PASS_ROWS rows, or one distance where its n_max + 1 rows are
more; n_max is at most MAX_SEARCH_N, so memory stays bounded whatever the
number of distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .model import MAX_COUNT, ChainLayout, HardwareProfile, fiber_transmissivity
from .rates import RateReport, grid_reports, memory_covers, plob_bound, rate_grid

MAX_L_POINTS = 10_000  # distances in a sweep grid: 200x the default grid's 50
SEARCH_CELLS = 512  # cells per round of the per-row search
MAX_SEARCH_N = 100_000  # largest bounds.n_max: one row of search state per n
# (distance, n) rows per pass, or one distance's rows where they are more.
# At n_max = 600 that is three distances: fig2-fig9 ran 1.7x faster than with
# one distance per pass; ten per pass ran 2.3x faster but added ~3 MB to a
# ~42 MB peak RSS.
PASS_ROWS = 2048


class InfeasibleError(Exception):
    """No grid point satisfies the constraint set."""

    def __init__(self, binding: list[str], message: str):
        super().__init__(message)
        self.binding = binding


@dataclass(frozen=True)
class SearchBounds:
    n_max: int = 600
    m_max: int = 2000

    def __post_init__(self) -> None:
        if not 0 <= self.n_max <= MAX_SEARCH_N:
            raise ValueError(
                f"bounds.n_max must be in [0, {MAX_SEARCH_N}], got {self.n_max}")
        if self.m_max < 1:
            raise ValueError(f"bounds.m_max must be >= 1, got {self.m_max}")


@dataclass(frozen=True)
class Constraints:
    n_o_max: Optional[int] = None
    n_m_max: Optional[int] = None
    fixed_l0_km: Optional[float] = None
    fixed_n: Optional[int] = None
    tau_min: Optional[float] = None

    def __post_init__(self) -> None:
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

    @property
    def pinned(self) -> bool:
        """True when fixed_n or fixed_l0_km pins the repeater count."""
        return self.fixed_n is not None or self.fixed_l0_km is not None


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
    a single row (a pinned n at one distance) takes one or two rounds, and
    hundreds of rows take a bisection's.
    """
    top = (hi >= 1) & pred(hi)
    lo, up = np.where(top, hi, 0), np.where(top, hi + 1, hi)
    ks = np.arange(1, max(1, SEARCH_CELLS // hi.shape[0]) + 1)
    gap = up - lo
    while (gap > 1).any():
        step = -(-gap // (ks.size + 1))
        m = np.minimum(lo + step * ks, up - 1)
        ok = pred(m)
        lo = np.where(ok, m, lo).max(axis=1, keepdims=True)
        up = np.where(ok, up, m).min(axis=1, keepdims=True)
        gap = up - lo
    return lo


def _solve_pass(ls: np.ndarray, ns: np.ndarray, spatial_mux: int, hw: HardwareProfile,
                bounds: SearchBounds, constraints: Constraints) -> list:
    """The optimum at each distance ls[i] over its candidate repeater counts
    ns[i], or the InfeasibleError that distance raises; one row per
    (distance, n) pair."""
    d, r = ns.shape
    ns = ns.reshape(-1, 1)
    l_km = np.repeat(ls, r)[:, None]
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

    # P(m) of the module docstring, with e = expm1(x): h > 1 is
    # (c + m) a lam > e, and u > 0 is e (1 - x - c lam) > x + c lam, tested
    # only where c < 0 (it is false for c >= 0, where rounding near x = 0
    # could make it true), and not at all in a pass without such rows
    c = den1 - 1.0
    lam = -spatial_mux * np.log1p(-first.p)
    a_lam, c_lam, neg = (ns + 1.0) * lam, c * lam, c < 0.0
    some_neg = bool(neg.any())

    def rising(m):
        x = lam * m
        e = np.expm1(x)
        out = (c + m) * a_lam > e
        if some_neg:
            out |= neg & (e * (1.0 - x - c_lam) > x + c_lam)
        return out

    with np.errstate(all="ignore"):
        lo = _last_true(rising, cap)
    cols = np.sort(np.clip(np.hstack([np.ones_like(ns), lo, lo + 1,
                                      mem_cap - 1, mem_cap, mem_cap + 1]),
                           1, bounds.m_max), axis=1)
    grid = rate_grid(ChainLayout(l_km, ns, spatial_mux, cols), hw)
    assert np.array_equal(grid.mem_ok, cols <= mem_cap), \
        "the memory cap disagrees with rate_grid's mem_ok"
    rate = np.where((cols <= cap) & np.isfinite(grid.rate), grid.rate, -1.0)
    # per distance, the flat index of the row-major argmax over its rows'
    # sorted columns: smallest n, then m
    best = rate.reshape(d, -1).argmax(axis=1) + np.arange(0, rate.size, rate.size // d)
    n_opt, m_opt = ns[best // cols.shape[1], 0], cols.flat[best]
    found = rate.flat[best] >= 0.0  # a distance with no feasible cell has only -1
    evaluations = cap.reshape(d, r).sum(axis=1)
    # one more rate_grid call reports every distance's optimum
    reports = iter(grid_reports(rate_grid(
        ChainLayout(ls[found], n_opt[found], spatial_mux, m_opt[found]), hw), hw)
        if found.any() else [])
    out: list = []
    for i, (n, m, evals) in enumerate(zip(n_opt.tolist(), m_opt.tolist(),
                                          evaluations.tolist())):
        if not found[i]:
            out.append(_infeasible({name: rm[i * r:(i + 1) * r]
                                    for name, rm in removed.items()}, evals))
            continue
        out.append(OptimizationResult(
            n_opt=n,
            m_opt=m,
            report=next(reports),
            boundary_hit_n=(not constraints.pinned) and n == bounds.n_max,
            boundary_hit_m=m == bounds.m_max,
            evaluations=evals,
        ))
    return out


def _infeasible(removed: dict, evaluations: int) -> InfeasibleError:
    """What one distance raises: the points each constraint removed from its
    rows, or, when some remain, that none has a finite rate."""
    if evaluations:
        return InfeasibleError(["rate"],
                               "no feasible (n, m) grid point has a finite rate")
    binding = {name: int(r.sum()) for name, r in removed.items() if r.any()}
    names = sorted(binding) or ["(empty grid)"]
    detail = ", ".join(f"{name} removed {binding.get(name, 0)} points" for name in names)
    return InfeasibleError(names, f"no feasible (n, m) grid point: {detail}")


def _solve(ls: Sequence[float], spatial_mux: int, hw: HardwareProfile,
           bounds: SearchBounds, constraints: Constraints) -> list:
    """Each distance's OptimizationResult, or the InfeasibleError it raises.

    Distances are solved in passes of at most PASS_ROWS rows (at least one
    distance), so memory stays bounded whatever the number of distances. A
    ValueError is raised as a loop of one-distance calls would raise it: the
    first distance's, after the distances before it have been solved.
    """
    tau_min_error = None
    if constraints.tau_min is not None and hw.timing.tau < constraints.tau_min:
        tau_min_error = InfeasibleError(
            ["tau_min"],
            f"clock cycle {hw.timing.tau:.6g} s is below tau_min "
            f"{constraints.tau_min:.6g} s; no grid point is feasible",
        )
    per_pass = max(1, PASS_ROWS // (1 if constraints.pinned else bounds.n_max + 1))
    out: list = []
    for start in range(0, len(ls), per_pass):
        rows, error = [], None
        for l_km in ls[start:start + per_pass]:
            try:
                if not 0.0 < l_km < math.inf:
                    raise ValueError(f"l_km must be positive and finite, got {l_km}")
                # a clock below tau_min rules out every point before any is evaluated
                rows.append(tau_min_error or _candidate_ns(l_km, bounds, constraints))
            except ValueError as err:
                error = err
                break
        if tau_min_error is not None:
            out += rows
        elif rows:
            out += _solve_pass(np.array(ls[start:start + len(rows)], dtype=float),
                               np.array(rows), spatial_mux, hw, bounds, constraints)
        if error is not None:
            raise error
    return out


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
    res, = _solve([l_km], spatial_mux, hw, bounds or SearchBounds(),
                  constraints or Constraints())
    if isinstance(res, InfeasibleError):
        raise res
    return res


@dataclass(frozen=True)
class SweepRow:
    l_km: float
    result: Optional[OptimizationResult]
    plob: float
    infeasible_reason: Optional[str] = None


def _plob(l_km: float, spatial_mux: int, hw: HardwareProfile) -> float:
    eta = fiber_transmissivity(hw.optical.alpha_db_per_km, l_km)
    if eta == 0.0:  # past ~16,000 km at 0.2 dB/km the transmissivity underflows
        return 0.0  # the bound's limit as eta -> 0
    return plob_bound(eta, spatial_mux, hw.timing.tau) if eta < 1.0 else math.inf


def sweep_distance(l_list: Sequence[float], spatial_mux: int, hw: HardwareProfile,
                   bounds: Optional[SearchBounds] = None,
                   constraints: Optional[Constraints] = None) -> list[SweepRow]:
    """Optimize at each distance; infeasible points become flagged rows."""
    ls = list(l_list)
    if not ls:
        raise ValueError("l_list must be nonempty")
    if any(b <= a for a, b in zip(ls, ls[1:])):
        raise ValueError("l_list must be strictly increasing")
    rows = []
    for l_km, res in zip(ls, _solve(ls, spatial_mux, hw, bounds or SearchBounds(),
                                    constraints or Constraints())):
        failed = isinstance(res, InfeasibleError)
        rows.append(SweepRow(l_km=l_km, result=None if failed else res,
                             plob=_plob(l_km, spatial_mux, hw),
                             infeasible_reason=str(res) if failed else None))
    return rows


def distance_grid(l_min_km: float, l_max_km: float, l_step_km: float) -> list[float]:
    """l_min_km + i * l_step_km for i = 0, 1, ... while within l_max_km (to 1e-12).

    Raises ValueError naming the parameter at fault, l_step_km when the grid
    would have more than MAX_L_POINTS distances.
    """
    for name, v in (("l_min_km", l_min_km), ("l_max_km", l_max_km),
                    ("l_step_km", l_step_km)):
        if not 0.0 < v < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {v}")
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


def crossover_distance(spatial_mux: int, hw: HardwareProfile,
                       bounds: Optional[SearchBounds] = None,
                       l_min_km: float = 10.0, l_max_km: float = 500.0,
                       l_step_km: float = 1.0) -> Optional[float]:
    """Smallest grid distance where the optimized rate beats the PLOB bound.

    The advantage sets in at long distances and persists, so a bisection over
    the grid suffices; the step below the reported distance is re-checked to
    guard against a non-monotone edge. Returns None when no grid point wins.
    """
    grid = distance_grid(l_min_km, l_max_km, l_step_km)

    def beats(l_km: float) -> bool:
        try:
            res = optimize_rate(float(l_km), spatial_mux, hw, bounds)
        except InfeasibleError:
            return False
        return res.report.noisy_rate > _plob(float(l_km), spatial_mux, hw)

    lo, hi = 0, len(grid) - 1
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
