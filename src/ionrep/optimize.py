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

Feasibility keeps a prefix of each row, so each constraint is one entry of
a cap table holding each row's largest feasible m: n_o does not depend on
m, so n_o_max's entry is m_max or 0; n_m is n_m(1) m, so n_m_max's is an
integer division; the block grows with m, so tau_m's is the last m where
rates.memory_covers holds. A row's cap is the least of its entries. Per
distance, the evaluated points are its rows' caps summed, and when none is
left each constraint has removed m_max less its entry, summed over the
rows, which InfeasibleError reports. The memory cap rests on
den_steps(m) = den_steps(1) + (m - 1.0), rounded as rate_grid rounds it; an
assertion checks that identity, and rate_grid's mem_ok against m <= cap, on
every evaluated cell. Both sides apply memory_covers to equal values, so
they agree at the cap's boundary too.

Each row's lo, and its memory cap, come from one integer search,
_last_true, seeded by the closed form. The memory cap is a division:
m <= tau_m / (memory_margin tau) - den_steps(1) + 1. For c >= 0, h(m) > 1
ends where x = lam m reaches the larger root of e^x - 1 = a (x + c lam), a
Lambert W_{-1} value (Corless et al., "On the Lambert W function", 1996);
three Newton steps on e^x - a x - (1 + a c lam) from L + log L,
L = log(a + 1 + a c lam), estimate it, and lo is near x / lam. Rows with
c < 0 take the same estimate. The search's one seeded round tests each
row's cap and the four integers around its estimate; a row whose tested
values straddle the end of P is done. Rows the estimate missed (a NaN, an
estimate off by more than one) are bisected by further rounds, so lo is
exact whatever the estimate; the estimate only sets the number of rounds.

A pass splits into a row state and a step per variant. Noise (eps_g, f0)
enters the rate only through the factor max(0, rci(n)), which is constant
along a row, and a, lam and c do not depend on it; n_o_max and n_m_max only
lower a row's cap below the memory cap. So sweep_variants solves each
distinct variant once and groups the distinct variants by _row_key; each
group is one row solve with one row state: the rate_grid call at m = 1,
the memory cap, and lo_free, the last m in [1, memory cap] where P holds.
Each variant then takes its cap (at most the memory cap) and
lo = min(lo_free, cap), which is exact because P holds on a prefix: P
holds on all of [1, lo_free] and nowhere in (lo_free, memory cap], so its
last m in [1, cap] is lo_free when lo_free <= cap, and cap otherwise.
The candidate columns are 1, lo and lo + 1, in that order. Variants with
equal caps share one candidate grid, rates.rate_blocks (rate_grid's block
stage) applied to the m = 1 grid at those columns, and each other noise
level recomputes only the noise fields, with rates.noise_tail and
rates.noisy_rate, the functions rate_grid itself calls, so the rate formula
is written once.

Cells broadcast elementwise, so a candidate's rate is the bits of its cell
in the full grid. Infeasible and non-finite cells count as -1, and per
distance a row-major argmax over its rows' candidates breaks ties
toward smaller n, then smaller m, as a scan of that distance's whole grid
would. Each distance's report is read by rates.grid_reports straight from
the grid's fields at the cell that won its argmax. A pass holds at most PASS_ROWS rows, or one distance where its
n_max + 1 rows are more, and one candidate grid at a time; n_max is at most
MAX_SEARCH_N, so memory stays bounded whatever the number of distances or
variants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .model import (MAX_COUNT, ChainLayout, HardwareProfile, StepCountError,
                    fiber_transmissivity)
from .rates import (InfeasibleError, RateGrid, RateReport, grid_reports, memory_covers,
                    noise_tail, noisy_rate, plob_bound, rate_blocks, rate_grid)

MAX_L_POINTS = 10_000  # distances in a sweep grid: 200x the default grid's 50
_SEED_OFFSETS = np.arange(-1, 3)[:, None, None]  # the seeded round's m - floor(guess)
MAX_SEARCH_N = 100_000  # largest bounds.n_max: one row of search state per n
# (distance, n) rows per pass, or one distance's rows where they are more.
# At n_max = 600 that is six distances. On one core of a 2-vCPU machine
# (numpy 2.4.6), fig2-fig9 took 282-303 ms a run, against 476 ms with one
# distance per pass and 312-334 ms with three; ten per pass took 262-279 ms
# but added ~0.8 MB to a ~36 MB peak RSS.
PASS_ROWS = 4096


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
        if self.m_max > MAX_COUNT:
            raise ValueError(f"bounds.m_max must be at most {MAX_COUNT}, got {self.m_max}")


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


def _last_true(pred, hi: np.ndarray, guess: np.ndarray) -> np.ndarray:
    """Per row, the largest m in [1, hi] where pred(m) holds, or 0 where it
    holds nowhere; pred must hold on a prefix of the integers m >= 1.

    guess is a float column, the answer's estimate: any value (NaN, +-inf
    included) gives the exact answer, and one whose floor is within 1 of it
    takes a single round. That round tests hi and floor(guess) - 1 ...
    floor(guess) + 2, each clipped to [1, hi], on a leading axis: numpy 2.4
    reduces a (5, 601, 1) array over axis 0 in ~2 us, a (601, 5) one over
    axis 1 in ~33 us. Rows it leaves open are bisected by the loop below,
    one cell per row a round.
    """
    g = np.fmin(np.fmax(guess, 0.0), hi).astype(np.int64)  # NaN and inf land in [0, hi]
    m = np.concatenate([hi[None], np.clip(g + _SEED_OFFSETS, 1, hi)])
    ok = pred(m)
    # every m tested true is at most the answer, every false one above it;
    # a row with hi = 0 tests only 0, and comes out with lo = 0 either way
    lo = np.where(ok, m, 0).max(axis=0)
    up = np.where(ok, hi + 1, m).min(axis=0)
    gap = up - lo
    while (gap > 1).any():
        # a row that is done (gap <= 1) tests its own lo again, which holds
        # or is 0, and keeps its answer either way
        m = lo + gap // 2
        ok = pred(m)
        lo = np.where(ok, m, lo)
        up = np.where(ok, up, m)
        gap = up - lo
    return lo


def _row_key(spatial_mux: int, hw: HardwareProfile, constraints: Constraints) -> tuple:
    """What a solve's rows and their search depend on: spatial_mux, the
    hardware with its noise set aside, and the constraints that choose the
    rows (fixed_n, fixed_l0_km) or rule out a whole pass (tau_min). Variants
    with equal keys differ only in noise, n_o_max and n_m_max, and
    sweep_variants gives them one row solve."""
    return (spatial_mux, hw.optical, hw.timing, hw.memory_margin,
            constraints.fixed_l0_km, constraints.fixed_n, constraints.tau_min)


def _solve_pass(ls: np.ndarray, ns: np.ndarray, spatial_mux: int, bounds: SearchBounds,
                variants: Sequence[tuple]) -> list:
    """Per variant (hw, constraints), the optimum at each distance ls[i] over
    its candidate repeater counts ns[i], or the InfeasibleError that distance
    raises; one row per (distance, n) pair, shared by the variants."""
    d, r = ns.shape
    ns = ns.reshape(-1, 1)
    l_km = np.repeat(ls, r)[:, None]
    hw = variants[0][0]  # the rows' state below depends on noise only through f_end, rci
    layout = ChainLayout(l_km, ns, spatial_mux, np.ones_like(ns))
    first = rate_grid(layout, hw)
    den1 = first.den_steps  # den_steps(m) = den1 + (m - 1.0), as rate_grid rounds it
    tm = hw.timing
    mem_cap = _last_true(lambda m: memory_covers(hw, den1 + (m - 1.0)),
                         np.full_like(ns, bounds.m_max),
                         tm.tau_m / (hw.memory_margin * tm.tau) - den1 + 1.0)

    # P(m) of the module docstring, with e = expm1(x): h > 1 is
    # (c + m) a lam > e, and u > 0 is e (1 - x - c lam) > x + c lam, tested
    # only where c < 0 (it is false for c >= 0, where rounding near x = 0
    # could make it true), and not at all in a pass without such rows
    c = den1 - 1.0
    lam = -spatial_mux * np.log1p(-first.p)
    a = ns + 1.0
    a_lam, c_lam, neg = a * lam, c * lam, c < 0.0
    some_neg = bool(neg.any())

    def rising(m):
        x = lam * m
        e = np.expm1(x)
        out = (c + m) * a_lam > e
        if some_neg:
            out |= neg & (e * (1.0 - x - c_lam) > x + c_lam)
        return out

    with np.errstate(all="ignore"):
        # lo_free's seed: the larger root x of e^x - a x - b = 0, b = 1 + a c lam,
        # by three Newton steps from L + log L, L = log(a + b), then m = x / lam
        b = 1.0 + a * c_lam
        x = np.log(a + b)
        x += np.log(x)
        for _ in range(3):
            e = np.exp(x)
            x -= (e - a * x - b) / (e - a)
        lo_free = _last_true(rising, mem_cap, x / lam)

    by_caps: dict = {}  # variant indices per (n_o_max, n_m_max), in first-seen order
    for i, (_, cons) in enumerate(variants):
        by_caps.setdefault((cons.n_o_max, cons.n_m_max), []).append(i)
    out: list = [None] * len(variants)
    for (n_o_max, n_m_max), members in by_caps.items():
        # the cap table: per constraint, each row's largest feasible m
        caps = {"tau_m": mem_cap}
        if n_o_max is not None:  # n_o does not depend on m
            caps["n_o_max"] = np.where(first.n_o <= n_o_max, bounds.m_max, 0)
        if n_m_max is not None:  # n_m(m) = n_m(1) m
            caps["n_m_max"] = np.minimum(n_m_max // first.n_m, bounds.m_max)
        # P holds on a prefix, so the search up to the row cap is the free one clipped
        lo = np.minimum.reduce([lo_free, *caps.values()])
        # in order, since 1 <= clip(lo) <= clip(lo + 1)
        cols = np.clip(np.hstack([np.ones_like(ns), lo, lo + 1]), 1, bounds.m_max)
        grid = rate_blocks(first, layout, cols, hw)
        assert (np.array_equal(grid.den_steps, den1 + (cols - 1.0))
                and np.array_equal(grid.mem_ok, cols <= mem_cap)), \
            "rate_grid's den_steps or mem_ok disagrees with the memory cap"
        for i in members:  # per noise level, only f_end, rci and the rate are new
            hw_i, cons_i = variants[i]
            noisy = grid
            if hw_i.noise != hw.noise:
                tail = noise_tail(ns, hw_i)
                noisy = replace(grid, **tail, rate=noisy_rate(grid.ideal, tail["rci"]))
            out[i] = _optima(noisy, cols, caps, ns.reshape(d, r), hw_i, bounds, cons_i.pinned)
    return out


def _optima(grid: RateGrid, cols: np.ndarray, caps: dict, ns: np.ndarray,
            hw: HardwareProfile, bounds: SearchBounds, pinned: bool) -> list:
    """Each distance's argmax over its rows' candidate cells, as _solve_pass
    returns it for one variant; ns holds each distance's candidate repeater
    counts, one distance a row, and the grid's rows are theirs in order."""
    d, r = ns.shape
    cap = np.minimum.reduce(list(caps.values()))  # each row's largest feasible m
    rate = np.where((cols <= cap) & np.isfinite(grid.rate), grid.rate, -1.0)
    # per distance, the flat index of the row-major argmax over its rows'
    # ordered columns: smallest n, then m
    best = rate.reshape(d, -1).argmax(axis=1) + np.arange(0, rate.size, rate.size // d)
    n_opt, m_opt = ns.flat[best // cols.shape[1]], cols.flat[best]
    found = rate.flat[best] >= 0.0  # a distance with no feasible cell has only -1
    reports = iter(grid_reports(grid, hw, best[found].tolist()))
    evaluations = cap.reshape(d, r).sum(axis=1).tolist()
    out: list = []
    for i, (n, m, evals) in enumerate(zip(n_opt.tolist(), m_opt.tolist(), evaluations)):
        if not found[i]:
            out.append(_infeasible({name: c.reshape(d, r)[i] for name, c in caps.items()},
                                   bounds.m_max, evals))
            continue
        out.append(OptimizationResult(
            n_opt=n,
            m_opt=m,
            report=next(reports),
            boundary_hit_n=(not pinned) and n == bounds.n_max,
            boundary_hit_m=m == bounds.m_max,
            evaluations=evals,
        ))
    return out


def _infeasible(caps: dict, m_max: int, evaluations: int) -> InfeasibleError:
    """What one distance raises, from its rows' cap table: the points each
    constraint removed, m_max less its cap summed over the rows, or, when
    some remain, that none has a finite rate."""
    if evaluations:
        return InfeasibleError(["rate"],
                               "no feasible (n, m) grid point has a finite rate")
    removed = {name: int((m_max - cap).sum()) for name, cap in caps.items()}
    names = sorted(name for name, count in removed.items() if count)
    detail = ", ".join(f"{name} removed {removed[name]} points" for name in names)
    return InfeasibleError(names, f"no feasible (n, m) grid point: {detail}")


def _solve(ls: Sequence[float], spatial_mux: int, bounds: SearchBounds,
           variants: Sequence[tuple]) -> list:
    """Per variant (hw, constraints), each distance's OptimizationResult or
    the InfeasibleError it raises; the variants share one _row_key.

    Distances are solved in passes of at most PASS_ROWS rows (at least one
    distance), so memory stays bounded whatever the number of distances. A
    ValueError is raised as a loop of one-distance calls would raise it: the
    first distance's, after the distances before it have been solved.
    """
    hw, constraints = variants[0]
    tau_min_error = None
    if constraints.tau_min is not None and hw.timing.tau < constraints.tau_min:
        tau_min_error = InfeasibleError(
            ["tau_min"],
            f"clock cycle {hw.timing.tau:.6g} s is below tau_min "
            f"{constraints.tau_min:.6g} s; no grid point is feasible",
        )
    per_pass = max(1, PASS_ROWS // (1 if constraints.pinned else bounds.n_max + 1))
    out: list = [[] for _ in variants]
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
            for results in out:
                results += rows
        elif rows:
            solved = _solve_pass(np.array(ls[start:start + len(rows)], dtype=float),
                                 np.array(rows), spatial_mux, bounds, variants)
            for results, part in zip(out, solved):
                results += part
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
    (res,), = _solve([l_km], spatial_mux, bounds or SearchBounds(),
                     [(hw, constraints or Constraints())])
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
    return sweep_variants(l_list, [(spatial_mux, hw, constraints)], bounds)[0]


def sweep_variants(l_list: Sequence[float], variants: Sequence[tuple],
                   bounds: Optional[SearchBounds] = None) -> list[list[SweepRow]]:
    """sweep_distance's rows for each (spatial_mux, hw, constraints) of
    variants, in their order (constraints may be None, which is
    Constraints()). Equal variants are solved once, and variants with equal
    _row_key share one row solve; the solves run in order of their first
    variant, so a ValueError is the first failing solve's. A StepCountError
    names that solve by the index of its first variant in variants, as its
    variant attribute."""
    ls = list(l_list)
    if not ls:
        raise ValueError("l_list must be nonempty")
    if any(b <= a for a, b in zip(ls, ls[1:])):
        raise ValueError("l_list must be strictly increasing")
    bounds = bounds or SearchBounds()
    variants = [(mux, hw, cons or Constraints()) for mux, hw, cons in variants]
    groups: dict = {}  # distinct variants per row key, in first-seen order
    for variant in dict.fromkeys(variants):
        groups.setdefault(_row_key(*variant), []).append(variant)
    rows: dict = {}
    for members in groups.values():
        spatial_mux, hw = members[0][:2]
        try:
            solved = _solve(ls, spatial_mux, bounds, [v[1:] for v in members])
        except StepCountError as err:
            err.variant = variants.index(members[0])
            raise
        plob = [_plob(l_km, spatial_mux, hw) for l_km in ls]
        for variant, results in zip(members, solved):
            rows[variant] = [SweepRow(l_km, None, bound, str(res))
                             if isinstance(res, InfeasibleError) else SweepRow(l_km, res, bound)
                             for l_km, res, bound in zip(ls, results, plob)]
    return [rows[v] for v in variants]


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
