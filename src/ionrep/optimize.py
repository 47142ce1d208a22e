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
the row's largest feasible m, or 0 where P fails at m = 1, which then
stands for m = 1. The row's integer argmax is then lo or lo + 1 where
c >= 0, and one of 1, lo and lo + 1 where c < 0: where the rate still rises
at cap, lo is cap.

A row is a (distance, n) pair: a sweep solves its distances together, a
pass of rows at a time, and optimize_rate is the same search at one
distance. Rows are independent, so a row's answer does not depend on the
rows beside it.

Feasibility keeps a prefix of each row, so each constraint is one entry of
a cap table holding each row's largest feasible m: n_o_max's and n_m_max's
entries are rates.ion_caps, the ion budgets' inverse on the row state; the
block grows with m, so tau_m's is the last m where rates.memory_covers
holds. A row's cap is the least of its entries. Per
distance, the evaluated points are its rows' caps summed, and when none is
left each constraint has removed m_max less its entry, summed over the
rows, which InfeasibleError reports. The memory cap rests on
den_steps(m) = den1 + (m - 1.0), the row state's den1 extended as
rates.rate_blocks extends it; an assertion checks rate_blocks' mem_ok
against m <= cap on every evaluated cell. Both sides apply memory_covers
to equal values, so they agree at the cap's boundary too. memory_covers is
monotone in m, so a pass first tests it once at m_max: where it holds on
every row, the memory cap is m_max and no search runs. At the default
tau_m = 60 s that is every pass of the standard figures.

Each row's lo, and its memory cap where the memory binds, come from one
integer search, _last_true, seeded by the closed form. The memory cap is a
division: m <= tau_m / (memory_margin tau) - den_steps(1) + 1. For c >= 0,
h(m) > 1 ends where x = lam m reaches the larger root of
e^x - 1 = a (x + c lam), a Lambert W_{-1} value (Corless et al., "On the
Lambert W function", 1996); three Newton steps on e^x - a x - (1 + a c lam)
from L + log L, L = log(a + 1 + a c lam), estimate it, and lo is near
x / lam. Rows with c < 0 take the same estimate. The search's one seeded
round tests three integers a row, floor(estimate) - 1, floor(estimate)
and floor(estimate) + 1, clipped to [1, cap]; a row whose tested values
straddle the end of P is done, as is a row whose estimate is at or past
its cap, which the clip tests. That closes every row whose lo is
floor(estimate) or floor(estimate) - 1, which is all but fig9's c < 0 rows
in the standard figures. Rows the estimate missed (a NaN, an estimate off
by more than one) are bisected by further rounds, so lo is exact whatever
the estimate; the estimate only sets the number of rounds.

A pass splits into a row state, a step per spatial_mux M and a step per
variant. Noise (eps_g, f0) enters the rate only through the factor
max(0, rci(n)), which is constant along a row, and a, lam and c do not
depend on it; n_o_max and n_m_max only lower a row's cap below the memory
cap. M enters the row state only through the ion budgets n_o and n_m1,
and the search only through lam = -M log1m_p. So sweep_variants solves
each distinct variant once and groups the distinct variants by _row_key,
which holds no M; each group is one row solve with one row state:
rates.rate_rows (rate_grid's row stage) at the group's first M, and the
memory cap. Each further M redoes only rates.ion_budgets. Per M, the step
computes lam, the seed, and lo_free, the last m in [1, memory cap] where P
holds, and its arrays are released before the next M's step. Each variant
then takes its cap (at most the memory cap) and lo = min(lo_free, cap),
exact because P holds on a prefix: P holds on all of [1, lo_free] and
nowhere in (lo_free, memory cap], so its last m in [1, cap] is lo_free when
lo_free <= cap, and cap otherwise. The noise fields f_end and rci depend on
n alone, and an unpinned pass holds one copy of 0..n_max per distance, so
rates.noise_tail runs once per distinct n and noise level: once a pass
where the pass is pinned, and once a row solve where it is not, since
every unpinned pass holds the same 0..n_max. An unpinned pass of more than
one distance tiles its columns to its rows; any other pass takes them as
they are held, since nothing writes them in place. The pass's layout skips
ChainLayout's checks: its distances and repeater counts come from checked
inputs, and _solve checks spatial_mux.

The candidate columns are lo and lo + 1, in that order, where every row of
the pass has c >= 0, and 1, lo and lo + 1 in a pass with a c < 0 row. One
more case needs m = 1: a distance whose best candidate rate is not > 0
has every candidate it could pick tied at rate 0 (or none feasible and
finite), and the full scan breaks a zero-rate tie toward m = 1, which the
two columns may lack. A variant whose two-column argmax has such a
distance is solved again on the columns 1, lo and lo + 1. Variants with
equal M and caps share each candidate grid, rates.rate_blocks (rate_grid's
block stage) applied to the row state at those columns, built at most once
per group of caps when a variant first needs it. So the block stage runs only
at candidate columns, and each other noise level recomputes only the
noise fields, with rates.noise_tail and rates.noisy_rate, the functions
rate_grid itself calls, so the rate formula is written once.

Cells broadcast elementwise, so a candidate's rate is the bits of its cell
in the full grid. Infeasible and non-finite cells count as -1, and per
distance a row-major argmax over its rows' candidates breaks ties
toward smaller n, then smaller m, as a scan of that distance's whole grid
would. Each distance's report is read by rates.grid_reports straight from
the grid's fields at the cell that won its argmax. A pass holds at most
PASS_ROWS rows, or one distance where its n_max + 1 rows are more, and at
most two candidate grids at a time; n_max is at most
MAX_SEARCH_N, so memory stays bounded whatever the number of distances or
variants.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .model import (MAX_COUNT, ChainLayout, Constraints, HardwareProfile, InfeasibleError,
                    StepCountError, _check, _check_count, _store_int)
from .rates import (RateGrid, RateReport, fiber_transmissivity, grid_reports, ion_budgets,
                    ion_caps, memory_covers, noise_tail, noisy_rate, plob_bound,
                    rate_blocks, rate_rows)

MAX_L_POINTS = 10_000  # distances in a sweep grid: 200x the default grid's 50
_SEED_OFFSETS = np.arange(-1, 2)[:, None, None]  # the seeded round's m - floor(guess)
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
        n_max, m_max = self.n_max, self.m_max
        _check(0 <= n_max <= MAX_SEARCH_N, "bounds.n_max", f"in [0, {MAX_SEARCH_N}]", n_max)
        _check(n_max % 1 == 0, "bounds.n_max", "an integer", n_max)
        _check(m_max >= 1, "bounds.m_max", ">= 1", m_max)
        _check(m_max <= MAX_COUNT, "bounds.m_max", f"at most {MAX_COUNT}", m_max)
        _check(m_max % 1 == 0, "bounds.m_max", "an integer", m_max)
        _store_int(self, "n_max")
        _store_int(self, "m_max")


@dataclass(frozen=True)
class OptimizationResult:
    """The argmax and its report; evaluations counts feasible grid points, not cells."""
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
    included) gives the exact answer, and one whose floor is the answer or
    the answer + 1 takes a single round. That round tests floor(guess) - 1,
    floor(guess) and floor(guess) + 1, each clipped to [1, hi], on a leading
    axis; a guess at or above hi tests hi. Rows it leaves open are bisected
    by the loop below, one cell per row a round.
    """
    g = np.fmin(np.fmax(guess, 0.0), hi).astype(np.int64)  # NaN and inf land in [0, hi]
    m = np.minimum(np.maximum(g + _SEED_OFFSETS, 1), hi)
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
    """What a solve's rows and their search depend on: the hardware with its
    noise set aside, and the constraints that choose the rows (fixed_n,
    fixed_l0_km) or rule out a whole pass (tau_min). Variants with equal
    keys differ only in spatial_mux, noise, n_o_max and n_m_max, and
    sweep_variants gives them one row solve. A spatial_mux that is not a
    valid count joins the key, so that its variant's ValueError is raised in
    that variant's own turn."""
    key = (hw.optical, hw.timing, hw.memory_margin,
           constraints.fixed_l0_km, constraints.fixed_n, constraints.tau_min)
    try:
        _check_count("spatial_mux", spatial_mux, 1)
    except ValueError:
        return (spatial_mux,) + key
    return key


def _solve_pass(ls: np.ndarray, ns: np.ndarray, bounds: SearchBounds,
                variants: Sequence[tuple], tails: dict) -> list:
    """Per variant (spatial_mux, hw, constraints), the optimum at each
    distance ls[i] over its candidate repeater counts ns[i], or the
    InfeasibleError that distance raises; one row per (distance, n) pair,
    shared by the variants. tails holds noise_tail's fields per noise
    level, of one distance's repeater counts where the pass is unpinned,
    and takes the ones this pass computes."""
    d, r = ns.shape
    ns_by_l, ns = ns, ns.reshape(-1, 1)
    # the rows' state depends on noise only through the tail
    mux, hw, constraints = variants[0]
    # an unpinned pass holds d copies of 0..n_max, so its tail is one copy's, tiled
    reps, tail_ns = (1, ns) if constraints.pinned else (d, ns[:r])

    def tail(hw_i: HardwareProfile) -> dict:
        if hw_i.noise not in tails:
            tails[hw_i.noise] = noise_tail(tail_ns, hw_i)
        # one copy is the held arrays: nothing writes f_end or rci in place
        return tails[hw_i.noise] if reps == 1 else {
            name: np.tile(v, (reps, 1)) for name, v in tails[hw_i.noise].items()}

    # checked distances and repeater counts; _solve checks spatial_mux
    layout = ChainLayout._unchecked(np.repeat(ls, r)[:, None], ns, mux)
    rows = rate_rows(layout, hw, tail(hw))
    den1 = rows.den1  # den_steps(m) = den1 + (m - 1.0), as rate_blocks computes it
    mem_cap = np.full_like(ns, bounds.m_max)
    # memory_covers is monotone in m: where it holds at m_max, m_max is the cap
    if not memory_covers(hw, den1 + (bounds.m_max - 1.0)).all():
        tm = hw.timing
        mem_cap = _last_true(lambda m: memory_covers(hw, den1 + (m - 1.0)), mem_cap,
                             tm.tau_m / (hw.memory_margin * tm.tau) - den1 + 1.0)

    # P(m) of the module docstring, with e = expm1(x): h > 1 is
    # (c + m) a lam > e, and u > 0 is e (1 - x - c lam) > x + c lam, tested
    # only where c < 0 (it is false for c >= 0, where rounding near x = 0
    # could make it true), and not at all in a pass without such rows
    c = den1 - 1.0
    a = ns + 1.0
    neg = c < 0.0
    some_neg = bool(neg.any())
    out: list = [None] * len(variants)

    def solve_mux(rows, layout: ChainLayout, members: list) -> None:
        # one spatial_mux's search and candidates, whose arrays go on return
        lam = -layout.spatial_mux * rows.log1m_p
        a_lam, c_lam = a * lam, c * lam

        def rising(m):
            x = lam * m
            e = np.expm1(x)
            ok = (c + m) * a_lam > e
            if some_neg:
                ok |= neg & (e * (1.0 - x - c_lam) > x + c_lam)
            return ok

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
        for i in members:
            cons = variants[i][2]
            by_caps.setdefault((cons.n_o_max, cons.n_m_max), []).append(i)
        for (n_o_max, n_m_max), capped in by_caps.items():
            # the cap table: per constraint, each row's largest feasible m
            caps = {"tau_m": mem_cap, **ion_caps(rows, bounds.m_max, n_o_max, n_m_max)}
            # a row's cap: its least entry
            cap = functools.reduce(np.minimum, caps.values())
            # P holds on a prefix, so the search up to the row cap is the free one clipped
            lo = np.minimum(lo_free, cap)
            # the candidate columns, clipped to [1, m_max], each set in order since
            # 1 <= clip(lo) <= clip(lo + 1): m = 1 joins lo and lo + 1 in a pass with
            # c < 0 rows, and for a variant whose two-column optima have a zero-rate tie
            col_sets = [[np.ones_like(ns), lo, lo + 1]]
            if not some_neg:
                col_sets.insert(0, [lo, lo + 1])
            # (cols, grid) of each set, built once its first variant needs it
            grids: list = []
            for i in capped:
                _, hw_i, cons_i = variants[i]
                # per noise level, only f_end, rci and the rate are new
                t = None if hw_i.noise == hw.noise else tail(hw_i)
                for k, parts in enumerate(col_sets):
                    if k == len(grids):
                        cols = np.minimum(np.maximum(np.hstack(parts), 1), bounds.m_max)
                        grid = rate_blocks(rows, layout, cols, hw)
                        assert np.array_equal(grid.mem_ok, cols <= mem_cap), \
                            "rate_blocks' mem_ok disagrees with the memory cap"
                        grids.append((cols, grid))
                    cols, grid = grids[k]
                    if t is not None:
                        grid = replace(grid, **t, rate=noisy_rate(grid.ideal, t["rci"]))
                    out[i] = _optima(grid, cols, cap, caps, ns_by_l, hw_i, bounds,
                                     cons_i.pinned)
                    if out[i] is not None:
                        break

    by_mux: dict = {}  # variant indices per spatial_mux, in first-seen order
    for i, variant in enumerate(variants):
        by_mux.setdefault(variant[0], []).append(i)
    for mux, members in by_mux.items():
        if mux != layout.spatial_mux:
            # only the ion budgets of the row state depend on spatial_mux
            layout = ChainLayout._unchecked(layout.total_distance_km, ns, mux)
            timing = rows.timing
            n_o, n_m1 = ion_budgets(rows.waits, timing.k_steps, timing.j_steps, mux, 1)
            rows = replace(rows, n_o=n_o, n_m1=n_m1)
        solve_mux(rows, layout, members)
    return out


def _optima(grid: RateGrid, cols: np.ndarray, cap: np.ndarray, caps: dict, ns: np.ndarray,
            hw: HardwareProfile, bounds: SearchBounds, pinned: bool) -> Optional[list]:
    """Each distance's argmax over its rows' candidate cells, as _solve_pass
    returns it for one variant; cap is each row's largest feasible m, the
    least of its caps' entries. ns holds each distance's candidate repeater
    counts, one distance a row, and the grid's rows are theirs in order.

    With two columns, lo and lo + 1, it returns None when some distance's
    best rate is not > 0: in the full scan a zero-rate tie breaks toward
    m = 1, which only the three-column grid holds."""
    d, r = ns.shape
    rate = np.where((cols <= cap) & np.isfinite(grid.rate), grid.rate, -1.0)
    # per distance, the flat index of the row-major argmax over its rows'
    # ordered columns: smallest n, then m
    best = rate.reshape(d, -1).argmax(axis=1) + np.arange(0, rate.size, rate.size // d)
    top = rate.flat[best]
    if cols.shape[1] == 2 and not (top > 0.0).all():
        return None
    n_opt, m_opt = ns.flat[best // cols.shape[1]], cols.flat[best]
    found = top >= 0.0  # a distance with no feasible cell has only -1
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


def _solve(ls: Sequence[float], bounds: SearchBounds, variants: Sequence[tuple]) -> list:
    """Per variant (spatial_mux, hw, constraints), each distance's
    OptimizationResult or the InfeasibleError it raises; the variants share
    one _row_key.

    Distances are solved in passes of at most PASS_ROWS rows (at least one
    distance), so memory stays bounded whatever the number of distances. A
    ValueError is raised as a loop of one-distance calls would raise it: the
    first distance's, after the distances before it have been solved.
    """
    for spatial_mux, _, _ in variants:  # the one input the passes do not check
        _check_count("spatial_mux", spatial_mux, 1)
    _, hw, constraints = variants[0]
    tau_min_error = None
    if constraints.tau_min is not None and hw.timing.tau < constraints.tau_min:
        tau_min_error = InfeasibleError(
            ["tau_min"],
            f"clock cycle {hw.timing.tau:.6g} s is below tau_min "
            f"{constraints.tau_min:.6g} s; no grid point is feasible",
        )
    per_pass = max(1, PASS_ROWS // (1 if constraints.pinned else bounds.n_max + 1))
    tails: dict = {}  # noise_tail's fields per noise level: unpinned passes share 0..n_max
    out: list = [[] for _ in variants]
    for start in range(0, len(ls), per_pass):
        rows, error = [], None
        for l_km in ls[start:start + per_pass]:
            try:
                _check(0.0 < l_km < math.inf, "l_km", "positive and finite", l_km)
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
                                 np.array(rows), bounds, variants,
                                 {} if constraints.pinned else tails)
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
    (res,), = _solve([l_km], bounds or SearchBounds(),
                     [(spatial_mux, hw, constraints or Constraints())])
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
    Constraints()), a new list for each. Equal variants are solved once,
    and variants with equal _row_key share one row solve, whatever their
    spatial_mux; a solve computes the PLOB bounds once per spatial_mux. The
    solves run in order of their first variant, so a ValueError is the first
    failing solve's. A StepCountError names that solve by the index of its
    first variant in variants, as its variant attribute."""
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
    swept: dict = {}  # each distinct variant's rows
    for members in groups.values():
        try:
            solved = _solve(ls, bounds, members)
        except StepCountError as err:
            err.variant = variants.index(members[0])
            raise
        plob: dict = {}  # per spatial_mux: _plob reads no hw field the row key leaves out
        for variant, results in zip(members, solved):
            spatial_mux, hw, _ = variant
            if spatial_mux not in plob:
                plob[spatial_mux] = [_plob(l_km, spatial_mux, hw) for l_km in ls]
            swept[variant] = [
                SweepRow(l_km, None, bound, str(res)) if isinstance(res, InfeasibleError)
                else SweepRow(l_km, res, bound)
                for l_km, res, bound in zip(ls, results, plob[spatial_mux])]
    return [list(swept[v]) for v in variants]


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


def crossover_distance(spatial_mux: int, hw: HardwareProfile,
                       bounds: Optional[SearchBounds] = None,
                       l_min_km: float = 10.0, l_max_km: float = 500.0,
                       l_step_km: float = 1.0) -> Optional[float]:
    """Smallest grid distance where the optimized rate beats the PLOB bound.

    The advantage sets in at long distances and persists, so the wins are a
    suffix of the grid: once its last distance wins, bisect_left finds the
    first, one optimize_rate call a halving. Returns None when none wins.
    """
    grid = distance_grid(l_min_km, l_max_km, l_step_km)

    def beats(l_km: float) -> bool:
        try:
            res = optimize_rate(float(l_km), spatial_mux, hw, bounds)
        except InfeasibleError:
            return False
        return res.report.noisy_rate > _plob(float(l_km), spatial_mux, hw)

    if not beats(grid[-1]):
        return None
    return float(grid[bisect.bisect_left(grid, True, hi=len(grid) - 1, key=beats)])
