"""Grid-search optimizer, distance sweep, and crossover tests.

Frozen rates below were cross-checked against a 40-digit mpmath evaluation of
the closed-form rate at the reported argmax, so the grid search is being
tested against the formulas rather than against its own output. The per-row
search is also checked against an exhaustive scan of the whole grid.
"""
import math
import re
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import ionrep.cli as cli_module
import ionrep.figures as figures_module
import ionrep.optimize as optimize_module
import ionrep.rates as rates_module
from ionrep import (
    ChainLayout,
    Constraints,
    HardwareProfile,
    InfeasibleError,
    SearchBounds,
    crossover_distance,
    evaluate_rate,
    fiber_transmissivity,
    optimize_rate,
    plob_bound,
    sweep_distance,
)
from ionrep.model import MAX_COUNT, StepCountError
from ionrep.optimize import distance_grid
from ionrep.rates import rate_grid

BASE = HardwareProfile()


def scan_optimum(l_km, spatial_mux, hw, bounds, constraints):
    """The exhaustive scan the per-row search replaced: the whole (n, m)
    grid, the same constraint masks, non-finite rates masked, and a
    row-major argmax (smaller n, then smaller m, on ties).

    Returns (n_opt, m_opt, noisy_rate, evaluations, boundary_hit_n,
    boundary_hit_m), or raises what optimize_rate raises.
    """
    if not 0.0 < l_km < math.inf:
        raise ValueError(f"l_km must be positive and finite, got {l_km}")
    if constraints.tau_min is not None and hw.timing.tau < constraints.tau_min:
        raise InfeasibleError(
            ["tau_min"],
            f"clock cycle {hw.timing.tau:.6g} s is below tau_min "
            f"{constraints.tau_min:.6g} s; no grid point is feasible")
    ns = optimize_module._candidate_ns(l_km, bounds, constraints)
    ms = np.arange(1, bounds.m_max + 1, dtype=np.int64)
    grid = rate_grid(ChainLayout(l_km, ns[:, None], spatial_mux, ms[None, :]), hw)
    checks = {"tau_m": grid.mem_ok}
    if constraints.n_o_max is not None:
        checks["n_o_max"] = grid.n_o <= constraints.n_o_max
    if constraints.n_m_max is not None:
        checks["n_m_max"] = grid.n_m <= constraints.n_m_max
    feasible = np.ones((ns.size, ms.size), dtype=bool)
    binding = {}
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
    rate = np.where(feasible & np.isfinite(grid.rate), grid.rate, -1.0)
    ni, mi = divmod(int(np.argmax(rate)), ms.size)
    n_opt, m_opt = int(ns[ni]), int(ms[mi])
    noisy = evaluate_rate(ChainLayout(l_km, n_opt, spatial_mux, m_opt), hw).noisy_rate
    pinned = constraints.fixed_n is not None or constraints.fixed_l0_km is not None
    return (n_opt, m_opt, noisy, evaluations,
            (not pinned) and n_opt == bounds.n_max, m_opt == bounds.m_max)


def outcome(fn, *args):
    """fn's answer, or the type, binding and text of what it raised."""
    try:
        res = fn(*args)
    except InfeasibleError as err:
        return "infeasible", err.binding, str(err)
    except ValueError as err:
        return "value", str(err)
    if isinstance(res, tuple):
        return res
    return (res.n_opt, res.m_opt, res.report.noisy_rate, res.evaluations,
            res.boundary_hit_n, res.boundary_hit_m)


class TestHeadlineOptimum:
    def test_argmax_and_rate(self):
        res = optimize_rate(150.0, 10, BASE)
        assert (res.n_opt, res.m_opt) == (88, 25)
        assert res.report.noisy_rate == pytest.approx(20824.552019187, rel=1e-9)
        assert res.report.regime.name == "B2"

    def test_resources_at_optimum(self):
        res = optimize_rate(150.0, 10, BASE)
        assert res.report.n_o == 168
        assert res.report.n_m == 50
        assert not res.report.n_m_is_upper_bound

    def test_full_grid_is_searched(self):
        res = optimize_rate(150.0, 10, BASE)
        assert res.evaluations == 601 * 2000
        assert not res.boundary_hit_n
        assert not res.boundary_hit_m

    def test_report_matches_scalar_evaluation(self):
        res = optimize_rate(150.0, 10, BASE)
        layout = ChainLayout(150.0, res.n_opt, 10, res.m_opt)
        assert evaluate_rate(layout, BASE).noisy_rate == res.report.noisy_rate


class TestOptimumAcrossConfigs:
    @pytest.mark.parametrize(
        "spatial_mux, argmax, rate",
        [
            (1, (36, 223), 3146.7049617927),
            (5, (65, 48), 12407.086805394),
            (10, (88, 25), 20824.552019187),
        ],
    )
    def test_spatial_mux_family(self, spatial_mux, argmax, rate):
        res = optimize_rate(150.0, spatial_mux, BASE)
        assert (res.n_opt, res.m_opt) == argmax
        assert res.report.noisy_rate == pytest.approx(rate, rel=1e-9)

    def test_noisier_gates_shorten_the_chain(self):
        # eps_g and 1-F0 are one knob: moving it to 1e-3 moves both
        hw = BASE.updated(eps_g=1e-3, f0=0.999)
        res = optimize_rate(150.0, 10, hw)
        assert (res.n_opt, res.m_opt) == (24, 26)
        assert res.report.noisy_rate == pytest.approx(9482.6838504020, rel=1e-9)
        # 25 links over 150 km puts the stations 6 km apart
        assert 150.0 / (res.n_opt + 1) == pytest.approx(6.0)

    def test_slow_gates(self):
        res = optimize_rate(150.0, 10, BASE.updated(tau_g=10e-6))
        assert (res.n_opt, res.m_opt) == (67, 27)
        assert res.report.noisy_rate == pytest.approx(12067.874889351, rel=1e-9)
        assert res.report.n_o == 237


class TestConstraints:
    def test_fixed_spacing(self):
        res = optimize_rate(150.0, 10, BASE,
                            constraints=Constraints(fixed_l0_km=20.0))
        assert res.n_opt == 7
        assert res.m_opt == 40
        assert res.report.regime.name == "A"
        assert res.report.noisy_rate == pytest.approx(6929.5414439030, rel=1e-9)
        assert res.evaluations == 2000

    @pytest.mark.parametrize("l0_km, n", [(20.0, 7), (40.0, 3), (400.0, 0)])
    def test_fixed_spacing_rounding(self, l0_km, n):
        res = optimize_rate(150.0, 10, BASE,
                            constraints=Constraints(fixed_l0_km=l0_km))
        assert res.n_opt == n

    def test_fixed_repeater_count(self):
        res = optimize_rate(150.0, 10, BASE, constraints=Constraints(fixed_n=87))
        assert (res.n_opt, res.m_opt) == (87, 25)
        assert res.report.noisy_rate == pytest.approx(20824.483830572, rel=1e-9)
        assert res.report.n_o == 170

    @pytest.mark.parametrize("l_km", [0.0, -5.0, math.nan, math.inf])
    def test_distance_must_be_positive_and_finite(self, l_km):
        with pytest.raises(ValueError, match="l_km"):
            optimize_rate(l_km, 10, BASE)

    @pytest.mark.parametrize("spatial_mux", [0, 2.5, 2 ** 30 + 1])
    @pytest.mark.parametrize("call", [
        lambda mux: optimize_rate(150.0, mux, BASE),
        lambda mux: sweep_distance([100.0, 150.0], mux, BASE),
        lambda mux: optimize_module.sweep_variants([100.0, 150.0], [(mux, BASE, None)]),
        lambda mux: crossover_distance(mux, BASE),
    ], ids=["optimize_rate", "sweep_distance", "sweep_variants", "crossover_distance"])
    def test_spatial_mux_must_be_a_positive_count(self, call, spatial_mux):
        with pytest.raises(ValueError, match="^spatial_mux must be a positive integer"):
            call(spatial_mux)

    def test_fixed_n_and_fixed_l0_conflict(self):
        with pytest.raises(ValueError):
            Constraints(fixed_n=10, fixed_l0_km=15.0)

    @pytest.mark.parametrize("cons, match", [
        (dict(fixed_l0_km=0.0), "fixed_l0_km must be positive, got 0.0"),
        (dict(fixed_l0_km=-20.0), "fixed_l0_km must be positive, got -20.0"),
        (dict(tau_min=0.0), "tau_min must be positive, got 0.0"),
        (dict(tau_min=-1e-6), "tau_min must be positive, got -1e-06"),
    ])
    def test_non_positive_spacing_or_clock_floor_rejected(self, cons, match):
        with pytest.raises(ValueError, match=re.escape(match)):
            Constraints(**cons)

    @pytest.mark.parametrize("cons, match", [
        (dict(fixed_n=2 ** 30 + 1), "fixed_n must be in"),
        (dict(fixed_l0_km=1e-300), "gives 1.5e\\+302 links"),
        (dict(fixed_l0_km=5e-324), "gives inf links"),
    ])
    def test_pinned_repeater_count_is_bounded(self, cons, match):
        with pytest.raises(ValueError, match=match):
            optimize_rate(150.0, 10, BASE, constraints=Constraints(**cons))

    def test_pinned_link_count_may_reach_max_count(self):
        # 1 km at 2**-30 km is exactly 2**30 links; a spacing one ulp shorter is too many
        res = optimize_rate(1.0, 10, BASE, constraints=Constraints(fixed_l0_km=2.0 ** -30))
        assert (res.n_opt, res.report.noisy_rate) == (2 ** 30 - 1, 0.0)
        with pytest.raises(ValueError, match="^fixed_l0_km=9.313225746154784e-10 gives"):
            optimize_rate(1.0, 10, BASE, constraints=Constraints(
                fixed_l0_km=math.nextafter(2.0 ** -30, 0)))

    @pytest.mark.parametrize("name", ["n_o_max", "n_m_max"])
    def test_ion_caps_are_bounded(self, name):
        # a cap past int64 once overflowed in rates.ion_caps
        with pytest.raises(ValueError) as err:
            Constraints(**{name: 10 ** 20})
        assert str(err.value) == f"{name} must be at most 1073741824, got {10 ** 20}"
        # the largest cap allowed binds nowhere on the default grid
        res = optimize_rate(150.0, 10, BASE, constraints=Constraints(**{name: 2 ** 30}))
        assert res == optimize_rate(150.0, 10, BASE)

    @pytest.mark.parametrize("cons, message", [
        (dict(tau_min=math.nan), "tau_min must be positive, got nan"),
        (dict(fixed_l0_km=math.nan), "fixed_l0_km must be positive, got nan"),
        (dict(n_o_max=math.nan), "n_o_max must be positive, got nan"),
        (dict(n_m_max=math.nan), "n_m_max must be positive, got nan"),
        (dict(fixed_n=math.nan), "fixed_n must be in [0, 1073741824], got nan"),
        (dict(n_o_max=125.5), "n_o_max must be an integer, got 125.5"),
        (dict(n_m_max=300.5), "n_m_max must be an integer, got 300.5"),
        (dict(fixed_n=87.5), "fixed_n must be an integer, got 87.5"),
    ])
    def test_nan_and_fractional_fields_rejected(self, cons, message):
        with pytest.raises(ValueError) as err:
            Constraints(**cons)
        assert str(err.value) == message

    @pytest.mark.parametrize("bounds, message", [
        (dict(n_max=20.5), "bounds.n_max must be an integer, got 20.5"),
        (dict(n_max=-0.5), "bounds.n_max must be in [0, 100000], got -0.5"),
        (dict(n_max=math.nan), "bounds.n_max must be in [0, 100000], got nan"),
        (dict(m_max=100.5), "bounds.m_max must be an integer, got 100.5"),
        (dict(m_max=math.nan), "bounds.m_max must be >= 1, got nan"),
        (dict(m_max=math.inf), "bounds.m_max must be at most 1073741824, got inf"),
        (dict(m_max=MAX_COUNT + 1), "bounds.m_max must be at most 1073741824, got 1073741825"),
    ])
    def test_search_bounds_reject_nan_and_fractional_counts(self, bounds, message):
        with pytest.raises(ValueError) as err:
            SearchBounds(**bounds)
        assert str(err.value) == message

    def test_search_bounds_take_the_largest_count(self):
        assert SearchBounds(m_max=MAX_COUNT).m_max == MAX_COUNT

    def test_comm_ion_cap_moves_the_optimum(self):
        res = optimize_rate(150.0, 10, BASE, constraints=Constraints(n_o_max=125))
        assert (res.n_opt, res.m_opt) == (119, 25)
        assert res.report.n_o <= 125
        assert res.report.noisy_rate == pytest.approx(20399.293621010, rel=1e-9)
        assert res.evaluations < 601 * 2000

    def test_loose_memory_cap_changes_nothing(self):
        free = optimize_rate(150.0, 10, BASE)
        capped = optimize_rate(150.0, 10, BASE,
                               constraints=Constraints(n_m_max=100))
        assert (capped.n_opt, capped.m_opt) == (free.n_opt, free.m_opt)
        assert capped.report.noisy_rate == free.report.noisy_rate

    def test_unmeetable_ion_cap(self):
        with pytest.raises(InfeasibleError) as err:
            optimize_rate(150.0, 10, BASE, constraints=Constraints(n_o_max=5))
        assert "n_o_max" in err.value.binding

    def test_clock_below_floor(self):
        with pytest.raises(InfeasibleError) as err:
            optimize_rate(150.0, 10, BASE, constraints=Constraints(tau_min=2e-6))
        assert "tau_min" in err.value.binding

    @settings(max_examples=25, deadline=None)
    @given(n_o_max=st.integers(10, 800), n_m_max=st.integers(10, 2000))
    def test_constraining_never_helps(self, n_o_max, n_m_max):
        bounds = SearchBounds(n_max=30, m_max=60)
        free = optimize_rate(60.0, 3, BASE, bounds=bounds)
        try:
            capped = optimize_rate(
                60.0, 3, BASE, bounds=bounds,
                constraints=Constraints(n_o_max=n_o_max, n_m_max=n_m_max))
        except InfeasibleError:
            return
        assert capped.report.noisy_rate <= free.report.noisy_rate * (1 + 1e-12)


class TestBoundaryFlags:
    def test_m_cap_hit(self):
        res = optimize_rate(150.0, 10, BASE,
                            bounds=SearchBounds(n_max=600, m_max=10))
        assert res.m_opt == 10
        assert res.boundary_hit_m
        assert not res.boundary_hit_n

    def test_n_cap_hit(self):
        res = optimize_rate(150.0, 10, BASE,
                            bounds=SearchBounds(n_max=20, m_max=2000))
        assert res.n_opt == 20
        assert res.boundary_hit_n
        assert not res.boundary_hit_m

    def test_tiny_grid(self):
        res = optimize_rate(150.0, 10, BASE, bounds=SearchBounds(n_max=2, m_max=3))
        assert res.evaluations == 9
        assert res.boundary_hit_n and res.boundary_hit_m

    def test_pinned_n_does_not_count_as_boundary(self):
        res = optimize_rate(150.0, 10, BASE,
                            bounds=SearchBounds(n_max=87, m_max=2000),
                            constraints=Constraints(fixed_n=87))
        assert res.n_opt == 87
        assert not res.boundary_hit_n


@st.composite
def _problems(draw):
    """Hardware, distance, modes, bounds and constraints for the scan oracle.

    Gates shorter than a third of the clock cycle (tau_g < tau / 3) over
    short links give rows whose block base is under one step (c < 0); tau_m
    and the ion caps bind on some draws, and some constraint sets leave
    nothing feasible.
    """
    tau = 10 ** draw(st.floats(-7.0, -4.0))
    tau_g = tau * 10 ** draw(st.floats(-1.5, 1.0))
    hw = BASE.updated(
        tau=tau, tau_g=tau_g, tau_o=tau_g * 10 ** draw(st.floats(0.005, 3.0)),
        tau_m=tau * 10 ** draw(st.floats(1.5, 8.0)),
        memory_margin=10 ** draw(st.floats(0.0, 1.5)),
        eps_g=draw(st.sampled_from([0.0, 1e-4, 1e-3, 0.05, 0.2])),
        f0=1.0 - 10 ** draw(st.floats(-6.0, -2.0)),
        eta_c=draw(st.floats(0.01, 1.0)))
    l_km = 10 ** draw(st.floats(-2.0, 2.5))
    spatial_mux = draw(st.integers(1, 50) | st.sampled_from([1000, 10 ** 6]))
    bounds = SearchBounds(draw(st.integers(0, 40)), draw(st.integers(1, 300)))
    cons = draw(st.sampled_from(["none", "n_o", "n_m", "both", "n", "l0", "tau_min"]))
    constraints = Constraints(
        n_o_max=draw(st.integers(1, 10000)) if cons in ("n_o", "both") else None,
        n_m_max=draw(st.integers(1, 30000)) if cons in ("n_m", "both") else None,
        fixed_n=draw(st.integers(0, 60)) if cons == "n" else None,
        fixed_l0_km=10 ** draw(st.floats(-1.0, 3.0)) if cons == "l0" else None,
        tau_min=tau * 10 ** draw(st.floats(-1.0, 1.0)) if cons == "tau_min" else None)
    return l_km, spatial_mux, hw, bounds, constraints


# a row whose base is under one step: the rate falls from m = 1, then rises
# to an interior peak (see test_row_below_one_step_falls_then_peaks)
DIP = (0.2, 5, BASE.updated(tau=10e-6), SearchBounds(60, 300), Constraints(fixed_n=1))


def scan_last_true(pred, hi):
    """_last_true by a linear scan: per row, the last m in [1, hi] where
    pred holds, or 0."""
    ms = np.arange(1, int(hi.max()) + 1)[:, None, None]
    return np.where(pred(ms) & (ms <= hi), ms, 0).max(axis=0, initial=0)


def wrong_guesses(rng, hi):
    """A guess per row of hi, each 0, negative, above hi, NaN, -inf, inf or
    an integer in [-5, hi + 5]."""
    kinds = np.broadcast_arrays(0.0, -rng.integers(1, 10 ** 6, hi.shape),
                                hi + rng.integers(1, 10 ** 6, hi.shape), np.nan,
                                -np.inf, np.inf, rng.integers(-5, hi + 6))
    pick = rng.integers(len(kinds), size=(1,) + hi.shape)
    return np.take_along_axis(np.stack(kinds).astype(float), pick, 0)[0]


class TestScanOracle:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(_problems())
    @example(DIP)
    # a row below one step (c < 0) whose rate dips after m = 1 and rises
    # again, never past m = 1: the optimum (1, 1)
    @example((0.5, 10, BASE.updated(tau=10e-6), SearchBounds(60, 300), Constraints(fixed_n=1)))
    # rci < 0 at n = 22, so every rate is 0 and the scan's tie breaks toward
    # m = 1: the optimum (22, 1), which the columns lo and lo + 1 miss
    @example((150.0, 10, BASE.updated(f0=0.99, eps_g=0.0), SearchBounds(600, 2000),
              Constraints(fixed_n=22)))
    @example((150.0, 10, BASE, SearchBounds(600, 2000), Constraints()))
    # tau_m binds: the optimum (122, 22) is one of 13,513 evaluated points
    @example((150.0, 10, BASE.updated(tau_m=3e-4), SearchBounds(600, 2000), Constraints()))
    @example((150.0, 50, BASE.updated(tau=10e-6), SearchBounds(40, 300),
              Constraints(n_o_max=125)))
    @example((150.0, 10, BASE, SearchBounds(5, 1), Constraints()))
    @example((150.0, 10, BASE, SearchBounds(2, 3), Constraints(n_o_max=5, n_m_max=1)))
    # tau_m binds on rows n = 0 and n = 1 only (caps 0 and 131), so the search
    # runs though most rows are uncapped: the optimum (60, 25) of 11,931 points
    @example((150.0, 10, BASE.updated(tau_m=5e-3), SearchBounds(60, 200), Constraints()))
    # all three caps remove points and none are left
    @example((150.0, 10, BASE.updated(tau_m=3e-4), SearchBounds(60, 200),
              Constraints(n_o_max=100, n_m_max=10)))
    def test_matches_the_exhaustive_scan(self, problem):
        assert outcome(optimize_rate, *problem) == outcome(scan_optimum, *problem)

    def test_rows_with_nothing_left_to_search_keep_their_lo(self):
        # a row with hi = 0 (the third) beside rows still searching once
        # tested m = -1; the first row fails at 1 and at 0, and holds at -1.
        # A guess of 0 leaves the other rows open, so the bisection runs
        # beside the finished ones, and no guess changes the answer
        limit, hi = np.array([[0], [30], [0], [70]]), np.array([[5], [50], [0], [60]])

        def pred(m):
            return (m <= limit) & (m != 0)

        rng = np.random.default_rng(0)
        for guess in [np.zeros((4, 1)), limit + 0.5] + [wrong_guesses(rng, hi)
                                                         for _ in range(50)]:
            assert optimize_module._last_true(pred, hi, guess).tolist() == [[0], [30], [0], [60]]

    def test_row_below_one_step_falls_then_peaks(self):
        l_km, mux, hw, bounds, cons = DIP
        ms = np.arange(1, bounds.m_max + 1)
        grid = rate_grid(ChainLayout(l_km, np.array([[1]]), mux, ms[None, :]), hw)
        assert grid.den_steps[0, 0] < 1.0  # c = den_steps(m=1) - 1 < 0
        rate = grid.rate[0]
        assert rate[1] < rate[0] < rate.max()
        res = optimize_rate(*DIP)
        assert res.m_opt == int(np.argmax(rate)) + 1 == 8

    def test_non_finite_rates_are_never_chosen(self, monkeypatch):
        # rci is row state: a NaN there reaches every candidate cell of the row
        real = optimize_module.rate_rows

        def nan_at_88(layout, hw, tail=None):
            rows = real(layout, hw, tail)
            rows.rci[np.broadcast_to(layout.n_repeaters == 88, rows.rci.shape)] = np.nan
            return rows

        monkeypatch.setattr(optimize_module, "rate_rows", nan_at_88)
        res = optimize_rate(150.0, 10, BASE)
        assert (res.n_opt, res.m_opt) == (87, 25)
        assert math.isfinite(res.report.noisy_rate)
        with pytest.raises(InfeasibleError, match="finite rate") as err:
            optimize_rate(150.0, 10, BASE, constraints=Constraints(fixed_n=88))
        assert err.value.binding == ["rate"]

    def test_huge_bounds_stay_small(self):
        # 100,001 x 10**6 = 1e11 cells: the scan could not allocate them;
        # n_max = 100,000 is also the largest that SearchBounds accepts
        tracemalloc.start()
        try:
            res = optimize_rate(150.0, 10, BASE, SearchBounds(100_000, 1_000_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.n_opt, res.m_opt) == (88, 25)
        # tau_m covers every block up to m = 10**6 on every row
        assert res.evaluations == 100_001 * 1_000_000
        assert peak < 128 * 2 ** 20


class TestSeededSearch:
    # _last_true's guess sets how many rounds a search takes, never its answer

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_problems(), st.integers(0, 2 ** 32 - 1))
    @example(DIP, 0)  # a row whose base is under one step: c < 0
    @example((150.0, 10, BASE, SearchBounds(600, 2000), Constraints()), 1)
    @example((150.0, 10, BASE.updated(tau_m=3e-4), SearchBounds(600, 2000), Constraints()), 2)
    def test_any_guess_gives_the_exact_answer(self, problem, seed):
        rng = np.random.default_rng(seed)
        real = optimize_module._last_true

        def checked(pred, hi, guess):
            lo = real(pred, hi, guess)
            assert np.array_equal(lo, scan_last_true(pred, hi))
            for _ in range(3):
                assert np.array_equal(real(pred, hi, wrong_guesses(rng, hi)), lo)
            return lo

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(optimize_module, "_last_true", checked)
            outcome(optimize_rate, *problem)

    @staticmethod
    def count_rounds(monkeypatch) -> list:
        """Per _last_true call, the shape of each m its predicate tests."""
        real, calls = optimize_module._last_true, []

        def counted(pred, hi, guess):
            calls.append([])

            def counting(m):
                calls[-1].append(np.shape(m))
                return pred(m)
            return real(counting, hi, guess)

        monkeypatch.setattr(optimize_module, "_last_true", counted)
        return calls

    def test_the_seed_closes_every_row_in_one_round(self, monkeypatch):
        # one round of three cells a row: floor(guess) - 1, floor(guess) and
        # floor(guess) + 1
        calls = self.count_rounds(monkeypatch)
        # tau_m covers every block up to m_max, so lo_free is the only search
        optimize_rate(150.0, 10, BASE)
        assert calls == [[(3, 601, 1)]]
        calls.clear()
        sweep_distance(distance_grid(10.0, 500.0, 10.0), 10, BASE)  # the default sweep
        assert calls == [[(3, 6 * 601, 1)]] * 8 + [[(3, 2 * 601, 1)]]  # nine passes
        calls.clear()
        optimize_rate(150.0, 10, BASE.updated(tau_m=3e-4))  # tau_m binds
        assert calls == [[(3, 601, 1)]] * 2  # the memory cap and lo_free

    def test_a_memory_that_covers_exactly_m_max_takes_no_search(self, monkeypatch):
        # tau_m covers exactly an m_max block on the pass's longest-block
        # row, den_steps(m_max) = den1 + (m_max - 1.0), so the memory cap is
        # m_max on every row and lo_free is the only search; a tau_m one ulp
        # shorter leaves that row's cap below m_max, found by a search
        real, den1 = optimize_module.rate_rows, []

        def kept(layout, hw, tail=None):
            rows = real(layout, hw, tail)
            den1.append(rows.den1)
            return rows

        monkeypatch.setattr(optimize_module, "rate_rows", kept)
        optimize_rate(150.0, 10, BASE)
        bounds = SearchBounds()
        tau_m = (BASE.memory_margin * (den1[0].max() + (bounds.m_max - 1.0))
                 * BASE.timing.tau)
        calls = self.count_rounds(monkeypatch)
        res = optimize_rate(150.0, 10, BASE.updated(tau_m=tau_m), bounds)
        assert calls == [[(3, 601, 1)]]
        assert res.evaluations == 601 * bounds.m_max
        calls.clear()
        optimize_rate(150.0, 10, BASE.updated(tau_m=math.nextafter(tau_m, 0.0)), bounds)
        assert len(calls) == 2  # the memory cap and lo_free

    def test_figure_searches_take_pinned_rounds(self, monkeypatch):
        # every search of `figure all` on its default grid, in solve order:
        # fig2-fig6 with fig9's 1 us curves (M = 1, 5, 10), fig7 (M = 1, 5,
        # 10), fig8's four pinned solves and fig9's M = 50 at tau = 10 us,
        # nine passes each but fig8's one. Only the last misses rows: its
        # c < 0 rows are ROADMAP item 9's seed leftovers
        calls = self.count_rounds(monkeypatch)
        variants = [figures_module.curve_variant(curve, BASE)
                    for _, curves in figures_module.FIGURES.values() for curve in curves]
        optimize_module.sweep_variants(distance_grid(10.0, 500.0, 10.0), variants)
        assert [len(rounds) for rounds in calls] == [1] * 58 + [12] * 4 + [4] + [1] * 4
        assert all(rounds[0][0] == 3 for rounds in calls)
        # a bisection round tests one cell a row
        assert all(m == rounds[0][1:] for rounds in calls for m in rounds[1:])

    def test_rising_rows_end_where_the_formulas_say(self, monkeypatch):
        # lo_free, the last m in [1, memory cap] where P(m) = [h(m) > 1 or
        # u(lam m) > 0] holds, against P in Python floats on a pass of c < 0
        # rows. At n = 0 (a = 1) h <= 1 everywhere, so u's clause alone sets
        # that row's lo; its argmax is m = 1 whatever lo is
        l_km, mux, hw, bounds, _ = DIP
        real, searches = optimize_module._last_true, []

        def kept(pred, hi, guess):
            lo = real(pred, hi, guess)
            searches.append((pred.__name__, hi, lo))
            return lo

        monkeypatch.setattr(optimize_module, "_last_true", kept)
        optimize_rate(l_km, mux, hw, bounds)
        (hi, lo), = [(hi, lo) for name, hi, lo in searches if name == "rising"]
        ns = np.arange(bounds.n_max + 1)
        grid = rate_grid(ChainLayout(l_km, ns[:, None], mux), hw)
        assert (grid.den_steps < 1.0).all()  # c = den_steps(1) - 1 < 0 on every row
        for n in ns:
            a, lam = n + 1.0, -mux * float(grid.log1m_p[n, 0])
            c_lam = (float(grid.den_steps[n, 0]) - 1.0) * lam

            def p(m):
                x = lam * m
                return m * a * lam + c_lam * a > math.expm1(x) or \
                    math.exp(x) * (1.0 - x - c_lam) > 1.0

            assert lo[n, 0] == max((m for m in range(1, hi[n, 0] + 1) if p(m)), default=0)


@st.composite
def _sweeps(draw):
    """A _problems() draw with a short increasing distance list for its
    distance, and the rows one pass may hold (None: the module's own).

    Now and then the list ends in distances that raise: 1e300 km, whose
    T/tau is past the step bound (or whose pinned link count is past
    MAX_COUNT), and inf.
    """
    _, spatial_mux, hw, bounds, constraints = draw(_problems())
    ls = sorted(set(draw(st.lists(st.floats(-2.0, 2.5).map(lambda e: 10 ** e),
                                  min_size=2, max_size=6))))
    ls += draw(st.sampled_from([[]] * 7 + [[1e300], [math.inf], [1e300, math.inf]]))
    pass_rows = draw(st.none() | st.integers(1, 3 * (bounds.n_max + 1)))
    return ls, spatial_mux, hw, bounds, constraints, pass_rows


def scan_sweep(ls, spatial_mux, hw, bounds, constraints):
    """scan_optimum at each distance, as sweep_outcome reports a sweep: the
    first ValueError ends it, infeasible distances are their text."""
    rows = []
    for l_km in ls:
        out = outcome(scan_optimum, l_km, spatial_mux, hw, bounds, constraints)
        if out[0] == "value":
            return out
        rows.append((l_km,) + (("infeasible", out[2]) if out[0] == "infeasible" else out))
    return rows


def sweep_outcome(ls, spatial_mux, hw, bounds, constraints):
    try:
        rows = sweep_distance(ls, spatial_mux, hw, bounds, constraints)
    except ValueError as err:
        return "value", str(err)
    return [(row.l_km,) + (("infeasible", row.infeasible_reason) if row.result is None
                           else outcome(lambda: row.result)) for row in rows]


class TestSweepOracle:
    # rows are (distance, n) pairs solved a pass at a time; each row of the
    # sweep must be the exhaustive scan's answer at its distance
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_sweeps())
    # tau_m rules out the two longest distances only
    @example(([1.0, 30.0, 100.0, 300.0], 5, BASE.updated(tau_m=1e-3),
              SearchBounds(2, 50), Constraints(), 3))
    @example(([1.0, 30.0, 100.0, 300.0], 10, BASE, SearchBounds(20, 100),
              Constraints(fixed_l0_km=30.0), 1))
    @example(([1.0, 150.0, 1e300, math.inf], 10, BASE, SearchBounds(20, 100),
              Constraints(tau_min=2e-6), None))
    @example(([1.0, 150.0, 1e299, 1e300], 10, BASE, SearchBounds(20, 100),
              Constraints(), 21))
    @example(([1.0, 150.0, 1e300, math.inf], 10, BASE, SearchBounds(20, 100),
              Constraints(fixed_l0_km=5.0), 1))
    # a row below one step whose m = 2 beats m = 1 only through u > 0
    @example(([1.0, 4.9952945060859575, 20.0], 10,
              BASE.updated(tau=1.9518353259398698e-05, tau_g=2.507745852277375e-07,
                           tau_o=2.8710873227992232e-05, eta_c=0.5376950446174826,
                           eps_g=0.0, f0=1.0),
              SearchBounds(2, 300), Constraints(fixed_n=3), None))
    # continuous noise at n = 2, in passes of one row and of three: numpy's
    # power loop takes x ** 2 as x * x or as pow by its exponent's size
    @example(([1.0, 30.0, 100.0], 10, BASE.updated(eps_g=0.0037, f0=1.0 - 0.006039),
              SearchBounds(2, 100), Constraints(fixed_n=2), 1))
    @example(([1.0, 30.0, 100.0], 10, BASE.updated(eps_g=0.0037, f0=1.0 - 0.006039),
              SearchBounds(2, 100), Constraints(fixed_n=2), None))
    def test_rows_match_the_scan_at_each_distance(self, case):
        *problem, pass_rows = case
        with pytest.MonkeyPatch.context() as mp:
            if pass_rows is not None:
                mp.setattr(optimize_module, "PASS_ROWS", pass_rows)
            assert sweep_outcome(*problem) == scan_sweep(*problem)

    def test_passes_stay_small(self, monkeypatch):
        # three distances at the largest n_max: a pass each
        rows, blocks = [], []  # rows per row stage, and each block stage's (rows, columns)
        real_rows, real_blocks = optimize_module.rate_rows, optimize_module.rate_blocks

        def counting(layout, hw, tail=None):
            rows.append(len(layout.n_repeaters))
            return real_rows(layout, hw, tail)

        def counting_blocks(rows_state, layout, time_mux, hw):
            blocks.append(np.shape(time_mux))
            return real_blocks(rows_state, layout, time_mux, hw)

        monkeypatch.setattr(optimize_module, "rate_rows", counting)
        # under both names, so that a rate_grid call's block stage counts too
        monkeypatch.setattr(rates_module, "rate_blocks", counting_blocks)
        monkeypatch.setattr(optimize_module, "rate_blocks", counting_blocks)
        tracemalloc.start()
        try:
            sweep = sweep_distance([100.0, 150.0, 200.0], 10, BASE,
                                   SearchBounds(100_000, 1_000_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(rows) == optimize_module.MAX_SEARCH_N + 1
        assert (sweep[1].result.n_opt, sweep[1].result.m_opt) == (88, 25)
        assert all(row.result.evaluations == 100_001 * 1_000_000 for row in sweep)
        assert peak < 128 * 2 ** 20
        # 601 rows a distance: six distances to a pass, one row stage each,
        # and one block stage, at the two candidate columns lo and lo + 1 only
        rows.clear()
        blocks.clear()
        tracemalloc.start()
        try:
            sweep_distance([10.0 + 50 * i for i in range(10)], 10, BASE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == [6 * 601, 4 * 601]
        assert blocks == [(6 * 601, 2), (4 * 601, 2)]
        assert 6 * 601 <= optimize_module.PASS_ROWS
        assert peak < 2 * 2 ** 20
        rows.clear()
        blocks.clear()
        optimize_rate(150.0, 10, BASE)
        assert rows == [601]
        assert blocks == [(601, 2)]
        blocks.clear()
        optimize_rate(*DIP)  # a row with c < 0: m = 1 is a candidate too
        assert blocks == [(1, 3)]


def assert_reports_are_scalar_evaluations(ls, spatial_mux, hw, results):
    """Each result's whole report is evaluate_rate's at its (n_opt, m_opt)."""
    for l_km, res in zip(ls, results):
        if res is not None:
            layout = ChainLayout(l_km, res.n_opt, spatial_mux, res.m_opt)
            assert res.report.to_dict() == evaluate_rate(layout, hw).to_dict()


class TestReports:
    # the optimizer reports its optima from rate_grid cells, evaluate_rate
    # from its own 1 x 1 call: every field must agree, not only the rate
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(_problems())
    @example(DIP)
    def test_optimum_report_is_the_scalar_evaluation(self, problem):
        l_km, spatial_mux, hw, bounds, constraints = problem
        try:
            res = optimize_rate(*problem)
        except (InfeasibleError, ValueError):
            return
        assert_reports_are_scalar_evaluations([l_km], spatial_mux, hw, [res])

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_sweeps())
    def test_sweep_reports_are_scalar_evaluations(self, case):
        ls, spatial_mux, hw, bounds, constraints, pass_rows = case
        with pytest.MonkeyPatch.context() as mp:
            if pass_rows is not None:
                mp.setattr(optimize_module, "PASS_ROWS", pass_rows)
            try:
                rows = sweep_distance(ls, spatial_mux, hw, bounds, constraints)
            except ValueError:
                return
        assert_reports_are_scalar_evaluations(
            ls, spatial_mux, hw, [row.result for row in rows])


@st.composite
def _variant_sets(draw):
    """A _sweeps() draw whose distances, bounds and pass size hold for the
    variants of one sweep_variants call. Their row keys are the draw's own
    and any of: a second spatial_mux, tau_g halved, and a fixed_n in place
    of the draw's pinning. Each key takes 1-4 noise settings x 1-3
    (n_o_max, n_m_max) caps, either of which may be None, and the variants
    come in a drawn order, so groups interleave."""
    ls, spatial_mux, hw, bounds, constraints, pass_rows = draw(_sweeps())
    keys = [(spatial_mux, hw, constraints)]
    if draw(st.booleans()):
        keys.append((draw(st.sampled_from([1, 5, 10, 50])), hw, constraints))
    if draw(st.booleans()):
        keys.append((spatial_mux, hw.updated(tau_g=hw.timing.tau_g / 2), constraints))
    if draw(st.booleans()):
        keys.append((spatial_mux, hw, replace(constraints, fixed_l0_km=None,
                                              fixed_n=draw(st.integers(0, 60)))))
    noises = draw(st.lists(st.tuples(st.sampled_from([0.0, 1e-4, 1e-3, 0.05, 0.2]),
                                     st.floats(-6.0, -2.0)), min_size=1, max_size=4))
    caps = draw(st.lists(st.tuples(st.none() | st.integers(1, 10000),
                                   st.none() | st.integers(1, 30000)),
                         min_size=1, max_size=3))
    variants = [(mux, key_hw.updated(eps_g=eps_g, f0=1.0 - 10 ** f0_exp),
                 replace(key_cons, n_o_max=n_o_max, n_m_max=n_m_max))
                for mux, key_hw, key_cons in keys
                for eps_g, f0_exp in noises for n_o_max, n_m_max in caps]
    return ls, draw(st.permutations(variants)), bounds, pass_rows


class TestSharedRowSolve:
    # variants that share a row key share one row search, and a call may mix
    # keys; each variant must get the rows its own sweep_distance gives,
    # field by field, and a failing call the first failing variant's error
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_variant_sets())
    # n_o_max = 40 leaves 15 of the 61 rows at 150 km (cap = 0 on the rest)
    @example(([50.0, 150.0],
              [(10, hw, Constraints(n_o_max=n_o_max)) for hw in (BASE, BASE.updated(eps_g=1e-3))
               for n_o_max in (None, 40)],
              SearchBounds(60, 200), 61))
    @example(([1.0, 30.0, 100.0, 300.0],
              [(5, BASE.updated(tau_m=1e-3, eps_g=eps_g), Constraints(n_m_max=n_m_max))
               for eps_g in (0.0, 1e-4, 0.2) for n_m_max in (None, 30)],
              SearchBounds(2, 50), 3))
    # four row keys, interleaved
    @example(([50.0, 150.0],
              [(10, BASE, None), (5, BASE, Constraints(n_o_max=40)),
               (10, BASE.updated(tau_g=2e-6), None), (10, BASE, Constraints(fixed_n=5)),
               (5, BASE.updated(eps_g=1e-3), None), (10, BASE.updated(eps_g=1e-3), None)],
              SearchBounds(60, 200), None))
    # only the second key fails: 150 km in 1e-9 km links is past MAX_COUNT
    @example(([50.0, 150.0], [(10, BASE, None), (10, BASE, Constraints(fixed_l0_km=1e-9))],
              SearchBounds(60, 200), None))
    # spatial_mux = 0 is not a count, and its variant fails in its own turn:
    # after the first variant's error at inf km in one order, before it in the other
    @example(([50.0, math.inf], [(10, BASE, None), (0, BASE, None)], SearchBounds(60, 200), None))
    @example(([50.0, math.inf], [(0, BASE, None), (10, BASE, None)], SearchBounds(60, 200), None))
    # a repeated variant, between two others
    @example(([50.0, 150.0],
              [(10, BASE, Constraints(n_o_max=40)), (5, BASE, None),
               (10, BASE, Constraints(n_o_max=40))],
              SearchBounds(60, 200), None))
    # one variant given with None, and again with Constraints()
    @example(([50.0, 150.0], [(10, BASE, None), (10, BASE.updated(eps_g=1e-3), None),
                              (10, BASE, Constraints())],
              SearchBounds(60, 200), None))
    def test_each_variant_is_its_own_sweep(self, case):
        ls, variants, bounds, pass_rows = case
        with pytest.MonkeyPatch.context() as mp:
            if pass_rows is not None:
                mp.setattr(optimize_module, "PASS_ROWS", pass_rows)
            alone = []
            for mux, hw, cons in variants:
                try:
                    alone.append(sweep_distance(ls, mux, hw, bounds, cons))
                except ValueError as err:
                    alone.append(err)
            errors = [str(a) for a in alone if isinstance(a, ValueError)]
            if errors:
                with pytest.raises(ValueError) as err:
                    optimize_module.sweep_variants(ls, variants, bounds)
                assert str(err.value) == errors[0]
                return
            shared = optimize_module.sweep_variants(ls, variants, bounds)
        assert shared == alone
        for (mux, hw, _), rows in zip(variants, shared):
            assert_reports_are_scalar_evaluations(ls, mux, hw, [row.result for row in rows])

    def test_each_distinct_variant_is_solved_once(self, monkeypatch):
        solved, real = [], optimize_module._solve

        def recording(ls, bounds, group):
            solved.append(group)
            return real(ls, bounds, group)

        monkeypatch.setattr(optimize_module, "_solve", recording)
        noisy = BASE.updated(eps_g=1e-3)
        variants = [(10, BASE, None), (5, BASE, None), (10, noisy, None),
                    (10, BASE, Constraints()), (5, BASE, Constraints(n_o_max=40)),
                    (10, noisy, None), (5, BASE, Constraints(n_o_max=40))]
        rows = optimize_module.sweep_variants([50.0, 150.0], variants, SearchBounds(60, 200))
        # one row key: a single solve, over both spatial_mux values
        assert solved == [[(10, BASE, Constraints()), (5, BASE, Constraints()),
                           (10, noisy, Constraints()), (5, BASE, Constraints(n_o_max=40))]]
        assert rows[0] == rows[3] and rows[2] == rows[5] and rows[4] == rows[6]

    def test_a_step_count_error_names_the_callers_variant(self):
        # at 1e10 km, T/tau is past 2**31 at tau = 10 us but not at 100 us;
        # the repeated variant before the failing one is solved once
        slow, fast = BASE.updated(tau=100e-6, tau_o=5e-3), BASE.updated(tau=10e-6, tau_o=5e-3)
        variants = [(1, slow, None), (1, slow, Constraints()), (1, fast, None)]
        with pytest.raises(StepCountError) as err:
            optimize_module.sweep_variants([1e10], variants, SearchBounds(20, 50))
        assert err.value.variant == 2


class TestTimeRescaling:
    @pytest.mark.parametrize("c", [3.0, 10.0])
    def test_argmax_invariant_and_rate_scales(self, c):
        # stretch every clock and the refractive index together: the step
        # counts are unchanged, so only the seconds-per-step prefactor moves
        hw2 = BASE.updated(
            tau=BASE.timing.tau * c,
            tau_g=BASE.timing.tau_g * c,
            tau_o=BASE.timing.tau_o * c,
            tau_m=BASE.timing.tau_m * c,
            refractive_index=BASE.optical.refractive_index * c,
        )
        bounds = SearchBounds(n_max=80, m_max=300)
        r1 = optimize_rate(40.0, 5, BASE, bounds=bounds)
        r2 = optimize_rate(40.0, 5, hw2, bounds=bounds)
        assert (r1.n_opt, r1.m_opt) == (r2.n_opt, r2.m_opt)
        assert r1.report.regime is r2.report.regime
        assert r2.report.noisy_rate == pytest.approx(
            r1.report.noisy_rate / c, rel=1e-9)


def assert_rows_equal_direct_calls(ls, rows):
    assert len(rows) == len(ls)
    for l_km, row in zip(ls, rows):
        res = optimize_rate(l_km, 10, BASE)
        assert row.l_km == l_km
        assert (row.result.n_opt, row.result.m_opt) == (res.n_opt, res.m_opt)
        assert row.result.report.noisy_rate == res.report.noisy_rate
        eta = fiber_transmissivity(BASE.optical.alpha_db_per_km, l_km)
        assert row.plob == plob_bound(eta, 10, BASE.timing.tau)


class TestSweep:
    def test_rows_and_plob_column(self):
        rows = sweep_distance([50.0, 100.0, 150.0], 10, BASE)
        assert [row.l_km for row in rows] == [50.0, 100.0, 150.0]
        assert all(row.infeasible_reason is None for row in rows)
        rates = [row.result.report.noisy_rate for row in rows]
        assert rates[0] > rates[1] > rates[2]
        plobs = [row.plob for row in rows]
        assert plobs[0] > plobs[1] > plobs[2]
        assert plobs[2] == pytest.approx(14434.168696687174, rel=1e-12)
        assert rows[2].result.report.noisy_rate == pytest.approx(
            20824.552019187, rel=1e-9)

    def test_rows_equal_direct_calls(self):
        ls = [50.0, 100.0, 150.0, 200.0, 250.0]
        assert_rows_equal_direct_calls(ls, sweep_distance(ls, 10, BASE))

    # sweeps run on the calling thread and keep no state between calls, so
    # a caller's own threads must not show in the rows
    def test_threading_is_invisible(self):
        ls = [50.0, 100.0, 150.0]
        with ThreadPoolExecutor(max_workers=4) as pool:
            runs = list(pool.map(lambda _: sweep_distance(ls, 10, BASE), range(4)))
        for rows in runs + [sweep_distance(ls, 10, BASE)]:
            for a, b in zip(rows, runs[0]):
                assert a.l_km == b.l_km
                assert a.plob == b.plob
                assert (a.result.n_opt, a.result.m_opt) == (b.result.n_opt, b.result.m_opt)
                assert a.result.report.noisy_rate == b.result.report.noisy_rate

    # one point per task on a caller's pool of one thread per core
    @pytest.mark.parametrize("cores", [4, 8, 1], ids=["4-cores", "8-cores", "1-core"])
    def test_pool_rows_equal_direct_calls(self, cores):
        ls = [50.0, 100.0, 150.0, 200.0, 250.0]
        with ThreadPoolExecutor(max_workers=cores) as pool:
            rows = [row for rs in pool.map(lambda l: sweep_distance([l], 10, BASE), ls)
                    for row in rs]
        assert_rows_equal_direct_calls(ls, rows)

    def test_infeasible_points_become_flagged_rows(self):
        rows = sweep_distance([100.0, 150.0], 10, BASE,
                              constraints=Constraints(n_o_max=5))
        for row in rows:
            assert row.result is None
            assert "n_o_max" in row.infeasible_reason
            assert math.isfinite(row.plob)

    LS = [50.0, 150.0, 400.0]
    BOUNDS = SearchBounds(60, 200)
    # unpinned, pinned, capped and (n_o_max = 5) infeasible everywhere
    VARIANTS = [(10, BASE, None), (5, BASE.updated(eps_g=1e-3), None),
                (10, BASE, Constraints(fixed_l0_km=20.0)),
                (10, BASE.updated(eps_g=1e-4), Constraints(n_o_max=125)),
                (5, BASE, Constraints(n_m_max=60)), (10, BASE, Constraints(n_o_max=5))]

    @staticmethod
    def count_solves(monkeypatch) -> list:
        """Each _solve call's variants."""
        calls, real = [], optimize_module._solve

        def counting(ls, bounds, group):
            calls.append(group)
            return real(ls, bounds, group)

        monkeypatch.setattr(optimize_module, "_solve", counting)
        return calls

    def test_a_repeated_call_solves_again_to_equal_rows(self, monkeypatch):
        calls = self.count_solves(monkeypatch)
        first = optimize_module.sweep_variants(self.LS, self.VARIANTS, self.BOUNDS)
        # one solve per row key: five variants over two spatial_mux, then the pinned one
        assert [[v[0] for v in group] for group in calls] == [[10, 5, 10, 5, 10], [10]]
        again = optimize_module.sweep_variants(self.LS, self.VARIANTS, self.BOUNDS)
        assert len(calls) == 4
        assert again == first
        assert all(row.result is None for row in again[-1])
        assert any(row.result is not None for rows in again for row in rows)

    def test_two_equal_calls_make_two_solves(self, monkeypatch):
        calls = self.count_solves(monkeypatch)
        for _ in range(2):
            optimize_module.sweep_variants(self.LS, [(10, BASE, None)], self.BOUNDS)
        assert calls == [[(10, BASE, Constraints())]] * 2

    def test_each_caller_gets_its_own_lists(self):
        rows = optimize_module.sweep_variants(self.LS, [(10, BASE, None), (10, BASE, None)],
                                              self.BOUNDS)
        assert rows[0] == rows[1]
        assert rows[0] is not rows[1]
        expected = list(rows[0])
        rows[0].clear()
        rows[1][0] = None
        assert optimize_module.sweep_variants(self.LS, [(10, BASE, None)],
                                              self.BOUNDS) == [expected]

    def test_lossless_fiber_has_no_plob_bound(self):
        # at alpha = 0 the transmissivity is 1 at every distance: the bound
        # is unbounded, so the chain never beats it
        lossless = BASE.updated(alpha_db_per_km=0.0)
        rows = sweep_distance([50.0, 150.0], 10, lossless, self.BOUNDS)
        assert [row.plob for row in rows] == [math.inf, math.inf]
        assert all(row.result is not None for row in rows)
        assert crossover_distance(10, lossless, self.BOUNDS, l_min_km=50.0, l_max_km=150.0,
                                  l_step_km=50.0) is None

    def test_rejects_unsorted_or_empty_grids(self):
        with pytest.raises(ValueError):
            sweep_distance([100.0, 50.0], 10, BASE)
        with pytest.raises(ValueError):
            sweep_distance([], 10, BASE)
        with pytest.raises(ValueError):
            sweep_distance([50.0, 50.0], 10, BASE)


class TestSolvedSweeps:
    # sweep_variants keeps nothing (see TestSweep): the sweeps a process
    # solves again are held by the figure command's store, whose rows are
    # distances x distinct variants; these check its bound at a few rows
    BOUNDS = SearchBounds(20, 50)

    def sweep(self, *muxes: int, ls=(50.0, 150.0)) -> dict:
        return cli_module._figure_sweeps(list(ls), [(mux, BASE, None) for mux in muxes],
                                         self.BOUNDS)

    @staticmethod
    def held_rows() -> int:
        return sum(len(grid) * len(variants) for grid, _, variants in cli_module._held)

    def test_held_rows_stay_within_the_bound(self, monkeypatch):
        monkeypatch.setattr(cli_module, "SOLVED_ROWS", 6)
        calls = TestSweep.count_solves(monkeypatch)
        for mux in (1, 5, 10, 1):  # exactly the bound: the first is still held
            self.sweep(mux)
        assert [group[0][0] for group in calls] == [1, 5, 10]
        assert self.held_rows() == 6
        self.sweep(50)  # 1 was read again, so 5 is the oldest
        for mux in (10, 1, 50, 5):  # 5 was dropped; solving it drops 10
            self.sweep(mux)
        assert [group[0][0] for group in calls] == [1, 5, 10, 50, 5]
        assert self.held_rows() == 6
        # one key per set of variants, whatever their order and repeats: four
        # rows, which drop the two oldest calls, 1 and 50
        self.sweep(1, 5, 1)
        self.sweep(5, 1)
        assert len(calls) == 6
        assert self.held_rows() == 6
        self.sweep(10)  # drops 5
        self.sweep(50)  # drops {1, 5}'s four rows, and no more
        self.sweep(10)
        assert len(calls) == 8
        assert self.held_rows() == 4
        for mux in (1, 5, 100):  # one row each: the seventh drops 50, the oldest
            self.sweep(mux, ls=(50.0,))
        assert self.held_rows() == 5
        self.sweep(10)
        assert len(calls) == 11

    @pytest.mark.parametrize("cleared", [False, True])
    def test_an_empty_cache_holds_a_full_bound(self, monkeypatch, cleared):
        # a new store, and an emptied one, hold no rows: calls of
        # SOLVED_ROWS rows in all are every one held
        monkeypatch.setattr(cli_module, "SOLVED_ROWS", 6)
        monkeypatch.setattr(cli_module, "_held", {})
        if cleared:
            self.sweep(50)
            cli_module._held.clear()
        calls = TestSweep.count_solves(monkeypatch)
        for mux in (1, 5, 10, 1):  # three calls of two rows, then the first again
            self.sweep(mux)
        assert [group[0][0] for group in calls] == [1, 5, 10]
        assert self.held_rows() == 6


class TestCrossover:
    def test_headline_multiplexing(self):
        assert crossover_distance(10, BASE) == 142.0

    def test_single_mode(self):
        assert crossover_distance(1, BASE) == 133.0

    def test_more_multiplexing_crosses_later(self):
        # higher M lifts the repeater rate, but it lifts the per-pulse PLOB
        # benchmark by the same factor and the benchmark wins at short range
        assert crossover_distance(1, BASE) < crossover_distance(10, BASE)

    @pytest.fixture
    def probed(self, monkeypatch):
        """The distances crossover_distance hands optimize_rate, in order."""
        probed, optimize_rate = [], optimize_module.optimize_rate

        def recording(l_km, *args):
            probed.append(l_km)
            return optimize_rate(l_km, *args)

        monkeypatch.setattr(optimize_module, "optimize_rate", recording)
        return probed

    @pytest.mark.parametrize("spatial_mux, crossover", [(1, 133.0), (10, 142.0)])
    def test_no_distance_is_optimized_twice(self, probed, spatial_mux, crossover):
        # the bisection has tested the distance below its answer and found it
        # losing, so no distance needs a second optimize_rate
        assert crossover_distance(spatial_mux, BASE) == crossover
        assert len(probed) == len(set(probed))

    # the grid's last distance first, then a bisection of the other 490 down
    # to one: 9 halvings; a one-point grid is its last distance alone
    @pytest.mark.parametrize("grid, calls, start", [
        ((), 10, [500.0, 255.0, 132.0]),
        ((150.0, 150.0), 1, [150.0]),
    ], ids=["default-grid", "one-point"])
    def test_probe_count(self, probed, grid, calls, start):
        crossover_distance(10, BASE, None, *grid)
        assert len(probed) == calls
        assert probed[:3] == start

    # a grid that starts at or past the crossover answers its first distance:
    # the bisection must include index 0
    @pytest.mark.parametrize("l_min_km", [142.0, 200.0])
    def test_grid_starting_past_the_crossover_answers_its_start(self, l_min_km):
        assert crossover_distance(10, BASE, l_min_km=l_min_km) == l_min_km

    def test_hopeless_hardware_never_crosses(self):
        assert crossover_distance(10, BASE.updated(eps_g=0.2)) is None

    def test_no_feasible_probe_never_crosses(self):
        # a 1 us memory covers no block at any probed distance
        assert crossover_distance(10, BASE.updated(tau_m=1e-6)) is None

    # the bisection's answer is the first win of a scan of its whole grid,
    # and the wins are a suffix of that grid
    @pytest.mark.parametrize("spatial_mux, hw, bounds", [
        (1, BASE, SearchBounds()),
        (5, BASE, SearchBounds()),
        (10, BASE.updated(tau_g=10e-6), SearchBounds()),
        (10, BASE.updated(eps_g=1e-3, f0=0.999), SearchBounds(200, 500)),
    ], ids=["M=1", "M=5", "slow-gates", "noisy-gates"])
    def test_bisection_is_the_first_win_of_a_scan(self, spatial_mux, hw, bounds):
        grid = np.arange(10.0, 500.0 + 0.5 * 5.0, 5.0)
        wins = [row.result is not None and row.result.report.noisy_rate > row.plob
                for row in sweep_distance(grid.tolist(), spatial_mux, hw, bounds)]
        assert True in wins
        first = wins.index(True)
        assert all(wins[first:])
        assert crossover_distance(spatial_mux, hw, bounds, 10.0, 500.0, 5.0) == grid[first]

    def test_answer_stays_within_l_max(self):
        # the grid is 10, 15, ..., 140 km; 145 km would pass l_max_km
        assert crossover_distance(10, BASE, SearchBounds(), 10.0, 143.0, 5.0) is None

    @pytest.mark.parametrize("grid", [
        "l_step_km=0", "l_step_km=-1", "l_step_km=nan", "l_step_km=inf",
        "l_min_km=0", "l_min_km=-5", "l_min_km=nan",
        "l_max_km=inf", "l_max_km=-inf", "l_max_km=5",
        "l_step_km=1e-6",
        "l_step_km=1e-300,l_min_km=1e-300,l_max_km=1e308",
    ])
    def test_bad_grid_names_the_parameter(self, grid):
        # the first parameter listed is the one the error must name
        kw = {k: float(v) for k, v in (p.split("=") for p in grid.split(","))}
        with pytest.raises(ValueError, match=f"^{next(iter(kw))}"):
            crossover_distance(10, BASE, **kw)

    def test_grid_cap_is_exact(self):
        # the last distance is checked first, and hopeless hardware never wins
        hopeless = BASE.updated(eps_g=0.2)
        cap = optimize_module.MAX_L_POINTS
        assert crossover_distance(10, hopeless, l_min_km=1.0, l_max_km=float(cap),
                                  l_step_km=1.0) is None
        with pytest.raises(ValueError, match="^l_step_km=1 is too small"):
            crossover_distance(10, hopeless, l_min_km=1.0, l_max_km=cap + 1.0,
                               l_step_km=1.0)
