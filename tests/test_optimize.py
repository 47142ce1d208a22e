"""Grid-search optimizer, distance sweep, and crossover tests.

Frozen rates below were cross-checked against a 40-digit mpmath evaluation of
the closed-form rate at the reported argmax, so the grid search is being
tested against the formulas rather than against its own output.
"""
import math
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

import ionrep.optimize as optimize_module
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

BASE = HardwareProfile()


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

    def test_fixed_n_and_fixed_l0_conflict(self):
        with pytest.raises(ValueError):
            Constraints(fixed_n=10, fixed_l0_km=15.0).validate()

    @pytest.mark.parametrize("cons, match", [
        (Constraints(fixed_n=2 ** 30 + 1), "fixed_n must be in"),
        (Constraints(fixed_l0_km=1e-300), "gives 1.5e\\+302 links"),
        (Constraints(fixed_l0_km=5e-324), "gives inf links"),
    ])
    def test_pinned_repeater_count_is_bounded(self, cons, match):
        with pytest.raises(ValueError, match=match):
            optimize_rate(150.0, 10, BASE, constraints=cons)

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

    def test_threading_is_invisible(self, monkeypatch):
        rows = []
        for cores in (1, 4):
            monkeypatch.setattr(optimize_module.os, "sched_getaffinity",
                                lambda pid: set(range(cores)), raising=False)
            rows.append(sweep_distance([50.0, 100.0, 150.0], 10, BASE))
        for a, b in zip(*rows):
            assert a.l_km == b.l_km
            assert a.plob == b.plob
            assert (a.result.n_opt, a.result.m_opt) == (b.result.n_opt, b.result.m_opt)
            assert a.result.report.noisy_rate == b.result.report.noisy_rate

    # usable cores -> pool widths: capped at the five points; one core
    # runs them on the calling thread
    @pytest.mark.parametrize("cores, widths", [(4, [4]), (8, [5]), (1, [])],
                             ids=["4-cores", "8-cores", "1-core"])
    def test_pool_rows_equal_direct_calls(self, monkeypatch, cores, widths):
        monkeypatch.setattr(optimize_module.os, "sched_getaffinity",
                            lambda pid: set(range(cores)), raising=False)
        made = []

        class Pool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                made.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(optimize_module, "ThreadPoolExecutor", Pool)
        ls = [50.0, 100.0, 150.0, 200.0, 250.0]
        rows = sweep_distance(ls, 10, BASE)
        assert made == widths
        for l_km, row in zip(ls, rows):
            res = optimize_rate(l_km, 10, BASE)
            assert row.l_km == l_km
            assert (row.result.n_opt, row.result.m_opt) == (res.n_opt, res.m_opt)
            assert row.result.report.noisy_rate == res.report.noisy_rate
            eta = fiber_transmissivity(BASE.optical.alpha_db_per_km, l_km)
            assert row.plob == plob_bound(eta, 10, BASE.timing.tau)

    def test_infeasible_points_become_flagged_rows(self):
        rows = sweep_distance([100.0, 150.0], 10, BASE,
                              constraints=Constraints(n_o_max=5))
        for row in rows:
            assert row.result is None
            assert "n_o_max" in row.infeasible_reason
            assert math.isfinite(row.plob)

    def test_rejects_unsorted_or_empty_grids(self):
        with pytest.raises(ValueError):
            sweep_distance([100.0, 50.0], 10, BASE)
        with pytest.raises(ValueError):
            sweep_distance([], 10, BASE)
        with pytest.raises(ValueError):
            sweep_distance([50.0, 50.0], 10, BASE)


class TestCrossover:
    def test_headline_multiplexing(self):
        assert crossover_distance(10, BASE) == 142.0

    def test_single_mode(self):
        assert crossover_distance(1, BASE) == 133.0

    def test_more_multiplexing_crosses_later(self):
        # higher M lifts the repeater rate, but it lifts the per-pulse PLOB
        # benchmark by the same factor and the benchmark wins at short range
        assert crossover_distance(1, BASE) < crossover_distance(10, BASE)

    def test_hopeless_hardware_never_crosses(self):
        assert crossover_distance(10, BASE.updated(eps_g=0.2)) is None

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
