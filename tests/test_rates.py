"""Regime classification, denominators, ion budgets, and rate formulas."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ionrep.mcsim import SimConfig
from ionrep.model import (
    C_VACUUM_KM_S,
    ChainLayout,
    DerivedTiming,
    HardwareProfile,
    InfeasibleError,
    Regime,
    TimingParams,
    classification_path,
    classify_regime,
)
from ionrep.rates import (
    block_denominator,
    block_success_prob,
    derive_timing,
    evaluate_rate,
    fiber_transmissivity,
    ion_budgets,
    ion_caps,
    plob_bound,
    rate_grid,
    rate_rows,
    reference_rates,
    slot_events,
    waits_for_herald,
)

BASE = HardwareProfile()
US = 1e-6


def layout_for(l_km=150.0, n=87, m_spatial=10, m_time=22):
    return ChainLayout(total_distance_km=l_km, n_repeaters=n,
                       spatial_mux=m_spatial, time_mux=m_time)


def l_km_for_herald_steps(k: float, n_ref=1.47, tau=US) -> float:
    """Link length whose one-way heralding latency is k clock steps."""
    return k * tau * C_VACUUM_KM_S / n_ref


# the regimes whose comm ions wait for the herald; A, B1 and C1 gate blind
WAITS = {Regime.B2, Regime.C2}

# (tau_g, tau_o, T) in microseconds, with T inside each regime's window
WINDOWS = {Regime.A: (1.0, 50.0, 80.0), Regime.B1: (1.0, 50.0, 49.5),
           Regime.B2: (1.0, 50.0, 8.36), Regime.C2: (1.0, 50.0, 0.5),
           Regime.C1: (2.0, 2.5, 1.0)}


def denominator_steps(regime: Regime, k_steps: float, m: int, j_steps: float) -> float:
    return float(block_denominator(regime in WAITS, k_steps, m, j_steps))


def ion_requirements(layout: ChainLayout, timing: DerivedTiming, regime: Regime):
    """(n_o, n_m, n_m_is_upper_bound) of ion_budgets in the regime's group."""
    waits = regime in WAITS
    n_o, n_m = ion_budgets(waits, timing.k_steps, timing.j_steps,
                           layout.spatial_mux, layout.time_mux)
    return int(n_o), int(n_m), not waits


class TestClassification:
    def test_boundary_t_equals_tau_o(self):
        t = TimingParams(tau_o=50 * US, tau_g=1 * US)
        assert classify_regime(t, 50 * US) is Regime.A
        assert classify_regime(t, 51 * US) is Regime.A

    def test_operating_point_is_b2(self):
        t = TimingParams(tau_o=50 * US, tau_g=1 * US)
        assert classify_regime(t, 8.36 * US) is Regime.B2

    def test_short_link_is_c2(self):
        t = TimingParams(tau_o=50 * US, tau_g=1 * US)
        assert classify_regime(t, 0.5 * US) is Regime.C2

    def test_b1_window(self):
        # herald lands inside (tau_o - tau_g, tau_o)
        t = TimingParams(tau_o=50 * US, tau_g=1 * US)
        assert classify_regime(t, 49.5 * US) is Regime.B1
        # boundary tau_o = T + tau_g belongs to the wait variant
        assert classify_regime(t, 49.0 * US) is Regime.B2

    def test_c1_window(self):
        t = TimingParams(tau_o=2.5 * US, tau_g=2 * US)
        assert classify_regime(t, 1.0 * US) is Regime.C1

    def test_partition_is_total(self):
        t = TimingParams(tau_o=50 * US, tau_g=1 * US)
        for herald_us in (0.01, 0.5, 0.999, 1.0, 2.0, 48.9, 49.0, 49.5, 50.0, 80.0):
            classify_regime(t, herald_us * US)

    @pytest.mark.parametrize("regime", list(Regime))
    def test_group_table_matches_formula_groups(self, regime):
        tau_g, tau_o, t = (v * US for v in WINDOWS[regime])
        assert classify_regime(TimingParams(tau_g=tau_g, tau_o=tau_o), t) is regime
        assert bool(waits_for_herald(t, tau_g, tau_o)) == (regime in WAITS)

    def test_path_narrates_branches(self):
        t = TimingParams(tau_o=50 * US, tau_g=1 * US)
        path = classification_path(t, 8.36 * US)
        assert path[-1] == "regime B2"
        assert any("T >= tau_o" in s for s in path)
        assert any("tau_o >= T + tau_g" in s for s in path)


class TestDenominators:
    def test_formula_values(self):
        assert denominator_steps(Regime.A, 5.0, 10, 1.0) == 16.0
        assert denominator_steps(Regime.B1, 5.0, 10, 1.0) == 16.0
        assert denominator_steps(Regime.B2, 5.0, 10, 1.0) == 17.0
        assert denominator_steps(Regime.C2, 5.0, 10, 1.0) == 17.0
        # C1 means T < tau_g, so k <= j: the herald lands inside the gate
        assert denominator_steps(Regime.C1, 0.5, 10, 1.0) == 12.0

    @given(k=st.floats(0.01, 100), m=st.integers(1, 500), j=st.floats(0.01, 20))
    def test_ordering(self, k, m, j):
        a = denominator_steps(Regime.A, k, m, j)
        b2 = denominator_steps(Regime.B2, k, m, j)
        # C1 means T < tau_g, so its point has k <= j
        c1 = denominator_steps(Regime.C1, min(k, j), m, j)
        assert c1 <= b2
        assert a <= b2

    def test_two_groups_equal_the_three_branch_reference(self):
        # the reference picks among k + 2j (A, B1), k + 3j (B2, C2) and 3j
        # (C1) with two masks; one branch on waits_for_herald gives the same
        # floats, also with T one ulp either side of tau_g and T = tau_o - tau_g
        def reference(t, tau_g, tau_o, k, m, j):
            past_o, past_g = t >= tau_o, t >= tau_g
            waits = ~past_o & (tau_o >= t + tau_g)
            base = np.where(past_g & ~waits, k + 2.0 * j,
                            np.where(waits, k + 3.0 * j, 3.0 * j))
            return base + (m - 1.0)

        rng = np.random.default_rng(18)
        cells = 200_000
        tau = 10.0 ** rng.uniform(-9, -5, cells)
        tau_g = 10.0 ** rng.uniform(-7, -4, cells)
        tau_o = tau_g * 10.0 ** rng.uniform(0.0, 2.5, cells)
        t = 10.0 ** rng.uniform(-8, -3, cells)
        edge = rng.integers(0, 5, cells)
        t = np.select([edge == 1, edge == 2, edge == 3],
                      [np.nextafter(tau_g, np.inf), np.nextafter(tau_g, -np.inf),
                       tau_o - tau_g], t)
        m = rng.integers(1, 500, cells)
        k, j = t / tau, tau_g / tau
        waits = waits_for_herald(t, tau_g, tau_o)
        got = block_denominator(waits, k, m, j)
        want = reference(t, tau_g, tau_o, k, m, j)
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got, want)
        # rate_blocks extends the row stage's m = 1 value as den1 + (m - 1.0)
        assert np.array_equal(block_denominator(waits, k, 1, j) + (m - 1.0), got)
        # gating blind (tau_o = 0), the second slot event + 2j is that base
        assert np.array_equal(slot_events(False, k, j)[1] + 2.0 * j,
                              reference(t, tau_g, 0.0, k, 1, j))


class TestIonRequirements:
    def test_blind_regime(self):
        timing = DerivedTiming(heralding_time_s=1e-4, j_steps=1.0, k_steps=100.0)
        n_o, n_m, upper = ion_requirements(layout_for(m_time=7), timing, Regime.A)
        assert n_o == 20
        assert n_m == 2 * 10 * 7
        assert upper

    def test_wait_regime_headline(self):
        layout = layout_for()
        hw = BASE
        timing = derive_timing(layout, hw)
        n_o, n_m, upper = ion_requirements(layout, timing, Regime.B2)
        assert n_o == 170  # ceil(2 * (10 * 8.358 + 1)) = ceil(169.16)
        assert n_m == 44
        assert not upper

    def test_wait_regime_small(self):
        timing = DerivedTiming(heralding_time_s=1e-6, j_steps=1.0, k_steps=1.0)
        n_o, n_m, _ = ion_requirements(layout_for(m_spatial=1, m_time=5), timing,
                                       Regime.C2)
        assert n_o == 4
        assert n_m == 10

    def test_fractional_j_rounds_up(self):
        timing = DerivedTiming(heralding_time_s=0.0, j_steps=0.1, k_steps=0.01)
        n_o, _, _ = ion_requirements(layout_for(m_spatial=50), timing, Regime.C1)
        assert n_o == 10  # 2 * 50 * 0.1

    def test_exact_integer_not_bumped(self):
        # j from a ratio of floats can sit a few ulp above the integer
        timing = DerivedTiming(heralding_time_s=0.0, j_steps=10e-6 / 1e-6,
                               k_steps=1.0)
        n_o, _, _ = ion_requirements(layout_for(m_spatial=10), timing, Regime.A)
        assert n_o == 200


class TestIonCaps:
    def test_caps_are_a_forward_scan_of_the_budgets(self):
        # per row, the last m in [0, m_max] whose ion_budgets fit the cap,
        # m = 0 (no block) fitting any cap, on random rows of both groups
        rng = np.random.default_rng(33)
        spatial_mux, m_max = 4, 30
        rows = rate_rows(ChainLayout(rng.uniform(20.0, 800.0, (80, 1)),
                                     rng.integers(0, 60, (80, 1)), spatial_mux, 1), BASE)
        assert rows.waits.any() and not rows.waits.all()
        t = rows.timing
        budgets = [ion_budgets(rows.waits, t.k_steps, t.j_steps, spatial_mux, m)
                   for m in range(m_max + 1)]
        assert ion_caps(rows, m_max, None, None) == {}
        seen = set()
        for n_o_max, n_m_max in ((1, 1), (int(np.median(rows.n_o)), 37), (10 ** 6, 10 ** 6)):
            caps = ion_caps(rows, m_max, n_o_max, n_m_max)
            assert list(caps) == ["n_o_max", "n_m_max"]
            for name, i, limit in (("n_o_max", 0, n_o_max), ("n_m_max", 1, n_m_max)):
                scan = np.zeros_like(caps[name])
                for m, budget in enumerate(budgets):
                    scan = np.where((m == 0) | (budget[i] <= limit), m, scan)
                assert np.array_equal(caps[name], scan), name
                seen |= set(scan.ravel().tolist())
        assert {0, m_max} < seen  # caps at 0, at m_max and between


class TestBlockSuccess:
    def test_direct_formula(self):
        assert block_success_prob(0.3, 2, 3, 2) == pytest.approx(
            (1 - 0.7 ** 6) ** 3, rel=1e-12)
        assert block_success_prob(0.3, 2, 3, 2) == pytest.approx(0.6869484480050896,
                                                                 rel=1e-12)

    def test_edges(self):
        assert block_success_prob(0.0, 5, 5, 2) == 0.0
        assert block_success_prob(1.0, 1, 1, 3) == 1.0

    @pytest.mark.parametrize("p", [-0.1, 1.5, math.nan])
    def test_rejects_p_outside_unit_interval(self, p):
        with pytest.raises(ValueError, match="p must be in \\[0, 1\\]"):
            block_success_prob(p, 2, 3, 2)

    def test_an_array_error_is_one_line_naming_the_first_bad_p(self):
        p = np.full(100, 0.25)
        p[[37, 60]] = 1.5, -0.5
        with pytest.raises(ValueError) as err:
            block_success_prob(p, 2, 3, 2)
        assert str(err.value) == "p must be in [0, 1], got 1.5 at flat index 37"

    @given(p=st.floats(1e-6, 1.0), m_s=st.integers(1, 20), m_t=st.integers(1, 20),
           n=st.integers(0, 20))
    def test_monotone_in_mux_and_p(self, p, m_s, m_t, n):
        b = block_success_prob(p, m_s, m_t, n)
        assert 0.0 <= b <= 1.0
        assert block_success_prob(p, m_s + 1, m_t, n) >= b
        assert block_success_prob(p, m_s, m_t + 1, n) >= b
        if p < 0.999:
            assert block_success_prob(min(1.0, p * 1.01), m_s, m_t, n) >= b


class TestPlob:
    def test_half_transmissivity(self):
        assert plob_bound(0.5, 1, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_150km_benchmark(self):
        eta = fiber_transmissivity(0.2, 150.0)
        assert eta == pytest.approx(1e-3, rel=1e-12)
        assert plob_bound(eta, 10, US) == pytest.approx(14434.168696687174, rel=1e-9)

    def test_small_eta_series(self):
        assert plob_bound(1e-9, 1, 1.0) == pytest.approx(1e-9 / math.log(2), rel=1e-6)

    def test_domain(self):
        # the check's own error, not math.log1p's domain error at eta = 1
        with pytest.raises(ValueError, match="transmissivity"):
            plob_bound(1.0, 1, 1.0)
        with pytest.raises(ValueError, match="transmissivity"):
            plob_bound(0.0, 1, 1.0)

    @given(e1=st.floats(1e-6, 0.999), e2=st.floats(1e-6, 0.999))
    def test_strictly_increasing(self, e1, e2):
        lo, hi = sorted((e1, e2))
        # adjacent floats can round to the same bound; require a real gap
        if hi > lo * (1 + 1e-9):
            assert plob_bound(lo, 3, US) < plob_bound(hi, 3, US)


class TestReferenceRates:
    def test_all_coincide_without_mux(self):
        r0, r1, r2, r = reference_rates(2, 1, 1, 0.3, 0.9, US)
        assert r0 == pytest.approx(r1, rel=1e-12)
        assert r0 == pytest.approx(r2, rel=1e-12)
        assert r0 == pytest.approx(r, rel=1e-12)

    def test_spatial_only(self):
        _, r1, _, _ = reference_rates(0, 1, 2, 0.5, 1.0, 1.0)
        assert r1 == pytest.approx(0.75, rel=1e-12)

    @pytest.mark.parametrize("q", [-0.5, 1.01, -5e-324, math.nextafter(1.0, 2.0)])
    def test_rejects_q_outside_unit_interval(self, q):
        with pytest.raises(ValueError, match=f"q must be in \\[0, 1\\], got {q}"):
            reference_rates(2, 3, 2, 0.3, q, US)

    @pytest.mark.parametrize("q, r0", [(0.0, 0.0), (1.0, 0.3 ** 3 / US)])
    def test_accepts_q_at_its_edges(self, q, r0):
        # n = 2 swaps: q = 0 zeroes every rate, q = 1 leaves R0 = p^(n+1) / tau
        rates = reference_rates(2, 3, 2, 0.3, q, US)
        assert rates[0] == r0
        assert (max(rates) == 0.0) == (q == 0.0)

    def test_deterministic_links(self):
        _, _, _, r = reference_rates(3, 7, 4, 1.0, 1.0, US)
        assert r == pytest.approx(1.0 / (7 * US), rel=1e-12)

    @given(n=st.integers(0, 10), m=st.integers(1, 30), m_s=st.integers(1, 10),
           p=st.floats(1e-4, 1.0))
    def test_full_mux_matches_block_success(self, n, m, m_s, p):
        q = 1.0
        _, _, _, r = reference_rates(n, m, m_s, p, q, US)
        assert r * m * US == pytest.approx(block_success_prob(p, m_s, m, n),
                                           rel=1e-12, abs=1e-300)


class TestEvaluateRate:
    def test_direct_link_denominator(self):
        # one link with herald latency of exactly one step, wait regime
        l_km = l_km_for_herald_steps(1.0)
        rep = evaluate_rate(ChainLayout(l_km, 0, 1, 1), BASE)
        assert rep.regime is Regime.B2
        assert rep.denominator_steps == pytest.approx(4.0, rel=1e-9)
        assert rep.ideal_rate == pytest.approx(rep.p / (4 * US), rel=1e-9)

    def test_headline_point(self):
        rep = evaluate_rate(layout_for(), BASE)
        assert rep.regime is Regime.B2
        assert rep.noisy_rate == pytest.approx(19997.90399719427, rel=1e-9)
        assert rep.noisy_rate == pytest.approx(2.0e4, rel=0.02)
        assert rep.f_end == pytest.approx(0.9785588261910581, rel=1e-12)
        assert rep.rci == pytest.approx(0.8165589318857225, rel=1e-12)
        assert rep.n_o == 170

    def test_near_optimal_point(self):
        rep = evaluate_rate(layout_for(n=88, m_time=25), BASE)
        assert rep.noisy_rate == pytest.approx(20824.55201918712, rel=1e-9)
        assert rep.n_o == 168

    def test_p_zero_limit(self):
        hw = BASE.updated(eta_c=1e-9)
        rep = evaluate_rate(layout_for(), hw)
        assert rep.noisy_rate == 0.0

    def test_report_invariants(self):
        rep = evaluate_rate(layout_for(n=30, m_time=40, m_spatial=5), BASE)
        assert rep.noisy_rate == pytest.approx(rep.ideal_rate * max(0.0, rep.rci),
                                               rel=1e-12)
        assert rep.ideal_rate * rep.denominator_s == pytest.approx(
            rep.block_success, rel=1e-12)

    def test_rci_clamp_zeroes_rate(self):
        noisy = BASE.updated(eps_g=0.4, f0=0.9)
        rep = evaluate_rate(layout_for(n=5, m_time=3), noisy)
        assert rep.rci < 0.0
        assert rep.noisy_rate == 0.0
        assert rep.ideal_rate > 0.0

    def test_memory_feasibility_error(self):
        hw = BASE.updated(tau_m=1e-5)
        with pytest.raises(InfeasibleError, match="tau_m") as err:
            evaluate_rate(layout_for(), hw)
        assert err.value.binding == ["tau_m"]

    def test_regime_twins_share_formulas(self):
        # A vs B1: only tau_o differs between the profiles, and tau_o enters
        # no formula, so the reports must agree field by field
        l_km = l_km_for_herald_steps(49.5)
        lay = ChainLayout(l_km, 0, 4, 9)
        rep_b1 = evaluate_rate(lay, BASE)
        assert rep_b1.regime is Regime.B1
        rep_a = evaluate_rate(lay, BASE.updated(tau_o=40 * US))
        assert rep_a.regime is Regime.A
        assert rep_a.denominator_steps == rep_b1.denominator_steps
        assert rep_a.noisy_rate == rep_b1.noisy_rate
        assert rep_a.n_o == rep_b1.n_o
        assert rep_a.n_m == rep_b1.n_m

    def test_wait_twins_share_formulas(self):
        assert WAITS == {Regime.B2, Regime.C2}
        timing = DerivedTiming(heralding_time_s=2e-6, j_steps=3.0, k_steps=2.0)
        lay = layout_for(m_time=6, m_spatial=2)
        assert ion_requirements(lay, timing, Regime.B2) == ion_requirements(
            lay, timing, Regime.C2)
        assert denominator_steps(Regime.B2, 2.0, 6, 3.0) == denominator_steps(
            Regime.C2, 2.0, 6, 3.0)

    @settings(max_examples=60, deadline=None)
    @given(l_km=st.floats(1.0, 800.0), spatial_mux=st.integers(1, 50),
           eps=st.sampled_from([0.0, 1e-4, 1e-3, 1e-2]),
           taus_us=st.sampled_from([(1.0, 50.0), (2.5, 50.0), (10.0, 12.0), (1.0, 500.0)]),
           n=st.integers(0, 40), m=st.integers(1, 80))
    # a Python float's ** gave this point's p one ulp away from the grid's
    @example(l_km=1.0, spatial_mux=1, eps=0.0, taus_us=(1.0, 50.0), n=0, m=1)
    def test_grid_cell_is_the_report(self, l_km, spatial_mux, eps, taus_us, n, m):
        # evaluate_rate is rate_grid on its own layout, one cell of the grid
        # the optimizer scans, and the simulator's p is the same formula, so
        # they agree bit for bit in every regime
        hw = BASE.updated(eps_g=eps, f0=1.0 - eps, tau_g=taus_us[0] * US,
                          tau_o=taus_us[1] * US)
        grid = rate_grid(ChainLayout(l_km, np.arange(41)[:, None], spatial_mux,
                                     np.arange(1, 81)[None, :]), hw)
        layout = ChainLayout(l_km, n, spatial_mux, m)
        rep = evaluate_rate(layout, hw)
        assert SimConfig.from_profile(layout, hw, 1).p == rep.p == grid.p[n, 0]
        assert rep.noisy_rate == grid.rate[n, m - 1]
        assert rep.n_o == grid.n_o[n, 0]
        assert rep.n_m == grid.n_m[n, m - 1]
        assert rep.denominator_steps == grid.den_steps[n, m - 1]

    @settings(max_examples=60)
    @given(m=st.integers(1, 100), bump=st.integers(1, 50))
    def test_block_success_monotone_in_time_mux(self, m, bump):
        # block success rises with m but so does the denominator; the raw
        # block probability must be monotone
        lay1 = layout_for(m_time=m)
        lay2 = layout_for(m_time=m + bump)
        r1 = evaluate_rate(lay1, BASE)
        r2 = evaluate_rate(lay2, BASE)
        assert r2.block_success >= r1.block_success

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(l_km=st.floats(1.0, 1000.0), eps_g=st.floats(0.0, 1e-2),
           f0_loss=st.floats(0.0, 1e-2), m=st.integers(1, 80))
    def test_two_swaps_are_the_grid_cell_at_any_noise(self, l_km, eps_g, f0_loss, m):
        # numpy's power loop takes x ** 2 as x * x where its exponent is a
        # scalar or one integer, and as pow where it is longer, a last bit
        # apart; at continuous noise, the report at n = 2 must still be its
        # cell in a grid of many rows and in a grid of that one row
        hw = BASE.updated(eps_g=eps_g, f0=1.0 - f0_loss)
        ms = np.arange(1, 81)[None, :]
        grid = rate_grid(ChainLayout(l_km, np.arange(41)[:, None], 1, ms), hw)
        row = rate_grid(ChainLayout(l_km, np.array([[2]]), 1, ms), hw)
        rep = evaluate_rate(ChainLayout(l_km, 2, 1, m), hw)
        assert rep.f_end == grid.f_end[2, 0] == row.f_end[0, 0]
        assert rep.rci == grid.rci[2, 0] == row.rci[0, 0]
        assert rep.noisy_rate == grid.rate[2, m - 1] == row.rate[0, m - 1]


def test_ideal_rate_non_increasing_in_j_and_k():
    p, m_s, m_t, n = 0.02, 4, 30, 10
    blk = block_success_prob(p, m_s, m_t, n)
    # C1 means T < tau_g, so its points have k <= j
    for reg, k1, k2 in ((Regime.A, 5.0, 7.0), (Regime.B2, 5.0, 7.0),
                        (Regime.C1, 0.5, 0.7)):
        d1 = denominator_steps(reg, k1, m_t, 1.0)
        d2 = denominator_steps(reg, k2, m_t, 1.0)
        d3 = denominator_steps(reg, k1, m_t, 2.0)
        assert blk / d2 <= blk / d1
        assert blk / d3 <= blk / d1
