"""Pointwise physics formulas, checked against hand-derived values."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionrep.model import (
    ChainLayout,
    HardwareProfile,
    ModelDomainWarning,
    NoiseParams,
    OpticalParams,
    StepCountError,
    TimingParams,
    WernerState,
    apply_swap_gate_noise,
    compose_gate_errors,
    derive_timing,
    end_to_end_Q,
    end_to_end_fidelity,
    heralding_time,
    intra_node_success_prob,
    link_success_prob,
    swap_survival_factor,
    werner_rci,
)

BASE_NOISE = NoiseParams(f0=0.9999, eps_g=1e-4)


class TestLinkSuccess:
    def test_lossless_limit(self):
        assert link_success_prob(OpticalParams(eta_c=1, eta_d=1), 0.0) == 0.5

    def test_zero_length_baseline(self):
        # 0.5 * 0.3^2 * 0.8^2
        p = link_success_prob(OpticalParams(), 0.0)
        assert abs(p - 0.0288) < 1e-15

    def test_three_db_point(self):
        # 0.2 dB/km * 15.0515 km is 3.0103 dB, i.e. transmissivity 1/2
        p = link_success_prob(OpticalParams(eta_c=1, eta_d=1), 15.0515)
        assert abs(p - 0.25) < 1e-5

    def test_matches_intra_node_at_zero(self):
        opt = OpticalParams(eta_c=0.5, eta_d=0.5)
        assert link_success_prob(opt, 0.0) == intra_node_success_prob(opt)
        assert abs(intra_node_success_prob(opt) - 0.03125) < 1e-15

    def test_rejects_bad_efficiency(self):
        with pytest.raises(ValueError, match="eta_c"):
            link_success_prob(OpticalParams(eta_c=1.5), 1.0)

    @given(
        l0=st.floats(0.0, 400.0),
        bump=st.floats(1e-3, 50.0),
        alpha=st.floats(0.01, 1.0),
    )
    def test_strictly_decreasing_in_length_and_alpha(self, l0, bump, alpha):
        opt = OpticalParams(alpha_db_per_km=alpha)
        assert link_success_prob(opt, l0 + bump) < link_success_prob(opt, l0)
        steeper = OpticalParams(alpha_db_per_km=alpha + 0.05)
        # at sub-micron lengths the extra attenuation underflows float precision
        if l0 > 1e-6:
            assert link_success_prob(steeper, l0) < link_success_prob(opt, l0)


class TestHeraldingTime:
    def test_zero_length(self):
        assert heralding_time(0.0, 1.47) == 0.0

    def test_one_millisecond_span(self):
        assert abs(heralding_time(203.9404, 1.47) - 1e-3) < 1e-9

    def test_short_span(self):
        # 1.7045 km at n_ref 1.47
        assert abs(heralding_time(1.7045, 1.47) - 8.357832003899177e-06) < 1e-15

    def test_derive_timing_steps(self):
        hw = HardwareProfile()
        layout = ChainLayout(total_distance_km=150.0, n_repeaters=87, spatial_mux=10)
        t = derive_timing(layout, hw)
        assert abs(t.k_steps - 8.358054885362787) < 1e-9
        assert t.j_steps == 1.0
        assert abs(t.heralding_time_s - t.k_steps * hw.timing.tau) < 1e-18

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("timing", [
        dict(tau=5e-324),  # tau_g/tau overflows
        dict(tau=5e-324, tau_g=5e-324, tau_o=1e-300),  # only T/tau overflows
    ])
    def test_too_short_clock_is_an_error(self, timing):
        layout = ChainLayout(150.0, np.array([[0], [3]]), 10, 1)
        with pytest.raises(StepCountError, match="tau=4.94066e-324 s is too short"):
            derive_timing(layout, HardwareProfile().updated(**timing))

    # a distance column: the error names the shortest chain past the bound,
    # even where a longer one overflows T by itself
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("l_max", [1e300, 1.7e308])
    def test_step_bound_names_the_first_chain_past_it(self, l_max):
        layout = ChainLayout(np.array([[10.0], [1e299], [l_max]]),
                             np.array([[0], [3], [5]]), 10, 1)
        with pytest.raises(StepCountError, match="for total_distance_km=1e\\+299 km: the "
                                                 "step count T/tau=4.90339e\\+299") as err:
            derive_timing(layout, HardwareProfile())
        assert err.value.fields == ("total_distance_km", "tau")

    @pytest.mark.filterwarnings("error")
    def test_overflowing_heralding_time_blames_the_distance(self):
        layout = ChainLayout(1.7e308, 0, 1, 1)
        with pytest.raises(StepCountError, match="total_distance_km=1.7e\\+308 km is "
                                                 "too long") as err:
            derive_timing(layout, HardwareProfile())
        assert err.value.fields == ("total_distance_km",)


class TestSwapGateNoise:
    def test_identity_gate(self):
        s = WernerState(0.7)
        assert apply_swap_gate_noise(s, 0.0) == s

    def test_mixed_fixed_point(self):
        assert apply_swap_gate_noise(WernerState(0.25), 0.3).fidelity == pytest.approx(0.25)

    def test_affine_example(self):
        assert apply_swap_gate_noise(WernerState(1.0), 0.01).fidelity == pytest.approx(0.9925)

    @given(
        f=st.floats(0.0, 1.0),
        g=st.floats(0.0, 1.0),
        e1=st.floats(0.0, 1.0),
        e2=st.floats(0.0, 1.0),
    )
    def test_composition_and_order_preservation(self, f, g, e1, e2):
        lo, hi = sorted((f, g))
        a = apply_swap_gate_noise(WernerState(lo), e1)
        b = apply_swap_gate_noise(WernerState(hi), e1)
        assert a.fidelity <= b.fidelity + 1e-15
        twice = apply_swap_gate_noise(apply_swap_gate_noise(WernerState(f), e1), e2)
        once = apply_swap_gate_noise(WernerState(f), compose_gate_errors(e1, e2))
        assert abs(twice.fidelity - once.fidelity) < 1e-12


class TestEndToEndNoise:
    def test_noiseless_chain(self):
        clean = NoiseParams(f0=1.0, eps_g=0.0)
        for n in (0, 1, 5, 100):
            assert end_to_end_Q(n, clean) == 0.0
        assert end_to_end_fidelity(10, clean).fidelity == 1.0

    def test_zero_swaps(self):
        assert end_to_end_Q(0, BASE_NOISE) == 0.0
        assert end_to_end_fidelity(0, BASE_NOISE).fidelity == 1.0

    def test_survival_factor_value(self):
        assert abs(swap_survival_factor(BASE_NOISE) - 0.9996666666666667) < 1e-15

    def test_long_chain_values(self):
        q = end_to_end_Q(87, BASE_NOISE)
        assert abs(q - 0.01429411587262794) < 1e-12
        assert abs(q - 0.01429) < 1e-5
        f = end_to_end_fidelity(87, BASE_NOISE).fidelity
        assert abs(f - 0.9785588261910581) < 1e-12
        assert abs(f - 0.978559) < 1e-6

    def test_negative_x_is_a_profile_error(self):
        # the closed form only holds for x >= 0; a full profile rejects the
        # noise outright, while the pointwise formulas above only warn
        with pytest.raises(ValueError, match="eps_g=0.9, f0=0.3"):
            HardwareProfile().updated(eps_g=0.9, f0=0.3).validate()

    def test_negative_x_warns_but_computes(self):
        bad = NoiseParams(f0=0.3, eps_g=0.2)
        with pytest.warns(ModelDomainWarning):
            x = swap_survival_factor(bad)
        assert x < 0.0
        with pytest.warns(ModelDomainWarning):
            q = end_to_end_Q(2, bad)
        assert 0.0 <= q <= 1.0

    @given(n1=st.integers(0, 20), n2=st.integers(0, 20))
    def test_composition_law(self, n1, n2):
        # joining two chains through one extra swap multiplies the
        # polarizations and costs one more factor of x
        x = swap_survival_factor(BASE_NOISE)
        lhs = 1.0 - 2.0 * end_to_end_Q(n1 + n2 + 1, BASE_NOISE)
        rhs = (1.0 - 2.0 * end_to_end_Q(n1, BASE_NOISE)) * (
            1.0 - 2.0 * end_to_end_Q(n2, BASE_NOISE)) * x
        assert abs(lhs - rhs) < 1e-12

    @given(n=st.integers(0, 400))
    def test_fidelity_non_increasing(self, n):
        f1 = end_to_end_fidelity(n, BASE_NOISE).fidelity
        f2 = end_to_end_fidelity(n + 1, BASE_NOISE).fidelity
        assert f2 <= f1 + 1e-15


class TestRCI:
    def test_pure_state(self):
        assert werner_rci(WernerState(1.0)) == 1.0

    def test_maximally_mixed(self):
        assert werner_rci(WernerState(0.25)) == -1.0

    def test_intermediate(self):
        assert abs(werner_rci(WernerState(0.95)) - 0.634354917847986) < 1e-12
        assert abs(werner_rci(WernerState(0.95)) - 0.634) < 1e-3

    def test_zero_fidelity_defined(self):
        # 0 log 0 = 0 on the F term
        v = werner_rci(WernerState(0.0))
        assert math.isfinite(v)

    @settings(max_examples=200)
    @given(f=st.floats(0.2500001, 1.0), df=st.floats(1e-9, 0.2))
    def test_strictly_increasing_above_quarter(self, f, df):
        hi = min(1.0, f + df)
        if hi > f:
            assert werner_rci(WernerState(hi)) > werner_rci(WernerState(f))

    def test_sign_crossing_bisection(self):
        # unique zero of I_R between the mixed and pure endpoints
        lo, hi = 0.25, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if werner_rci(WernerState(mid)) < 0.0:
                lo = mid
            else:
                hi = mid
        root = 0.5 * (lo + hi)
        assert abs(root - 0.8107103750847682) < 1e-9
        assert abs(werner_rci(WernerState(root))) < 1e-9


class TestValidation:
    def test_timing_ordering_enforced(self):
        with pytest.raises(ValueError, match="tau_o"):
            TimingParams(tau_o=1e-6, tau_g=2e-6).validate()

    def test_noise_ranges(self):
        with pytest.raises(ValueError, match="f0"):
            NoiseParams(f0=0.1).validate()

    def test_layout_ranges(self):
        with pytest.raises(ValueError, match="n_repeaters"):
            ChainLayout(total_distance_km=10.0, n_repeaters=-1).validate()
        # 2 M m ion budgets of larger counts overflow int64
        for name in ("n_repeaters", "spatial_mux", "time_mux"):
            with pytest.raises(ValueError, match=f"{name} must be .* <= 1073741824"):
                ChainLayout(10.0, **{"n_repeaters": 1, name: 2 ** 30 + 1}).validate()
        assert ChainLayout(150.0, 87).n_links == 88
        assert ChainLayout(150.0, 87).link_length_km == pytest.approx(150.0 / 88)

    def test_profile_updated_routes_fields(self):
        hw = HardwareProfile().updated(eps_g=1e-3, tau_g=10e-6)
        assert hw.noise.eps_g == 1e-3
        assert hw.timing.tau_g == 10e-6
        assert hw.optical.eta_c == 0.3
        with pytest.raises(ValueError, match="unknown hardware"):
            HardwareProfile().updated(nonsense=1.0)
