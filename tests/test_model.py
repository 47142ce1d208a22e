"""Pointwise physics formulas, checked against hand-derived values."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionrep import (Constraints, SearchBounds, SimConfig, evaluate_rate, optimize_rate,
                    run_protocol_sim, sample_end_to_end_Q)
from ionrep.model import (
    C_VACUUM_KM_S,
    MAX_COUNT,
    MAX_STEPS,
    ChainLayout,
    HardwareProfile,
    NoiseParams,
    OpticalParams,
    StepCountError,
    TimingParams,
    WernerState,
    apply_swap_gate_noise,
    compose_gate_errors,
    heralding_time,
    swap_survival_factor,
)
from ionrep.optimize import MAX_SEARCH_N
from ionrep.rates import (
    derive_timing,
    end_to_end_Q,
    end_to_end_fidelity,
    intra_node_success_prob,
    link_success_prob,
    werner_rci,
)

BASE_NOISE = NoiseParams(f0=0.9999, eps_g=1e-4)


def _up(x):
    return math.nextafter(x, math.inf)


def _down(x):
    return math.nextafter(x, -math.inf)


def _j_steps(tau_g):
    """derive_timing at tau = 1 s, where tau_g is the step count j."""
    timing = TimingParams(tau=1.0, tau_g=tau_g, tau_o=2.0 ** 40, tau_m=2.0 ** 50)
    return derive_timing(ChainLayout(1.0, 1), HardwareProfile(timing=timing))


# Each field rule at its edge: (rule, build from one value, the edge value,
# whether the edge is accepted, the value just past it). The value just past
# the edge gets the opposite verdict.
RULE_EDGES = [
    ("eta_c <= 1", lambda v: OpticalParams(eta_c=v), 1.0, True, _up(1.0)),
    ("eta_c > 0", lambda v: OpticalParams(eta_c=v), 0.0, False, _up(0.0)),
    ("eta_d <= 1", lambda v: OpticalParams(eta_d=v), 1.0, True, _up(1.0)),
    ("eta_d > 0", lambda v: OpticalParams(eta_d=v), 0.0, False, _up(0.0)),
    ("eta_c == eta_d == 1", lambda v: OpticalParams(eta_c=v, eta_d=v), 1.0, True, _up(1.0)),
    ("alpha >= 0", lambda v: OpticalParams(alpha_db_per_km=v), 0.0, True, _down(0.0)),
    ("refractive_index >= 1", lambda v: OpticalParams(refractive_index=v), 1.0, True,
     _down(1.0)),
    ("tau > 0", lambda v: TimingParams(tau=v), 0.0, False, _up(0.0)),
    ("tau_g > 0", lambda v: TimingParams(tau_g=v), 0.0, False, _up(0.0)),
    ("tau_m > 0", lambda v: TimingParams(tau_m=v), 0.0, False, _up(0.0)),
    ("tau_o > tau_g", lambda v: TimingParams(tau_g=1e-6, tau_o=v), 1e-6, False, _up(1e-6)),
    ("f0 >= 0.25", lambda v: NoiseParams(f0=v), 0.25, True, _down(0.25)),
    ("f0 <= 1", lambda v: NoiseParams(f0=v), 1.0, True, _up(1.0)),
    ("eps_g >= 0", lambda v: NoiseParams(eps_g=v), 0.0, True, _down(0.0)),
    ("eps_g <= 1", lambda v: NoiseParams(eps_g=v), 1.0, True, _up(1.0)),
    ("survival >= 0", lambda v: HardwareProfile(noise=NoiseParams(f0=1.0, eps_g=v)),
     0.5, True, _up(0.5)),
    ("survival >= 0 pointwise", lambda v: (swap_survival_factor(NoiseParams(1.0, v)),
                                           end_to_end_Q(3, NoiseParams(1.0, v))),
     0.5, True, _up(0.5)),
    ("memory_margin >= 1", lambda v: HardwareProfile(memory_margin=v), 1.0, True, _down(1.0)),
    ("fidelity >= 0", WernerState, 0.0, True, _down(0.0)),
    ("fidelity <= 1", WernerState, 1.0, True, _up(1.0)),
    ("tau_g/tau <= MAX_STEPS", _j_steps, float(MAX_STEPS), True, _up(float(MAX_STEPS))),
    ("total_distance_km > 0", lambda v: ChainLayout(v, 1), 0.0, False, _up(0.0)),
    ("n_repeaters >= 0", lambda v: ChainLayout(10.0, v), 0, True, -1),
    ("n_repeaters <= MAX_COUNT", lambda v: ChainLayout(10.0, v), MAX_COUNT, True,
     MAX_COUNT + 1),
    ("spatial_mux >= 1", lambda v: ChainLayout(10.0, 1, v), 1, True, 0),
    ("time_mux >= 1", lambda v: ChainLayout(10.0, 1, 1, v), 1, True, 0),
    ("n_o_max >= 1", lambda v: Constraints(n_o_max=v), 1, True, 0),
    ("n_o_max <= MAX_COUNT", lambda v: Constraints(n_o_max=v), MAX_COUNT, True,
     MAX_COUNT + 1),
    ("n_m_max >= 1", lambda v: Constraints(n_m_max=v), 1, True, 0),
    ("n_m_max <= MAX_COUNT", lambda v: Constraints(n_m_max=v), MAX_COUNT, True,
     MAX_COUNT + 1),
    ("fixed_n >= 0", lambda v: Constraints(fixed_n=v), 0, True, -1),
    ("fixed_n <= MAX_COUNT", lambda v: Constraints(fixed_n=v), MAX_COUNT, True, MAX_COUNT + 1),
    ("fixed_l0_km > 0", lambda v: Constraints(fixed_l0_km=v), 0.0, False, _up(0.0)),
    ("tau_min > 0", lambda v: Constraints(tau_min=v), 0.0, False, _up(0.0)),
    ("n_max >= 0", lambda v: SearchBounds(n_max=v), 0, True, -1),
    ("n_max <= MAX_SEARCH_N", lambda v: SearchBounds(n_max=v), MAX_SEARCH_N, True,
     MAX_SEARCH_N + 1),
    ("m_max >= 1", lambda v: SearchBounds(m_max=v), 1, True, 0),
    ("m_max <= MAX_COUNT", lambda v: SearchBounds(m_max=v), MAX_COUNT, True, MAX_COUNT + 1),
]


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
    @pytest.mark.parametrize("l_max", [1e300, 1.7e308])
    def test_step_bound_names_the_first_chain_past_it(self, l_max):
        layout = ChainLayout(np.array([[10.0], [1e299], [l_max]]),
                             np.array([[0], [3], [5]]), 10, 1)
        with pytest.raises(StepCountError, match="for total_distance_km=1e\\+299 km: the "
                                                 "step count T/tau=4.90339e\\+299") as err:
            derive_timing(layout, HardwareProfile())
        assert err.value.fields == ("total_distance_km", "tau")

    def test_a_chain_at_the_step_bound_passes(self):
        hw = HardwareProfile()
        tau, n_ref = hw.timing.tau, hw.optical.refractive_index

        def steps(l_km):
            return heralding_time(l_km, n_ref) / tau

        at = MAX_STEPS * tau * C_VACUUM_KM_S / n_ref
        while steps(at) > MAX_STEPS:
            at = _down(at)
        while steps(_up(at)) <= MAX_STEPS:
            at = _up(at)
        assert steps(at) == MAX_STEPS  # T/tau is exactly 2**31 here
        assert derive_timing(ChainLayout(at, 0), hw).k_steps == MAX_STEPS
        # past the bound, the error names the chain beyond it, not the one at it
        with pytest.raises(StepCountError, match=re.escape(f"total_distance_km={2 * at:.6g} km")):
            derive_timing(ChainLayout(np.array([[at], [2 * at]]), 0), hw)

    def test_overflowing_heralding_time_blames_the_distance(self):
        for l_km in (1.7e308, np.float64(1.7e308)):  # a numpy scalar overflows unwarned too
            layout = ChainLayout(l_km, 0, 1, 1)
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
        # the closed form only holds for x >= 0
        with pytest.raises(ValueError, match="eps_g=0.9, f0=0.3"):
            HardwareProfile().updated(eps_g=0.9, f0=0.3)

    # x >= 0 is swap_survival_factor's one check: the profile and each
    # pointwise formula raise its line for x < 0 and take x = 0 exactly
    NOISE_CALLS = {
        "swap_survival_factor": swap_survival_factor,
        "end_to_end_Q": lambda noise: end_to_end_Q(2, noise),
        "end_to_end_fidelity": lambda noise: end_to_end_fidelity(2, noise).fidelity,
        "sample_end_to_end_Q": lambda noise: sample_end_to_end_Q(2, noise, 4000, seed=3),
        "HardwareProfile": lambda noise: HardwareProfile(noise=noise).noise,
    }

    def test_negative_x_is_one_error_everywhere(self):
        bad = NoiseParams(f0=0.3, eps_g=0.2)
        line = ("swap survival factor 1 - 2 eps_g - (4/3)(1 - f0) is below 0 "
                "at eps_g=0.2, f0=0.3")
        for name, call in self.NOISE_CALLS.items():
            with pytest.raises(ValueError) as err:
                call(bad)
            assert str(err.value) == line, name
        edge = NoiseParams(f0=1.0, eps_g=0.5)  # x = 0: every swap fully depolarizes
        got = {name: call(edge) for name, call in self.NOISE_CALLS.items()}
        assert got["swap_survival_factor"] == 0.0
        assert got["end_to_end_Q"] == 0.5
        assert got["end_to_end_fidelity"] == 0.25
        assert abs(got["sample_end_to_end_Q"] - 0.5) < 0.03
        assert got["HardwareProfile"] == edge

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
            TimingParams(tau_o=1e-6, tau_g=2e-6)

    def test_noise_ranges(self):
        with pytest.raises(ValueError, match="f0"):
            NoiseParams(f0=0.1)

    def test_layout_ranges(self):
        with pytest.raises(ValueError, match="n_repeaters"):
            ChainLayout(total_distance_km=10.0, n_repeaters=-1)
        # 2 M m ion budgets of larger counts overflow int64
        for name in ("n_repeaters", "spatial_mux", "time_mux"):
            with pytest.raises(ValueError, match=f"{name} must be .* <= 1073741824"):
                ChainLayout(10.0, **{"n_repeaters": 1, name: 2 ** 30 + 1})
        assert ChainLayout(150.0, 87).n_links == 88
        assert ChainLayout(150.0, 87).link_length_km == pytest.approx(150.0 / 88)
        layout = ChainLayout(100.0, 3)
        assert layout.spatial_mux == layout.time_mux == 1

    def test_an_array_error_is_one_line_naming_the_first_bad_entry(self):
        l_km = np.full((100, 1), 10.0)
        l_km[37] = -1
        with pytest.raises(ValueError) as err:
            ChainLayout(l_km, 1)
        assert str(err.value) == "total_distance_km must be positive, got -1.0 at flat index 37"
        f = np.full(100, 0.9)
        f[[37, 60]] = 1.5, math.nan
        with pytest.raises(ValueError) as err:
            WernerState(f)
        assert str(err.value) == "fidelity must be in [0, 1], got 1.5 at flat index 37"

    @pytest.mark.parametrize("cast", [float, np.int64])
    @pytest.mark.parametrize("make, run, fields", [
        pytest.param(lambda c: ChainLayout(20.0, c(1), 2, 4), "simulate", ["n_repeaters"],
                     id="layout-n"),
        pytest.param(lambda c: ChainLayout(20.0, 1, c(2), 4), "simulate", ["spatial_mux"],
                     id="layout-M"),
        pytest.param(lambda c: ChainLayout(20.0, 1, 2, c(4)), "simulate", ["time_mux"],
                     id="layout-m"),
        pytest.param(lambda c: ChainLayout(150.0, c(87), c(10), c(22)), "evaluate",
                     ["n_repeaters", "spatial_mux", "time_mux"], id="layout-report"),
        pytest.param(lambda c: SearchBounds(c(100), c(50)), "bounds", ["n_max", "m_max"],
                     id="bounds"),
        pytest.param(lambda c: Constraints(n_m_max=c(300)), "constraints", ["n_m_max"],
                     id="n_m_max"),
        pytest.param(lambda c: Constraints(n_o_max=c(200)), "constraints", ["n_o_max"],
                     id="n_o_max"),
        pytest.param(lambda c: Constraints(fixed_n=c(87)), "constraints", ["fixed_n"],
                     id="fixed_n"),
        pytest.param(lambda c: SimConfig(ChainLayout(20.0, 1, 2, 4), j_steps=c(1),
                                         k_steps=c(3), tau_s=1e-6, tau_o_s=5e-6, p=0.3,
                                         n_comm_ions=c(6), n_mem_ions=c(5),
                                         num_blocks=c(10), seed=c(3)),
                     "run", ["j_steps", "k_steps", "n_comm_ions", "n_mem_ions", "num_blocks",
                             "seed"], id="sim-config"),
    ])
    def test_an_integral_count_is_stored_as_an_int(self, make, run, fields, cast):
        # 4.0 or np.int64(4) gives what 4 gives, down to each result's repr
        hw = HardwareProfile()
        run = {"simulate": lambda lay: run_protocol_sim(SimConfig.from_profile(lay, hw, 10)),
               "evaluate": lambda lay: evaluate_rate(lay, hw).to_dict(),
               "bounds": lambda bounds: optimize_rate(150.0, 10, hw, bounds),
               "constraints": lambda cons: optimize_rate(150.0, 10, hw, constraints=cons),
               "run": run_protocol_sim}[run]
        got, twin = make(cast), make(int)
        assert [type(getattr(got, name)) for name in fields] == [int] * len(fields)
        assert run(got) == run(twin)
        assert repr(run(got)) == repr(run(twin))

    @pytest.mark.parametrize("build, value, accepted", [
        pytest.param(build, value, accepted, id=f"{rule}-{where}")
        for rule, build, edge, edge_ok, past in RULE_EDGES
        for where, value, accepted in (("edge", edge, edge_ok), ("past", past, not edge_ok))
    ])
    def test_each_rule_at_its_edge(self, build, value, accepted):
        if accepted:
            build(value)
        else:
            with pytest.raises(ValueError):
                build(value)

    def test_profile_updated_routes_fields(self):
        hw = HardwareProfile().updated(eps_g=1e-3, tau_g=10e-6)
        assert hw.noise.eps_g == 1e-3
        assert hw.timing.tau_g == 10e-6
        assert hw.optical.eta_c == 0.3
        with pytest.raises(ValueError, match="unknown hardware"):
            HardwareProfile().updated(nonsense=1.0)
