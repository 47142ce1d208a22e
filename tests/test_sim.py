"""Discrete-event simulator tests.

The frozen empirical numbers are outputs of seeded runs; they pin determinism.
Correctness is carried by the exact cases (p=1 saturation, closed-form block
success, occupancy ceilings) where the simulator must agree with arithmetic.
"""
import dataclasses
import hashlib
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionrep import (
    ChainLayout,
    HardwareProfile,
    ModelDomainWarning,
    NoiseParams,
    SimConfig,
    SimStats,
    derive_timing,
    end_to_end_Q,
    evaluate_rate,
    run_protocol_sim,
    sample_end_to_end_Q,
    validate_against_analytic,
)
from ionrep import mcsim
from ionrep.model import C_VACUUM_KM_S

US = 1e-6

# closed-form block success for the small oracle chain
ORACLE_EXACT = (1 - (1 - 0.3) ** (2 * 3)) ** 3


def oracle_config(**overrides):
    kw = dict(j_steps=1, k_steps=1, tau_s=US, tau_o_s=50 * US, p=0.3,
              num_blocks=100_000, seed=42)
    kw.update(overrides)
    return SimConfig(ChainLayout(30.0, 2, 2, 3), **kw)


def blind_config(**overrides):
    # herald takes longer than the gate-readiness window, so nodes fire blind
    kw = dict(j_steps=1, k_steps=8, tau_s=US, tau_o_s=5 * US, p=1.0,
              num_blocks=10, seed=7)
    kw.update(overrides)
    return SimConfig(ChainLayout(20.0, 1, 3, 4), **kw)


class TestTrivialChain:
    def test_certain_success(self):
        cfg = SimConfig(ChainLayout(10.0, 1, 1, 1), j_steps=1, k_steps=1,
                        tau_s=US, tau_o_s=50 * US, p=1.0, num_blocks=100, seed=1)
        assert cfg.waits_for_herald
        assert cfg.block_steps == 4
        stats = run_protocol_sim(cfg)
        assert stats.empirical_block_success == 1.0
        assert stats.successes == 100
        assert (stats.peak_comm_loaded, stats.peak_mem_loaded,
                stats.peak_heralded) == (2, 2, 2)
        assert stats.empirical_rate == pytest.approx(250_000.0, rel=1e-12)

    def test_impossible_success(self):
        cfg = SimConfig(ChainLayout(10.0, 1, 1, 1), j_steps=1, k_steps=1,
                        tau_s=US, tau_o_s=50 * US, p=0.0, num_blocks=50, seed=1)
        stats = run_protocol_sim(cfg)
        assert stats.empirical_block_success == 0.0
        assert stats.empirical_rate == 0.0


class TestConfigValidation:
    def test_rejects_zero_steps(self):
        with pytest.raises(ValueError, match="j_steps"):
            oracle_config(j_steps=0)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="p must be"):
            oracle_config(p=1.5)

    def test_rejects_zero_blocks(self):
        with pytest.raises(ValueError, match="num_blocks"):
            oracle_config(num_blocks=0)

    def test_rejects_negative_pool(self):
        with pytest.raises(ValueError, match="pools"):
            oracle_config(n_comm_ions=-1)


class TestClosedFormAgreement:
    def test_oracle_chain_within_three_sigma(self):
        stats = run_protocol_sim(oracle_config())
        sigma = math.sqrt(ORACLE_EXACT * (1 - ORACLE_EXACT) / 100_000)
        assert abs(stats.empirical_block_success - ORACLE_EXACT) < 3 * sigma
        assert stats.dropped_comm == 0 and stats.dropped_mem == 0

    def test_oracle_chain_frozen_run(self):
        stats = run_protocol_sim(oracle_config())
        assert stats.empirical_block_success == pytest.approx(0.68458, abs=1e-12)
        assert stats.blocks_run == 100_000
        # every pipeline saturates here: 2(Mk+j) comm, 2m mem and heralds
        assert (stats.peak_comm_loaded, stats.peak_mem_loaded,
                stats.peak_heralded) == (6, 6, 6)

    def test_reruns_are_bit_identical(self):
        assert run_protocol_sim(oracle_config()) == run_protocol_sim(oracle_config())

    def test_seed_actually_matters(self):
        a = run_protocol_sim(oracle_config())
        b = run_protocol_sim(oracle_config(seed=43))
        assert a.empirical_block_success != b.empirical_block_success


class TestOccupancyReplay:
    def test_blind_regime_saturation(self):
        cfg = blind_config()
        assert not cfg.waits_for_herald
        assert cfg.block_steps == 13  # m-1 + max(j,k) + 2j
        stats = run_protocol_sim(cfg)
        m, big_m, j = 4, 3, 1
        assert stats.peak_comm_loaded == 2 * j * big_m
        assert stats.peak_heralded == 2 * m
        assert stats.peak_mem_loaded == 2 * big_m * m
        assert stats.empirical_block_success == 1.0

    def test_heralded_regime_saturation(self):
        hw = HardwareProfile().updated(tau_o=10 * US)
        l0 = 2.5 * US * C_VACUUM_KM_S / hw.optical.refractive_index
        layout = ChainLayout(2 * l0, 1, 2, 6)
        assert derive_timing(layout, hw).k_steps == pytest.approx(2.5)
        cfg = SimConfig.from_profile(layout, hw, num_blocks=10, seed=7,
                                     p_override=1.0)
        assert cfg.waits_for_herald
        assert (cfg.j_steps, cfg.k_steps) == (1, 3)  # k quantized upward
        assert cfg.block_steps == 11  # m-1 + k + 3j
        stats = run_protocol_sim(cfg)
        assert stats.peak_comm_loaded == 2 * (2 * 3 + 1)
        assert stats.peak_mem_loaded == 2 * 6
        # analytic count uses the real k=2.5, so quantization costs 2 ions
        report = evaluate_rate(layout, hw)
        assert report.n_o == 12
        assert stats.peak_comm_loaded - report.n_o == 2


class TestIonPools:
    def test_exact_blind_pools_change_nothing(self):
        unlimited = run_protocol_sim(blind_config())
        capped = run_protocol_sim(blind_config(n_comm_ions=6, n_mem_ions=24))
        assert capped == unlimited
        assert capped.dropped_comm == 0 and capped.dropped_mem == 0

    def test_exact_heralded_pools_change_nothing(self):
        kw = dict(j_steps=1, k_steps=3, tau_s=US, tau_o_s=10 * US, p=1.0,
                  num_blocks=10, seed=7)
        layout = ChainLayout(2.0, 1, 2, 6)
        unlimited = run_protocol_sim(SimConfig(layout, **kw))
        capped = run_protocol_sim(
            SimConfig(layout, n_comm_ions=14, n_mem_ions=12, **kw))
        assert capped == unlimited

    def test_starved_pool_counts_drops_and_hurts(self):
        unlimited = run_protocol_sim(oracle_config())
        starved = run_protocol_sim(oracle_config(n_comm_ions=2))
        assert starved.dropped_comm > 0
        assert starved.empirical_block_success < unlimited.empirical_block_success

    def test_pool_ceiling_is_respected(self):
        stats = run_protocol_sim(blind_config(n_comm_ions=5))
        assert stats.peak_comm_loaded <= 5
        assert stats.dropped_comm > 0

    def test_end_node_pool_serves_its_one_side(self):
        # an end node has one fiber, so M comm ions are all it needs
        stats = run_protocol_sim(SimConfig(
            ChainLayout(20.0, 0, 3, 4), j_steps=1, k_steps=8, tau_s=US,
            tau_o_s=5 * US, p=1.0, n_comm_ions=3, num_blocks=10, seed=7))
        assert stats.successes == 10
        assert stats.dropped_comm == 0
        assert stats.peak_comm_loaded == 3
        # only the repeater, with its two sides, is short of ions here
        assert run_protocol_sim(blind_config(n_comm_ions=5)).dropped_comm == 40

    def test_huge_pool_is_unlimited(self):
        # a pool past what any int32 counter can hold binds nowhere
        for cfg in (oracle_config(num_blocks=50), blind_config(p=0.6, num_blocks=50)):
            huge = dataclasses.replace(cfg, n_comm_ions=2 ** 32, n_mem_ions=2 ** 32)
            assert run_protocol_sim(huge) == run_protocol_sim(cfg)


# block 0 of the pinned wait-regime run with a 3-ion memory pool, grouped by step
WAIT_MEM_TRACE = ["step,node,event,count"] + """
0,0,init,2 0,1,init,4 0,2,init,4 0,3,init,2 0,0,comm_loaded,2 0,1,comm_loaded,4
0,2,comm_loaded,4 0,3,comm_loaded,2
1,0,free_comm,2 1,1,free_comm,4 1,2,free_comm,4 1,3,free_comm,2 1,0,init,2 1,1,init,4
1,2,init,4 1,3,init,2 1,0,comm_loaded,2 1,1,comm_loaded,4 1,2,comm_loaded,4
1,3,comm_loaded,2
2,0,free_comm,2 2,1,free_comm,3 2,2,free_comm,2 2,3,free_comm,1 2,0,init,2 2,1,init,4
2,2,init,4 2,3,init,2 2,0,comm_loaded,2 2,1,comm_loaded,5 2,2,comm_loaded,6
2,3,comm_loaded,3
3,1,load_mem,1 3,2,load_mem,2 3,3,load_mem,1 3,1,herald,1 3,2,herald,2 3,3,herald,1
3,0,free_comm,1 3,1,free_comm,4 3,2,free_comm,5 3,3,free_comm,2 3,0,comm_loaded,1
3,1,comm_loaded,1 3,2,comm_loaded,1 3,3,comm_loaded,1 3,1,mem_loaded,1
3,2,mem_loaded,2 3,3,mem_loaded,1 3,1,heralded,1 3,2,heralded,2 3,3,heralded,1
4,0,load_mem,1 4,1,load_mem,1 4,2,load_mem,1 4,3,load_mem,1 4,0,herald,1 4,1,herald,1
4,2,herald,1 4,3,herald,1 4,0,free_comm,1 4,1,free_comm,1 4,2,free_comm,1
4,3,free_comm,1 4,0,mem_loaded,1 4,1,mem_loaded,2 4,2,mem_loaded,3 4,3,mem_loaded,2
4,0,heralded,1 4,1,heralded,2 4,2,heralded,3 4,3,heralded,2
""".split()


class TestSeededPins:
    """Whole SimStats of seeded runs with binding pools, compared with ==."""

    @pytest.mark.parametrize("cfg, expected", [
        pytest.param(
            oracle_config(num_blocks=400, n_mem_ions=3, trace=True),
            SimStats(block_steps=6, blocks_run=400, successes=255,
                     empirical_block_success=0.6375,
                     empirical_rate=106250.00000000001, peak_comm_loaded=6,
                     peak_mem_loaded=3, peak_heralded=3, dropped_comm=0,
                     dropped_mem=380, trace=WAIT_MEM_TRACE),
            id="wait-mem-capped"),
        pytest.param(
            blind_config(p=0.6, n_mem_ions=10, num_blocks=400),
            SimStats(block_steps=13, blocks_run=400, successes=390,
                     empirical_block_success=0.975, empirical_rate=75000.0,
                     peak_comm_loaded=6, peak_mem_loaded=10, peak_heralded=4,
                     dropped_comm=0, dropped_mem=7200),
            id="blind-k-over-j-mem-capped"),
        pytest.param(
            SimConfig(ChainLayout(20.0, 1, 2, 4), j_steps=6, k_steps=2, tau_s=US,
                      tau_o_s=5 * US, p=0.2, n_mem_ions=6, num_blocks=400, seed=2),
            SimStats(block_steps=21, blocks_run=400, successes=275,
                     empirical_block_success=0.6875,
                     empirical_rate=32738.09523809524, peak_comm_loaded=16,
                     peak_mem_loaded=6, peak_heralded=6, dropped_comm=0,
                     dropped_mem=282),
            id="blind-j-over-k"),
        pytest.param(
            blind_config(n_comm_ions=6, p=0.2, num_blocks=400),
            SimStats(block_steps=13, blocks_run=400, successes=335,
                     empirical_block_success=0.8375,
                     empirical_rate=64423.07692307693, peak_comm_loaded=6,
                     peak_mem_loaded=24, peak_heralded=8, dropped_comm=0,
                     dropped_mem=0),
            id="blind-comm-pool-2M"),
    ])
    def test_stats_are_pinned(self, cfg, expected):
        assert run_protocol_sim(cfg) == expected

    def test_blind_two_repeaters_both_pools_capped(self):
        # block 0's 143 trace lines are pinned by their sha256
        stats = run_protocol_sim(SimConfig(
            ChainLayout(30.0, 2, 3, 4), j_steps=1, k_steps=8, tau_s=US,
            tau_o_s=5 * US, p=0.6, n_comm_ions=5, n_mem_ions=10, num_blocks=200,
            seed=3, trace=True))
        digest = hashlib.sha256("\n".join(stats.trace).encode()).hexdigest()
        assert dataclasses.replace(stats, trace=digest) == SimStats(
            block_steps=13, blocks_run=200, successes=187,
            empirical_block_success=0.935, empirical_rate=71923.07692307692,
            peak_comm_loaded=5, peak_mem_loaded=10, peak_heralded=4,
            dropped_comm=1600, dropped_mem=3600,
            trace="4df532b0bc7d30d98e8934a1d1c05f46b372cd39b70af721d0317a9cbb34ccf6")


class TestDrawSlices:
    """The draw buffer's size must not change a single draw."""

    @pytest.mark.parametrize("cfg", [
        pytest.param(oracle_config(num_blocks=300, trace=True), id="wait"),
        pytest.param(blind_config(p=0.6, num_blocks=300, trace=True), id="blind-k-over-j"),
        pytest.param(blind_config(p=0.4, n_comm_ions=5, n_mem_ions=10, num_blocks=300),
                     id="comm-and-mem-capped"),
        pytest.param(SimConfig(ChainLayout(20.0, 1, 3, 2), j_steps=1, k_steps=2, tau_s=US,
                               tau_o_s=50 * US, p=0.3, num_blocks=mcsim.CHUNK_BLOCKS + 37,
                               seed=5, trace=True),
                     id="two-chunks"),
    ])
    def test_slicing_keeps_the_stream(self, monkeypatch, cfg):
        big_m = cfg.layout.spatial_mux
        runs = []
        # one row per slice, 7 rows per slice (a budget no row size divides),
        # and a whole chunk in one slice, as a single draw
        for budget in (1, 8 * big_m * 7 + 3, 1 << 40):
            monkeypatch.setattr(mcsim, "DRAW_BYTES", budget)
            runs.append(run_protocol_sim(cfg))
        assert runs[0] == runs[1] == runs[2]


class TestDrawMemory:
    def test_headline_run_stays_under_128_mib(self):
        # n = 88, M = 10, m = 25: one draw of the whole chunk would take 391 MiB
        cfg = SimConfig.from_profile(ChainLayout(150, 88, 10, 25), HardwareProfile(),
                                     num_blocks=2048)
        tracemalloc.start()
        try:
            run_protocol_sim(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2 ** 20


class TestValidationVerdict:
    @staticmethod
    def _layout_and_hw():
        hw = HardwareProfile().updated(tau_o=10 * US)
        l0 = 2.5 * US * C_VACUUM_KM_S / hw.optical.refractive_index
        return ChainLayout(2 * l0, 1, 2, 6), hw

    def test_consistent_run_passes(self):
        layout, hw = self._layout_and_hw()
        cfg = SimConfig.from_profile(layout, hw, num_blocks=50_000, seed=3)
        verdict = validate_against_analytic(cfg, evaluate_rate(layout, hw))
        assert verdict.passed
        assert abs(verdict.z_score) < 3
        assert verdict.quantization_delta_n_o == 2
        assert len(verdict.checks) == 4
        assert not any("FAIL" in line for line in verdict.checks)

    def test_capped_comm_pool_is_the_expected_peak(self):
        # blind regime: 2M min(j, m) = 6 comm ions wanted, 5 in the pool
        layout = ChainLayout(8.0, 1, 3, 4)
        hw = HardwareProfile().updated(tau_o=5 * US)
        cfg = SimConfig.from_profile(layout, hw, num_blocks=500, n_comm_ions=5)
        verdict = validate_against_analytic(cfg, evaluate_rate(layout, hw))
        assert verdict.checks[1] == "comm peak 5 == min(2M min(j, m), n_comm_ions) = 5: ok"
        assert verdict.passed

    def test_wrong_physics_fails(self):
        layout, hw = self._layout_and_hw()
        cfg = SimConfig.from_profile(layout, hw, num_blocks=50_000, seed=3,
                                     p_override=0.9)
        verdict = validate_against_analytic(cfg, evaluate_rate(layout, hw))
        assert not verdict.passed
        assert verdict.z_score > 100


class TestFlipSampler:
    def test_clean_chain_never_flips(self):
        assert sample_end_to_end_Q(5, NoiseParams(f0=1.0, eps_g=0.0),
                                   1000, seed=0) == 0.0

    def test_no_swaps_never_flips(self):
        assert sample_end_to_end_Q(0, NoiseParams(f0=0.999, eps_g=1e-3),
                                   1000, seed=0) == 0.0

    def test_matches_closed_form(self):
        noise = NoiseParams(f0=0.999, eps_g=1e-3)
        trials = 1_000_000
        q = sample_end_to_end_Q(10, noise, trials, seed=5)
        exact = end_to_end_Q(10, noise)
        sigma = math.sqrt(exact * (1 - exact) / trials)
        assert abs(q - exact) < 3 * sigma

    def test_rejects_unphysical_noise(self):
        with pytest.warns(ModelDomainWarning):
            with pytest.raises(ValueError, match="flip probability"):
                sample_end_to_end_Q(3, NoiseParams(f0=0.25, eps_g=1.0), 100)


class TestTrace:
    def test_disabled_by_default(self):
        assert run_protocol_sim(oracle_config(num_blocks=10)).trace is None

    def test_record_format(self):
        stats = run_protocol_sim(blind_config(num_blocks=3, trace=True))
        assert stats.trace[0] == "step,node,event,count"
        for line in stats.trace[1:]:
            step, node, event, count = line.split(",")
            assert int(step) >= 0
            assert 0 <= int(node) <= 2
            assert int(count) > 0

    def test_gauges_agree_with_peaks(self):
        # p=1 makes every block identical, so block 0's gauges hit the peaks
        stats = run_protocol_sim(blind_config(num_blocks=3, trace=True))
        loaded = [int(line.split(",")[3]) for line in stats.trace[1:]
                  if line.split(",")[2] == "comm_loaded"]
        assert max(loaded) == stats.peak_comm_loaded


class TestWallClock:
    def test_rate_identity(self):
        stats = run_protocol_sim(oracle_config(num_blocks=5000))
        expected = stats.successes / (5000 * stats.block_steps * US)
        assert stats.empirical_rate == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize(
        "j, k, tau_o_us, steps",
        [
            (1, 1, 50, 3 + 1 + 3 * 1),        # heralded: m-1+k+3j
            (1, 8, 5, 3 + 8 + 2 * 1),         # blind, k dominates: m-1+k+2j
            (6, 2, 5, 3 + 6 + 2 * 6),         # blind, j dominates: m-1+j+2j
        ],
    )
    def test_block_duration_matches_denominator(self, j, k, tau_o_us, steps):
        cfg = SimConfig(ChainLayout(20.0, 1, 2, 4), j_steps=j, k_steps=k,
                        tau_s=US, tau_o_s=tau_o_us * US, p=0.5,
                        num_blocks=10, seed=2)
        assert cfg.block_steps == steps

    @settings(max_examples=80, deadline=None)
    @given(j=st.integers(1, 12), k=st.integers(1, 300), extra=st.integers(0, 400),
           m=st.integers(1, 60), n=st.integers(0, 4))
    def test_integer_steps_match_the_rate_model(self, j, k, extra, m, n):
        # tau_g and T are whole steps, so quantizing loses nothing and the
        # simulator's regime and block length are the analytic ones; tau_o
        # sits half a step off every boundary so float noise in T cannot tip
        # a comparison
        hw = HardwareProfile().updated(tau_g=j * US, tau_o=(j + extra + 0.5) * US)
        l0_km = k * US * C_VACUUM_KM_S / hw.optical.refractive_index
        layout = ChainLayout(l0_km * (n + 1), n, 2, m)
        cfg = SimConfig.from_profile(layout, hw, num_blocks=1)
        rep = evaluate_rate(layout, hw)
        assert (cfg.j_steps, cfg.k_steps) == (j, k)
        assert cfg.waits_for_herald == rep.regime.waits_for_herald
        assert cfg.block_steps == pytest.approx(rep.denominator_steps, rel=1e-12)
