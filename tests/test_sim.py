"""Discrete-event simulator tests.

The frozen empirical numbers are outputs of seeded runs; they pin determinism.
Correctness is carried by the exact cases (p=1 saturation, closed-form block
success, occupancy ceilings) where the simulator must agree with arithmetic.
"""
import dataclasses
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ionrep import (
    ChainLayout,
    HardwareProfile,
    NoiseParams,
    Regime,
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
from ionrep.figures import FIGURES, curve_variant
from ionrep.model import C_VACUUM_KM_S, StepCountError
from ionrep.optimize import SearchBounds, distance_grid, sweep_variants
from ionrep.rates import ion_budgets, slot_events

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
        with pytest.raises(ValueError, match="n_comm_ions"):
            oracle_config(n_comm_ions=-1)

    def test_rejects_a_mode_row_past_the_draw_buffer(self):
        # a row of M mode draws takes 8M bytes, and the buffer holds at least one
        row_max = mcsim.DRAW_BYTES // 8
        base = oracle_config()
        dataclasses.replace(base, layout=ChainLayout(30.0, 2, row_max, 3))  # accepted
        with pytest.raises(ValueError, match=f"spatial_mux must be <= {row_max}"):
            dataclasses.replace(base, layout=ChainLayout(30.0, 2, row_max + 1, 3))

    @pytest.mark.parametrize("times", [dict(tau_s=0.0), dict(tau_s=-US),
                                       dict(tau_o_s=0.0), dict(tau_o_s=-US)])
    def test_rejects_non_positive_times(self, times):
        with pytest.raises(ValueError, match=f"{next(iter(times))} must be positive"):
            oracle_config(**times)

    @pytest.mark.parametrize("field, value, message", [
        ("j_steps", 1.5, "j_steps must be a positive integer, got 1.5"),
        ("k_steps", math.nan, "k_steps must be a positive integer, got nan"),
        ("num_blocks", 2.5, "num_blocks must be a positive integer, got 2.5"),
        ("n_comm_ions", 2.5, "n_comm_ions must be a nonnegative integer, got 2.5"),
        ("n_comm_ions", math.nan, "n_comm_ions must be a nonnegative integer, got nan"),
        ("n_mem_ions", 2.5, "n_mem_ions must be a nonnegative integer, got 2.5"),
        ("seed", 1.5, "seed must be a nonnegative integer, got 1.5"),
        ("seed", math.nan, "seed must be a nonnegative integer, got nan"),
        ("p", math.nan, "p must be in [0, 1], got nan"),
        ("tau_s", math.nan, "tau_s must be positive, got nan"),
        ("tau_o_s", math.nan, "tau_o_s must be positive, got nan"),
    ])
    def test_rejects_nan_and_fractional_counts_naming_the_field(self, field, value,
                                                               message):
        with pytest.raises(ValueError) as err:
            oracle_config(**{field: value})
        assert str(err.value) == message

    @pytest.mark.parametrize("layout, hw_fields, fields", [
        (ChainLayout(1e-300, 1, 1, 2), {}, ("total_distance_km", "tau")),
        (ChainLayout(30.0, 1, 1, 2), dict(tau=1.0, tau_g=1e-10), ("tau",)),
    ], ids=["k_steps", "j_steps"])
    def test_a_step_count_rounding_to_zero_names_its_inputs(self, layout, hw_fields, fields):
        hw = HardwareProfile().updated(**hw_fields)
        with pytest.raises(StepCountError, match="=0, and must be at least 1") as err:
            SimConfig.from_profile(layout, hw, 1)
        assert err.value.fields == fields

    def test_counts_past_max_count_are_accepted(self):
        # k_steps reaches MAX_STEPS = 2**31, and a seed may be any integer >= 0
        oracle_config(k_steps=2 ** 31, seed=2 ** 64, n_comm_ions=2 ** 40)

    def test_from_profile_takes_fields_past_num_blocks_by_name(self):
        # a fourth positional argument could be read as a seed or as p_override
        with pytest.raises(TypeError):
            SimConfig.from_profile(ChainLayout(20.0, 1, 2, 3), HardwareProfile(), 10, 7)


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

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n=st.integers(0, 3), big_m=st.integers(1, 4), m=st.integers(1, 10),
           j=st.integers(1, 4), k=st.integers(1, 12), wait=st.booleans())
    def test_peaks_follow_the_slot_schedule(self, n, big_m, m, j, k, wait):
        # at p = 1 each slot side holds, waiting: M comm ions on [0, k), 1 on
        # [k, k + j), then 1 memory ion; blind: M comm ions on [0, j), M memory
        # ions on [j, max(j, k)), then 1. A node's peak is the most that m
        # slots, started a step apart, overlap, short blocks (m < k, m < d)
        # included; a repeater has two sides, an end node one
        cfg = SimConfig(ChainLayout(20.0, n, big_m, m), j_steps=j, k_steps=k, tau_s=US,
                        tau_o_s=(k + j + (0.5 if wait else -0.5)) * US, p=1.0,
                        num_blocks=1)
        assert cfg.waits_for_herald == wait
        sides = 2 if n else 1
        d = max(j, k) - j
        if wait:
            comm = big_m * min(m, k) + min(j, max(0, m - k))
            mem = m
        else:
            comm = big_m * min(j, m)
            mem = big_m * min(m, d) + m - min(m, d)
        stats = run_protocol_sim(cfg)
        assert (stats.peak_comm_loaded, stats.peak_mem_loaded) == (sides * comm, sides * mem)
        if n:
            # the budgets are the peaks of blocks long enough to reach them
            n_o, n_m = (int(v) for v in ion_budgets(wait, k, j, big_m, m))
            comm_full = m >= (k + j if wait else j)
            mem_full = wait or big_m == 1 or m <= d
            assert (n_o == 2 * comm) == comm_full and n_o >= 2 * comm
            assert (n_m == 2 * mem) == mem_full and n_m >= 2 * mem


class TestPublishedOptima:
    def test_every_figure_optimum_fits_its_ion_budgets(self):
        # each distinct (n, M, m, j, k, regime) optimum of `figure all` at the
        # default grid, replayed for one block at p = 1: the peaks stay within
        # ion_budgets at the integer j and k, and heralded pairs within 2m
        variants = [curve_variant(curve, HardwareProfile())
                    for fig_id in sorted(FIGURES) for curve in FIGURES[fig_id][1]]
        sweeps = sweep_variants(distance_grid(10.0, 500.0, 10.0), variants, SearchBounds())
        replays = {}
        for (spatial_mux, hw, _), rows in zip(variants, sweeps):
            for row in rows:
                res = row.result
                cfg = SimConfig.from_profile(
                    ChainLayout(row.l_km, res.n_opt, spatial_mux, res.m_opt), hw,
                    num_blocks=1, p_override=1.0)
                replays.setdefault((res.n_opt, spatial_mux, res.m_opt, cfg.j_steps,
                                    cfg.k_steps, res.report.regime), cfg)
        assert len(replays) == 1032
        failures = []
        for key, cfg in replays.items():
            _, spatial_mux, m, j, k, _ = key
            stats = run_protocol_sim(cfg)
            n_o, n_m = ion_budgets(cfg.waits_for_herald, k, j, spatial_mux, m)
            if not (stats.peak_comm_loaded <= n_o and stats.peak_mem_loaded <= n_m
                    and stats.peak_heralded <= 2 * m):
                failures.append((key, stats.peak_comm_loaded, stats.peak_mem_loaded,
                                 stats.peak_heralded))
        assert failures == []


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

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(n=st.integers(0, 3), big_m=st.integers(1, 4), m=st.integers(1, 6),
           j=st.integers(1, 3), k=st.integers(1, 6), p=st.sampled_from([0.2, 0.6, 1.0]),
           wait=st.booleans(), seed=st.integers(0, 99))
    def test_budget_pools_suffice_and_bind(self, n, big_m, m, j, k, p, wait, seed):
        # tau_o half a step past T + tau_g waits for the herald, half a step
        # short of it gates blind
        cfg = SimConfig(ChainLayout(20.0, n, big_m, m), j_steps=j, k_steps=k, tau_s=US,
                        tau_o_s=(k + j + (0.5 if wait else -0.5)) * US, p=p,
                        num_blocks=200, seed=seed, trace=True)
        assert cfg.waits_for_herald == wait
        n_o, n_m = (int(v) for v in ion_budgets(wait, k, j, big_m, m))
        unlimited = run_protocol_sim(cfg)
        # pools of the budgets take the grant arithmetic, unlimited ones skip
        # it: both must hand out the same ions
        budgeted = dataclasses.replace(cfg, n_comm_ions=n_o, n_mem_ions=n_m)
        assert run_protocol_sim(budgeted) == unlimited
        # a budget the run reaches is tight: one ion fewer drops attempts; a
        # budget of 1 is left out, since a pool of 0 means unlimited
        if unlimited.peak_comm_loaded == n_o > 1:
            assert run_protocol_sim(dataclasses.replace(cfg, n_comm_ions=n_o - 1)).dropped_comm
        if unlimited.peak_mem_loaded == n_m > 1:
            assert run_protocol_sim(dataclasses.replace(cfg, n_mem_ions=n_m - 1)).dropped_mem

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n=st.integers(0, 3), big_m=st.integers(1, 4), m=st.integers(1, 6),
           j=st.integers(1, 3), k=st.integers(1, 6), p=st.sampled_from([0.2, 0.6, 1.0]),
           seed=st.integers(0, 99))
    def test_waiting_memory_holds_only_heralded_pairs(self, n, big_m, m, j, k, p, seed):
        # waiting for the herald, memory takes only heralded pairs and frees
        # none within a block, so its count is the heralded count at every
        # step, with the memory pool unlimited, at its budget or one ion short
        cfg = SimConfig(ChainLayout(20.0, n, big_m, m), j_steps=j, k_steps=k, tau_s=US,
                        tau_o_s=(k + j + 0.5) * US, p=p, num_blocks=50, seed=seed,
                        trace=True)
        assert cfg.waits_for_herald
        _, n_m = (int(v) for v in ion_budgets(True, k, j, big_m, m))
        for pool in (0, n_m, n_m - 1):
            stats = run_protocol_sim(dataclasses.replace(cfg, n_mem_ions=pool))
            assert stats.peak_heralded == stats.peak_mem_loaded
            gauges = {"mem_loaded": [], "heralded": []}
            for line in stats.trace[1:]:
                step, node, event, count = line.split(",")
                if event in gauges:
                    gauges[event].append((step, node, count))
            assert gauges["mem_loaded"] == gauges["heralded"]

    def test_blind_memory_peak_is_read_at_every_load(self):
        # a binding memory pool fills at the second load, grants less while
        # slots are freed, and the last load (step 6) leaves the repeater at
        # 10 of its 12 ions: the peak must be the highest count, not the last
        cfg = SimConfig(ChainLayout(20.0, 1, 3, 6), j_steps=1, k_steps=3, tau_s=US,
                        tau_o_s=3.5 * US, p=1.0, n_mem_ions=12, num_blocks=5, seed=7,
                        trace=True)
        assert not cfg.waits_for_herald
        stats = run_protocol_sim(cfg)
        gauges = [line.split(",") for line in stats.trace[1:] if ",mem_loaded," in line]
        assert max(int(count) for *_, count in gauges) == stats.peak_mem_loaded == 12
        assert [count for step, node, _, count in gauges if (step, node) == ("6", "1")] == ["10"]
        assert stats.dropped_mem == 80

    def test_huge_pool_is_unlimited(self):
        # a pool past 2Mm, and past what any int32 counter can hold, binds nowhere
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
        # block 0's 131 trace lines are pinned by their sha256
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
            trace="edfca12f2703d1efe6fd590fd915d7b98b932af7e03e3557a68cfa2afc6d7ea3")


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
        pytest.param(SimConfig(ChainLayout(20.0, 2, 10, 3), j_steps=1, k_steps=4, tau_s=US,
                               tau_o_s=5 * US, p=0.1, num_blocks=300, seed=9, trace=True),
                     id="ten-modes"),
        # blind loads are added up in a history reused by every sub-batch, so
        # it must start from zero in the second chunk and in a short last batch
        pytest.param(SimConfig(ChainLayout(20.0, 1, 3, 2), j_steps=1, k_steps=8, tau_s=US,
                               tau_o_s=5 * US, p=0.4, n_comm_ions=6, n_mem_ions=12,
                               num_blocks=mcsim.CHUNK_BLOCKS + 37, seed=6),
                     id="blind-budget-pools-two-chunks"),
    ])
    def test_slicing_keeps_the_stream(self, monkeypatch, cfg):
        lay = cfg.layout
        block = 16 * (lay.n_links + 1) * lay.time_mux  # one block's state budget
        runs = []
        # one row (block) per slice (sub-batch), 7 per slice (a budget no row
        # or block size divides), and a whole chunk in one, as a single draw
        for draw, state in ((1, 1), (8 * lay.spatial_mux * 7 + 3, block * 7 + 3),
                            (1 << 40, 1 << 40)):
            monkeypatch.setattr(mcsim, "DRAW_BYTES", draw)
            monkeypatch.setattr(mcsim, "STATE_BYTES", state)
            runs.append(run_protocol_sim(cfg))
        assert all(run == runs[0] for run in runs[1:])

    @pytest.mark.parametrize("big_m", [*range(1, 18), 31, 32, 33, 64, 255, 256, 300, 1 << 16])
    def test_first_successes_are_the_first_hits(self, monkeypatch, big_m):
        # the weighted max over modes must give argmax's first hit, or M, in
        # the weights' dtype, and draw exactly rows x M uniforms; the weights
        # widen past uint8 at 256 modes and past uint16 at 2**16
        monkeypatch.setattr(mcsim, "DRAW_BYTES", 8 * big_m * 7 + 3)  # 7 rows a slice
        rows = 7 * (40 if big_m < 1 << 16 else 2) + 5
        for p in (0.0, 0.01, 0.3, 1.0):
            rng, ref = np.random.default_rng([3, big_m]), np.random.default_rng([3, big_m])
            hit = ref.random((rows, big_m)) < p
            want = np.where(hit.any(axis=1), np.argmax(hit, axis=1), big_m)
            got = mcsim._first_successes(rng, p, rows, big_m)
            assert got.dtype == np.min_scalar_type(big_m)
            assert np.array_equal(got, want)
            assert rng.random() == ref.random()


class TestStepLoopOracle:
    """The step loop checked exactly, not statistically: a block's outcome
    depends on its draws only through the first success per (link, slot),
    0..M, so a tiny config's every pattern runs as one sub-batch, and the
    block successes weighted by the patterns' probabilities must give the
    closed form."""

    @pytest.mark.parametrize("j, k", [(1, 2), (2, 1), (1, 5)])
    @pytest.mark.parametrize("wait", [True, False])
    def test_weighted_block_success_is_the_closed_form(self, wait, j, k):
        for n, big_m, m in itertools.product(range(3), (1, 2), (1, 2, 3)):
            links = n + 1
            # one block per pattern, slot-major as the step loop reads them
            fs = np.indices((big_m + 1,) * (m * links), dtype=np.min_scalar_type(big_m))
            fs = fs.reshape(m, links, -1)
            cfg = SimConfig(ChainLayout(20.0, n, big_m, m), j_steps=j, k_steps=k, tau_s=US,
                            tau_o_s=(k + j + (0.5 if wait else -0.5)) * US, p=0.5)
            assert cfg.waits_for_herald == wait
            n_o, n_m = (int(v) for v in ion_budgets(wait, k, j, big_m, m))
            for pools in ((0, 0), (n_o, n_m)):
                pooled = dataclasses.replace(cfg, n_comm_ions=pools[0], n_mem_ions=pools[1])
                ok = mcsim._run_batch(pooled, fs, mcsim._histories(pooled.layout, fs.shape[2]),
                                      None)[0]
                for p in (0.1, 0.5, 0.9):
                    # first success at mode i < M, or at none of the M modes
                    law = np.array([p * (1 - p) ** i for i in range(big_m)]
                                   + [(1 - p) ** big_m])
                    weight = law[fs].prod(axis=(0, 1))
                    assert math.isclose(weight.sum(), 1.0, abs_tol=1e-12)
                    exact = (1 - (1 - p) ** (big_m * m)) ** (n + 1)
                    assert abs(weight[ok].sum() - exact) <= 1e-12, (n, big_m, m, pools, p)


class TestCountWidth:
    """A block's counts take the smallest signed type that holds -2Mm and
    2Mm, chosen from the config alone; they must count exactly as int64
    counts do, and reach 2Mm without wrapping at every width's edge."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(n=st.integers(0, 3), big_m=st.integers(1, 4), m=st.integers(1, 6),
           j=st.integers(1, 3), k=st.integers(1, 6), p=st.sampled_from([0.2, 0.6, 1.0]),
           wait=st.booleans(), budget=st.booleans(), seed=st.integers(0, 99))
    def test_narrow_counts_match_int64_counts(self, n, big_m, m, j, k, p, wait, budget, seed):
        cfg = SimConfig(ChainLayout(20.0, n, big_m, m), j_steps=j, k_steps=k, tau_s=US,
                        tau_o_s=(k + j + (0.5 if wait else -0.5)) * US, p=p,
                        num_blocks=200, seed=seed, trace=True)
        assert cfg.waits_for_herald == wait
        if budget:  # pools of the budgets take the grant arithmetic
            n_o, n_m = (int(v) for v in ion_budgets(wait, k, j, big_m, m))
            cfg = dataclasses.replace(cfg, n_comm_ions=n_o, n_mem_ions=n_m)
        assert mcsim._count_dtype(cfg.layout) == np.int8  # 2Mm <= 48 here
        narrow = run_protocol_sim(cfg)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mcsim, "_count_dtype", lambda layout: np.dtype(np.int64))
            assert run_protocol_sim(cfg) == narrow

    @pytest.mark.parametrize("twice_mm, dtype", [
        (126, np.int8), (128, np.int16), (32_766, np.int16), (32_768, np.int32),
        (2 ** 31 - 2, np.int32), (2 ** 31, np.int64), (2 * 131_072 * 2 ** 30, np.int64)])
    def test_count_type_holds_twice_mm(self, twice_mm, dtype):
        # M = 1 or the largest M that SimConfig takes, m = Mm / M
        big_m = 1 if twice_mm < 2 ** 31 else 131_072
        layout = ChainLayout(20.0, 1, big_m, twice_mm // (2 * big_m))
        assert mcsim._count_dtype(layout) == dtype

    @pytest.mark.parametrize("big_m, m", [(1, 63), (1, 64), (3, 5461), (128, 128),
                                          (131_072, 8193)])
    def test_comm_peak_is_twice_mm_in_the_wait_regime(self, big_m, m):
        # every mode misses, so the repeater holds 2M comm ions from each of
        # the m slots until the first herald, k > m steps in; at M = 131,072
        # and m = 8193, 2Mm = 2,147,745,792 is past int32
        cfg = SimConfig(ChainLayout(1.0, 1, big_m, m), j_steps=1, k_steps=10_000,
                        tau_s=1e-9, tau_o_s=50e-6, p=1e-12)
        assert cfg.waits_for_herald
        fs = np.full((m, 2, 1), big_m, dtype=np.min_scalar_type(big_m))
        peaks = mcsim._run_batch(cfg, fs, mcsim._histories(cfg.layout, 1), None)[1]
        assert peaks.tolist() == [2 * big_m * m, 0, 0]

    @pytest.mark.parametrize("m", [63, 64])
    @pytest.mark.parametrize("pool", [0, 100, 128, 2 ** 40])
    def test_blind_memory_peak_is_twice_mm(self, m, pool):
        # p = 1 and k > m: every slot loads both sides' one mode before the
        # first is freed, so the repeater holds 2Mm = 126 or 128 memory ions,
        # past int8 at 128; a pool of 100 binds, one of 128 or more does not
        cfg = SimConfig(ChainLayout(20.0, 1, 1, m), j_steps=1, k_steps=80, tau_s=US,
                        tau_o_s=80 * US, p=1.0, n_mem_ions=pool)
        assert not cfg.waits_for_herald
        stats = run_protocol_sim(cfg)
        assert stats.peak_mem_loaded == min(pool or 2 * m, 2 * m)
        assert (stats.dropped_mem > 0) == (pool == 100)


class TestEventSteps:
    """Chunks run only the steps where an event comes due, traced or not."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 3), big_m=st.integers(1, 3), m=st.integers(1, 8),
           j=st.integers(1, 8), k=st.integers(1, 40), tau_o_us=st.floats(0.5, 80.0),
           p=st.sampled_from([0.0, 0.2, 0.6, 1.0]), pool_c=st.integers(0, 12),
           pool_m=st.integers(0, 12), blocks=st.integers(1, 40), seed=st.integers(0, 99))
    def test_trace_changes_no_stats(self, n, big_m, m, j, k, tau_o_us, p, pool_c, pool_m,
                                    blocks, seed):
        # quiet steps change nothing: walking every step gives the same stats
        # and the same trace once each event step's gauges are repeated at the
        # quiet steps up to the next event step
        cfg = SimConfig(ChainLayout(20.0, n, big_m, m), j_steps=j, k_steps=k, tau_s=US,
                        tau_o_s=tau_o_us * US, p=p, n_comm_ions=pool_c,
                        n_mem_ions=pool_m, num_blocks=blocks, seed=seed, trace=True)
        event_steps = mcsim._event_steps
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mcsim, "_event_steps", lambda *a: range(event_steps(*a)[-1] + 1))
            every_step = run_protocol_sim(cfg)
        traced = run_protocol_sim(cfg)
        steps = event_steps(m, slot_events(cfg.waits_for_herald, k, j))
        by_step = {}
        for line in traced.trace[1:]:
            by_step.setdefault(int(line.split(",")[0]), []).append(line)
        assert set(by_step) <= set(steps)
        expanded = traced.trace[:1]
        for t, upto in zip(steps, [*steps[1:], steps[-1] + 1]):
            lines = by_step.get(t, [])
            gauges = [line.split(",", 1)[1] for line in lines
                      if line.split(",")[2] in ("comm_loaded", "mem_loaded", "heralded")]
            expanded += lines + [f"{u},{g}" for u in range(t + 1, upto) for g in gauges]
        assert dataclasses.replace(traced, trace=expanded) == every_step
        untraced = run_protocol_sim(dataclasses.replace(cfg, trace=False))
        assert dataclasses.replace(traced, trace=None) == untraced

    def test_traced_long_clock_runs_only_its_events(self, monkeypatch):
        # simulate --tau-us 0.01 --n 3 --time-mux 3 --spatial-mux 3 --num-blocks 8192
        # --trace: 18,590 steps a block, 9 steps run, 120 trace lines written at them
        cfg = SimConfig.from_profile(ChainLayout(150, 3, 3, 3),
                                     HardwareProfile().updated(tau=1e-8),
                                     num_blocks=8192, trace=True)
        runs = []
        event_steps = mcsim._event_steps
        monkeypatch.setattr(mcsim, "_event_steps",
                            lambda *args: runs.append(event_steps(*args)) or runs[-1])
        stats = run_protocol_sim(cfg)
        assert (cfg.k_steps, stats.block_steps, len(stats.trace)) == (18_388, 18_590, 121)
        assert [len(steps) for steps in runs] == [9]
        text = "\n".join(stats.trace) + "\n"  # the bytes simulate --trace writes
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "3fb4927542736b1939ca97a2e0b9ce60cbb29246822964590918cfc5651eb205")

    @pytest.mark.parametrize("tau_o_s, wait, lines", [(1.0, True, 141), (US, False, 149)])
    def test_trace_length_does_not_grow_with_the_clock(self, tau_o_s, wait, lines):
        # lines are written at event steps only, so a clock 100 times longer
        # writes as many; p = 1 fills every slot
        for k in (3_000, 300_000):
            cfg = SimConfig(ChainLayout(20.0, 2, 3, 4), j_steps=2, k_steps=k, tau_s=US,
                            tau_o_s=tau_o_s, p=1.0, trace=True)
            assert cfg.waits_for_herald == wait
            assert len(run_protocol_sim(cfg).trace) == lines

    def test_long_clock_runs_only_its_events(self):
        # 18.6 million steps a block, of which 9 can change a count
        cfg = SimConfig.from_profile(ChainLayout(150, 3, 10, 3),
                                     HardwareProfile().updated(tau=1e-11),
                                     num_blocks=50, seed=5, p_override=0.1)
        assert (cfg.j_steps, cfg.k_steps, cfg.waits_for_herald) == (100_000, 18_387_721,
                                                                     False)
        assert run_protocol_sim(cfg) == SimStats(
            block_steps=18_587_723, blocks_run=50, successes=45,
            empirical_block_success=0.9, empirical_rate=4841.905595429844,
            peak_comm_loaded=60, peak_mem_loaded=60, peak_heralded=6, dropped_comm=0,
            dropped_mem=0)


class TestDrawMemory:
    """A run's traced allocations stay within one sub-batch's state budget
    and a few MiB for the draw buffer and a step's temporaries."""

    @staticmethod
    def _traced_run(cfg):
        tracemalloc.start()
        try:
            stats = run_protocol_sim(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < mcsim.STATE_BYTES + 4 * 2 ** 20
        return stats

    @staticmethod
    def _batch_sizes(monkeypatch):
        """The list each later sub-batch's block count is appended to."""
        sizes, run_batch = [], mcsim._run_batch

        def recording(config, fs, hist, trace):
            sizes.append(fs.shape[2])  # fs is slot-major: (m, links, blocks)
            return run_batch(config, fs, hist, trace)

        monkeypatch.setattr(mcsim, "_run_batch", recording)
        return sizes

    def test_sub_batch_is_the_state_budget_over_a_blocks_state(self, monkeypatch):
        # int8 counts and uint8 first successes: a block's state is 16 B for
        # each of its (n + 2)(m + 3) (node, slot) cells, so a budget of five
        # blocks and a few bytes runs sub-batches of five
        cfg = oracle_config(num_blocks=23)
        lay = cfg.layout
        assert (mcsim._count_dtype(lay), np.min_scalar_type(lay.spatial_mux)) == (
            np.int8, np.uint8)
        block = 16 * (lay.n_repeaters + 2) * (lay.time_mux + 3)
        monkeypatch.setattr(mcsim, "STATE_BYTES", 5 * block + 7)
        sizes = self._batch_sizes(monkeypatch)
        run_protocol_sim(cfg)
        assert max(sizes) == mcsim.STATE_BYTES // block == 5
        assert sum(sizes) == cfg.num_blocks

    @pytest.mark.parametrize("chunk", [3, 9])
    @pytest.mark.parametrize("cfg", [
        pytest.param(oracle_config(num_blocks=40, trace=True), id="wait"),
        pytest.param(blind_config(p=0.4, n_comm_ions=5, n_mem_ions=10, num_blocks=40,
                                  trace=True), id="blind-pools"),
    ])
    def test_sub_batches_span_chunks(self, monkeypatch, chunk, cfg):
        # a chunk is the unit of seeding only: sub-batches of 7 blocks take
        # blocks of two or three 3-block chunks, or go on with a 9-block
        # chunk's generator where the last sub-batch left it, and the stats
        # and trace are those of one block per sub-batch
        lay = cfg.layout
        block = 16 * (lay.n_repeaters + 2) * (lay.time_mux + 3)
        monkeypatch.setattr(mcsim, "CHUNK_BLOCKS", chunk)
        monkeypatch.setattr(mcsim, "STATE_BYTES", 1)
        alone = run_protocol_sim(cfg)
        monkeypatch.setattr(mcsim, "STATE_BYTES", 7 * block + 4)
        sizes = self._batch_sizes(monkeypatch)
        assert run_protocol_sim(cfg) == alone
        assert sizes[:-1] == [mcsim.STATE_BYTES // block] * (len(sizes) - 1)
        assert sum(sizes) == cfg.num_blocks
        ends = list(itertools.accumulate(sizes))
        assert any(lo // chunk < (hi - 1) // chunk for lo, hi in zip([0, *ends], ends))

    def test_headline_run_stays_within_the_state_budget(self):
        # n = 88, M = 10, m = 25: one draw of the whole chunk would take 391 MiB,
        # and the chunk's state in one batch 81 MiB
        cfg = SimConfig.from_profile(ChainLayout(150, 88, 10, 25), HardwareProfile(),
                                     num_blocks=2048)
        assert self._traced_run(cfg) == SimStats(
            block_steps=36, blocks_run=2048, successes=1827,
            empirical_block_success=0.89208984375, empirical_rate=24780.2734375,
            peak_comm_loaded=182, peak_mem_loaded=27, peak_heralded=27, dropped_comm=0,
            dropped_mem=0)

    def test_criterion_seven_largest_run_stays_within_the_state_budget(self):
        # n = 3, M = 3, m = 5, the oracle grid's largest shape: its 100,000
        # blocks run in four sub-batches of up to 26,214 blocks, across chunks
        cfg = SimConfig(ChainLayout(40.0, 3, 3, 5), j_steps=1, k_steps=2, tau_s=US,
                        tau_o_s=50 * US, p=0.1, num_blocks=100_000, seed=177)
        assert self._traced_run(cfg) == SimStats(
            block_steps=9, blocks_run=100_000, successes=39911,
            empirical_block_success=0.39911, empirical_rate=44345.55555555556,
            peak_comm_loaded=14, peak_mem_loaded=9, peak_heralded=9, dropped_comm=0,
            dropped_mem=0)

    def test_long_chain_chunk_stays_within_the_state_budget(self):
        # n = 20, M = 1, m = 100: a whole chunk's state in one batch takes 276 MiB
        cfg = SimConfig.from_profile(ChainLayout(150, 20, 1, 100), HardwareProfile(),
                                     num_blocks=mcsim.CHUNK_BLOCKS)
        assert self._traced_run(cfg) == SimStats(
            block_steps=138, blocks_run=8192, successes=525,
            empirical_block_success=0.0640869140625, empirical_rate=464.39792798913044,
            peak_comm_loaded=74, peak_mem_loaded=17, peak_heralded=17, dropped_comm=0,
            dropped_mem=0)

    def test_one_slot_long_chain_stays_within_the_state_budget(self):
        # n = 100, M = 1, m = 1: the per-node counters outweigh the per-slot
        # histories, and a chunk's 8192 blocks in one batch took 52 MiB
        cfg = SimConfig.from_profile(ChainLayout(150, 100, 1, 1), HardwareProfile(),
                                     num_blocks=mcsim.CHUNK_BLOCKS, p_override=0.97)
        assert self._traced_run(cfg) == SimStats(
            block_steps=11, blocks_run=8192, successes=361,
            empirical_block_success=0.0440673828125, empirical_rate=4006.125710227273,
            peak_comm_loaded=2, peak_mem_loaded=2, peak_heralded=2, dropped_comm=0,
            dropped_mem=0)


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

    def test_memory_peak_past_the_pool_fails(self, monkeypatch):
        # the simulator never loads past its pool, so hand the verdict an
        # unpooled run and a pool one ion below that run's memory peak
        layout, hw = self._layout_and_hw()
        cfg = SimConfig.from_profile(layout, hw, num_blocks=2000, seed=3)
        stats = run_protocol_sim(cfg)
        monkeypatch.setattr(mcsim, "run_protocol_sim", lambda config: stats)
        report = evaluate_rate(layout, hw)
        for pool, passed in ((stats.peak_mem_loaded, True),
                             (stats.peak_mem_loaded - 1, False)):
            verdict = validate_against_analytic(
                dataclasses.replace(cfg, n_mem_ions=pool), report)
            assert not any("FAIL" in line for line in verdict.checks)
            assert verdict.passed is passed

    @pytest.mark.parametrize("wait, pool, peaks, lines", [
        (True, 0, (15, 13, 13), ["comm peak 15 <= 2(Mk+j) = 14: FAIL",
                                 "mem peak 13 <= 2m = 12: FAIL",
                                 "heralded peak 13 <= 2m = 12: FAIL"]),
        (False, 0, (7, 25, 9), ["comm peak 7 == 2M min(j, m) = 6: FAIL",
                                "mem peak 25 <= 2Mm = 24: FAIL",
                                "heralded peak 9 <= 2m = 8: FAIL"]),
        (False, 0, (5, 24, 8), ["comm peak 5 == 2M min(j, m) = 6: FAIL",
                                "mem peak 24 <= 2Mm = 24: ok",
                                "heralded peak 8 <= 2m = 8: ok"]),
        (False, 5, (6, 24, 8), ["comm peak 6 == min(2M min(j, m), n_comm_ions) = 5: FAIL",
                                "mem peak 24 <= 2Mm = 24: ok",
                                "heralded peak 8 <= 2m = 8: ok"]),
    ], ids=["wait", "blind", "blind-below-its-cap", "blind-pooled"])
    def test_peaks_past_their_bounds_fail(self, wait, pool, peaks, lines):
        # wait: M = 2, m = 6, j = 1, k = 3; blind: M = 3, m = 4, j = 1. Block
        # success is the analytic value, so only the peaks can fail
        layout, hw = (self._layout_and_hw() if wait else
                      (ChainLayout(8.0, 1, 3, 4), HardwareProfile().updated(tau_o=5 * US)))
        cfg = SimConfig.from_profile(layout, hw, num_blocks=100, n_comm_ions=pool)
        assert cfg.waits_for_herald is wait
        report = evaluate_rate(layout, hw)
        comm, mem, her = peaks
        stats = SimStats(block_steps=cfg.block_steps, blocks_run=100, successes=0,
                         empirical_block_success=report.block_success, empirical_rate=0.0,
                         peak_comm_loaded=comm, peak_mem_loaded=mem, peak_heralded=her,
                         dropped_comm=0, dropped_mem=0)
        verdict = mcsim.validate_stats(cfg, report, stats)
        assert verdict.z_score == 0.0
        assert verdict.checks[1:] == lines
        assert verdict.passed is False

    @pytest.mark.parametrize("analytic, blocks, successes, z, passed", [
        (1.0, 100, 100, 0.0, True),
        (1.0, 100, 99, math.inf, False),
        (0.5, 16, 14, 3.0, True),
        (0.5, 16, 2, 3.0, True),
        (0.5, 16, 15, 3.5, False),
    ], ids=["100-0.0-True", "99-inf-False", "14-3.0-True", "2-3.0-True", "15-3.5-False"])
    def test_certain_blocks_have_no_spread(self, analytic, blocks, successes, z, passed):
        # at block success exactly 1 the binomial sd is 0: a run where every
        # block succeeded has z = 0, and one failed block puts it at z = inf.
        # At 0.5 over 16 blocks the sd is 1/8, so 14 or 2 successes sit at
        # z = SIGMA = 3 exactly, and pass. The peaks are at their bounds
        # (M = 2, m = 6, j = 1, k = 3), so only block success decides
        layout, hw = self._layout_and_hw()
        cfg = SimConfig.from_profile(layout, hw, num_blocks=blocks)
        report = dataclasses.replace(evaluate_rate(layout, hw), block_success=analytic)
        stats = SimStats(block_steps=cfg.block_steps, blocks_run=blocks, successes=successes,
                         empirical_block_success=successes / blocks, empirical_rate=0.0,
                         peak_comm_loaded=14, peak_mem_loaded=12, peak_heralded=12,
                         dropped_comm=0, dropped_mem=0)
        verdict = mcsim.validate_stats(cfg, report, stats)
        assert verdict.z_score == z
        assert verdict.passed is passed

    @pytest.mark.xfail(raises=AssertionError,
                       reason="validate_stats demands 2M min(j, m) comm ions, but each "
                              "end node serves one fiber side and peaks at M min(j, m)")
    def test_consistent_run_without_repeaters_passes(self):
        layout, hw = ChainLayout(20.0, 0, 2, 3), HardwareProfile()
        cfg = SimConfig.from_profile(layout, hw, num_blocks=20_000)
        verdict = validate_against_analytic(cfg, evaluate_rate(layout, hw))
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

    @pytest.mark.parametrize("n, expected", [(1, 0.018943170488534396),
                                             (7, 0.11864406779661017),
                                             (40, 0.3778664007976072)])
    def test_draw_size_changes_no_result(self, monkeypatch, n, expected):
        # one trial a draw, 7 a draw (a budget no row size divides), and all
        # 1003 in one, which is how the value was pinned
        noise = NoiseParams(f0=0.99, eps_g=1e-2)
        for draw in (1, 8 * n * 7 + 3, 1 << 40):
            monkeypatch.setattr(mcsim, "DRAW_BYTES", draw)
            assert sample_end_to_end_Q(n, noise, 1003, seed=4) == expected

    def test_draws_stay_within_the_draw_budget(self):
        # n = 1000 with 10,000 trials took 80 MB as one draw, and n = 2,000,000
        # with 3 took 19 MB as one row a draw
        for n, trials, expected in ((1000, 10_000, 0.4959), (2_000_000, 3, 1 / 3)):
            tracemalloc.start()
            try:
                q = sample_end_to_end_Q(n, NoiseParams(f0=0.99, eps_g=1e-2), trials, seed=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert q == expected
            assert peak < 2 * mcsim.DRAW_BYTES, n

    @pytest.mark.parametrize("n, trials, match", [
        (3, 0, "trials must be a positive integer, got 0"),
        (-1, 100, "n must be a nonnegative integer, got -1"),
        (1.5, 10, "n must be a nonnegative integer, got 1.5"),
        (3, 2.5, "trials must be a positive integer, got 2.5")])
    def test_rejects_bad_counts(self, n, trials, match):
        with pytest.raises(ValueError, match=match):
            sample_end_to_end_Q(n, NoiseParams(f0=0.999, eps_g=1e-3), trials)

    def test_rejects_unphysical_noise(self):
        with pytest.raises(ValueError, match=r"^swap survival factor 1 - 2 eps_g - "
                                             r"\(4/3\)\(1 - f0\) is below 0 at "
                                             r"eps_g=1.0, f0=0.25$"):
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
        assert cfg.waits_for_herald == (rep.regime in (Regime.B2, Regime.C2))
        assert cfg.block_steps == pytest.approx(rep.denominator_steps, rel=1e-12)
        # the replay's last event, then the swap and the readout, ends the block
        events = slot_events(cfg.waits_for_herald, k, j)
        assert mcsim._event_steps(m, events)[-1] + 2 * j == cfg.block_steps
