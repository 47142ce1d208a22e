"""Integer-step Monte Carlo replay of the multiplexed repeater protocol.

Each block runs m generation slots. Every slot, every node fires up to M
communication-ion attempts per fiber side; a link-level attempt succeeds with
probability p and its herald arrives k steps later. What happens next depends
on whether communication ions live long enough to wait for that herald:

- blind gating (short-lived comm ions): every attempted mode is swapped into
  memory j steps after generation; heralds later decide which single loaded
  pair per link slot survives and the rest are freed.
- wait-for-herald (long-lived comm ions): failed modes are freed when the
  herald arrives at slot+k; the one heralded mode per link is gated into
  memory, occupying its comm ions until slot+k+j.

Occupancy bookkeeping frees ions before the same step's new initializations,
which is what lets a fixed pool of 2jM (blind) or 2(Mk+j) (wait) comm ions
cycle forever. Blocks do not pipeline: a block's wall time in steps equals
its rate denominator and every block starts from empty traps.

Pool rule, for comm and memory ions alike: a node serves its left fiber side
first, an end node's whole pool serves its one side, and a link gets the
smaller of its two ends' grants.

Determinism: blocks are simulated in fixed-size chunks; chunk c draws all of
its randomness up front from numpy's default generator seeded with
(seed, c). Merging chunk counters is order-independent, so results are
bit-identical for a given (config, seed) no matter how chunks are scheduled.

Memory: a chunk's uniforms, one per (block, link, slot, mode) in C order,
are drawn a slice of rows at a time into one reused float64 buffer of
max(DRAW_BYTES, 8M) bytes, whatever the block count or chain length; each
slice is reduced at once to the first successful mode per (block, link,
slot). Drawing random(a) then random(b) yields the same stream as
random(a + b), so the slicing changes no result. What grows with the chunk
is the state, kept node-major with blocks last: the first successes, read as
an m x links x blocks view of their block-major order, and three int32
histories of m x (links or nodes) x blocks, about 18 MB each at n = 88,
m = 25 and 2048 blocks; the per-node counters are nodes x blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import (
    ChainLayout,
    HardwareProfile,
    NoiseParams,
    derive_timing,
    link_success_prob,
    swap_survival_factor,
)
from .rates import RateReport, block_denominator, ceil_tol, formula_groups, ion_budgets

CHUNK_BLOCKS = 8192
DRAW_BYTES = 1 << 20  # the draw buffer, whatever the chunk or chain
_UNLIMITED = 1 << 30


@dataclass(frozen=True)
class SimConfig:
    layout: ChainLayout
    j_steps: int
    k_steps: int
    tau_s: float
    tau_o_s: float
    p: float
    n_comm_ions: int = 0  # per node, 0 = unlimited
    n_mem_ions: int = 0
    num_blocks: int = 1
    seed: int = 0
    trace: bool = False

    def __post_init__(self) -> None:
        if self.j_steps < 1 or self.k_steps < 1:
            raise ValueError(
                f"j_steps and k_steps must be >= 1, got {self.j_steps}, {self.k_steps}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"p must be in [0, 1], got {self.p}")
        if self.tau_s <= 0 or self.tau_o_s <= 0:
            raise ValueError("tau_s and tau_o_s must be positive")
        if self.num_blocks < 1:
            raise ValueError(f"num_blocks must be >= 1, got {self.num_blocks}")
        if self.n_comm_ions < 0 or self.n_mem_ions < 0:
            raise ValueError("ion pools must be >= 0 (0 means unlimited)")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    def _formula_groups(self):
        # the analytic regime tests, read at the quantized times k tau, j tau
        return formula_groups(self.k_steps * self.tau_s, self.j_steps * self.tau_s,
                              self.tau_o_s)

    @property
    def waits_for_herald(self) -> bool:
        return bool(self._formula_groups()[0])

    @property
    def block_steps(self) -> int:
        """Wall steps per block: the regime denominator at the integer j, k."""
        return int(block_denominator(*self._formula_groups(), self.k_steps,
                                     self.layout.time_mux, self.j_steps))

    @classmethod
    def from_profile(cls, layout: ChainLayout, hw: HardwareProfile,
                     num_blocks: int, seed: int = 0,
                     p_override: Optional[float] = None,
                     n_comm_ions: int = 0, n_mem_ions: int = 0,
                     trace: bool = False) -> "SimConfig":
        timing = derive_timing(layout, hw)
        p = link_success_prob(hw.optical, layout.link_length_km) \
            if p_override is None else p_override
        return cls(
            layout=layout,
            j_steps=int(ceil_tol(timing.j_steps)),
            k_steps=int(ceil_tol(timing.k_steps)),
            tau_s=hw.timing.tau,
            tau_o_s=hw.timing.tau_o,
            p=p,
            n_comm_ions=n_comm_ions,
            n_mem_ions=n_mem_ions,
            num_blocks=num_blocks,
            seed=seed,
            trace=trace,
        )


@dataclass(frozen=True)
class SimStats:
    block_steps: int
    blocks_run: int
    successes: int
    empirical_block_success: float
    empirical_rate: float
    peak_comm_loaded: int
    peak_mem_loaded: int
    peak_heralded: int
    dropped_comm: int
    dropped_mem: int
    trace: Optional[list[str]] = None


def _fold(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Per-node totals of per-link sides: link i is node i + 1's left, node i's right."""
    out = np.zeros((len(left) + 1, left.shape[1]), dtype=np.int32)
    out[1:] = left
    out[:-1] += right
    return out


def _grant(want: np.ndarray, used: np.ndarray, pool: int) -> tuple[np.ndarray, ...]:
    """(at_left, at_right, per_link): a per-link want granted by the pool rule.

    at_left[i] is the grant of link i's right end, which serves it as its
    left side, and at_right[i] that of its left end. No grant exceeds its
    want; a pool of _UNLIMITED grants every want, as no count comes near it.
    """
    budget = np.maximum(pool - used, 0)
    at_left = np.minimum(want, budget[1:])
    budget[1:-1] -= at_left[:-1]
    at_right = np.minimum(want, budget[:-1])
    return at_left, at_right, np.minimum(at_left, at_right)


def _first_successes(rng: np.random.Generator, p: float, rows: int,
                     big_m: int) -> np.ndarray:
    """Per row of M mode draws, the first mode below p; M when none is.

    The rows are filled in order, a slice at a time, into one buffer of
    DRAW_BYTES (at least one row), so the generator is consumed exactly as
    by one rng.random((rows, M)).
    """
    fsi = np.empty(rows, dtype=np.int32)
    per = max(1, DRAW_BYTES // (8 * big_m))
    buf = np.empty((min(per, rows), big_m))
    hit = np.empty(buf.shape, dtype=bool)
    for lo in range(0, rows, per):
        n = min(per, rows - lo)
        rng.random(out=buf[:n])
        np.less(buf[:n], p, out=hit[:n])
        first = np.argmax(hit[:n], axis=1)
        # argmax reads 0 both for a hit at mode 0 and for no hit at all
        fsi[lo:lo + n] = np.where((first == 0) & ~hit[:n, 0], big_m, first)
    return fsi


def _run_chunk(config: SimConfig, chunk_index: int, cb: int,
               collect_trace: bool):
    lay = config.layout
    n_links = lay.n_links
    m, big_m = lay.time_mux, lay.spatial_mux
    j, k = config.j_steps, config.k_steps
    wait = config.waits_for_herald
    # a pool past 2**30 binds nowhere, and the clamp keeps its budget int32
    pool_c = min(config.n_comm_ions or _UNLIMITED, _UNLIMITED)
    pool_m = min(config.n_mem_ions or _UNLIMITED, _UNLIMITED)

    rng = np.random.default_rng([config.seed, chunk_index])
    fsi = _first_successes(rng, config.p, cb * n_links * m, big_m).reshape(cb, n_links, m).T

    used_comm = np.zeros((n_links + 1, cb), dtype=np.int32)
    used_mem = np.zeros_like(used_comm)
    heralded = np.zeros_like(used_comm)
    # per-slot history read when the slot's freeing step comes due: attempts
    # per link, the pair per link that may still succeed, and blind loads
    att = np.zeros((m, n_links, cb), dtype=np.int32)
    kept = np.zeros_like(att)
    loaded = np.zeros((m, n_links + 1, cb), dtype=np.int32)
    link_ok = np.zeros((n_links, cb), dtype=bool)
    want_init = np.full((n_links, cb), big_m, dtype=np.int32)
    dropped_comm = dropped_mem = 0
    peaks = np.zeros(3, dtype=np.int64)
    trace: list[str] = []

    def note(step: int, node_vals: np.ndarray, event: str) -> None:
        if not collect_trace:
            return
        for node, count in enumerate(node_vals[:, 0]):
            if count:
                trace.append(f"{step},{node},{event},{int(count)}")

    # the last herald decision lands 2j steps before the block ends
    for t in range(config.block_steps - 2 * j + 1):
        freed_c = np.zeros_like(used_comm)
        freed_m = np.zeros_like(used_mem)

        if wait:
            s = t - k
            if 0 <= s < m:
                # heralds arrive: free every mode except the one kept for gating
                kept[s] = fsi[s] < att[s]
                idle = att[s] - kept[s]
                freed_c += _fold(idle, idle)
            s = t - k - j
            if 0 <= s < m:
                # gate done on the kept mode: comm ion retires, memory loads
                freed_c += _fold(kept[s], kept[s])
                _, _, pair_ok = _grant(kept[s], used_mem, pool_m)
                load = _fold(pair_ok, pair_ok)
                used_mem += load
                heralded += load
                link_ok |= pair_ok > 0
                dropped_mem += int((kept[s] - pair_ok).sum())
                note(t, load, "load_mem")
                note(t, load, "herald")
        else:
            s = t - j
            if 0 <= s < m:
                # blind gates complete: comm ions retire, all attempts load
                freed_c += _fold(att[s], att[s])
                at_left, at_right, kept[s] = _grant(att[s], used_mem, pool_m)
                loaded[s] = load = _fold(at_left, at_right)
                used_mem += load
                dropped_mem += int(2 * att[s].sum() - load.sum())
                note(t, load, "load_mem")
            # keeps run after loads: with k <= j both land on the same step
            # and the heralds are already in hand when the gate finishes
            s = t - max(j, k)
            if 0 <= s < m:
                # keep one surviving pair per link, free the rest of the loads
                surv = fsi[s] < kept[s]
                link_ok |= surv
                held = _fold(surv, surv)
                freed_m += loaded[s] - held
                heralded += held
                note(t, held, "herald")

        used_comm -= freed_c
        used_mem -= freed_m
        note(t, freed_c, "free_comm")
        note(t, freed_m, "free_mem")

        if t < m:
            _, _, att[t] = _grant(want_init, used_comm, pool_c)
            init = _fold(att[t], att[t])
            used_comm += init
            dropped_comm += int((big_m - att[t]).sum())
            note(t, init, "init")

        peaks[0] = max(peaks[0], int(used_comm.max()))
        peaks[1] = max(peaks[1], int(used_mem.max()))
        peaks[2] = max(peaks[2], int(heralded.max()))
        if collect_trace:
            note(t, used_comm, "comm_loaded")
            note(t, used_mem, "mem_loaded")
            note(t, heralded, "heralded")

    successes = int(link_ok.all(axis=0).sum())
    return successes, peaks, dropped_comm, dropped_mem, trace


def run_protocol_sim(config: SimConfig) -> SimStats:
    """Simulate num_blocks independent protocol blocks and tally statistics.

    Pool exhaustion never aborts a block; starved attempts are counted in
    dropped_comm / dropped_mem. The optional trace covers block 0 only, as
    CSV lines "step,node,event,count" (counts of zero are omitted except for
    the per-step gauge events comm_loaded / mem_loaded / heralded, which are
    emitted whenever nonzero).
    """
    total = config.num_blocks
    successes = 0
    dropped_c = 0
    dropped_m = 0
    peaks = np.zeros(3, dtype=np.int64)
    trace: Optional[list[str]] = ["step,node,event,count"] if config.trace else None
    done = 0
    chunk_index = 0
    while done < total:
        cb = min(CHUNK_BLOCKS, total - done)
        s, pk, dc, dm, tr = _run_chunk(
            config, chunk_index, cb,
            collect_trace=config.trace and chunk_index == 0)
        successes += s
        dropped_c += dc
        dropped_m += dm
        peaks = np.maximum(peaks, pk)
        if trace is not None and tr:
            trace.extend(tr)
        done += cb
        chunk_index += 1

    steps = config.block_steps
    return SimStats(
        block_steps=steps,
        blocks_run=total,
        successes=successes,
        empirical_block_success=successes / total,
        empirical_rate=successes / (total * steps * config.tau_s),
        peak_comm_loaded=int(peaks[0]),
        peak_mem_loaded=int(peaks[1]),
        peak_heralded=int(peaks[2]),
        dropped_comm=dropped_c,
        dropped_mem=dropped_m,
        trace=trace,
    )


@dataclass(frozen=True)
class ValidationVerdict:
    passed: bool
    z_score: float
    expected_block_success: float
    observed_block_success: float
    quantization_delta_n_o: int
    checks: list[str]


def validate_against_analytic(config: SimConfig, report: RateReport,
                              sigma: float = 3.0) -> ValidationVerdict:
    """Run the simulator and compare it against an analytic RateReport.

    Block success must sit within sigma binomial standard deviations of the
    analytic value; occupancy peaks must respect the ion requirements, with
    equality demanded where the requirement is exact (blind-regime comm ions
    once m >= j, so the pipeline saturates, or the n_comm_ions pool when it
    is smaller).
    """
    stats = run_protocol_sim(config)
    expected = report.block_success
    sd = math.sqrt(max(expected * (1.0 - expected), 0.0) / config.num_blocks)
    diff = abs(stats.empirical_block_success - expected)
    z = diff / sd if sd > 0 else (0.0 if diff == 0 else math.inf)
    ok = z <= sigma
    checks = [f"block success: observed {stats.empirical_block_success:.6g} "
              f"vs analytic {expected:.6g}, z = {z:.3g}"]

    lay = config.layout
    m, big_m, j, k = lay.time_mux, lay.spatial_mux, config.j_steps, config.k_steps
    wait = config.waits_for_herald
    n_o, n_m = (int(v) for v in ion_budgets(wait, k, j, big_m, m))
    if wait:
        comm_ok = stats.peak_comm_loaded <= n_o
        checks.append(f"comm peak {stats.peak_comm_loaded} <= 2(Mk+j) = {n_o}: "
                      f"{'ok' if comm_ok else 'FAIL'}")
    else:
        cap, bound = 2 * big_m * min(j, m), "2M min(j, m)"
        if config.n_comm_ions:
            cap, bound = min(cap, config.n_comm_ions), f"min({bound}, n_comm_ions)"
        comm_ok = stats.peak_comm_loaded == cap
        checks.append(f"comm peak {stats.peak_comm_loaded} == {bound} = {cap}: "
                      f"{'ok' if comm_ok else 'FAIL'}")
    mem_ok = stats.peak_mem_loaded <= n_m
    checks.append(f"mem peak {stats.peak_mem_loaded} <= {'2m' if wait else '2Mm'} "
                  f"= {n_m}: {'ok' if mem_ok else 'FAIL'}")
    her_ok = stats.peak_heralded <= 2 * m
    checks.append(f"heralded peak {stats.peak_heralded} <= 2m = {2 * m}: "
                  f"{'ok' if her_ok else 'FAIL'}")
    pools_ok = True
    if config.n_comm_ions:
        pools_ok &= stats.peak_comm_loaded <= config.n_comm_ions
    if config.n_mem_ions:
        pools_ok &= stats.peak_mem_loaded <= config.n_mem_ions

    return ValidationVerdict(
        passed=ok and comm_ok and mem_ok and her_ok and pools_ok,
        z_score=z,
        expected_block_success=expected,
        observed_block_success=stats.empirical_block_success,
        quantization_delta_n_o=n_o - report.n_o,
        checks=checks,
    )


def sample_end_to_end_Q(n: int, noise: NoiseParams, trials: int,
                        seed: int = 0) -> float:
    """Monte Carlo estimate of the end-to-end error-flag probability Q(n).

    Each swap flips a two-valued error flag with probability (1 - x)/2, so
    the flag's polarization contracts by x per hop and the odd-flip
    probability converges to Q(n).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    x = swap_survival_factor(noise)
    if abs(x) > 1.0:
        raise ValueError(f"survival factor x={x:.6g} outside [-1, 1]; "
                         "flip probability undefined")
    if n == 0:
        return 0.0
    flip_p = 0.5 * (1.0 - x)
    rng = np.random.default_rng([seed])
    odd = 0
    chunk = 100_000
    left = trials
    while left > 0:
        rows = min(chunk, left)
        flips = rng.random((rows, n)) < flip_p
        odd += int((flips.sum(axis=1) % 2 == 1).sum())
        left -= rows
    return odd / trials
