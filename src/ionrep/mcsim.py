"""Integer-step Monte Carlo replay of the multiplexed repeater protocol.

Each block runs m generation slots. Every slot, every node fires up to M
communication-ion attempts per fiber side; a link-level attempt succeeds with
probability p and its herald arrives k steps later. The formula group from
rates.waits_for_herald, read at the integer j and k, decides what happens
next, and rates.slot_events gives the two steps after its start at which a
slot acts:

- blind gating (short-lived comm ions): at the first event, j steps in,
  every attempted mode is in memory; at the second, once the gate is done
  and the heralds are in hand, they decide which single loaded pair per
  link slot survives and the rest are freed.
- wait-for-herald (long-lived comm ions): failed modes are freed when the
  herald arrives, the first event; the one heralded mode per link is gated
  into memory, occupying its comm ions until the second, j steps later.

Only slot starts and these events change a count, so a sub-batch runs those
steps alone, at most 3m of them whatever the clock. Occupancy bookkeeping
frees ions before the same step's new initializations, which is what lets a
fixed pool of 2jM (blind) or 2(Mk+j) (wait) comm ions cycle forever. Blocks
do not pipeline: a block's wall time in steps is rates.block_denominator,
the last slot's last event plus the swap and the readout, and every block
starts from empty traps.

Pool rule, for comm and memory ions alike: a node serves its left fiber side
first, an end node's whole pool serves its one side, and a link gets the
smaller of its two ends' grants. Starved attempts are tallied as drops only
where a pool is set: an unlimited pool grants every want and drops nothing.
Waiting for the herald, memory takes only heralded pairs and frees none
within a block, so a node's memory count is its heralded count. Each peak
is read only where its count can rise: comm at slot starts, blind memory at
a first-event step's end, heralded (so waiting memory) after the last step.

Determinism: blocks are seeded in fixed-size chunks of CHUNK_BLOCKS;
chunk c draws all of its randomness, block by block, from numpy's default
generator seeded with (seed, c). Merging counters is order-independent, so
results are bit-identical for a given (config, seed) no matter how the
blocks are batched.

Memory: a chunk is the unit of seeding and a sub-batch the unit of state.
The blocks run through the step loop in order, in sub-batches of
STATE_BYTES // (c (links + 1) (m + 3)) blocks, at least one, with c = 16 B
up to 65,535 modes and 20 B past them while the counts fit int32 (12 B more
past that). A sub-batch takes blocks from one chunk or several, and may end
inside a chunk: it draws each chunk's rows from that chunk's own generator,
which a chunk's first block starts and the next sub-batch goes on with. Its
uniforms, one per (block, link, slot, mode) in C order, are drawn a slice of
rows at a time into one reused float64 buffer of DRAW_BYTES, and SimConfig
rejects an M above DRAW_BYTES // 8, so a row of M modes always fits it; each
slice is reduced at once to the first successful mode per (block, link,
slot), in np.min_scalar_type(M), which is uint8 up to 255 modes: the slice's
hits are copied mode-major, mode i weighted M - i, and one max over the
modes gives M less the first hit, or 0 where a row has none, a handful of
whole-slice operations whatever M. The draws are block-major, and drawing
random(a) then random(b) yields the same stream as random(a + b), so neither
the slicing nor the sub-batching changes a result: a run is bit-identical
whatever its sub-batches, one block each or the whole run in one.

The state is allocated once a run, for its largest sub-batch, and each
sub-batch runs on the front of it. It is kept slot-major with blocks last:
the first successes, copied from their block-major order to m x links x
blocks, and three histories of m x (links or nodes) x blocks. Every count of
a block, in the histories, the per-node counters and a step's temporaries,
takes one signed type chosen from the config, _count_dtype: no count passes
2Mm, so int8 serves up to 2Mm = 126, int16 the headline point, int32 up to
2**31 - 2 and int64 past it. The step loop writes a slot's attempts and kept
pairs before it reads them, so only the blind loads, which it adds up, are
zeroed for each sub-batch. A block's state per (node, slot) is 3h B of
histories, h the counts' width, and w B each for the first successes and
their copy, with w = 1, 2 or 4 by M; c counts h as 4 B and w as 2 B at
least, so sub-batches are as large at int8 as at int32, and at uint8 the 2 B
to spare, an eighth of STATE_BYTES, cover the draw buffer, which is live
beside the state while a sub-batch draws. The per-node counters and a step's
temporaries, about ten counts a node and block, fit the m + 3 term's 3c B,
at least 9h + 12 B, so STATE_BYTES bounds both. A single block larger than
STATE_BYTES still runs alone, so its state is bounded only by a check of the
config before the run, which the simulator does not make.
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
    StepCountError,
    _check,
    _check_count,
    _store_int,
    swap_survival_factor,
)
from .rates import (RateReport, block_denominator, ceil_tol, derive_timing, ion_budgets,
                    link_success_prob, slot_events, waits_for_herald)

CHUNK_BLOCKS = 8192
DRAW_BYTES = 1 << 20  # the draw buffer, whatever the chunk or chain
STATE_BYTES = 16 << 20  # a sub-batch's block state, at least one block
SIGMA = 3.0  # validation's bound on block success, in binomial standard deviations


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
        _check(0.0 <= self.p <= 1.0, "p", "in [0, 1]", self.p)
        _check(self.tau_s > 0, "tau_s", "positive", self.tau_s)
        _check(self.tau_o_s > 0, "tau_o_s", "positive", self.tau_o_s)
        # counts may pass model.MAX_COUNT: k_steps reaches MAX_STEPS, a pool past
        # 2Mm, the most ions a node ever holds, binds nowhere, and a seed may be
        # any integer >= 0
        for name, low in (("j_steps", 1), ("k_steps", 1), ("num_blocks", 1),
                          ("n_comm_ions", 0), ("n_mem_ions", 0), ("seed", 0)):
            _check_count(name, getattr(self, name), low, high=None)
            _store_int(self, name)
        mux = self.layout.spatial_mux  # one row of draws fits the buffer
        _check(mux <= DRAW_BYTES // 8, "spatial_mux", f"<= {DRAW_BYTES // 8} to simulate", mux)

    @property
    def waits_for_herald(self) -> bool:
        # the analytic regime tests, read at the quantized times k tau, j tau
        return bool(waits_for_herald(self.k_steps * self.tau_s, self.j_steps * self.tau_s,
                                     self.tau_o_s))

    @property
    def block_steps(self) -> int:
        """Wall steps per block: the rate denominator at the integer j, k."""
        return int(block_denominator(self.waits_for_herald, self.k_steps,
                                     self.layout.time_mux, self.j_steps))

    @classmethod
    def from_profile(cls, layout: ChainLayout, hw: HardwareProfile, num_blocks: int, *,
                     p_override: Optional[float] = None, **fields) -> "SimConfig":
        """The config of layout on hw at j and k rounded up to whole steps, with
        p_override, when given, for the link's p; fields go to cls by name.
        A count that rounds to 0 steps raises StepCountError."""
        timing = derive_timing(layout, hw)
        j_steps, k_steps = int(ceil_tol(timing.j_steps)), int(ceil_tol(timing.k_steps))
        if j_steps < 1:
            raise StepCountError(("tau",), f"the step count tau_g/tau={timing.j_steps:.6g} "
                                           "rounds to j_steps=0, and must be at least 1")
        if k_steps < 1:
            raise StepCountError(("total_distance_km", "tau"),
                                 f"the step count T/tau={timing.k_steps:.6g} rounds to "
                                 "k_steps=0, and must be at least 1")
        p = link_success_prob(hw.optical, layout.link_length_km) \
            if p_override is None else p_override
        return cls(layout, j_steps, k_steps, hw.timing.tau, hw.timing.tau_o, p,
                   num_blocks=num_blocks, **fields)


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


def _fold(out: np.ndarray, left: np.ndarray, right: np.ndarray) -> None:
    """Add per-node totals of per-link sides to out: link i is node i + 1's
    left, node i's right."""
    out[1:] += left
    out[:-1] += right


def _grant(want: np.ndarray | int, used: np.ndarray, pool: int) -> tuple[np.ndarray, ...]:
    """(at_left, at_right, per_link): a per-link want, or one scalar want for
    every link, granted by the pool rule.

    at_left[i] is the grant of link i's right end, which serves it as its
    left side, and at_right[i] that of its left end. No grant exceeds its
    want. A pool of 0, unlimited, grants every want as it stands, without
    the budget arithmetic; any other pool must fit used's dtype.
    """
    if not pool:
        return want, want, want
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
    by one rng.random((rows, M)). The slice's hits are copied mode-major and
    weighted M - i at mode i, so the best weight over the modes of a row is
    M less its first hit, and 0 where it has none. The result takes the
    weights' dtype, np.min_scalar_type(M), which holds 0..M.
    """
    weight_dtype = np.min_scalar_type(big_m)  # uint8 up to 255 modes
    fsi = np.empty(rows, dtype=weight_dtype)
    per = max(1, DRAW_BYTES // (8 * big_m))
    buf = np.empty((min(per, rows), big_m))
    flags = np.empty(buf.shape, dtype=bool)
    by_mode = np.empty((big_m, len(buf)), dtype=weight_dtype)
    weights = np.arange(big_m, 0, -1, dtype=weight_dtype)[:, None]  # M - i at mode i
    for lo in range(0, rows, per):
        n = min(per, rows - lo)
        rng.random(out=buf[:n])
        hit = np.less(buf[:n], p, out=flags[:n])
        # copying the hits' 0/1 bytes as uint8 keeps the copy as fast as bool to bool
        score = by_mode[:, :n]
        np.copyto(score, hit.view(np.uint8).T)
        score *= weights
        np.subtract(big_m, np.maximum.reduce(score, axis=0), out=fsi[lo:lo + n])
    return fsi


def _event_steps(m: int, events) -> list[int]:
    """The steps where one of m slots starts or one of its two later events
    comes due, at most 3m whatever the clock; no other step changes a count."""
    return sorted({t for due in (0, *events) for t in range(due, due + m)})


def _count_dtype(layout: ChainLayout) -> np.dtype:
    """The signed integer type of a block's counts, the smallest to hold
    -2Mm and 2Mm: no node ever holds more than its 2M attempts in each of m
    slots, so no count, budget or difference of counts passes 2Mm either way.
    int8 up to 2Mm = 126, int16 up to 32,766, int32 up to 2**31 - 2 and
    int64 past it."""
    # a signed type's largest value is one less than its smallest's magnitude
    return np.min_scalar_type(-2 * layout.spatial_mux * layout.time_mux - 1)


def _histories(layout: ChainLayout, blocks: int) -> tuple[np.ndarray, ...]:
    """Room for the three per-slot histories of a sub-batch of up to
    `blocks` blocks, in _count_dtype: attempts and kept pairs per link, and
    loads per node."""
    m, n_links = layout.time_mux, layout.n_links
    return tuple(np.empty(m * width * blocks, dtype=_count_dtype(layout))
                 for width in (n_links, n_links, n_links + 1))


def _run_batch(config: SimConfig, fs: np.ndarray, hist: tuple[np.ndarray, ...],
               trace: Optional[list[str]]):
    """A sub-batch: its blocks run side by side on their first successes fs,
    slot-major (m, links, blocks), and on the room hist from _histories,
    which they overwrite; every count takes hist's dtype. Returns the
    per-block success mask, the peaks and the drops, which are summed from
    the histories only for a set pool and are 0 for an unlimited one. In the
    wait regime one array holds the memory and the heralded counts, equal at
    every step and never falling, so both peaks are read after the last
    step. A trace list gets block 0's lines at the end of each event step."""
    m, n_links, cb = fs.shape
    big_m = config.layout.spatial_mux
    wait = config.waits_for_herald
    e1, e2 = (int(e) for e in slot_events(wait, config.k_steps, config.j_steps))
    count = hist[0].dtype
    # no count passes 2Mm, so a pool past it binds nowhere, and the clamp
    # keeps its budget in the counts' dtype; a pool of 0 stays unlimited
    cap = 2 * big_m * m
    pool_c = min(config.n_comm_ions, cap)
    pool_m = min(config.n_mem_ions, cap)

    used_comm = np.zeros((n_links + 1, cb), dtype=count)
    used_mem = np.zeros_like(used_comm)
    heralded = used_mem if wait else np.zeros_like(used_comm)  # one count, waiting
    # per-slot history read when the slot's freeing step comes due: attempts
    # per link, the pair per link that may still succeed, and blind loads.
    # A slot's att and kept are written before they are read; its loads are
    # added up, so they start from zero
    att, kept = (h[:fs.size].reshape(fs.shape) for h in hist[:2])
    loaded = hist[2][:m * (n_links + 1) * cb].reshape(m, n_links + 1, cb)
    if not wait:
        loaded.fill(0)
    link_ok = np.zeros((n_links, cb), dtype=bool)
    freed_c = np.empty_like(used_comm)  # this step's frees, zeroed each step
    freed_m = np.empty_like(used_mem)  # blind second events' frees, zeroed there
    peaks = np.zeros(3, dtype=np.int64)
    her_before = np.zeros(n_links + 1, dtype=count)  # block 0's heralded, a step back

    for t in _event_steps(m, (e1, e2)):
        freed_c.fill(0)

        s = t - e1
        if 0 <= s < m:
            if wait:
                # heralds arrive: free every mode except the one kept for gating
                np.less(fs[s], att[s], out=kept[s])
                idle = att[s] - kept[s]
                _fold(freed_c, idle, idle)
            else:
                # blind gates complete: comm ions retire, all attempts load
                _fold(freed_c, att[s], att[s])
                at_left, at_right, kept[s] = _grant(att[s], used_mem, pool_m)
                _fold(loaded[s], at_left, at_right)  # each slot loads once
                used_mem += loaded[s]
        # second events run after first ones: blind with k <= j, both land on
        # the same step and the heralds are already in hand when the gate ends
        s = t - e2
        if 0 <= s < m:
            if wait:
                # gate done on the kept mode: comm ion retires, memory loads
                _fold(freed_c, kept[s], kept[s])
                _, _, pair_ok = _grant(kept[s], used_mem, pool_m)
                _fold(used_mem, pair_ok, pair_ok)  # and so heralded
                np.logical_or(link_ok, pair_ok, out=link_ok)
            else:
                # keep one surviving pair per link, free the rest of the loads
                surv = fs[s] < kept[s]
                link_ok |= surv
                held = freed_m  # the pairs kept, then the loads freed
                held.fill(0)
                _fold(held, surv, surv)
                heralded += held
                np.subtract(loaded[s], held, out=freed_m)
                used_mem -= freed_m

        used_comm -= freed_c

        if t < m:  # only inits raise the comm count
            _, _, att[t] = _grant(big_m, used_comm, pool_c)
            _fold(used_comm, att[t], att[t])
            peaks[0] = max(peaks[0], int(used_comm.max()))
        # gating blind, only a first event's loads raise the memory count; read
        # at the step's end, as a second event on the same step frees loads
        if not wait and 0 <= t - e1 < m:
            peaks[1] = max(peaks[1], int(used_mem.max()))
        if trace is not None:  # block 0 is column 0; each event comes once a step
            herald = heralded[:, 0] - her_before
            her_before = heralded[:, 0].copy()
            init, nothing = np.zeros_like(herald), np.zeros_like(herald)
            if t < m:
                _fold(init, att[t, :, 0], att[t, :, 0])
            # wait loads come with the herald, blind ones at the first event,
            # and blind frees of memory at the second
            s1, s2 = t - e1, t - e2
            load = herald if wait else loaded[s1, :, 0] if 0 <= s1 < m else nothing
            free_mem = freed_m[:, 0] if not wait and 0 <= s2 < m else nothing
            # then this step's gauges, which hold until the next event step
            lines = (("load_mem", load), ("herald", herald), ("free_comm", freed_c[:, 0]),
                     ("free_mem", free_mem), ("init", init),
                     ("comm_loaded", used_comm[:, 0]), ("mem_loaded", used_mem[:, 0]),
                     ("heralded", heralded[:, 0]))
            trace.extend(f"{t},{node},{event},{count}" for event, vals in lines
                         for node, count in enumerate(vals.tolist()) if count)

    peaks[2] = heralded.max()  # heralded pairs are never freed within a block
    if wait:  # and waiting, they are the memory count, so its peak too
        peaks[1] = peaks[2]
    # every slot's grants are in hand: blind drops count ions at an attempt's
    # two ends; wait drops count kept pairs, and heralded holds both ends of
    # each granted one. An unlimited pool grants every want, so its drops are
    # 0 without a sum over the histories
    dropped_comm = dropped_mem = 0
    if pool_c:
        dropped_comm = int(big_m * att.size - att.sum())
    if pool_m:
        if wait:
            dropped_mem = int(kept.sum() - heralded.sum() // 2)
        else:
            dropped_mem = int(2 * att.sum() - loaded.sum())
    return link_ok.all(axis=0), peaks, dropped_comm, dropped_mem


def run_protocol_sim(config: SimConfig) -> SimStats:
    """Simulate num_blocks independent protocol blocks and tally statistics.

    Pool exhaustion never aborts a block; starved attempts are counted in
    dropped_comm / dropped_mem. The optional trace covers block 0 only, as
    CSV lines "step,node,event,count"; a zero count is never written. Lines
    are written at event steps only, at most 3m of them whatever the clock:
    a step's events, then the gauges comm_loaded, mem_loaded and heralded,
    which hold until the next event step, as no count changes in between.
    """
    total = config.num_blocks
    lay = config.layout
    n_links, m, big_m = lay.n_links, lay.time_mux, lay.spatial_mux
    fs_dtype = np.min_scalar_type(big_m)
    # a block's state per (node, slot): three histories, counted at 4 B each
    # at least, and the first successes and their slot-major copy, counted at
    # 2 B each at least; a sub-batch is as many blocks as STATE_BYTES holds,
    # from one chunk or several
    state = 3 * max(_count_dtype(lay).itemsize, 4) + 2 * max(fs_dtype.itemsize, 2)
    per = max(1, STATE_BYTES // (state * (n_links + 1) * (m + 3)))
    # one state for the run, sized for its largest sub-batch; each runs on its front
    size = min(per, total)
    hist = _histories(lay, size)
    slot_major = np.empty(m * n_links * size, dtype=fs_dtype)
    successes = 0
    dropped_c = 0
    dropped_m = 0
    peaks = np.zeros(3, dtype=np.int64)
    trace = ["step,node,event,count"] if config.trace else None
    for lo in range(0, total, per):
        hi = min(lo + per, total)
        fs = slot_major[:m * n_links * (hi - lo)].reshape(m, n_links, hi - lo)
        # each chunk in the sub-batch draws its blocks' rows from its own
        # generator, started at the chunk's first block and gone on with by the
        # next sub-batch where the chunk runs past this one's end
        for c in range(lo // CHUNK_BLOCKS, (hi - 1) // CHUNK_BLOCKS + 1):
            start = max(lo, c * CHUNK_BLOCKS)
            stop = min(hi, (c + 1) * CHUNK_BLOCKS)
            if start == c * CHUNK_BLOCKS:
                rng = np.random.default_rng([config.seed, c])
            np.copyto(fs[:, :, start - lo:stop - lo],
                      _first_successes(rng, config.p, (stop - start) * n_links * m, big_m)
                      .reshape(stop - start, n_links, m).T)
        ok, pk, dc, dm = _run_batch(config, fs, hist, trace if lo == 0 else None)
        successes += int(ok.sum())
        dropped_c += dc
        dropped_m += dm
        peaks = np.maximum(peaks, pk)

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


def validate_against_analytic(config: SimConfig, report: RateReport) -> ValidationVerdict:
    """Run the simulator and compare it against an analytic RateReport."""
    return validate_stats(config, report, run_protocol_sim(config))


def validate_stats(config: SimConfig, report: RateReport,
                   stats: SimStats) -> ValidationVerdict:
    """Compare a finished run of config against an analytic RateReport.

    Block success must sit within SIGMA = 3 binomial standard deviations of
    the analytic value, and occupancy peaks within rates.ion_budgets at the
    integer j and k. The blind-regime comm peak must instead equal
    2M min(j, m), or the n_comm_ions pool where that is set and smaller, at
    every m: a slot holds M comm ions per side for j steps, and min(j, m)
    slots overlap. That cap is the one ion formula kept outside rates. It is
    wrong at n = 0, where an end node serves one side and peaks at
    M min(j, m), so a consistent run without repeaters fails it (a strict
    xfail in the tests).
    """
    expected = report.block_success
    sd = math.sqrt(max(expected * (1.0 - expected), 0.0) / config.num_blocks)
    diff = abs(stats.empirical_block_success - expected)
    z = diff / sd if sd > 0 else (0.0 if diff == 0 else math.inf)
    ok = z <= SIGMA
    checks = [f"block success: observed {stats.empirical_block_success:.6g} "
              f"vs analytic {expected:.6g}, z = {z:.3g}"]

    lay = config.layout
    m, big_m, j, k = lay.time_mux, lay.spatial_mux, config.j_steps, config.k_steps
    wait = config.waits_for_herald
    n_o, n_m = (int(v) for v in ion_budgets(wait, k, j, big_m, m))
    if wait:
        comm = ("<=", "2(Mk+j)", n_o)
    else:
        cap, label = 2 * big_m * min(j, m), "2M min(j, m)"
        if config.n_comm_ions:
            cap, label = min(cap, config.n_comm_ions), f"min({label}, n_comm_ions)"
        comm = ("==", label, cap)
    for name, got, (op, label, bound) in (
            ("comm", stats.peak_comm_loaded, comm),
            ("mem", stats.peak_mem_loaded, ("<=", "2m" if wait else "2Mm", n_m)),
            ("heralded", stats.peak_heralded, ("<=", "2m", 2 * m))):
        peak_ok = got == bound if op == "==" else got <= bound
        ok &= peak_ok
        checks.append(f"{name} peak {got} {op} {label} = {bound}: "
                      f"{'ok' if peak_ok else 'FAIL'}")
    pools_ok = True
    if config.n_comm_ions:
        pools_ok &= stats.peak_comm_loaded <= config.n_comm_ions
    if config.n_mem_ions:
        pools_ok &= stats.peak_mem_loaded <= config.n_mem_ions

    return ValidationVerdict(
        passed=ok and pools_ok,
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
    probability converges to Q(n). Trials are drawn DRAW_BYTES of uniforms
    at a time, in order: whole trials while a row of n fits, else one trial
    in pieces, so the draw size changes no result. Noise with x < 0 raises
    swap_survival_factor's ValueError, and x <= 1 always holds, so the flip
    probability is in [0, 1/2].
    """
    _check_count("trials", trials, 1, high=None)
    _check_count("n", n, 0, high=None)
    n, trials = int(n), int(trials)
    x = swap_survival_factor(noise)
    if n == 0:
        return 0.0
    flip_p = 0.5 * (1.0 - x)
    rng = np.random.default_rng([seed])
    odd = 0
    width = max(1, DRAW_BYTES // 8)  # uniforms a draw holds
    per = max(1, width // n)
    for lo in range(0, trials, per):
        flips = sum((rng.random((min(per, trials - lo), min(width, n - c))) < flip_p)
                    .sum(axis=1) for c in range(0, n, width))
        odd += int((flips % 2 == 1).sum())
    return odd / trials
