"""QAM modulation, hard-decision demapping, and error counting.

Square Gray-mapped constellations (4/16/64-QAM), unit average energy. A
symbol integer of b bits uses the first b/2 bits for the in-phase axis and
the last b/2 for quadrature; axis bit pattern 0...0 maps to the most positive
amplitude, so QPSK bits 00 -> (+1+j)/sqrt(2).
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .model import ChannelSet, Scenario, powers_from_ratios


def _binary_to_gray(b: np.ndarray) -> np.ndarray:
    return b ^ (b >> 1)


class Constellation:
    """Gray-mapped square QAM of the given order with E[|s|^2] = 1."""

    def __init__(self, order: int):
        if order not in (4, 16, 64):
            raise ValueError(f"unsupported order {order}")
        self.bits_per_symbol = int(np.log2(order))
        self.side = int(np.sqrt(order))
        axis_bits = self.bits_per_symbol // 2
        # axis amplitude for each axis bit pattern: level i, the i-th from
        # +(side-1) down, has the Gray pattern of i, so pattern 0 is most positive
        level = np.arange(self.side, dtype=np.int64)
        gray = _binary_to_gray(level)
        self.scale = float(np.sqrt(3.0 / (2.0 * (order - 1))))
        amp = np.empty(self.side)
        amp[gray] = ((self.side - 1) - 2 * level) * self.scale
        sym = np.arange(order, dtype=np.int64)
        self.points = amp[sym >> axis_bits] + 1j * amp[sym & (self.side - 1)]
        # the symbol index of the level pair (i, q), at i * side + q
        self._symbol = ((gray[:, None] << axis_bits) | gray).astype(np.uint8).ravel()
        # bit errors between two symbol indices: popcount of their XOR
        self._popcount = np.array([bin(i).count("1") for i in range(order)], dtype=np.uint8)

    def decide_in_place(self, est: np.ndarray) -> np.ndarray:
        """uint8 symbol index of the nearest point to every estimate
        est[0] + 1j * est[1], in units of the level spacing 2 scale: the levels
        are then the half-integers and the boundaries the integers. est, a
        float64 array, is overwritten: each axis by its nearest amplitude
        level, the real one then by the pair's index into a table of symbol
        indices. floor is exact, so an estimate an ulp off a boundary, 0 among
        them, is decided to its own side."""
        np.floor(est, out=est)
        np.subtract(self.side // 2 - 1, est, out=est)
        np.clip(est, 0, self.side - 1, out=est)
        li, lq = est
        li *= self.side
        li += lq  # exact in float64
        return np.take(self._symbol, li.astype(np.uint8), mode="clip")


# bytes of estimates decided at once: the real and imaginary parts of a
# (..., K, block) stack of equalized symbols
DETECT_BYTES = 1 << 18
# bytes of a trial's data stream drawn at once, in whole rows: int64 bits in
# make_frame, normals (with the symbol rows) in evaluate_equalizer
DRAW_BYTES = 1 << 21
# bytes of a trial's normals from which a chunk's trials are split between
# two lanes; never more lanes than the CPUs the process may run on. The desk
# profile's 500-symbol trials (288 000 B) run in two lanes, the 64-symbol
# trials of the chain_deep benchmark (36 864 B) in one: there two lanes read
# 0.061 -> 0.069 s in-process with a thread per call and 0.077 s with a kept
# thread, the GIL handed back and forth on each trial's Python work
LANE_BYTES = 1 << 17


@dataclass
class Frame:
    """One trial's batch of data REs: its symbols, and the point of its data
    stream where the noise starts. Neither the received block nor its noise
    is held.

    The received block Y = scale H S + sqrt(p_int) H_int X + sqrt(sigma2) Z is
    linear in the symbols S, the interference symbols X = (c + 1j d) / sqrt(2)
    and the thermal noise Z = (a + 1j b) / sqrt(2). The standard normals a and
    b (M x n_symbols), then c and d (K_int x n_symbols), follow the bits in the
    data stream, each row by row; c and d are drawn only with interference
    power, and X is zero without it. noise_state is the bit generator's state
    at the first of them, from which evaluate_equalizer replays them; the
    stream must be a PCG64 one. A run draws every trial's bits through its
    one generator, set to the trial's data stream (harness.set_stream):
    noise_state is a copy, which the generator's next trial leaves as it is.
    The transmitted bits are the MSB-first binary of the symbol indices.
    """
    sym: np.ndarray       # (K, n_symbols) uint8 symbol indices into the constellation
    noise_state: dict     # rng.bit_generator.state at the first normal of a


def make_frame(scenario: Scenario, n_symbols: int, rng: np.random.Generator,
               constellation: Constellation | None = None) -> Frame:
    """Draw a trial's bits from its data stream rng and keep the state of the
    stream after them, where the frame's normals start (see Frame). rng is
    left at that point.

    The bits are drawn DRAW_BYTES of whole user rows at a time. numpy draws
    them from the 32-bit halves of 64-bit words, so calls of an even count of
    bits (bits_per_symbol is even) draw the stream of one call over all K rows.
    """
    const = constellation or Constellation(scenario.constellation)
    K, bps = scenario.K, const.bits_per_symbol
    weights = 1 << np.arange(bps - 1, -1, -1)
    sym = np.empty((K, n_symbols), dtype=np.uint8)
    per = max(1, DRAW_BYTES // (8 * bps * max(n_symbols, 1)))
    for k in range(0, K, per):
        sym[k:k + per] = rng.integers(0, 2, size=(min(per, K - k), n_symbols, bps)) @ weights
    return Frame(sym, rng.bit_generator.state)


def _real_form(gains: list[np.ndarray]) -> np.ndarray:
    """The real forms [[Re P, -Im P], [Im P, Re P]] of (A, T, K, m) stacks of
    gains P, side by side in one T x 2AK x 2(sum of m) array, written into it
    part by part: trial t's matrix maps the rows [x; y] of every part to the
    real and imaginary parts of the sum of P[:, t] (x + 1j y) over the parts."""
    A, T, K = gains[0].shape[:3]
    G = np.empty((T, 2, A, K, 2 * sum(P.shape[-1] for P in gains)))
    c = 0
    for P in gains:
        P, m = np.moveaxis(P, 1, 0), P.shape[-1]
        G[:, 0, ..., c:c + m] = G[:, 1, ..., c + m:c + 2 * m] = P.real
        G[:, 1, ..., c:c + m] = P.imag
        np.negative(P.imag, out=G[:, 0, ..., c + m:c + 2 * m])
        c += 2 * m
    return G.reshape(T, 2 * A * K, -1)


def lane_count(n_trials: int, trial_bytes: int) -> int:
    """Lanes, 1 or 2, that evaluate a chunk of n_trials trials, each of
    trial_bytes of normals: 2 when a trial reaches LANE_BYTES, capped by the
    trials and by the CPUs of os.sched_getaffinity (so `taskset -c 0` gives
    one)."""
    if trial_bytes < LANE_BYTES or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(2, n_trials, len(os.sched_getaffinity(0)))


def group_plan(n_symbols: list[int], rows: int, AK: int, n_lanes: int) -> list[range]:
    """The groups of consecutive trials that a job of n_lanes lanes equalizes
    and decides in one stacked pass each (evaluate_equalizer), for trials of
    n_symbols[t] symbols, rows real rows (the symbol rows and the normals) and
    2 AK real estimates per symbol. On two lanes every group is one trial, as
    the lanes share the trials out one at a time. On one, the groups are the
    largest runs of trials of one frame length whose replayed rows fit
    DRAW_BYTES and whose estimates fit DETECT_BYTES; a trial that does not fit
    both alone is a group of one, replayed in blocks."""
    plan, first = [], 0
    for n, run in itertools.groupby(n_symbols):
        end, n = first + len(list(run)), max(n, 1)
        most = 1 if n_lanes > 1 else max(1, min(DRAW_BYTES // (8 * rows * n),
                                                 DETECT_BYTES // (16 * AK * n)))
        plan += [range(a, min(a + most, end)) for a in range(first, end, most)]
        first = end
    return plan


@functools.cache
def _openblas() -> tuple[tuple, ...]:
    """The (get, set) thread-count functions of every loaded library that
    /proc/self/maps names OpenBLAS and that exports them, as numpy's own
    wheels (scipy_openblas_*_num_threads64_) and a system OpenBLAS
    (openblas_*_num_threads) do; scipy's 32-bit wheel library does not, and
    numpy does not call it. Empty where that map cannot be read. Looked up at
    the first call, once per process (numpy's library loads with numpy)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({f[-1] for f in (line.split() for line in fh)
                            if len(f) >= 6 and "openblas" in os.path.basename(f[-1]).lower()})
    except OSError:
        return ()
    import ctypes
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get, put = (getattr(lib, name.format(verb), None) for verb in ("get", "set"))
            if get is not None and put is not None:
                get.restype, get.argtypes = ctypes.c_int, []
                put.restype, put.argtypes = None, [ctypes.c_int]
                found.append((get, put))
                break
    return tuple(found)


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's OpenBLAS at one thread (every library
    _openblas finds), each library's count restored after it, on return or
    raise; where it finds none, do nothing. A run's lanes are its
    parallelism: BLAS threads beside them would share their CPUs, and sum in
    another order on another count. The count is the process's: two blocks
    open at once in two threads restore each other's counts."""
    libs = _openblas()
    prior = [get() for get, _ in libs]
    for _, put in libs:
        put(1)
    try:
        yield
    finally:
        for (_, put), n in zip(libs, prior):
            put(n)


class _Lane:
    """A lane's buffers, each grown to the largest group of trials the lane
    has run (the group's estimates, and a block of its replayed rows), and its
    replay generator, whose state every trial sets."""

    def __init__(self):
        self.est = self.replay = np.empty(0)
        self.rng = np.random.Generator(np.random.PCG64(0))


def _take(work, units, lane: _Lane) -> None:
    for u in units:  # a two-lane job's shared iterator: under the GIL each next() is whole
        work(lane, u)


class Lanes:
    """The two detection lanes of a run, their buffers, and the job lane 1 holds.

    Lane 0 runs on the calling thread. Lane 1 is the one worker thread,
    chainmmse-lane-1_0, of a concurrent.futures.ThreadPoolExecutor made by the
    first two-lane job; the job's Future carries lane 1's error to wait(). The
    buffers are kept between jobs, so a chunk does not fault in again the pages
    of the chunk before. A with block runs BLAS at one thread (one_blas_thread)
    from its start to close(). close(), or the end of a with block, ends the
    job lane 1 holds unfinished, shuts the executor down, joining its thread,
    restores the BLAS thread count, and drops both lanes' buffers. A Lanes
    serves one caller at a time.
    """

    def __init__(self):
        self._lanes = (_Lane(), _Lane())
        self._pool = self._job = None
        self._blas = contextlib.ExitStack()

    def __enter__(self) -> Lanes:
        self._blas.enter_context(one_blas_thread())
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def start(self, work, units, n_lanes: int) -> None:
        """Join the job before (wait), then run work(lane, u) on each unit u
        of units: on one lane (n_lanes 1), before returning; on two, lane 1
        takes the job and start returns at once."""
        self.wait()
        if n_lanes == 1:
            return _take(work, units, self._lanes[0])
        if self._pool is None:
            from concurrent.futures import ThreadPoolExecutor
            self._pool = ThreadPoolExecutor(1, thread_name_prefix="chainmmse-lane-1")
        units = iter(units)
        self._job = work, units, self._pool.submit(_take, work, units, self._lanes[1])

    def wait(self) -> None:
        """Join lane 1's job, if any: the calling thread, as lane 0, takes the
        units lane 1 has not taken, one at a time, then waits for lane 1.
        Lane 0's error, else lane 1's, is raised, and both lanes stay usable."""
        if self._job is not None:
            (work, units, lane_1), self._job = self._job, None
            try:
                _take(work, units, self._lanes[0])
            finally:
                error = lane_1.exception()
            if error is not None:
                raise error

    def close(self) -> None:
        job, self._job = self._job, None
        for _ in job[1] if job else ():  # lane 1 takes no further unit of it
            pass
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
        self._blas.close()  # once lane 1's thread is joined
        self._lanes = (_Lane(), _Lane())


def evaluate_equalizer(W: np.ndarray, channels: ChannelSet, frames, scenario: Scenario,
                       constellation: Constellation | None = None, *,
                       lanes: Lanes, out: np.ndarray | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Equalize a chunk of T frames with a (..., T, K, M) stack of equalizers,
    W[..., t, :, :] on frames[t], hard-decide all users at once, and count bit
    and symbol errors on the symbol indices (the bits are the index's MSB-first
    binary). channels is the chunk's stack of T trials (model.stack_channels),
    and scenario the one the frames were made with.

    The estimates are W Y / scale in units of the level spacing 2 const.scale:
    (W H) S + (sqrt(p_int) / scale) (W H_int) X + (sqrt(sigma2) / scale) W Z,
    W's gain on each part of the frame, summed. The real form of each gain
    (_real_form) maps the real rows of its part to the real and imaginary
    estimates: [Re S; Im S], then the normals [a; b] and [c; d] of the frame's
    stream. The trials are equalized in groups of consecutive trials of one
    frame length (group_plan). Each trial of a group writes its symbol rows
    into its own slice of a buffer of its lane, and its normals are replayed
    after them from the frame's noise_state, in stream order. A group of one
    trial too long for one block is replayed DRAW_BYTES of whole rows at a
    time, and each block is folded into the estimates, held whole in a second
    buffer of the lane, as soon as it is drawn; a group of several trials is
    replayed in one block. Both products and the decisions, made in place on
    the estimates, run once per block as stacked calls over the group, in
    blocks of columns, DETECT_BYTES of estimates each. The groups are a job of
    lanes, the run's Lanes, whose lanes (one or two, see lane_count) take them
    one at a time from one shared counter; on two lanes each group is one trial.
    Each lane draws and equalizes the trials it takes, each trial with its own
    products, so the counts do not depend on the lanes or the groups.

    W, channels and each frame's sym (K rows) are checked against the chunk
    before any lane runs. Returns (bit_errors, symbol_errors), integers
    shaped W.shape[:-2]: the halves of out, an int64 (2,) + W.shape[:-2]
    array it overwrites, or of a new one. Without out they are complete on return. With out, lane 1 may
    still hold a two-lane job on return, while the caller builds the next
    chunk: they are complete, and the job's error raised, when the next call
    with these lanes returns, or lanes.wait() does.
    """
    const = constellation or Constellation(scenario.constellation)
    if W.shape[-3] != len(frames):
        raise ValueError(f"W: equalizers of {W.shape[-3]} trials for {len(frames)} frames")
    sigma2, p_int, scale = powers_from_ratios(scenario)
    lead, (T, K, M) = W.shape[:-3], W.shape[-3:]
    if channels.H.shape[0] != T:  # a stack of one would broadcast over the trials
        raise ValueError(f"channels: {channels.H.shape[0]} trials for {T} frames")
    for t, f in enumerate(frames):
        if f.sym.ndim != 2 or f.sym.shape[0] != K:
            raise ValueError(f"frame of trial {t}: sym shaped {f.sym.shape}, not K = {K} "
                             "rows of symbol indices")
    counts = np.empty((2,) + W.shape[:-2], dtype=np.int64) if out is None else out
    counts[...] = 0
    W = W.reshape((-1, T, K, M))
    AK = W.shape[0] * K
    # T x 2AK x rows: each trial's real form of its gains on S, Z, then X with
    # interference power, so its columns, the real rows per symbol, are in
    # stream order: [Re S; Im S], then the normals [a; b] and [c; d]
    gains = [W @ channels.H, W * (math.sqrt(sigma2 / 2) / scale)]
    if p_int > 0.0:
        gains.append((W @ channels.H_int) * (math.sqrt(p_int / 2) / scale))
    G = _real_form(gains)
    del gains  # freed before the lanes run
    G *= 0.5 / const.scale  # the estimates in units of the level spacing
    rows = G.shape[-1]
    block = max(1, DETECT_BYTES // (16 * AK))
    to_counts = tuple(range(1, len(lead) + 1)) + (0,)  # a group's (g,) + lead axes to lead + (g,)

    def work(lane, group):
        g, ts, syms = len(group), slice(group.start, group.stop), [frames[t].sym for t in group]
        n = syms[0].shape[1]
        per = max(2 * K, min(rows, DRAW_BYTES // (8 * max(n, 1))))  # rows in block one
        if lane.replay.size < g * per * n:
            lane.replay = np.empty(g * per * n)
        if lane.est.size < g * 2 * AK * n:
            lane.est = np.empty(g * 2 * AK * n)
        # the estimates by blocks of columns, each a contiguous part of est
        blocks = [(slice(c, c + block), lane.est[g * 2 * AK * c:g * 2 * AK * min(c + block, n)]
                   .reshape(g, 2 * AK, -1)) for c in range(0, n, block)]
        # the group's symbols, broadcast over the lead axes of its decisions
        sym = (syms[0] if g == 1 else np.stack(syms)).reshape((g,) + (1,) * len(lead) + (K, n))
        rng = lane.rng
        for r in range(0, rows, per):
            h = min(per, rows - r)
            x = lane.replay[:g * h * n].reshape(g, h, n)
            for i, t in enumerate(group):
                if r == 0:
                    np.take(const.points.real, syms[i], out=x[i, :K], mode="clip")
                    np.take(const.points.imag, syms[i], out=x[i, K:2 * K], mode="clip")
                    rng.bit_generator.state = frames[t].noise_state  # refuses a non-PCG64 state
                rng.standard_normal(out=x[i, 2 * K:] if r == 0 else x[i])
            for cols, e in blocks:
                if r == 0:
                    np.matmul(G[ts, :, :h], x[..., cols], out=e)
                else:
                    e += G[ts, :, r:r + h] @ x[..., cols]
                if r + h < rows:
                    continue
                # the block's last use: decided in place, the real and
                # imaginary estimates of every trial first
                est = e.reshape(g, 2, AK, -1).swapaxes(0, 1)
                wrong = const.decide_in_place(est).reshape((g,) + lead + (K, -1))
                wrong ^= sym[..., cols]
                bits = const._popcount[wrong].sum(axis=(-2, -1), dtype=np.int64)
                counts[0, ..., ts] += bits.transpose(to_counts)
                counts[1, ..., ts] += np.count_nonzero(wrong, axis=(-2, -1)).transpose(to_counts)

    n_lanes = lane_count(T, 8 * (rows - 2 * K) * max(f.sym.shape[1] for f in frames))
    lanes.start(work, group_plan([f.sym.shape[1] for f in frames], rows, AK, n_lanes), n_lanes)
    if out is None:
        lanes.wait()
    return counts[0], counts[1]
