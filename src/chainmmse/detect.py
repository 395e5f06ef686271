"""QAM modulation, hard-decision demapping, and error counting.

Square Gray-mapped constellations (4/16/64-QAM), unit average energy. A
symbol integer of b bits uses the first b/2 bits for the in-phase axis and
the last b/2 for quadrature; axis bit pattern 0...0 maps to the most positive
amplitude, so QPSK bits 00 -> (+1+j)/sqrt(2).
"""
from __future__ import annotations

import math
import os
import threading
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
        self.order = order
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

    def decide(self, re: np.ndarray, im: np.ndarray) -> np.ndarray:
        """Symbol index of the nearest point to every estimate re + 1j * im."""
        return self.decide_in_place(np.stack([re, im]))

    def decide_in_place(self, est: np.ndarray) -> np.ndarray:
        """uint8 symbol index of the nearest point to every estimate
        est[0] + 1j * est[1]. est, a float64 array, is overwritten: each axis
        by its nearest amplitude level, the real one then by the pair's index
        into a table of symbol indices."""
        np.divide(est, self.scale, out=est)
        np.subtract(self.side - 1, est, out=est)
        est /= 2.0
        np.rint(est, out=est)
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
# LANES lanes; never more lanes than the CPUs the process may run on. The desk
# profile's 500-symbol trials (288 000 B) run in two lanes, the 64-symbol
# trials of the chain_deep benchmark (36 864 B) in one: there two lanes read
# 0.061 -> 0.069 s in-process with a thread per call and 0.077 s with a kept
# thread, the GIL handed back and forth on each trial's Python work
LANE_BYTES = 1 << 17
LANES = 2


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
    stream must be a PCG64 one, as every stream of harness.trial_rngs is. The
    transmitted bits are the MSB-first binary of the symbol indices.
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


def _real_form(Q: np.ndarray) -> np.ndarray:
    """The real matrices [[Re Q, -Im Q], [Im Q, Re Q]] of a (..., r, m) stack:
    each maps the rows [x; y] to the real and imaginary parts of Q (x + 1j y)."""
    return np.concatenate([np.concatenate([Q.real, -Q.imag], axis=-1),
                           np.concatenate([Q.imag, Q.real], axis=-1)], axis=-2)


def lanes(n_trials: int, trial_bytes: int) -> int:
    """Threads that evaluate a chunk of n_trials trials, each of trial_bytes of
    normals: LANES when a trial reaches LANE_BYTES, capped by the trials and
    by the CPUs of os.sched_getaffinity (so `taskset -c 0` gives one)."""
    if trial_bytes < LANE_BYTES or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(LANES, n_trials, len(os.sched_getaffinity(0)))


class _Lane:
    """A lane's buffers, each grown to the largest trial the lane has run (the
    trial's estimates, and a block of its replayed rows), and its replay
    generator, whose state every trial sets."""

    def __init__(self, index: int):
        self.index = index
        self.est = self.replay = np.empty(0)
        self.rng = np.random.Generator(np.random.PCG64(0))


def _attempt(work, lane: _Lane, n_lanes: int) -> BaseException | None:
    try:
        work(lane, n_lanes)
    except BaseException as exc:  # re-raised on the calling thread
        return exc
    return None


class Lanes:
    """The detection lanes of a run and their buffers.

    Lane 0 runs on the calling thread, and each of lanes 1 .. LANES - 1 on a
    thread of its own, started by the first call that needs it and fed
    through a queue.SimpleQueue. The buffers are kept between calls, so a
    chunk does not fault in again the pages of the chunk before. close(), or
    the end of a with block, joins the threads and drops the buffers. A Lanes
    serves one caller at a time.
    """

    def __init__(self):
        self._lanes = [_Lane(i) for i in range(LANES)]
        self._threads = []  # (thread, its queue of work) of lanes 1, 2, ...

    def __enter__(self) -> Lanes:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def run(self, work, n_trials: int, trial_bytes: int) -> None:
        """work(lane, n_lanes) on each of the first n_lanes = lanes(n_trials,
        trial_bytes) lanes, all done before returning. The error of the lowest
        lane that failed is raised, and every lane stays usable."""
        n_lanes = lanes(n_trials, trial_bytes)
        for lane in self._lanes[1:n_lanes]:
            self._queue(lane).put((work, n_lanes))
        errors = {0: _attempt(work, self._lanes[0], n_lanes)}
        errors.update(self._done.get() for _ in range(1, n_lanes))
        for index in sorted(errors):
            if errors[index] is not None:
                raise errors[index]

    def _queue(self, lane: _Lane):
        """The work queue of lane's thread, which is started with it."""
        if len(self._threads) < lane.index:
            import queue
            if not self._threads:
                self._done = queue.SimpleQueue()  # (lane index, its error or None)
            todo = queue.SimpleQueue()
            thread = threading.Thread(target=self._serve, args=(lane, todo),
                                      name=f"chainmmse-lane-{lane.index}", daemon=True)
            thread.start()
            self._threads.append((thread, todo))
        return self._threads[lane.index - 1][1]

    def _serve(self, lane: _Lane, todo) -> None:
        while (item := todo.get()) is not None:
            self._done.put((lane.index, _attempt(item[0], lane, item[1])))

    def close(self) -> None:
        for _, todo in self._threads:
            todo.put(None)
        for thread, _ in self._threads:
            thread.join()
        self._threads = []
        self._lanes = [_Lane(i) for i in range(LANES)]


def evaluate_equalizer(W: np.ndarray, channels: ChannelSet, frames, scenario: Scenario,
                       constellation: Constellation | None = None,
                       lanes: Lanes | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Equalize a chunk of T frames with a (..., T, K, M) stack of equalizers,
    W[..., t, :, :] on frames[t], hard-decide all users at once, and count bit
    and symbol errors on the symbol indices (the bits are the index's MSB-first
    binary). channels is the chunk's stack of T trials (model.stack_trials),
    and scenario the one the frames were made with.

    The estimates W Y / scale are W's gain on each part of the frame, summed:
    (W H) S + (sqrt(p_int) / scale) (W H_int) X + (sqrt(sigma2) / scale) W Z.
    The real form of each gain (_real_form) maps the real rows of its part to
    the real and imaginary estimates: [Re S; Im S], then the normals [a; b]
    and [c; d] of the frame's stream. A trial's estimates start from its
    symbols. Its normals are then replayed from the frame's noise_state in
    stream order, DRAW_BYTES of whole rows at a time into a buffer of its
    lane, and each block is folded into the estimates, held whole in a second
    buffer of the lane, as soon as it is drawn. Both products and the
    decisions, made in place on the estimates, run in blocks of columns,
    DETECT_BYTES of estimates each. The trials are split between the lanes of
    lanes, a Lanes (see lanes for how many; one opened and closed for this
    call if None), each of which draws and equalizes its own trials, so the
    counts do not depend on the lanes.

    Returns (bit_errors, symbol_errors), integers shaped W.shape[:-2].
    """
    const = constellation or Constellation(scenario.constellation)
    if W.shape[-3] != len(frames):
        raise ValueError(f"W: equalizers of {W.shape[-3]} trials for {len(frames)} frames")
    sigma2, p_int, scale = powers_from_ratios(scenario)
    lead, (T, K, M) = W.shape[:-3], W.shape[-3:]
    if channels.H.shape[0] != T:  # a stack of one would broadcast over the trials
        raise ValueError(f"channels: {channels.H.shape[0]} trials for {T} frames")
    W = W.reshape((-1, T, K, M))
    AK = W.shape[0] * K
    # T x 2AK x rows: each trial's real form of its gains on S, Z, then X with
    # interference power, so its columns, the real rows per symbol, are in
    # stream order: [Re S; Im S], then the normals [a; b] and [c; d]
    gains = [W @ channels.H, W * (math.sqrt(sigma2 / 2) / scale)]
    if p_int > 0.0:
        gains.append((W @ channels.H_int) * (math.sqrt(p_int / 2) / scale))
    G = np.concatenate([_real_form(np.moveaxis(P, 1, 0).reshape(T, AK, -1)) for P in gains],
                       axis=-1)
    del gains  # freed before the lanes run
    rows = G.shape[-1]
    block = max(1, DETECT_BYTES // (16 * AK))
    counts = np.zeros((2, W.shape[0], T), dtype=np.int64)

    def work(lane, n_lanes):
        for t in range(lane.index, T, n_lanes):
            frame = frames[t]
            n = frame.sym.shape[1]
            per = max(2 * K, min(rows, DRAW_BYTES // (8 * max(n, 1))))  # symbols in block one
            if lane.replay.size < per * n:
                lane.replay = np.empty(per * n)
            if lane.est.size < 2 * AK * n:
                lane.est = np.empty(2 * AK * n)
            # the estimates by blocks of columns, each a contiguous part of est
            blocks = [(slice(c, c + block),
                       lane.est[2 * AK * c:2 * AK * min(c + block, n)].reshape(2 * AK, -1))
                      for c in range(0, n, block)]
            rng = lane.rng
            rng.bit_generator.state = frame.noise_state  # refuses a non-PCG64 state
            for r in range(0, rows, per):
                h = min(per, rows - r)
                x = lane.replay[:h * n].reshape(h, n)
                if r == 0:
                    np.take(const.points.real, frame.sym, out=x[:K], mode="clip")
                    np.take(const.points.imag, frame.sym, out=x[K:2 * K], mode="clip")
                rng.standard_normal(out=x[2 * K:] if r == 0 else x)
                for cols, e in blocks:
                    if r == 0:
                        np.matmul(G[t, :, :h], x[:, cols], out=e)
                    else:
                        e += G[t, :, r:r + h] @ x[:, cols]
                    if r + h < rows:
                        continue
                    # the block's last use: decided in place
                    wrong = const.decide_in_place(e.reshape(2, AK, -1)).reshape(-1, K, e.shape[-1])
                    wrong ^= frame.sym[:, cols]
                    counts[0, :, t] += const._popcount[wrong].sum(axis=(-2, -1),
                                                                  dtype=np.int64)
                    counts[1, :, t] += np.count_nonzero(wrong, axis=(-2, -1))

    trial_bytes = 8 * (rows - 2 * K) * max(f.sym.shape[1] for f in frames)
    if lanes is not None:
        lanes.run(work, T, trial_bytes)
    else:
        with Lanes() as own:
            own.run(work, T, trial_bytes)
    return counts[0].reshape(lead + (T,)), counts[1].reshape(lead + (T,))
