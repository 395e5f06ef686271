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
        self._axis_bits = self.bits_per_symbol // 2
        # axis amplitude for each axis bit pattern: level i, the i-th from
        # +(side-1) down, has the Gray pattern of i, so pattern 0 is most positive
        level = np.arange(self.side, dtype=np.int64)
        self.scale = float(np.sqrt(3.0 / (2.0 * (order - 1))))
        self._amp = np.empty(self.side)
        self._amp[_binary_to_gray(level)] = ((self.side - 1) - 2 * level) * self.scale
        sym = np.arange(order, dtype=np.int64)
        a_i = sym >> self._axis_bits
        a_q = sym & (self.side - 1)
        self.points = self._amp[a_i] + 1j * self._amp[a_q]
        # bit errors between two symbol indices: popcount of their XOR
        self._popcount = np.array([bin(i).count("1") for i in range(order)])

    def _decide_axis(self, x: np.ndarray) -> np.ndarray:
        """Nearest amplitude level -> axis bit pattern."""
        level = np.clip(np.round(((self.side - 1) - x / self.scale) / 2.0),
                        0, self.side - 1).astype(np.int64)
        return _binary_to_gray(level)

    def decide(self, re: np.ndarray, im: np.ndarray) -> np.ndarray:
        """Symbol index of the nearest point to every estimate re + 1j * im."""
        return (self._decide_axis(re) << self._axis_bits) | self._decide_axis(im)


# bytes of estimates decided at once: the real and imaginary parts of a
# (..., K, block) stack of equalized symbols
DETECT_BYTES = 1 << 18
# bytes of a trial's data stream drawn at once, in whole rows: int64 bits in
# make_frame, normals (with the symbol rows) in evaluate_equalizer
DRAW_BYTES = 1 << 21
# bytes of a trial's normals from which a chunk's trials are split between
# LANES threads; never more lanes than the CPUs the process may run on
LANE_BYTES = 1 << 22
LANES = 2
# each thread's lane buffers and replay generator, kept between calls: the
# calling thread runs a lane in every call, and buffers freed after each
# chunk would fault their pages in again in the next
_kept = threading.local()


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


def _in_lanes(work, n_lanes: int) -> None:
    """work(lane) for every lane, lane 0 on the calling thread and the others
    on threads of their own, all joined before returning; the first error of
    a lane is raised."""
    errors = []

    def run(lane):
        try:
            work(lane)
        except BaseException as exc:  # re-raised on the calling thread
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(lane,)) for lane in range(1, n_lanes)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def evaluate_equalizer(W: np.ndarray, channels: ChannelSet, frames, scenario: Scenario,
                       constellation: Constellation | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
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
    stream order, DRAW_BYTES of whole rows at a time into a buffer that each
    lane keeps (see _kept), and each block is folded into the estimates, held
    whole in a second such buffer, as soon as it is drawn. Both products and
    the decisions run in blocks of columns, DETECT_BYTES of estimates each.
    The trials are split between lanes (see lanes), each a thread that draws
    and equalizes its own trials, so the counts do not depend on the lanes.

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
    n_lanes = lanes(T, 8 * (rows - 2 * K) * max(f.sym.shape[1] for f in frames))

    def lane(first):
        kept = getattr(_kept, "buffers", None)
        est, replay, rng = kept or (np.empty(0), np.empty(0),
                                    np.random.Generator(np.random.PCG64()))
        for t in range(first, T, n_lanes):
            frame = frames[t]
            n = frame.sym.shape[1]
            per = max(2 * K, min(rows, DRAW_BYTES // (8 * max(n, 1))))  # symbols in block one
            if replay.size < per * n:
                replay = np.empty(per * n)
            if est.size < 2 * AK * n:
                est = np.empty(2 * AK * n)
            # the estimates by blocks of columns, each a contiguous part of est
            blocks = [(slice(c, c + block),
                       est[2 * AK * c:2 * AK * min(c + block, n)].reshape(2 * AK, -1))
                      for c in range(0, n, block)]
            rng.bit_generator.state = frame.noise_state  # refuses a non-PCG64 state
            for r in range(0, rows, per):
                h = min(per, rows - r)
                x = replay[:h * n].reshape(h, n)
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
                    wrong = const.decide(e[:AK], e[AK:]).reshape(-1, K, e.shape[-1])
                    wrong ^= frame.sym[:, cols]
                    counts[0, :, t] += const._popcount[wrong].sum(axis=(-2, -1))
                    counts[1, :, t] += np.count_nonzero(wrong, axis=(-2, -1))
        _kept.buffers = est, replay, rng

    _in_lanes(lane, n_lanes)
    return counts[0].reshape(lead + (T,)), counts[1].reshape(lead + (T,))
