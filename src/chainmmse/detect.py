"""QAM modulation, hard-decision demapping, and error counting.

Square Gray-mapped constellations (4/16/64-QAM), unit average energy. A
symbol integer of b bits uses the first b/2 bits for the in-phase axis and
the last b/2 for quadrature; axis bit pattern 0...0 maps to the most positive
amplitude, so QPSK bits 00 -> (+1+j)/sqrt(2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import ChannelSet, Scenario, powers_from_ratios


def _gray_to_binary(g: np.ndarray) -> np.ndarray:
    b = g.copy()
    for shift in (1, 2, 4):  # prefix XOR of up to 8 bits
        b ^= b >> shift
    return b


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
        # axis amplitude for each axis bit pattern: Gray-decode to a level
        # index, levels descend from +(side-1) so pattern 0 is most positive
        patterns = np.arange(self.side, dtype=np.int64)
        level = _gray_to_binary(patterns)
        amp = (self.side - 1) - 2 * level
        self.scale = float(np.sqrt(3.0 / (2.0 * (order - 1))))
        self._amp = amp.astype(float) * self.scale
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


def _symbol_indices(bits: np.ndarray, bps: int,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Symbol index of every group of bps bits along the last axis, MSB first."""
    weights = 1 << np.arange(bps - 1, -1, -1)
    return np.matmul(bits.reshape(bits.shape[:-1] + (-1, bps)), weights, out=out)


@dataclass
class Frame:
    """One batch of data REs, held by its parts and never as the received block.

    The received block Y = scale H S + sqrt(p_int) H_int X + sqrt(sigma2) Z is
    linear in its parts: the symbols S, the interference symbols
    X = (c + 1j d) / sqrt(2) and the thermal noise Z = (a + 1j b) / sqrt(2),
    with a, b, c, d blocks of standard normals. parts holds the real and the
    imaginary rows of the stacked block [S; a + 1j b; c + 1j d]: the rows
    [Re S; a; c] and [Im S; b; d]. X is zero where the scenario has no
    interference power. The transmitted bits are the MSB-first binary of the
    symbol indices.
    """
    channels: ChannelSet  # H (M x K) and H_int (M x K_int) of the frame
    sym: np.ndarray       # (K, n_symbols) symbol indices into the constellation
    parts: np.ndarray     # (2, K + M + K_int, n_symbols) real rows, as above


def make_frame(channels: ChannelSet, scenario: Scenario, n_symbols: int,
               rng: np.random.Generator,
               constellation: Constellation | None = None,
               out: Frame | None = None) -> Frame:
    """Generate data REs with fresh colored noise over the same interference channel.

    The data stream gives the bits, then the thermal normals a and b, then,
    with interference power, the normals c and d of the interference symbols.
    out, a frame that make_frame returned for the same K, M, K_int and
    n_symbols, is refilled in place and returned; its values are those of a
    new frame.
    """
    const = constellation or Constellation(scenario.constellation)
    (M, K), K_int = channels.H.shape, channels.H_int.shape[-1]
    shape = (2, K + M + K_int, n_symbols)
    if out is None:
        out = Frame(channels, sym=np.empty((K, n_symbols), dtype=np.int64),
                    parts=np.empty(shape))
    elif out.sym.shape != (K, n_symbols) or out.parts.shape != shape:
        raise ValueError(f"out: frame of K={out.sym.shape[0]}, {out.parts.shape[1]} rows "
                         f"of parts, {out.sym.shape[1]} symbols cannot hold K={K}, M={M}, "
                         f"{n_symbols} symbols with K_int={K_int}")
    out.channels = channels
    _, p_int, _ = powers_from_ratios(scenario)
    bits = rng.integers(0, 2, size=(K, n_symbols * const.bits_per_symbol))
    _symbol_indices(bits, const.bits_per_symbol, out=out.sym)
    re, im = out.parts
    np.take(const.points.real, out.sym, out=re[:K], mode="clip")
    np.take(const.points.imag, out.sym, out=im[:K], mode="clip")
    # a, then b: two calls draw the stream of one call over both blocks
    rng.standard_normal(out=re[K:K + M])
    rng.standard_normal(out=im[K:K + M])
    if K_int > 0 and p_int > 0.0:
        rng.standard_normal(out=re[K + M:])
        rng.standard_normal(out=im[K + M:])
    else:
        out.parts[:, K + M:] = 0.0
    return out


# bytes of estimates decided at once: the real and imaginary parts of a
# (..., K, block) stack of equalized symbols
DETECT_BYTES = 1 << 18


def evaluate_equalizer(W: np.ndarray, frame: Frame, scenario: Scenario,
                       constellation: Constellation | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Equalize a frame with a K x M equalizer or a (..., K, M) stack of them,
    hard-decide all users at once, and count bit and symbol errors on the
    symbol indices (the bits are the index's MSB-first binary). scenario is
    the one the frame was made with.

    The estimates W Y / scale are W's gain on each part of the frame, summed:
    (W H) S + (sqrt(p_int) / scale) (W H_int) X + (sqrt(sigma2) / scale) W Z.
    The gains form one complex matrix P over the frame's stacked block, and
    its real form [[Re P, -Im P], [Im P, Re P]] maps the frame's real rows to
    the real and imaginary estimates. The frame is equalized and decided in
    blocks of columns, one real product of DETECT_BYTES of estimates each.

    Returns (bit_errors, symbol_errors), integers over W's leading axes.
    """
    const = constellation or Constellation(scenario.constellation)
    sigma2, p_int, scale = powers_from_ratios(scenario)
    H, H_int = frame.channels.H, frame.channels.H_int
    lead, K = W.shape[:-2], W.shape[-2]
    P = np.concatenate([W @ H, W * (math.sqrt(sigma2 / 2) / scale),
                        (W @ H_int) * (math.sqrt(p_int / 2) / scale)], axis=-1)
    P = P.reshape(-1, P.shape[-1])
    G = np.concatenate([np.concatenate([P.real, -P.imag], axis=-1),
                        np.concatenate([P.imag, P.real], axis=-1)])
    AK = P.shape[0]
    rows = frame.parts.reshape(G.shape[-1], -1)
    block = max(1, DETECT_BYTES // (16 * AK))
    bit_errors = np.zeros(lead, dtype=np.int64)
    symbol_errors = np.zeros(lead, dtype=np.int64)
    for first in range(0, rows.shape[-1], block):
        cols = slice(first, first + block)
        est = G @ rows[:, cols]
        sym = const.decide(est[:AK], est[AK:]).reshape(lead + (K, -1))
        wrong = sym ^ frame.sym[:, cols]
        bit_errors += const._popcount[wrong].sum(axis=(-2, -1))
        symbol_errors += np.count_nonzero(wrong, axis=(-2, -1))
    return bit_errors, symbol_errors
