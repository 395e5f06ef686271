"""QAM modulation, hard-decision demapping, and error counting.

Square Gray-mapped constellations (4/16/64-QAM), unit average energy. A
symbol integer of b bits uses the first b/2 bits for the in-phase axis and
the last b/2 for quadrature; axis bit pattern 0...0 maps to the most positive
amplitude, so QPSK bits 00 -> (+1+j)/sqrt(2).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import ChannelSet, Scenario, draw_colored_noise, powers_from_ratios


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

    def decide(self, s_hat: np.ndarray) -> np.ndarray:
        """Symbol index of the nearest point to every entry of s_hat."""
        a_i, a_q = self._decide_axis(s_hat.real), self._decide_axis(s_hat.imag)
        return (a_i << self._axis_bits) | a_q


def _symbol_indices(bits: np.ndarray, bps: int,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Symbol index of every group of bps bits along the last axis, MSB first."""
    weights = 1 << np.arange(bps - 1, -1, -1)
    return np.matmul(bits.reshape(bits.shape[:-1] + (-1, bps)), weights, out=out)


@dataclass(frozen=True)
class Frame:
    """One batch of data REs: transmitted symbols and the received block.

    The transmitted bits are the MSB-first binary of the symbol indices.
    """
    sym: np.ndarray       # (K, n_symbols) symbol indices into the constellation
    symbols: np.ndarray   # (K, n_symbols), unit average energy
    Y: np.ndarray         # (M, n_symbols)
    work: np.ndarray = field(repr=False)  # (M, n_symbols) scratch of make_frame


def make_frame(channels: ChannelSet, scenario: Scenario, n_symbols: int,
               rng: np.random.Generator,
               constellation: Constellation | None = None,
               out: Frame | None = None) -> Frame:
    """Generate data REs with fresh colored noise over the same interference channel.

    out, a frame that make_frame returned for the same K, M and n_symbols, is
    refilled in place and returned; its values are those of a new frame.
    """
    const = constellation or Constellation(scenario.constellation)
    M, K = channels.H.shape
    if out is None:
        out = Frame(sym=np.empty((K, n_symbols), dtype=np.int64),
                    symbols=np.empty((K, n_symbols), dtype=complex),
                    Y=np.empty((M, n_symbols), dtype=complex),
                    work=np.empty((M, n_symbols), dtype=complex))
    elif ({out.sym.shape, out.symbols.shape} != {(K, n_symbols)}
          or {out.Y.shape, out.work.shape} != {(M, n_symbols)}):
        raise ValueError(f"out: frame of K={out.sym.shape[0]}, M={out.Y.shape[0]}, "
                         f"{out.Y.shape[1]} symbols cannot hold K={K}, M={M}, "
                         f"{n_symbols} symbols")
    sigma2, p_int, scale = powers_from_ratios(scenario)
    bits = rng.integers(0, 2, size=(K, n_symbols * const.bits_per_symbol))
    _symbol_indices(bits, const.bits_per_symbol, out=out.sym)
    np.take(const.points, out.sym, out=out.symbols, mode="clip")
    Y, work = out.Y, out.work
    draw_colored_noise(channels, sigma2, p_int, n_symbols, rng, out=Y, work=work)
    np.matmul(channels.H, out.symbols, out=work)
    work *= scale
    Y += work
    return out


# bytes of equalized symbols, a (..., K, block) complex stack, decided at once
DETECT_BYTES = 1 << 18


def evaluate_equalizer(W: np.ndarray, frame: Frame, scenario: Scenario,
                       constellation: Constellation | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Equalize a frame with a K x M equalizer or a (..., K, M) stack of them,
    hard-decide all users at once, and count bit and symbol errors on the
    symbol indices (the bits are the index's MSB-first binary). The frame is
    equalized and decided in blocks of columns, DETECT_BYTES of W @ Y each.

    Returns (bit_errors, symbol_errors), integers over W's leading axes.
    """
    const = constellation or Constellation(scenario.constellation)
    _, _, scale = powers_from_ratios(scenario)
    block = max(1, DETECT_BYTES // (16 * (W.size // W.shape[-1])))
    bit_errors = np.zeros(W.shape[:-2], dtype=np.int64)
    symbol_errors = np.zeros(W.shape[:-2], dtype=np.int64)
    for first in range(0, frame.Y.shape[-1], block):
        cols = slice(first, first + block)
        s_hat = W @ frame.Y[:, cols]
        parts = s_hat.view(float)   # real and imaginary parts side by side
        parts *= 1 / scale          # the bits of s_hat /= scale, in a real loop
        wrong = const.decide(s_hat) ^ frame.sym[:, cols]
        bit_errors += const._popcount[wrong].sum(axis=(-2, -1))
        symbol_errors += np.count_nonzero(wrong, axis=(-2, -1))
    return bit_errors, symbol_errors
